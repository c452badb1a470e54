"""Cross-backend equivalence: the serial and threads executors must be
observationally identical.

The executor layer changes *how fast the wall clock runs*, never what is
computed: index contents, query answers, ledger stage structure (labels,
task counts, analytic io/network charges), and partition layouts are all
asserted equal against the serial reference.  Measured CPU seconds are
the one quantity that legitimately varies between backends, so they are
only sanity-checked.

``jobs=2`` is passed explicitly so the parallel paths are exercised even
on single-core CI runners (jobs=1 short-circuits to inline execution).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.cluster.executors import make_executor
from repro.core import (
    TardisConfig,
    build_tardis_index,
    exact_match,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from repro.core.batch import batch_exact_match, batch_knn_target_node
from repro.tsdb import random_walk

BACKENDS = ("serial", "threads")

N_SERIES = 900
CONFIG_KW = dict(g_max_size=150, l_max_size=25, pth=4)


def _executor(kind):
    return make_executor(kind, jobs=2)


@pytest.fixture(scope="module")
def dataset():
    return random_walk(N_SERIES, length=64, seed=1234).z_normalized()


@pytest.fixture(scope="module")
def queries():
    return random_walk(20, length=64, seed=4321).z_normalized().values


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(scope="module")
def built(dataset):
    """index + cluster per backend, built once and shared by this module."""
    out = {}
    for kind in BACKENDS:
        cluster = SimCluster(
            n_workers=TardisConfig().n_workers, executor=_executor(kind)
        )
        index = build_tardis_index(
            dataset, TardisConfig(**CONFIG_KW), cluster=cluster
        )
        out[kind] = (index, cluster)
    return out


def ledger_shape(ledger) -> list[tuple]:
    """The deterministic face of a ledger: per-stage labels, task counts
    and analytic io/network charges (cpu/wall are measured, so excluded)."""
    return [
        (label, stats.tasks, round(stats.io_s, 12), round(stats.network_s, 12))
        for label, stats in ledger.stages.items()
    ]


def ledger_outline(ledger) -> list[tuple]:
    """Labels and task counts only — for stages whose io charge includes
    measured time (the batch partition pass sums per-group wall clocks)."""
    return [(label, stats.tasks) for label, stats in ledger.stages.items()]


def partition_layout(index) -> dict[int, list]:
    return {
        pid: sorted(e[1] for e in part.all_entries())
        for pid, part in index.partitions.items()
    }


class TestBuildEquivalence:
    def test_partition_layouts_identical(self, built):
        reference = partition_layout(built["serial"][0])
        for kind in BACKENDS[1:]:
            assert partition_layout(built[kind][0]) == reference

    def test_ledger_stage_structure_identical(self, built):
        reference = ledger_shape(built["serial"][1].ledger)
        for kind in BACKENDS[1:]:
            assert ledger_shape(built[kind][1].ledger) == reference

    def test_global_index_identical(self, built):
        ref = built["serial"][0].global_index
        for kind in BACKENDS[1:]:
            other = built[kind][0].global_index
            assert other.n_partitions == ref.n_partitions
            ref_nodes = sorted(
                (n.signature, n.count, n.partition_id)
                for n in ref.tree.iter_nodes()
            )
            other_nodes = sorted(
                (n.signature, n.count, n.partition_id)
                for n in other.tree.iter_nodes()
            )
            assert other_nodes == ref_nodes

    def test_measured_costs_are_sane(self, built):
        for kind in BACKENDS:
            ledger = built[kind][1].ledger
            assert ledger.clock_s > 0
            assert all(s.cpu_s >= 0 for s in ledger.stages.values())


class TestQueryEquivalence:
    def test_exact_match_answers(self, built, dataset, queries):
        ref_index = built["serial"][0]
        probes = list(dataset.values[:5]) + list(queries[:5])
        expected = [exact_match(ref_index, q) for q in probes]
        for kind in BACKENDS[1:]:
            index = built[kind][0]
            for q, ref in zip(probes, expected):
                got = exact_match(index, q)
                assert got.record_ids == ref.record_ids
                assert got.bloom_rejected == ref.bloom_rejected
                assert got.partition_ids_loaded == ref.partition_ids_loaded
                assert got.nodes_visited == ref.nodes_visited

    @pytest.mark.parametrize(
        "strategy",
        [
            knn_target_node_access,
            knn_one_partition_access,
            knn_multi_partitions_access,
        ],
        ids=["target-node", "one-partition", "multi-partitions"],
    )
    def test_knn_answers(self, built, queries, strategy):
        ref_index = built["serial"][0]
        expected = [strategy(ref_index, q, 10) for q in queries[:8]]
        for kind in BACKENDS[1:]:
            index = built[kind][0]
            for q, ref in zip(queries[:8], expected):
                got = strategy(index, q, 10)
                assert got.record_ids == ref.record_ids
                assert got.distances == pytest.approx(ref.distances)
                assert got.partition_ids_loaded == ref.partition_ids_loaded
                assert got.nodes_visited == ref.nodes_visited
                assert got.nodes_pruned == ref.nodes_pruned
                assert ledger_shape(got.ledger) == ledger_shape(ref.ledger)


class TestBatchEquivalence:
    def test_batch_exact_match(self, built, dataset, queries):
        probes = np.vstack([dataset.values[:8], queries[:8]])
        serial_index = built["serial"][0]
        reference = batch_exact_match(
            serial_index, probes, executor=_executor("serial")
        )
        for kind in BACKENDS[1:]:
            index = built[kind][0]
            report = batch_exact_match(index, probes, executor=_executor(kind))
            assert report.partitions_loaded == reference.partitions_loaded
            for got, ref in zip(report.results, reference.results):
                assert got.record_ids == ref.record_ids
                assert got.bloom_rejected == ref.bloom_rejected
                assert got.partition_ids_loaded == ref.partition_ids_loaded
            assert ledger_outline(report.ledger) == ledger_outline(
                reference.ledger
            )

    def test_batch_knn(self, built, queries):
        serial_index = built["serial"][0]
        reference = batch_knn_target_node(
            serial_index, queries, k=5, executor=_executor("serial")
        )
        for kind in BACKENDS[1:]:
            index = built[kind][0]
            report = batch_knn_target_node(
                index, queries, k=5, executor=_executor(kind)
            )
            assert report.partitions_loaded == reference.partitions_loaded
            for got, ref in zip(report.results, reference.results):
                assert got.record_ids == ref.record_ids
                assert got.distances == pytest.approx(ref.distances)
                assert got.strategy == ref.strategy
                assert got.partition_ids_loaded == ref.partition_ids_loaded
                assert got.nodes_visited == ref.nodes_visited
            assert ledger_outline(report.ledger) == ledger_outline(
                reference.ledger
            )

    def test_batch_answers_match_interactive(self, built, queries, backend):
        """Within each backend, batch and interactive answers agree."""
        index = built[backend][0]
        report = batch_knn_target_node(
            index, queries[:6], k=5, executor=_executor(backend)
        )
        for q, got in zip(queries[:6], report.results):
            interactive = knn_target_node_access(index, q, 5)
            assert got.record_ids == interactive.record_ids


class TestFaultJournalEquivalence:
    """Same fault plan + seed ⇒ byte-identical fault journals and
    identical results whether tasks run serially or on threads.

    The injector's draws hash (seed, rule, site) instead of consuming a
    shared RNG stream, so thread interleaving cannot move a fault from
    one site to another.
    """

    FAULT_PLAN = {
        "schema": "repro.faults/v1",
        "seed": 13,
        "rules": [
            {"kind": "task-crash", "stage": "*", "attempt": [1, 2],
             "probability": 0.3},
            {"kind": "storage-read-error", "attempt": [1],
             "probability": 0.3},
            {"kind": "task-slow", "stage": "local/*", "delay_ms": 0.1,
             "probability": 0.2},
        ],
    }

    def _run(self, kind, dataset, queries):
        from repro.faults import active_plan

        with active_plan(self.FAULT_PLAN) as injector:
            cluster = SimCluster(
                n_workers=TardisConfig().n_workers, executor=_executor(kind)
            )
            index = build_tardis_index(
                dataset, TardisConfig(**CONFIG_KW), cluster=cluster
            )
            report = batch_knn_target_node(
                index, queries[:8], k=5, executor=_executor(kind)
            )
            journal = injector.journal_lines()
            stats = injector.stats()
        return index, report, journal, stats

    def test_journals_byte_identical_serial_vs_threads(self, dataset, queries):
        ref_index, ref_report, ref_journal, ref_stats = self._run(
            "serial", dataset, queries
        )
        assert ref_stats["injected"] > 0  # the plan actually fired
        index, report, journal, _stats = self._run("threads", dataset, queries)
        assert journal == ref_journal
        assert partition_layout(index) == partition_layout(ref_index)
        for got, ref in zip(report.results, ref_report.results):
            assert got.record_ids == ref.record_ids
            assert got.distances == pytest.approx(ref.distances)

    def test_same_seed_reruns_identically_per_backend(self, dataset, queries):
        for kind in ("serial", "threads"):
            first = self._run(kind, dataset, queries)
            second = self._run(kind, dataset, queries)
            assert first[2] == second[2], kind


class TestHarnessEquivalence:
    def test_evaluate_knn_reports_identical(self, built, dataset, queries):
        from repro.experiments.harness import evaluate_knn

        def run(kind):
            return evaluate_knn(
                dataset,
                queries[:6],
                k=5,
                tardis=built[kind][0],
                methods=("target-node", "multi-partitions"),
                executor=_executor(kind),
            )

        reference = run("serial")
        for kind in BACKENDS[1:]:
            for got, ref in zip(run(kind), reference):
                assert got.method == ref.method
                assert got.recall == pytest.approx(ref.recall)
                assert got.error_ratio == pytest.approx(ref.error_ratio, nan_ok=True)
                assert got.avg_candidates == pytest.approx(ref.avg_candidates)
                assert got.avg_partitions == pytest.approx(ref.avg_partitions)
