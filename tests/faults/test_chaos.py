"""Seeded chaos suite: retries recover exactly, losses degrade soundly.

Two invariants, each asserted across dozens of plan seeds:

* **Retry-equals-baseline** — under transient faults (scoped to early
  attempts, or sub-1.0 probability with attempts to spare) every query
  answer is byte-equal to the fault-free baseline.  Retries may cost
  time; they may never change results.
* **Degraded-subset** — under permanent partition loss, approximate kNN
  returns ``degraded=True`` with exactly the lost-and-needed partitions
  in ``missing_partitions``, and its neighbor list is a *prefix* of the
  baseline answer (the MINDIST truncation guarantee); exact-match
  raises a typed :class:`PartialResultError` naming the home partition.
"""

import pytest

from repro.core import (
    build_tardis_index,
    exact_match,
    knn_exact,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
    range_query,
)
from repro.core.batch import batch_knn_target_node
from repro.faults import (
    PartialResultError,
    PartitionUnavailableError,
    StorageReadError,
    active_plan,
    get_injector,
)
from repro.cluster import BlockStorage, SimCluster, TaskFailedError

TRANSIENT_SEEDS = range(30)
LOSS_SEEDS = range(25)


def transient_plan(seed: int) -> dict:
    """Faults that always burn retries, never the retry budget: load
    errors are confined to attempts 1-2 of a 4-attempt budget."""
    return {
        "schema": "repro.faults/v1",
        "seed": seed,
        "rules": [
            {"kind": "partition-load-error", "stage": "query/load",
             "attempt": [1, 2], "probability": 0.6},
            {"kind": "task-slow", "stage": "query/load",
             "delay_ms": 0.05, "probability": 0.3},
        ],
    }


def loss_plan(seed: int, lost: list[int]) -> dict:
    """Permanent loss: every load attempt against ``lost`` fails."""
    return {
        "schema": "repro.faults/v1",
        "seed": seed,
        "rules": [
            {"kind": "partition-load-error", "partition_id": sorted(lost)},
        ],
    }


def lost_partitions(index, seed: int) -> list[int]:
    pids = sorted(index.partitions)
    return sorted({pids[seed % len(pids)], pids[(7 * seed + 3) % len(pids)]})


def assert_same_knn(got, ref):
    assert got.record_ids == ref.record_ids
    assert got.distances == pytest.approx(ref.distances)
    assert got.partition_ids_loaded == ref.partition_ids_loaded
    assert not got.degraded
    assert got.missing_partitions == []


class TestRetryEqualsBaseline:
    @pytest.fixture(scope="class")
    def baselines(self, chaos_index, chaos_queries):
        return [
            knn_multi_partitions_access(chaos_index, q, 10)
            for q in chaos_queries
        ]

    @pytest.mark.parametrize("seed", TRANSIENT_SEEDS)
    def test_knn_answers_unchanged(self, chaos_index, chaos_queries,
                                   baselines, seed):
        with active_plan(transient_plan(seed)) as injector:
            for q, ref in zip(chaos_queries[:3], baselines[:3]):
                assert_same_knn(
                    knn_multi_partitions_access(chaos_index, q, 10), ref
                )
            # The plan is dense enough that silence means a wiring bug.
            assert injector.stats()["injected"] > 0

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_exact_match_unchanged(self, chaos_index, chaos_dataset, seed):
        rows = chaos_dataset.values[:4]
        refs = [exact_match(chaos_index, row) for row in rows]
        with active_plan(transient_plan(seed)):
            for row, ref in zip(rows, refs):
                got = exact_match(chaos_index, row)
                assert got.record_ids == ref.record_ids
                assert got.partition_ids_loaded == ref.partition_ids_loaded

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_exact_knn_unchanged(self, chaos_index, chaos_queries, seed):
        refs = [knn_exact(chaos_index, q, 10) for q in chaos_queries[:3]]
        with active_plan(transient_plan(seed)) as injector:
            for q, ref in zip(chaos_queries[:3], refs):
                assert_same_knn(knn_exact(chaos_index, q, 10), ref)
            assert injector.stats()["injected"] > 0

    def test_retries_are_journaled(self, chaos_index, chaos_queries):
        with active_plan(transient_plan(0)) as injector:
            knn_multi_partitions_access(chaos_index, chaos_queries[0], 10)
            journal = injector.journal()
        assert journal
        assert all(
            entry["kind"] in ("partition-load-error", "task-slow")
            for entry in journal
        )
        assert all("ts" not in entry for entry in journal)


class TestDegradedSubset:
    @pytest.fixture(scope="class")
    def baselines(self, chaos_index, chaos_queries):
        return [
            knn_multi_partitions_access(chaos_index, q, 10)
            for q in chaos_queries
        ]

    @pytest.mark.parametrize("seed", LOSS_SEEDS)
    def test_multi_partitions_degrades_to_prefix(
        self, chaos_index, chaos_queries, baselines, seed
    ):
        lost = lost_partitions(chaos_index, seed)
        with active_plan(loss_plan(seed, lost)):
            for q, ref in zip(chaos_queries[:3], baselines[:3]):
                got = knn_multi_partitions_access(chaos_index, q, 10)
                needed = sorted(
                    set(lost) & set(ref.partition_ids_loaded)
                )
                if not needed:
                    assert_same_knn(got, ref)
                    continue
                assert got.degraded
                assert got.missing_partitions == needed
                # MINDIST truncation: every surviving neighbor is the
                # baseline answer's prefix, bit-for-bit.
                n = len(got.record_ids)
                assert n <= len(ref.record_ids)
                assert got.record_ids == ref.record_ids[:n]
                assert got.distances == pytest.approx(ref.distances[:n])

    @pytest.mark.parametrize("row", (0, 11, 222))
    def test_single_partition_strategies_degrade_empty(
        self, chaos_index, chaos_queries, row
    ):
        query = chaos_queries[row % len(chaos_queries)]
        for strategy in (knn_target_node_access, knn_one_partition_access):
            ref = strategy(chaos_index, query, 5)
            [home] = ref.partition_ids_loaded
            with active_plan(loss_plan(1, [home])):
                got = strategy(chaos_index, query, 5)
            assert got.degraded
            assert got.missing_partitions == [home]
            assert got.record_ids == []
            assert got.partitions_loaded == 0

    def test_exact_match_raises_typed_partial_result(
        self, chaos_index, chaos_dataset
    ):
        row = chaos_dataset.values[5]
        ref = exact_match(chaos_index, row)
        [home] = ref.partition_ids_loaded
        with active_plan(loss_plan(2, [home])):
            with pytest.raises(PartialResultError) as excinfo:
                exact_match(chaos_index, row)
        assert excinfo.value.missing_partitions == [home]

    @pytest.mark.parametrize("row", (0, 3, 6))
    def test_exact_search_raises_typed_partial_result(
        self, chaos_index, chaos_queries, row
    ):
        """An exact answer that needs a lost partition is a
        ``PartialResultError`` naming it, never the raw load error; a
        lost partition the walk never reaches changes nothing."""
        query = chaos_queries[row]
        searches = (
            lambda: knn_exact(chaos_index, query, 10),
            lambda: range_query(chaos_index, query, 6.0),
        )
        for search in searches:
            ref = search()
            needed = ref.partition_ids_loaded[-1]
            with active_plan(loss_plan(4, [needed])):
                with pytest.raises(PartialResultError) as excinfo:
                    search()
            assert excinfo.value.missing_partitions == [needed]
            unneeded = sorted(
                set(chaos_index.partitions) - set(ref.partition_ids_loaded)
            )
            if unneeded:
                with active_plan(loss_plan(4, unneeded)):
                    assert_same_knn(search(), ref)

    def test_load_partition_exhaustion_is_typed(self, chaos_index):
        pid = sorted(chaos_index.partitions)[0]
        with active_plan(loss_plan(3, [pid])):
            with pytest.raises(PartitionUnavailableError) as excinfo:
                chaos_index.load_partition(pid)
        assert excinfo.value.partition_id == pid
        assert "4 load attempts" in str(excinfo.value)


class TestBuildUnderFaults:
    BUILD_PLAN_RULES = [
        {"kind": "task-crash", "stage": "*", "attempt": [1, 2],
         "probability": 0.5},
        {"kind": "task-slow", "stage": "*", "delay_ms": 0.1,
         "probability": 0.2},
        {"kind": "storage-read-error", "attempt": [1],
         "probability": 0.4},
    ]

    @pytest.mark.parametrize("seed", range(6))
    def test_build_identical_despite_crashes(
        self, chaos_dataset, chaos_config, chaos_index, seed
    ):
        plan = {"schema": "repro.faults/v1", "seed": seed,
                "rules": self.BUILD_PLAN_RULES}
        with active_plan(plan) as injector:
            rebuilt = build_tardis_index(chaos_dataset, chaos_config)
            assert injector.stats()["injected"] > 0
        layout = {
            pid: sorted(e[1] for e in part.all_entries())
            for pid, part in rebuilt.partitions.items()
        }
        reference = {
            pid: sorted(e[1] for e in part.all_entries())
            for pid, part in chaos_index.partitions.items()
        }
        assert layout == reference
        got = exact_match(rebuilt, chaos_dataset.values[17])
        assert 17 in got.record_ids

    def test_faulted_build_costs_more(self, chaos_dataset, chaos_config):
        """Crashed attempts re-run as extra tasks and failed reads re-charge
        a block read.  Both are modelled, not timed, so unlike the clock
        (which includes measured CPU) they cannot drown in host noise."""
        def tasks_and_io(cluster):
            stages = cluster.ledger.stages.values()
            return (
                sum(stage.tasks for stage in stages),
                sum(stage.io_s for stage in stages),
            )

        baseline = SimCluster(n_workers=chaos_config.n_workers)
        build_tardis_index(chaos_dataset, chaos_config, cluster=baseline)
        flaky = SimCluster(n_workers=chaos_config.n_workers)
        plan = {"schema": "repro.faults/v1", "seed": 0,
                "rules": self.BUILD_PLAN_RULES}
        with active_plan(plan):
            build_tardis_index(chaos_dataset, chaos_config, cluster=flaky)
        tasks, io_s = tasks_and_io(flaky)
        clean_tasks, clean_io_s = tasks_and_io(baseline)
        assert tasks > clean_tasks
        assert io_s > clean_io_s

    def test_same_seed_reruns_journal_identically(
        self, chaos_dataset, chaos_config, chaos_queries
    ):
        """One plan and seed: a build plus a batch pass inject the same
        faults at the same sites, so the journals are byte-identical."""
        plan = {"schema": "repro.faults/v1", "seed": 13,
                "rules": self.BUILD_PLAN_RULES}

        def run():
            with active_plan(plan) as injector:
                index = build_tardis_index(chaos_dataset, chaos_config)
                report = batch_knn_target_node(index, chaos_queries, k=5)
                assert injector.stats()["injected"] > 0
                return injector.journal_lines(), [
                    (r.record_ids, r.distances) for r in report.results
                ]

        assert run() == run()


class TestStorageFaults:
    def _storage(self):
        return BlockStorage.from_records(list(range(200)), block_capacity=25)

    def test_transient_reads_recover(self):
        storage = self._storage()
        baseline = SimCluster(n_workers=4)
        expected = baseline.read_storage(storage, label="read").map_partitions(
            lambda xs: [x * 3 for x in xs], label="x3"
        ).collect()
        plan = {"schema": "repro.faults/v1", "seed": 5, "rules": [
            {"kind": "storage-read-error", "attempt": [1, 2],
             "probability": 0.7},
        ]}
        flaky = SimCluster(n_workers=4)
        with active_plan(plan) as injector:
            got = flaky.read_storage(storage, label="read").map_partitions(
                lambda xs: [x * 3 for x in xs], label="x3"
            ).collect()
            assert injector.stats()["injected"] > 0
        assert got == expected
        # Failed reads are re-charged: the flaky run's io bill is larger.
        assert flaky.ledger.stage("read").wall_s > \
            baseline.ledger.stage("read").wall_s

    def test_exhausted_reads_raise_typed_error(self):
        plan = {"schema": "repro.faults/v1", "seed": 1, "rules": [
            {"kind": "storage-read-error", "block_id": 0},
        ]}
        cluster = SimCluster(n_workers=2)
        with active_plan(plan):
            with pytest.raises(StorageReadError, match="block 0"):
                cluster.read_storage(self._storage(), label="read")


class TestInjectedTaskFaults:
    def test_exhausted_task_crash_raises(self):
        plan = {"schema": "repro.faults/v1", "seed": 0, "rules": [
            {"kind": "task-crash", "stage": "doomed"},
        ]}
        cluster = SimCluster(n_workers=2)
        data = cluster.parallelize([1, 2], 2)
        with active_plan(plan):
            with pytest.raises(TaskFailedError, match="injected"):
                data.map_partitions(lambda xs: xs, label="doomed")

    def test_disabled_injection_leaves_no_trace(self, chaos_index,
                                                chaos_queries):
        assert get_injector() is None
        result = knn_multi_partitions_access(chaos_index, chaos_queries[0], 5)
        assert not result.degraded
        assert result.missing_partitions == []
