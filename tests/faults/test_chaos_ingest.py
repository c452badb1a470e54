"""Chaos for the streaming-ingest path: seeded crashes mid-split and
mid-swap, WAL replay determinism, and degraded reads mid-migration.

The core durability claim under test: after any injected crash, replay
of the WAL onto the base snapshot lands on a state bit-identical to
either the pre-split layout (cycle never committed) or the post-split
layout (cycle committed) — never anything in between.
"""

import numpy as np
import pytest

from repro.core import (
    TardisConfig,
    OnlineRebalancer,
    WriteAheadLog,
    build_tardis_index,
    exact_match,
    knn_exact,
    read_wal,
    replay_wal,
)
from repro.faults import InjectedTaskCrash, active_plan
from repro.serving import QueryRequest, QueryService
from repro.serving.requests import WriteRequest
from repro.tsdb import random_walk

LENGTH = 48
BASE_N = 360


def fresh_config() -> TardisConfig:
    return TardisConfig(g_max_size=60, l_max_size=12, seed=13)


@pytest.fixture()
def base_dataset():
    return random_walk(BASE_N, length=LENGTH, seed=31).z_normalized()


@pytest.fixture()
def stream():
    return random_walk(150, length=LENGTH, seed=32).z_normalized().values


@pytest.fixture()
def probes():
    return random_walk(5, length=LENGTH, seed=33).z_normalized().values


def build_base(dataset):
    return build_tardis_index(dataset, fresh_config())


def layout(index) -> dict:
    """Canonical partition layout: the bit-identity comparator."""
    return {
        pid: tuple(sorted(int(r) for r in p.block.record_ids))
        for pid, p in index.partitions.items()
    }


def answers(index, queries, k=5):
    out = []
    for q in queries:
        out.append((
            sorted(exact_match(index, q).record_ids),
            [(n.distance, n.record_id)
             for n in knn_exact(index, q, k).neighbors],
        ))
    return out


def append(index, wal, rows):
    rows = np.asarray(rows, dtype=np.float64)
    rids = [index._next_record_id() for _ in rows]
    wal.log_appends(list(zip(rids, rows)))
    index.ingest(rows, record_ids=rids)
    return rids


def overflow(index, wal, stream):
    """Stream until at least one partition is over the 1.2x watermark."""
    threshold = int(index.config.partition_capacity * 1.2)
    cursor = 0
    while cursor < len(stream):
        append(index, wal, stream[cursor:cursor + 20])
        cursor += 20
        if any(p.n_records > threshold for p in index.partitions.values()):
            return cursor
    raise AssertionError("stream never overflowed a partition")


class TestCrashMidCycle:
    @pytest.mark.parametrize("stage", ["ingest/split", "ingest/swap"])
    def test_crash_leaves_presplit_state(self, base_dataset, stream,
                                         probes, tmp_path, stage):
        live = build_base(base_dataset)
        wal = WriteAheadLog(tmp_path / "crash.wal")
        cursor = overflow(live, wal, stream)
        pre_layout = layout(live)
        pre_answers = answers(live, probes)
        rebalancer = OnlineRebalancer(
            live, overflow_factor=1.2, wal=wal
        )
        plan = {"schema": "repro.faults/v1", "seed": 0, "rules": [
            {"kind": "task-crash", "stage": stage},
        ]}
        with active_plan(plan) as injector:
            cycle = rebalancer.run_cycle()
            assert injector.stats()["by_kind"]["task-crash"] >= 1
        assert cycle.aborted is not None
        assert cycle.report is None
        # The live index never mutated: pre-split state, exactly.
        assert layout(live) == pre_layout
        assert answers(live, probes) == pre_answers
        live.validate()
        # The WAL carries the dangling begin (split crashes before the
        # snapshot marker only for the swap stage; both must replay to
        # the same pre-split state either way).
        wal.close()
        records, _ = read_wal(tmp_path / "crash.wal")
        kinds = [r["kind"] for r in records]
        assert "rebalance-commit" not in kinds
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, tmp_path / "crash.wal")
        assert report.appends_applied == cursor
        assert report.rebalances_replayed == 0
        assert layout(fresh) == pre_layout
        assert answers(fresh, probes) == pre_answers
        fresh.validate()

    def test_committed_cycle_replays_postsplit(self, base_dataset, stream,
                                               probes, tmp_path):
        live = build_base(base_dataset)
        wal = WriteAheadLog(tmp_path / "commit.wal")
        overflow(live, wal, stream)
        rebalancer = OnlineRebalancer(live, overflow_factor=1.2, wal=wal)
        cycle = rebalancer.run_cycle()
        assert cycle.aborted is None
        assert cycle.report.partitions_split >= 1
        post_layout = layout(live)
        live.validate()
        wal.close()
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, tmp_path / "commit.wal")
        assert report.rebalances_replayed == 1
        # Bit-identical post-split state — replay re-runs the same
        # deterministic split at the commit point.
        assert layout(fresh) == post_layout
        assert answers(fresh, probes) == answers(live, probes)
        fresh.validate()

    def test_torn_tail_after_crash_still_replays(self, base_dataset,
                                                 stream, tmp_path):
        live = build_base(base_dataset)
        path = tmp_path / "torn.wal"
        wal = WriteAheadLog(path)
        rids = append(live, wal, stream[:10])
        wal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "append", "record_id":')
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, path)
        assert report.torn_tail
        assert report.record_ids == rids
        fresh.validate()


class TestFaultyAppends:
    def test_transient_append_crash_retries_to_ack(self, base_dataset,
                                                   stream):
        index = build_base(base_dataset)
        plan = {"schema": "repro.faults/v1", "seed": 4, "rules": [
            {"kind": "task-crash", "stage": "ingest/append",
             "attempt": [1]},
        ]}
        with active_plan(plan) as injector:
            with QueryService(index, max_delay_ms=1.0) as svc:
                ack = svc.write(stream[:3])
            assert injector.stats()["by_kind"]["task-crash"] >= 1
        assert ack.acknowledged == 3

    def test_exhausted_append_crash_never_acked_never_logged(
        self, base_dataset, stream, tmp_path
    ):
        index = build_base(base_dataset)
        wal_path = tmp_path / "failed.wal"
        plan = {"schema": "repro.faults/v1", "seed": 4, "rules": [
            {"kind": "task-crash", "stage": "ingest/append"},
        ]}
        with active_plan(plan):
            with QueryService(index, wal=wal_path, max_delay_ms=1.0) as svc:
                future = svc.submit_write(WriteRequest(batch=stream[:2]))
                with pytest.raises(InjectedTaskCrash):
                    future.result(timeout=60.0)
                assert svc.stats()["ingest"]["writes_failed"] == 1
        # Crash-before-log: the failed batch left no WAL records, so
        # replay cannot resurrect an unacknowledged write.
        records, _ = read_wal(wal_path)
        assert [r for r in records if r["kind"] == "append"] == []
        assert index.n_records == BASE_N

    def test_five_pct_plan_replay_equals_acked(self, base_dataset,
                                               stream, probes, tmp_path):
        """Acceptance drill: a 5% crash plan over every ingest site;
        whatever was acknowledged must replay bit-identically."""
        wal_path = tmp_path / "five.wal"
        index = build_base(base_dataset)
        plan = {"schema": "repro.faults/v1", "seed": 93, "rules": [
            {"kind": "task-crash", "stage": "ingest/*",
             "attempt": [1, 2], "probability": 0.05},
        ]}
        acked: list[int] = []
        with active_plan(plan):
            with QueryService(
                index, wal=wal_path, rebalance=True,
                rebalance_overflow=1.2, rebalance_interval_s=0.02,
                max_delay_ms=1.0,
            ) as svc:
                for i in range(0, len(stream), 5):
                    acked.extend(svc.write(stream[i:i + 5]).record_ids)
        assert len(acked) == len(stream)
        live_answers = answers(index, probes)
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, wal_path)
        assert report.record_ids == acked
        assert layout(fresh) == layout(index)
        assert answers(fresh, probes) == live_answers
        fresh.validate()


class TestReadsDuringMigration:
    def test_reads_answer_while_cycle_runs(self, base_dataset, stream,
                                           probes, tmp_path):
        """A slow mid-cycle repack must not block reads: the plan/build
        phases run off the gate, so queries proceed concurrently."""
        index = build_base(base_dataset)
        wal = WriteAheadLog(tmp_path / "slow.wal")
        overflow(index, wal, stream)
        ref = answers(index, probes)
        plan = {"schema": "repro.faults/v1", "seed": 0, "rules": [
            {"kind": "task-slow", "stage": "ingest/split",
             "delay_ms": 300.0},
        ]}
        with active_plan(plan):
            with QueryService(index, max_delay_ms=1.0,
                              result_cache_size=0) as svc:
                rebalancer = OnlineRebalancer(
                    index, overflow_factor=1.2, wal=wal,
                    gate=svc._maintenance_gate,
                )
                import threading
                import time

                cycle_thread = threading.Thread(
                    target=rebalancer.run_cycle, daemon=True
                )
                cycle_thread.start()
                time.sleep(0.05)  # inside the slow split phase
                started = time.monotonic()
                got = svc.query(QueryRequest(probes[0], op="exact-match"))
                elapsed = time.monotonic() - started
                cycle_thread.join(timeout=60.0)
        assert sorted(got.record_ids) == ref[0][0]
        # The read completed well inside the 300ms injected stall.
        assert elapsed < 0.25
        index.validate()

    def test_degraded_read_mid_migration(self, base_dataset, stream,
                                         probes, tmp_path):
        """Partition loss during a migration degrades — not fails — a
        kNN read, exactly as in steady state."""
        from repro.core.queries import query_signature

        index = build_base(base_dataset)
        wal = WriteAheadLog(tmp_path / "deg.wal")
        overflow(index, wal, stream)
        signature, _ = query_signature(index, probes[1])
        home = index.global_index.route(signature)
        victim = next(p for p in sorted(index.partitions) if p != home)
        plan = {"schema": "repro.faults/v1", "seed": 0, "rules": [
            {"kind": "task-slow", "stage": "ingest/split",
             "delay_ms": 200.0},
            {"kind": "partition-load-error", "partition_id": victim},
        ]}
        with active_plan(plan):
            with QueryService(index, max_delay_ms=1.0,
                              result_cache_size=0) as svc:
                rebalancer = OnlineRebalancer(
                    index, overflow_factor=1.2, wal=wal,
                    gate=svc._maintenance_gate,
                )
                import threading
                import time

                cycle_thread = threading.Thread(
                    target=rebalancer.run_cycle, daemon=True
                )
                cycle_thread.start()
                time.sleep(0.02)
                got = svc.query(QueryRequest(
                    probes[1], op="knn", strategy="multi-partitions", k=3
                ))
                cycle_thread.join(timeout=60.0)
        # Degraded, not failed: the query completed mid-migration and
        # reports which partition it could not certify against.
        assert got.degraded
        assert victim in got.missing_partitions
        assert len(got.record_ids) <= 3


class TestOneSplitPerCycle:
    """A cycle splits one partition, so a write that lands on it during
    the build costs that one build — not the build of every overflowing
    partition, over and over, for as long as the write stream lasts."""

    FACTOR = 1.0

    def aged(self, base_dataset, stream, tmp_path):
        live = build_base(base_dataset)
        wal = WriteAheadLog(tmp_path / "aged.wal")
        append(live, wal, stream)
        return live, wal

    def test_cycle_plans_one_partition_and_the_loop_clears_the_rest(
        self, base_dataset, stream, probes, tmp_path
    ):
        import time

        from repro.core.rebalance import plan_rebalance

        live, wal = self.aged(base_dataset, stream, tmp_path)
        rebalancer = OnlineRebalancer(
            live, overflow_factor=self.FACTOR, wal=wal, interval_s=0.01
        )
        before = rebalancer.overflowing()
        assert len(before) >= 3
        pre_layout = layout(live)
        cycle = rebalancer.run_cycle()
        assert cycle.aborted is None
        (pid,) = cycle.report.split_partition_ids
        assert pid in before
        post_layout = layout(live)
        assert all(
            post_layout[p] == rows
            for p, rows in pre_layout.items() if p != pid
        )
        # The background loop goes on, cycle after cycle, until nothing
        # that overflows can be split.
        rebalancer.start()
        deadline = time.monotonic() + 60.0
        while rebalancer._gate(lambda: plan_rebalance(
            live, self.FACTOR, build=False
        )) is not None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        rebalancer.stop()
        live.validate()
        wal.close()
        records, _ = read_wal(tmp_path / "aged.wal")
        begins = [r for r in records if r["kind"] == "rebalance-begin"]
        commits = [r for r in records if r["kind"] == "rebalance-commit"]
        assert len(commits) >= len(before) - len(rebalancer.overflowing())
        assert all(len(r["partitions"]) == 1 for r in begins)
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, tmp_path / "aged.wal")
        assert report.rebalances_replayed == len(commits)
        assert layout(fresh) == layout(live)
        assert answers(fresh, probes) == answers(live, probes)

    def test_write_during_the_build_discards_one_build(
        self, base_dataset, stream, probes, tmp_path
    ):
        live, wal = self.aged(base_dataset, stream, tmp_path)
        planned = []
        late = iter([True])

        def gate(fn):
            if fn.__name__ == "snapshot":
                plan = fn()
                planned.append(plan.partition_ids)
                return plan
            # Between snapshot and swap: a write reaches the partition.
            if next(late, False):
                (pid,) = planned[0]
                append(live, wal, live.partitions[pid].block.values[:1])
            return fn()

        rebalancer = OnlineRebalancer(
            live, overflow_factor=self.FACTOR, wal=wal, gate=gate
        )
        before = rebalancer.overflowing()
        assert len(before) >= 3
        pre_layout = layout(live)
        cycle = rebalancer.run_cycle()
        assert cycle.aborted.startswith("stale")
        assert [len(pids) for pids in planned] == [1]
        (pid,) = planned[0]
        after = layout(live)
        assert after.keys() == pre_layout.keys()
        assert all(
            after[p] == rows for p, rows in pre_layout.items() if p != pid
        )
        assert rebalancer.overflowing() == before
        # The retry plans the same partition again and commits.
        cycle = rebalancer.run_cycle()
        assert cycle.aborted is None
        assert planned[1] == [pid]
        assert cycle.report.split_partition_ids == [pid]
        live.validate()
        wal.close()
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, tmp_path / "aged.wal")
        assert report.rebalances_replayed == 1
        assert report.rebalances_discarded == 1
        assert layout(fresh) == layout(live)
        assert answers(fresh, probes) == answers(live, probes)


class TestAbortReason:
    def test_stats_carry_the_last_abort_reason(self, base_dataset, stream,
                                               tmp_path):
        index = build_base(base_dataset)
        wal = WriteAheadLog(tmp_path / "reason.wal")
        overflow(index, wal, stream)
        crash = {"schema": "repro.faults/v1", "seed": 0, "rules": [
            {"kind": "task-crash", "stage": "ingest/split"},
        ]}
        # The background loop waits out its interval before its first
        # cycle, so only the cycles run here happen.
        with QueryService(index, max_delay_ms=0.0, result_cache_size=0,
                          rebalance=True, rebalance_overflow=1.2,
                          rebalance_interval_s=3600.0) as svc:
            assert svc.stats()["rebalance"]["last_abort_reason"] is None
            with active_plan(crash):
                cycle = svc.rebalancer.run_cycle()
            reason = svc.stats()["rebalance"]["last_abort_reason"]
            assert reason == cycle.aborted
            assert reason.startswith("injected: ")
            assert "ingest/split" in reason
            # A later commit does not clear why the last abort happened.
            assert svc.rebalancer.run_cycle().report is not None
            stats = svc.stats()["rebalance"]
            assert stats["last_abort_reason"] == reason
            assert stats["cycles_aborted"] == 1

    def test_nothing_to_split_is_recorded_like_any_abort(
        self, base_dataset, stream, tmp_path
    ):
        from repro.telemetry.journal import EventJournal

        index = build_base(base_dataset)
        wal = WriteAheadLog(tmp_path / "nothing.wal")
        overflow(index, wal, stream)
        journal = EventJournal()
        rebalancer = OnlineRebalancer(
            index, overflow_factor=1.2, wal=wal, journal=journal
        )
        crash = {"schema": "repro.faults/v1", "seed": 0, "rules": [
            {"kind": "task-crash", "stage": "ingest/split"},
        ]}
        with active_plan(crash):
            injected = rebalancer.run_cycle()
        assert injected.aborted.startswith("injected: ")
        # Nothing overflows at a watermark no partition reaches.
        rebalancer.overflow_factor = 1000.0
        cycle = rebalancer.run_cycle()
        wal.close()
        assert cycle.aborted == "nothing to split"
        stats = rebalancer.stats()
        assert stats["last_abort_reason"] == "nothing to split"
        assert stats["cycles_aborted"] == 2
        aborts = journal.tail(kind="rebalance-abort")
        assert [e["reason"] for e in aborts] == [
            injected.aborted, "nothing to split",
        ]
        assert aborts[-1]["cycle"] == cycle.cycle
        # No begin marker was logged for it, so the WAL closes none.
        records, _clean = read_wal(tmp_path / "nothing.wal")
        wal_aborts = [r for r in records if r["kind"] == "rebalance-abort"]
        assert [r["cycle"] for r in wal_aborts] == [injected.cycle]

    def test_each_abort_kind_bumps_its_own_counter(
        self, base_dataset, stream, tmp_path
    ):
        """``rebalance_cycles_aborted_total`` is the sum of one counter
        per reason: an injected abort and a nothing-to-split cycle each
        bump their own, and a stale plan's stays where it was."""
        from repro.core.rebalance import ABORT_KINDS
        from repro.telemetry.metrics import get_registry

        def counts():
            registry = get_registry()
            names = ["rebalance_cycles_aborted_total"] + [
                f"rebalance_cycles_aborted_{kind.replace(' ', '_')}_total"
                for kind in ABORT_KINDS
            ]
            return [
                0.0 if registry.get(name) is None
                else registry.get(name).value
                for name in names
            ]

        index = build_base(base_dataset)
        wal = WriteAheadLog(tmp_path / "kinds.wal")
        overflow(index, wal, stream)
        rebalancer = OnlineRebalancer(index, overflow_factor=1.2, wal=wal)
        crash = {"schema": "repro.faults/v1", "seed": 0, "rules": [
            {"kind": "task-crash", "stage": "ingest/split"},
        ]}
        before = counts()
        with active_plan(crash):
            assert rebalancer.run_cycle().abort_kind == "injected"
        after_injected = counts()
        rebalancer.overflow_factor = 1000.0
        assert rebalancer.run_cycle().abort_kind == "nothing to split"
        after_nothing = counts()
        wal.close()
        # [total, stale, injected, nothing to split]
        assert [b - a for a, b in zip(before, after_injected)] == [1, 0, 1, 0]
        assert [b - a for a, b in zip(after_injected, after_nothing)] == [
            1, 0, 0, 1,
        ]
