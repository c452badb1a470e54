"""Engine fault tolerance: task retries under the deterministic injector.

The injector (``repro.faults``) is the engine's one fault source: plans
target stages by label, confine faults to early attempts, and journal
every injection.
"""

import pytest

from repro.cluster import SimCluster, TaskFailedError
from repro.faults import active_plan


def crash_plan(seed: int, stage: str = "*", attempts=(1, 2),
               probability: float = 0.5) -> dict:
    return {
        "schema": "repro.faults/v1",
        "seed": seed,
        "rules": [
            {"kind": "task-crash", "stage": stage,
             "attempt": list(attempts), "probability": probability},
        ],
    }


class TestInjectedFaults:
    def test_results_correct_despite_crashes(self):
        cluster = SimCluster(n_workers=4)
        data = cluster.parallelize(list(range(100)), 10)
        with active_plan(crash_plan(0, probability=0.6)) as injector:
            out = data.map_partitions(
                lambda rs: [x * 2 for x in rs], label="x2"
            )
            assert injector.stats()["by_kind"]["task-crash"] >= 1
        assert sorted(out.collect()) == [2 * x for x in range(100)]

    def test_crashes_cost_extra_wall_time(self):
        work = list(range(200))
        healthy = SimCluster(n_workers=4)

        def square(rs):
            return [x * x for x in rs]

        healthy.parallelize(work, 8).map_partitions(square, label="sq")
        flaky = SimCluster(n_workers=4)
        with active_plan(crash_plan(3, stage="sq", probability=0.8)):
            flaky.parallelize(work, 8).map_partitions(square, label="sq")
        assert flaky.ledger.stage("sq").wall_s > healthy.ledger.stage("sq").wall_s

    def test_exhaustion_raises_typed_injected_error(self):
        cluster = SimCluster(n_workers=2)
        data = cluster.parallelize([1, 2], 2)
        # No attempt selector + probability 1.0: every retry crashes too.
        plan = {"schema": "repro.faults/v1", "seed": 0, "rules": [
            {"kind": "task-crash", "stage": "doomed"},
        ]}
        with active_plan(plan):
            with pytest.raises(TaskFailedError, match="injected"):
                data.map_partitions(lambda rs: rs, label="doomed")

    def test_crashed_attempts_never_execute_the_task(self):
        calls: list[int] = []
        cluster = SimCluster(n_workers=2)
        data = cluster.parallelize(list(range(8)), 4)
        with active_plan(crash_plan(0, stage="spy", probability=0.7)) as inj:
            out = data.map_partitions(
                lambda rs: [calls.append(x) or x for x in rs], label="spy"
            )
            crashed = inj.stats()["by_kind"].get("task-crash", 0)
            assert crashed >= 1
        assert sorted(out.collect()) == list(range(8))
        # Each element ran exactly once: crashed attempts were cancelled
        # before user code, and only the surviving attempt executed it.
        assert sorted(calls) == list(range(8))

    def test_journal_deterministic_per_seed(self):
        def run(seed: int) -> list[str]:
            cluster = SimCluster(n_workers=4)
            data = cluster.parallelize(list(range(40)), 8)
            with active_plan(crash_plan(seed)) as injector:
                data.map_partitions(
                    lambda rs: [x + 1 for x in rs], label="inc"
                )
                return injector.journal_lines()

        assert run(7) == run(7)
        assert run(7) != run(8)  # 50% over 8+ sites: collision ~ 1/256

    def test_slow_tasks_add_wall_time_only(self):
        plan = {"schema": "repro.faults/v1", "seed": 2, "rules": [
            {"kind": "task-slow", "stage": "m", "delay_ms": 1.0},
        ]}
        baseline = SimCluster(n_workers=4)
        baseline.parallelize(list(range(20)), 4).map_partitions(
            lambda rs: rs, label="m"
        )
        slow = SimCluster(n_workers=4)
        with active_plan(plan):
            out = slow.parallelize(list(range(20)), 4).map_partitions(
                lambda rs: rs, label="m"
            )
        assert sorted(out.collect()) == list(range(20))
        assert slow.ledger.stage("m").tasks == baseline.ledger.stage("m").tasks
        assert slow.ledger.stage("m").wall_s > baseline.ledger.stage("m").wall_s

    def test_end_to_end_build_survives_injected_crashes(self):
        from repro.core import TardisConfig, build_tardis_index, exact_match
        from repro.tsdb import random_walk

        dataset = random_walk(1000, length=32, seed=4).z_normalized()
        with active_plan(crash_plan(9, probability=0.4)) as injector:
            index = build_tardis_index(
                dataset, TardisConfig(g_max_size=200, l_max_size=20)
            )
            assert injector.stats()["injected"] > 0
        total = sum(p.n_records for p in index.partitions.values())
        assert total == 1000
        assert 17 in exact_match(index, dataset.values[17]).record_ids
