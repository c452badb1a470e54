"""Tests for the pluggable task-execution backends.

The contract every backend must keep (DESIGN.md §9): results come back
in input order, the lowest failing task index wins when several fail,
and telemetry mutations made inside tasks reach the shared driver
registry/tracer.
"""

import pytest

from repro.cluster import SimCluster, TaskFailedError
from repro.cluster.executors import (
    EXECUTOR_KINDS,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    resolve_executor,
    set_default_executor,
)
from repro.cluster import executors
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer

ALL_KINDS = list(EXECUTOR_KINDS)


def executor_for(kind, jobs=3):
    return make_executor(kind, jobs)


class TestContract:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_results_in_input_order(self, kind):
        ex = executor_for(kind)
        items = list(range(23))
        results = ex.map_tasks(lambda i, item: (i, item * item), items)
        assert results == [(i, i * i) for i in items]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_and_singleton(self, kind):
        ex = executor_for(kind)
        assert ex.map_tasks(lambda i, item: item, []) == []
        assert ex.map_tasks(lambda i, item: item + 1, [41]) == [42]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_lowest_index_error_wins(self, kind):
        ex = executor_for(kind)

        def explode(i, item):
            if i in (2, 5, 7):
                raise ValueError(f"task {i}")
            return item

        with pytest.raises(ValueError, match="task 2"):
            ex.map_tasks(explode, list(range(10)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_task_clock_is_monotonic_nonnegative(self, kind):
        clock = executor_for(kind).task_clock
        a = clock()
        b = clock()
        assert b >= a >= 0.0


class TestTelemetryMerging:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_counters_from_tasks_reach_driver_registry(self, kind):
        ex = executor_for(kind)
        registry = get_registry()
        before = registry.counter("executor_test_total", "test").value

        def bump(i, item):
            get_registry().counter("executor_test_total", "test").inc()
            return item

        ex.map_tasks(bump, list(range(8)))
        after = registry.counter("executor_test_total", "test").value
        assert after - before == 8

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_spans_from_tasks_reach_driver_tracer(self, kind):
        ex = executor_for(kind)
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        before = len(tracer.roots)

        def traced_task(i, item):
            with get_tracer().span("executor-test", index=i):
                return item

        try:
            ex.map_tasks(traced_task, list(range(6)))
        finally:
            tracer.enabled = was_enabled
        new = [s for s in tracer.roots[before:] if s.name == "executor-test"]
        assert len(new) == 6
        assert sorted(s.attributes["index"] for s in new) == list(range(6))


class TestResolution:
    def test_make_executor_caches_instances(self):
        assert make_executor("threads", 3) is make_executor("threads", 3)
        assert make_executor("threads", 3) is not make_executor("threads", 4)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("cloud")

    def test_bad_jobs_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            make_executor("threads", 0)

    def test_resolve_passthrough_and_strings(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("threads", 2), ThreadExecutor)

    def test_kinds_are_serial_and_threads(self):
        assert EXECUTOR_KINDS == ("serial", "threads")

    def test_default_executor_round_trip(self):
        original = resolve_executor(None)
        try:
            assert set_default_executor("serial").kind == "serial"
            assert resolve_executor(None).kind == "serial"
            # kind=None keeps the kind, changes jobs only.
            assert set_default_executor(jobs=2).kind == "serial"
        finally:
            set_default_executor(original.kind, original.jobs)


class TestEngineIntegration:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_wordcount_pipeline(self, kind):
        cluster = SimCluster(n_workers=4, executor=make_executor(kind, 2))
        data = cluster.parallelize(["a", "b", "a", "c", "b", "a"] * 10, 6)
        counts = dict(
            data.map(lambda w: (w, 1), label="pair")
            .reduce_by_key(lambda a, b: a + b, label="count")
            .collect()
        )
        assert counts == {"a": 30, "b": 20, "c": 10}
        assert cluster.ledger.clock_s > 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_failure_injection_deterministic_across_backends(self, kind):
        from repro.cluster.costmodel import CostModel

        model = CostModel(task_failure_rate=0.2, task_max_attempts=4)
        cluster = SimCluster(
            n_workers=4, cost_model=model, failure_seed=123,
            executor=make_executor(kind, 2),
        )
        data = cluster.parallelize(list(range(40)), 8)
        out = data.map(lambda x: x + 1, label="inc").collect()
        assert sorted(out) == list(range(1, 41))
        serial_model = CostModel(task_failure_rate=0.2, task_max_attempts=4)
        reference = SimCluster(
            n_workers=4, cost_model=serial_model, failure_seed=123,
            executor="serial",
        )
        reference.parallelize(list(range(40)), 8).map(
            lambda x: x + 1, label="inc"
        ).collect()
        assert (
            cluster.ledger.stages["inc"].tasks
            == reference.ledger.stages["inc"].tasks
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_doomed_task_raises_for_every_backend(self, kind):
        from repro.cluster.costmodel import CostModel

        model = CostModel(task_failure_rate=1.0, task_max_attempts=2)
        cluster = SimCluster(
            n_workers=2, cost_model=model, executor=make_executor(kind, 2)
        )
        data = cluster.parallelize(list(range(8)), 4)
        with pytest.raises(TaskFailedError, match="task 0"):
            data.map(lambda x: x, label="doomed")


class TestEnvironmentDefault:
    """A bad ``REPRO_EXECUTOR`` / ``REPRO_JOBS`` names itself."""

    @pytest.fixture(autouse=True)
    def _fresh_default(self, monkeypatch):
        monkeypatch.setattr(executors, "_default", None)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)

    @pytest.mark.parametrize("value", ["bogus", "processes"])
    def test_unknown_kind_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_EXECUTOR", value)
        with pytest.raises(ValueError) as info:
            executors.get_default_executor()
        message = str(info.value)
        assert f"REPRO_EXECUTOR={value!r}" in message
        assert "'serial', 'threads'" in message

    @pytest.mark.parametrize("value", ["two", "0", "-1"])
    def test_bad_jobs_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match=f"REPRO_JOBS={value!r}"):
            executors.get_default_executor()

    def test_good_values_are_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        assert executors.get_default_executor().kind == "serial"
        monkeypatch.setattr(executors, "_default", None)
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        monkeypatch.setenv("REPRO_JOBS", "2")
        default = executors.get_default_executor()
        assert (default.kind, default.jobs) == ("threads", 2)
