"""Injector mechanics: order-independent draws, journals, telemetry."""

import json

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    active_plan,
    clear_injector,
    get_injector,
    install_plan,
)
from repro.telemetry.journal import get_journal, validate_journal_record
from repro.telemetry.metrics import get_registry


def plan(seed=0, rules=(), retry=None):
    doc = {"schema": "repro.faults/v1", "seed": seed, "rules": list(rules)}
    if retry is not None:
        doc["retry"] = retry
    return FaultPlan.from_dict(doc)


ALWAYS_CRASH = {"kind": "task-crash"}
HALF_CRASH = {"kind": "task-crash", "probability": 0.5}


class TestDeterministicDraws:
    def test_same_site_same_draw(self):
        a = FaultInjector(plan(seed=7))
        b = FaultInjector(plan(seed=7))
        key = ("stage", "local/x", 0, 3, 1)
        assert a._draw(*key) == b._draw(*key)

    def test_different_seed_different_draw(self):
        key = ("stage", "local/x", 0, 3, 1)
        draws = {FaultInjector(plan(seed=s))._draw(*key) for s in range(20)}
        assert len(draws) > 15  # hash-distinct with overwhelming odds

    def test_draws_are_uniformish(self):
        inj = FaultInjector(plan(seed=1))
        draws = [inj._draw("site", i) for i in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_next_seq_is_per_key(self):
        inj = FaultInjector(plan())
        assert inj.next_seq("partition", 3) == 0
        assert inj.next_seq("partition", 3) == 1
        assert inj.next_seq("partition", 4) == 0
        assert inj.next_seq("cache", 3) == 0

    def test_backoff_jitter_reproducible_and_bounded(self):
        inj = FaultInjector(plan(seed=5))
        pause = inj.backoff_s(2, "stage", "x", 0, 1)
        assert pause == inj.backoff_s(2, "stage", "x", 0, 1)
        base = inj.retry.backoff_s(2, draw=0.0)
        assert base <= pause <= base * (1.0 + inj.retry.jitter)


class TestMatching:
    def test_probability_zero_never_fires(self):
        inj = FaultInjector(plan(rules=[
            {"kind": "task-crash", "probability": 0.0},
        ]))
        assert all(
            inj.task_fault("s", 0, task, 1) is None for task in range(50)
        )

    def test_probability_one_always_fires(self):
        inj = FaultInjector(plan(rules=[ALWAYS_CRASH]))
        assert all(
            inj.task_fault("s", 0, task, 1) is not None for task in range(20)
        )

    def test_probability_fires_roughly_at_rate(self):
        inj = FaultInjector(plan(seed=3, rules=[HALF_CRASH]))
        fired = sum(
            inj.task_fault("s", 0, task, 1) is not None
            for task in range(400)
        )
        assert 140 < fired < 260

    def test_scope_selectors_respected_per_hook(self):
        inj = FaultInjector(plan(rules=[
            {"kind": "partition-load-error", "partition_id": 3},
        ]))
        assert inj.partition_load_fault(3, 0, 1) is not None
        assert inj.partition_load_fault(4, 0, 1) is None
        # task-crash rules never fire at partition-load sites.
        inj = FaultInjector(plan(rules=[ALWAYS_CRASH]))
        assert inj.partition_load_fault(3, 0, 1) is None

    def test_first_matching_rule_wins(self):
        inj = FaultInjector(plan(rules=[
            {"kind": "task-slow", "delay_ms": 7.0},
            ALWAYS_CRASH,
        ]))
        fault = inj.task_fault("s", 0, 0, 1)
        assert fault.kind == "task-slow"
        assert fault.delay_ms == 7.0

    def test_removed_cached_field_is_rejected(self):
        # A plan written for the deleted cached-copy site is refused, not
        # silently run as an ordinary load rule.
        cached_rule = {"kind": "partition-load-error", "cached": True}
        with pytest.raises(ValueError) as info:
            plan(rules=[cached_rule])
        assert str(info.value) == "unknown fault-rule fields: ['cached']"

    def test_drop_reply_deterministic_per_payload(self):
        rules = [{"kind": "socket-drop", "probability": 0.5}]
        a = FaultInjector(plan(seed=9, rules=rules))
        b = FaultInjector(plan(seed=9, rules=rules))
        payloads = [f'{{"op": "knn", "q": {i}}}'.encode() for i in range(40)]
        assert [a.drop_reply(p) for p in payloads] == \
            [b.drop_reply(p) for p in payloads]
        assert any(a.drop_reply(p) for p in payloads) or True  # smoke


class TestJournal:
    def test_order_independent_byte_identical(self):
        rules = [HALF_CRASH, {"kind": "storage-read-error",
                              "probability": 0.5}]
        sites = [("stage", "s", 0, task, 1) for task in range(30)]
        blocks = list(range(20))

        def run(order):
            inj = FaultInjector(plan(seed=11, rules=rules))
            for kind, args in order:
                if kind == "task":
                    inj.task_fault("s", args[2], args[3], args[4])
                else:
                    inj.storage_fault(args, 0, 1)
            return inj.journal_lines()

        forward = [("task", s) for s in sites] + \
            [("storage", b) for b in blocks]
        backward = list(reversed(forward))
        assert run(forward) == run(backward)
        assert run(forward)  # something actually fired

    def test_entries_have_no_timestamps(self):
        inj = FaultInjector(plan(rules=[ALWAYS_CRASH]))
        inj.task_fault("s", 0, 0, 1)
        [entry] = inj.journal()
        assert "ts" not in entry and "seq" not in entry
        assert entry["kind"] == "task-crash"
        assert entry["site"] == "stage/s/0/0/1"

    def test_stats_count_by_kind(self):
        inj = FaultInjector(plan(rules=[
            {"kind": "storage-read-error"},
            ALWAYS_CRASH,
        ]))
        inj.storage_fault(1, 0, 1)
        inj.storage_fault(2, 0, 1)
        inj.task_fault("s", 0, 0, 1)
        stats = inj.stats()
        assert stats["injected"] == 3
        assert stats["by_kind"] == {
            "storage-read-error": 2, "task-crash": 1,
        }


class TestTelemetryIntegration:
    def test_fired_faults_reach_metrics_and_journal(self):
        registry = get_registry()
        journal = get_journal()
        before = journal.stats()["by_kind"].get("fault", 0)
        injected_before = getattr(
            registry.get("faults_injected_total"), "value", 0
        )
        inj = FaultInjector(plan(rules=[ALWAYS_CRASH]))
        inj.task_fault("local/convert", 0, 2, 1)
        inj.count_retry()
        assert registry.get("faults_injected_total").value == \
            injected_before + 1
        assert registry.get("faults_task_crash_total").value >= 1
        assert registry.get("faults_retries_total").value >= 1
        records = [
            r for r in journal.tail(50, kind="fault")
            if r.get("site") == "stage/local/convert/0/2/1"
        ]
        assert records, journal.stats()
        assert journal.stats()["by_kind"]["fault"] > before
        for record in records:
            validate_journal_record(record)
            assert record["injected"] == "task-crash"

    def test_fault_record_without_injected_field_invalid(self):
        record = get_journal().record("fault", injected="task-crash")
        validate_journal_record(record)
        bad = dict(record)
        del bad["injected"]
        with pytest.raises(ValueError, match="injected"):
            validate_journal_record(bad)


class TestInstallation:
    def test_install_get_clear(self):
        assert get_injector() is None
        injector = install_plan(plan())
        assert get_injector() is injector
        clear_injector()
        assert get_injector() is None

    def test_install_from_dict_and_path(self, tmp_path):
        injector = install_plan({"schema": "repro.faults/v1", "seed": 3})
        assert injector.plan.seed == 3
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"schema": "repro.faults/v1", "seed": 8}))
        assert install_plan(path).plan.seed == 8
        clear_injector()

    def test_active_plan_scopes_installation(self):
        with active_plan(plan(seed=4)) as injector:
            assert get_injector() is injector
        assert get_injector() is None

    def test_active_plan_clears_on_error(self):
        with pytest.raises(RuntimeError):
            with active_plan(plan()):
                raise RuntimeError("boom")
        assert get_injector() is None
