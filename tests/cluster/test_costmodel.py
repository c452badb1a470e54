"""Tests for the simulated cost model and ledger."""

import numpy as np
import pytest

from repro.cluster.costmodel import (
    CostModel,
    SimulationLedger,
    estimate_bytes,
    timed_stage,
)

_MB = 1024 * 1024


class TestCostModel:
    def test_io_times(self):
        model = CostModel(disk_read_mb_s=100, disk_write_mb_s=50, network_mb_s=200)
        assert model.disk_read_time(100 * _MB) == pytest.approx(1.0)
        assert model.disk_write_time(100 * _MB) == pytest.approx(2.0)
        assert model.network_time(100 * _MB) == pytest.approx(0.5)

    def test_zero_bytes_cost_nothing(self):
        model = CostModel()
        assert model.disk_read_time(0) == 0.0
        assert model.network_time(0) == 0.0


class TestLedger:
    def test_record_and_clock(self):
        ledger = SimulationLedger()
        ledger.record_stage("a", wall_s=1.0, cpu_s=0.4, io_s=0.6, tasks=2)
        ledger.record_stage("a", wall_s=0.5, tasks=1)
        ledger.record_stage("b", wall_s=2.0)
        assert ledger.clock_s == pytest.approx(3.5)
        assert ledger.stage("a").wall_s == pytest.approx(1.5)
        assert ledger.stage("a").tasks == 3
        assert ledger.breakdown() == pytest.approx({"a": 1.5, "b": 2.0})

    def test_breakdown_preserves_execution_order(self):
        ledger = SimulationLedger()
        for label in ("z", "a", "m"):
            ledger.record_stage(label, wall_s=0.1)
        assert list(ledger.breakdown()) == ["z", "a", "m"]


class TestTimedStage:
    def test_records_positive_time(self):
        ledger = SimulationLedger()
        with timed_stage(ledger, "work", cpu_scale=1.0):
            sum(range(10000))
        assert ledger.clock_s > 0
        assert ledger.stage("work").cpu_s == pytest.approx(ledger.clock_s)

    def test_cpu_scale_applies(self):
        fast, slow = SimulationLedger(), SimulationLedger()
        with timed_stage(slow, "w", cpu_scale=1.0) as t_slow:
            sum(range(200000))
        with timed_stage(fast, "w", cpu_scale=0.01) as t_fast:
            sum(range(200000))
        # Same work, 100x smaller charge (allow generous scheduling noise).
        assert t_fast.elapsed_s < t_slow.elapsed_s


class TestEstimateBytes:
    def test_numpy_array(self):
        assert estimate_bytes(np.zeros(10)) == 80

    def test_scalars_and_strings(self):
        assert estimate_bytes(5) == 8
        assert estimate_bytes(3.14) == 8
        assert estimate_bytes("abcd") == 4
        assert estimate_bytes(b"ab") == 2
        assert estimate_bytes(None) == 0

    def test_nested_structures(self):
        record = ("sig12", 7, np.zeros(4))
        assert estimate_bytes(record) == 5 + 8 + 32
        assert estimate_bytes([record, record]) == 2 * 45
        assert estimate_bytes({"k": 1}) == 1 + 8
