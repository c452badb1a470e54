"""Smoke test of the benchmark itself: ``pytest perf/`` (not part of tier-1).

Runs the whole suite once untraced and once traced at smoke size (5 k
series, 1 s timed) and checks the *shape* of what it prints against
BENCHMARK.json — never a timing.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perf"] and SPEC["command"][-1] == "perf/run.py"
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_suite_prints_every_metric_once(trace):
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    skipped = [line for line in lines if "skipped(" in line]
    # A check that could not be evaluated says why, and fails the run.
    assert all(re.search(r"skipped\([^)]+\)", line) for line in skipped)
    assert (done.returncode != 0) == bool(skipped), done.stdout

    expected = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    skipped_workloads = {line.split()[0] for line in skipped}
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload in skipped_workloads:
            continue
        seen = {}
        for line in lines:
            fields = line.split()
            if len(fields) == 4 and fields[0] == workload:
                _workload, name, value, unit = fields
                assert name not in seen, f"{workload} prints {name} twice"
                seen[name] = unit
                assert math.isfinite(float(value)), line
        assert seen == expected, workload

    result = json.loads((PERF / "out" / "result.json").read_text())
    assert {"nproc", "cpu_affinity", "python", "numpy"} <= set(result["host"])
    for workload, outcome in result["workloads"].items():
        if workload not in skipped_workloads:
            assert outcome["correct"] and outcome["failed"] == 0, workload
            assert outcome["attempted"] >= 1
    if trace:
        spans = json.loads((PERF / "out" / "trace-serve-point.json").read_text())["spans"]
        ids = {span["id"] for span in spans}
        assert spans and all(
            span["parent"] is None or span["parent"] in ids for span in spans)


def test_outputs_are_ignored():
    assert (PERF / "out" / ".gitignore").read_text().split() == ["*", "!.gitignore"]
