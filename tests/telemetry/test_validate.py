"""``python -m repro.telemetry.validate``: a gate that fails when the
thing it checks never happened.

A trace with no spans, a metrics file with no samples and a perf report
with no kernels are schema-valid but describe a run that recorded
nothing, so each one fails; an empty journal passes (a clean run may
log no event).
"""

import pytest

from repro.telemetry.exporters import write_metrics, write_trace
from repro.telemetry.journal import EventJournal, write_journal
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.perf import KernelProfiler, write_perf
from repro.telemetry.spans import Tracer
from repro.telemetry.validate import main


def _empty(tmp_path, kind):
    path = tmp_path / f"empty.{kind}"
    if kind == "trace":
        write_trace(Tracer(enabled=True), path)
    elif kind == "metrics":
        write_metrics(MetricsRegistry(), path)
    elif kind == "perf":
        write_perf(path, profiler=KernelProfiler(enabled=True))
    else:
        write_journal(EventJournal(), path)
    return path


def _recorded(tmp_path, kind):
    path = tmp_path / f"full.{kind}"
    if kind == "trace":
        tracer = Tracer(enabled=True)
        with tracer.span("query/knn"):
            pass
        write_trace(tracer, path)
    elif kind == "metrics":
        registry = MetricsRegistry()
        registry.counter("queries_total").inc()
        write_metrics(registry, path)
    elif kind == "perf":
        profiler = KernelProfiler(enabled=True)
        profiler.record("paa", elements=8, seconds=0.001)
        write_perf(path, profiler=profiler)
    else:
        journal = EventJournal()
        journal.record("slow-query", latency_s=0.2)
        write_journal(journal, path)
    return path


@pytest.mark.parametrize("kind, unit", [
    ("trace", "spans"), ("metrics", "samples"), ("perf", "kernels"),
])
def test_empty_file_fails(tmp_path, capsys, kind, unit):
    path = _empty(tmp_path, kind)
    assert main([f"--{kind}", str(path)]) == 1
    assert f"FAIL: {path}: 0 {unit}" in capsys.readouterr().out


def test_empty_journal_passes(tmp_path, capsys):
    path = _empty(tmp_path, "journal")
    assert main(["--journal", str(path)]) == 0
    assert "0 journal records" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["trace", "metrics", "perf", "journal"])
def test_recorded_file_passes(tmp_path, capsys, kind):
    path = _recorded(tmp_path, kind)
    assert main([f"--{kind}", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"ok: {path}: 1 ")


def test_one_empty_file_fails_the_whole_run(tmp_path, capsys):
    assert main([
        "--trace", str(_recorded(tmp_path, "trace")),
        "--metrics", str(_empty(tmp_path, "metrics")),
    ]) == 1
    out = capsys.readouterr().out
    assert "ok:" in out and "FAIL:" in out
