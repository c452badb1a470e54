"""Kernel cost counters and perf reports.

Covers the ``repro.telemetry.perf`` contract end to end: counter
arithmetic, registry publication idempotence, the ``repro.perf/v1``
report and validator — and the two
acceptance gates: disabled counters never reach ``record`` on the
batch-kNN hot path, and cross-backend answer equivalence holds with
counters on.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry import metrics as metrics_mod
from repro.telemetry.perf import (
    KERNELS,
    PERF_SCHEMA,
    KernelProfiler,
    disable_kernel_counters,
    enable_kernel_counters,
    perf_report,
    publish_to_registry,
    summarize_kernels,
    validate_perf,
    write_perf,
)


@pytest.fixture(autouse=True)
def _counters_off():
    """Every test starts and ends with the global profiler disabled."""
    disable_kernel_counters()
    KERNELS.reset()
    yield
    disable_kernel_counters()
    KERNELS.reset()


# ---------------------------------------------------------------------------
# counter arithmetic


def test_record_accumulates_calls_elements_seconds():
    prof = KernelProfiler()
    prof.enable()
    prof.record("paa", elements=128, seconds=0.5)
    prof.record("paa", elements=64, seconds=0.25)
    totals = prof.totals()
    assert totals["paa"] == {"calls": 2, "elements": 192, "seconds": 0.75}


def test_disabled_profiler_records_nothing():
    prof = KernelProfiler()
    prof.record("paa", elements=10, seconds=1.0)
    assert prof.totals() == {}
    assert not prof.enabled


def test_enable_reset_clears_previous_totals():
    prof = KernelProfiler()
    prof.enable()
    prof.record("sax", seconds=1.0)
    prof.enable(reset=True)
    assert prof.totals() == {}


def test_seconds_lookup_for_missing_kernel_is_zero():
    prof = KernelProfiler()
    prof.enable()
    assert prof.seconds("never_ran") == 0.0


# ---------------------------------------------------------------------------
# registry publication


def test_publish_to_registry_mirrors_totals_once():
    registry = metrics_mod.MetricsRegistry()
    enable_kernel_counters()
    KERNELS.record("route", elements=40, seconds=0.5)
    publish_to_registry(registry)
    assert registry.counter("kernel_route_calls_total").value == 1
    assert registry.counter("kernel_route_elements_total").value == 40
    # Publishing again without new work must not double-count.
    publish_to_registry(registry)
    assert registry.counter("kernel_route_calls_total").value == 1
    # New work publishes only the delta past the watermark.
    KERNELS.record("route", elements=2, seconds=0.1)
    publish_to_registry(registry)
    assert registry.counter("kernel_route_calls_total").value == 2
    assert registry.counter("kernel_route_elements_total").value == 42


# ---------------------------------------------------------------------------
# perf report + validator


def test_perf_report_round_trips_and_validates(tmp_path):
    enable_kernel_counters()
    KERNELS.record("paa", elements=100, seconds=0.25)
    KERNELS.record("sax", elements=100, seconds=0.1)
    path = tmp_path / "perf.json"
    write_perf(path)
    doc = json.loads(path.read_text())
    assert doc["schema"] == PERF_SCHEMA
    assert validate_perf(doc) == 2
    assert doc["kernels"]["paa"]["elements"] == 100


def test_validate_perf_rejects_wrong_schema():
    doc = perf_report()
    doc["schema"] = "repro.perf/v0"
    with pytest.raises(ValueError, match="schema"):
        validate_perf(doc)


def test_validate_perf_rejects_bad_kernel_name():
    doc = perf_report()
    doc["kernels"]["Bad Name"] = {
        "calls": 1, "elements": 0, "seconds": 0.0
    }
    with pytest.raises(ValueError):
        validate_perf(doc)


def test_validate_perf_rejects_non_integer_calls():
    doc = perf_report()
    doc["kernels"]["paa"] = {"calls": 1.5, "elements": 0, "seconds": 0.0}
    with pytest.raises(ValueError):
        validate_perf(doc)


def test_summarize_kernels_orders_by_seconds():
    kernels = {
        "paa": {"calls": 1, "elements": 1, "seconds": 0.1},
        "sax": {"calls": 1, "elements": 1, "seconds": 0.9},
    }
    table = summarize_kernels(kernels, limit=1)
    assert "sax" in table
    assert "paa" not in table  # limit=1 keeps only the hottest kernel


# ---------------------------------------------------------------------------
# acceptance gates


def test_disabled_counters_make_zero_record_calls(
    tardis_small, heldout_queries, monkeypatch
):
    """With counters off the batch-kNN hot path never reaches ``record``.

    Every instrumented call site guards its clock reads and its
    ``KERNELS.record`` call behind ``KERNELS.enabled``, so the disabled
    cost is one attribute test per site — the deterministic property the
    old wall-clock A/B of two identical arms stood for.  It must hold
    both before the counters were ever enabled and after an
    enable/disable cycle.  The measured overhead is gated where host
    noise is handled, in ``perf/`` (``telemetry.tracing.overhead_pct``).
    """
    from repro.core.batch import batch_knn_target_node

    calls: list[str] = []
    real_record = KERNELS.record

    def spy(name, *args, **kwargs):
        calls.append(name)
        return real_record(name, *args, **kwargs)

    monkeypatch.setattr(KERNELS, "record", spy)

    def disabled_pass() -> None:
        before = (KERNELS.totals(), KERNELS.snapshot())
        batch_knn_target_node(tardis_small, heldout_queries, k=5)
        assert calls == []
        assert (KERNELS.totals(), KERNELS.snapshot()) == before

    disabled_pass()  # never enabled
    enable_kernel_counters()
    batch_knn_target_node(tardis_small, heldout_queries, k=5)
    assert calls, "spy saw nothing with counters on: the check is vacuous"
    disable_kernel_counters()
    calls.clear()
    disabled_pass()  # after an enable/disable cycle, totals kept


def test_mpa_hot_path_is_flat(tardis_small, heldout_queries):
    """One multi-partitions query prices MINDIST for the ``pth``
    selection not at all within ``pth`` and otherwise once over every
    one-bit synopsis plus once per chunk of exact bounds; then once per
    loaded partition for the node filter and at most once more per
    partition for the row bound (never under a +inf threshold); it scans
    each loaded partition's tree exactly once — not once per sibling
    partition and per tree level, as the loops it replaced did — and
    computes true distances for the rows it reports scored, no others:
    at most the rows the row bound kept, fewer once the running k-th
    cuts rows or stops the refine before a partition.  Counts, no clock:
    the speed they buy is gated in ``perf/`` (``lib-mpa``)."""
    from repro.core import knn_multi_partitions_access
    from repro.core.queries import (
        query_signature,
        scan_partitions,
        select_mpa_partitions,
        sibling_bound_lookup,
    )
    from repro.core.region import CAP_CHUNK

    keep = tardis_small.config.pth - 1
    fanned_out = capped = filtered = stopped = 0
    for query in heldout_queries:
        signature, paa = query_signature(tardis_small, query)
        bounds = sibling_bound_lookup(tardis_small, signature, paa)
        enable_kernel_counters(reset=True)
        select_mpa_partitions(
            tardis_small.global_index, signature, tardis_small.config.pth,
            bounds,
        )
        disable_kernel_counters()
        selection = KERNELS.totals().get("mindist", {"calls": 0})["calls"]
        if bounds.candidates:
            chunks = 1 + -(-(bounds.priced - keep) // CAP_CHUNK)
            assert selection == 1 + chunks
        else:
            assert selection == 0
        enable_kernel_counters(reset=True)
        result = knn_multi_partitions_access(tardis_small, query, k=5)
        disable_kernel_counters()
        totals = KERNELS.totals()
        loaded = result.partitions_loaded
        mindist_calls = totals["mindist"]["calls"] - selection
        assert loaded <= mindist_calls <= 2 * loaded
        # the seed's target-node scan, then one pruned scan a partition
        assert totals["leaf_scan"]["calls"] == 1 + loaded
        assert totals["leaf_scan"]["elements"] == result.candidates_examined
        assert result.rows_refined <= result.candidates_examined
        assert result.rows_scored <= result.rows_refined
        assert totals["euclidean"]["elements"] == (
            result.rows_scored * tardis_small.series_length
        )
        fanned_out += loaded > 1
        capped += bool(selection) and mindist_calls == 2 * loaded
        filtered += result.rows_refined < result.candidates_examined
        # One distance pass for the seed and one per partition refined:
        # fewer than the partitions with rows left means the refine
        # stopped early.
        scan = scan_partitions(
            tardis_small, query, signature, paa, 5,
            result.partition_ids_loaded,
            home_pid=tardis_small.global_index.route(signature),
        )
        assert scan.refined == result.rows_refined
        stopped += totals["euclidean"]["calls"] < 1 + len(scan.found)
    assert fanned_out and capped, "fixture never reached the call bound"
    assert filtered, "the row bound never dropped a row"
    assert stopped, "the refine never stopped before a partition"


def test_exact_walk_is_flat(tardis_small, heldout_queries):
    """One exact kNN query prices MINDIST once for every partition's
    region, then once per loaded partition for the node filter and at
    most once more for the row bound (never under the first partition's
    +inf threshold) — not once per tree node; it scans each loaded
    partition's tree exactly once and computes true distances for the
    rows it reports scored, no others — at most the rows the row bound
    kept — and stops before the partitions whose region bound is above
    the k-th distance.  Counts, no clock."""
    from repro.core import knn_exact

    filtered = stopped = 0
    for query in heldout_queries:
        enable_kernel_counters(reset=True)
        result = knn_exact(tardis_small, query, k=5)
        disable_kernel_counters()
        totals = KERNELS.totals()
        loaded = result.partitions_loaded
        assert 1 + loaded <= totals["mindist"]["calls"] <= 1 + 2 * loaded
        assert totals["leaf_scan"]["calls"] == loaded
        assert totals["leaf_scan"]["elements"] == result.candidates_examined
        assert result.rows_scored <= result.rows_refined
        assert totals["euclidean"]["elements"] == (
            result.rows_scored * tardis_small.series_length
        )
        filtered += result.rows_refined < result.candidates_examined
        stopped += loaded < len(tardis_small.partitions)
    assert filtered, "the row bound never dropped a row"
    assert stopped, "the walk never stopped before a partition"


def _window(rw_small, size):
    """A flush window of exact-match / target-node tickets over present
    rows (so every exact group needs its partition)."""
    from concurrent.futures import Future

    from repro.serving import QueryRequest
    from repro.serving.service import Ticket

    if size == 4:  # duplicates: one plan, one series, one group
        requests = [QueryRequest(rw_small.values[5], op="exact-match")] * 4
    else:
        plans = (
            dict(op="exact-match"),
            dict(op="exact-match", use_bloom=False),
            dict(op="knn", strategy="target-node", k=3),
            dict(op="knn", strategy="target-node", k=7),
        )
        requests = [
            QueryRequest(rw_small.values[11 * i], **plans[i % len(plans)])
            for i in range(size)
        ]
    return [Ticket(request, Future(), 0.0) for request in requests]


@pytest.mark.parametrize("size", (1, 4, 16))
def test_served_point_read_is_flat(tardis_small, rw_small, monkeypatch, size):
    """A served exact-match / target-node read is converted once, its
    group loads its partition once, and the simulated ledger is never
    charged on the way — while the library and batch entry points still
    charge the stages the reproduction plane reads.  Counts, no clock."""
    from repro.cluster import SimulationLedger
    from repro.core import batch_exact_match, exact_match
    from repro.core.builder import TardisIndex
    from repro.serving.batcher import group_tickets, run_group

    index = tardis_small
    stages, loads = [], []
    record_stage, load_partition = (
        SimulationLedger.record_stage, TardisIndex.load_partition
    )
    monkeypatch.setattr(
        SimulationLedger, "record_stage",
        lambda self, label, *a, **kw: (
            stages.append(label), record_stage(self, label, *a, **kw)
        )[1],
    )
    monkeypatch.setattr(
        TardisIndex, "load_partition",
        lambda self, pid, *a, **kw: (
            loads.append(pid), load_partition(self, pid, *a, **kw)
        )[1],
    )
    tickets = _window(rw_small, size)
    enable_kernel_counters(reset=True)
    groups = group_tickets(index, tickets)
    results = [run_group(index, group) for group in groups]
    disable_kernel_counters()
    totals = KERNELS.totals()
    assert sum(group.size for group in groups) == size
    assert totals["paa"]["elements"] == size * index.series_length
    assert totals["encode"]["elements"] == size * index.config.word_length
    assert sorted(loads) == sorted(group.partition_id for group in groups)
    assert stages == []
    assert all(r.ledger.stages == {} for group in results for r in group)
    if size == 4:
        assert len(groups) == 1 and all(r.found for r in results[0])

    # The reproduction plane reads what it read.
    exact_match(index, rw_small.values[5])
    assert stages == [
        "query/route", "query/bloom test", "query/load partition",
        "query/local search",
    ]
    del stages[:]
    batch_exact_match(index, rw_small.values[5:6])
    assert sorted(stages) == [
        "batch/partition pass", "batch/route", "lookup",
        "query/load partition", "query/load partition (batch-shared)",
    ]


def test_batch_answers_identical_with_counters_on(
    tardis_small, heldout_queries
):
    """Turning the counters on changes no answer."""
    from repro.core.batch import batch_knn_target_node

    index, queries = tardis_small, heldout_queries
    plain = batch_knn_target_node(index, queries, k=5)
    enable_kernel_counters()
    counted = batch_knn_target_node(index, queries, k=5)
    assert [r.record_ids for r in counted.results] == \
        [r.record_ids for r in plain.results]
    totals = KERNELS.totals()
    # The counted pass routed its whole query set in one batched call.
    assert totals["route"]["calls"] == 1
    assert totals["route"]["elements"] == len(queries)
    assert totals["euclidean"]["calls"] > 0


# ---------------------------------------------------------------------------
# the write path is flat: amortised appends, one body per served batch


def test_block_append_is_amortised(monkeypatch):
    """1,000 single-row appends onto a 1,000-row block replace the column
    buffers a handful of times, not once per row, and go nowhere near the
    reallocating numpy helpers.  Counts, no clock."""
    import numpy as np

    from repro.core.columnar import ColumnarBlock

    rng = np.random.default_rng(5)
    series = rng.standard_normal(64)
    symbols = np.arange(8, dtype=np.uint32)
    block = ColumnarBlock.from_records(
        [("0f" * 4, rid, series) for rid in range(1_000)], word_length=8
    )

    def banned(*_args, **_kwargs):
        raise AssertionError("a block append reallocated through numpy")

    monkeypatch.setattr(np, "vstack", banned)
    monkeypatch.setattr(np, "append", banned)
    buffers = []  # held, so an identity is never reused
    for rid in range(1_000, 2_000):
        assert block.append("0f" * 4, rid, series, symbols) == rid
        if not buffers or block.values.base is not buffers[-1]:
            buffers.append(block.values.base)
    assert 1 <= len(buffers) <= 3
    assert all(buffer is not None for buffer in buffers)
    assert block.n_rows == 2_000 and block.values.shape == (2_000, 64)
    assert block.record_ids.tolist() == list(range(2_000))


def test_served_write_batch_is_flat(tmp_path, monkeypatch):
    """One served ``write_batch`` of 8 rows on a WAL-backed service: one
    conversion, no signature decoded back, one log write, one fsync
    barrier, one block write per touched partition.  Counts, no clock."""
    from repro.core import TardisConfig, WriteAheadLog, build_tardis_index
    from repro.core import isaxt, local_index
    from repro.core.columnar import ColumnarBlock
    from repro.serving import QueryService
    from repro.tsdb import random_walk

    index = build_tardis_index(
        random_walk(400, length=48, seed=21).z_normalized(),
        TardisConfig(g_max_size=100, l_max_size=20, seed=9),
    )
    rows = random_walk(8, length=48, seed=22).z_normalized().values
    calls = {"decode": 0, "log_appends": 0, "sync": 0, "blocks": []}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            if key == "blocks":
                calls[key].append(id(args[0]))
            else:
                calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counted(isaxt, "decode_signature", "decode")
    counted(isaxt, "batch_decode_signatures", "decode")
    counted(local_index, "batch_decode_signatures", "decode")
    counted(WriteAheadLog, "log_appends", "log_appends")
    counted(WriteAheadLog, "sync", "sync")
    counted(ColumnarBlock, "append_rows", "blocks")
    with QueryService(index, wal=tmp_path / "flat.wal", max_batch=8,
                      max_delay_ms=0.0) as svc:
        enable_kernel_counters(reset=True)
        ack = svc.write(rows)
        disable_kernel_counters()
        totals = KERNELS.totals()
    assert ack.durable and ack.acknowledged == 8
    assert totals["paa"]["calls"] == 1
    assert totals["paa"]["elements"] == 8 * 48
    assert "decode" not in totals and calls["decode"] == 0
    assert calls["log_appends"] == 1 and calls["sync"] == 1
    touched = set(ack.partition_ids)
    assert len(calls["blocks"]) == len(set(calls["blocks"])) == len(touched)
    assert len(touched) < 8  # some partition took several rows in one write


# ---------------------------------------------------------------------------
# construction and persistence are whole-array


def test_build_and_load_are_flat(tmp_path, monkeypatch):
    """``build_tardis_index`` and ``load_index`` index every partition in
    one bulk tree body and one batched Bloom insert — no per-row
    ``insert_entry``, no per-item ``add``, one digest per inserted item —
    and a save stores the low value planes uncompressed.  Counts, no
    clock: the set-up time they buy is gated in ``perf/`` (``setup_s``)."""
    import numpy as np

    from repro.bloom import bloom_filter
    from repro.core import (
        TardisConfig, build_tardis_index, load_index, save_index,
    )
    from repro.core.persistence import _HEADER_BYTES, _parse_header
    from repro.core.sigtree import SigTree
    from repro.tsdb import random_walk

    calls = {"insert_entry": 0, "add": 0, "digests": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def digests_counted(items):
        digests = real_digests(items)
        calls["digests"] += len(digests)
        return digests

    counted(SigTree, "insert_entry")
    counted(bloom_filter.BloomFilter, "add")
    real_digests = bloom_filter._digests
    monkeypatch.setattr(bloom_filter, "_digests", digests_counted)
    dataset = random_walk(1_200, length=32, seed=3).z_normalized()
    index = build_tardis_index(
        dataset, TardisConfig(g_max_size=300, l_max_size=20)
    )
    assert len(index.partitions) > 1
    assert calls == {
        "insert_entry": 0, "add": 0, "digests": len(dataset),
    }
    save_index(index, tmp_path / "idx")
    back = load_index(tmp_path / "idx")
    assert back.n_records == len(dataset)
    assert calls == {
        "insert_entry": 0, "add": 0, "digests": len(dataset),
    }
    # Every partition file's values_low section is the loaded rows' six
    # low-order bytes, byte for byte: stored, not compressed.
    files = sorted((tmp_path / "idx" / "partitions").glob("p*.part"))
    assert len(files) == len(index.partitions)
    for file in files:
        raw = file.read_bytes()
        rows = _parse_header(raw[:_HEADER_BYTES], file)
        _dtype, shape, offset, nbytes, _crc = rows["values_low"]
        values = back.partitions[int(file.stem[1:])].block.values
        assert shape == (len(values), 32, 6) and len(values) > 0
        assert raw[offset:offset + nbytes] == np.ascontiguousarray(
            values.view(np.uint8).reshape(len(values), 32, 8)[..., :6]
        ).tobytes()
