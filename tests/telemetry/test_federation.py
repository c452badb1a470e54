"""Histogram merge losslessness and registry federation semantics.

The cluster p50/p95/p99 claim rests on one property: merging per-shard
bucket histograms and *then* taking quantiles must equal taking
quantiles of the concatenated sample stream (within bucket resolution —
bucketing is the only information loss, and merging adds none).  The
hypothesis tests below pin exactly that, plus the exact count/sum
preservation that makes merged ``_sum``/``_count`` series honest.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.federation import (
    federated_percentiles,
    federated_quantile,
    histogram_from_wire,
    merge_registry_wires,
)
from repro.telemetry.metrics import Histogram, MetricsRegistry

BOUNDS = tuple(0.001 * (2 ** i) for i in range(12))


def _hist(samples, name="h"):
    hist = Histogram(name, buckets=BOUNDS)
    for s in samples:
        hist.observe(s)
    return hist


samples_strategy = st.lists(
    st.floats(min_value=1e-5, max_value=5.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


class TestHistogramMerge:
    def test_type_and_bounds_guards(self):
        hist = _hist([0.01])
        with pytest.raises(TypeError):
            hist.merge({"kind": "histogram"})
        other = Histogram("h", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            hist.merge(other)

    def test_merge_adds_buckets_sum_count(self):
        a = _hist([0.001, 0.5, 3.0])
        b = _hist([0.002, 0.5])
        a.merge(b)
        assert a._count == 5
        assert a._sum == pytest.approx(0.001 + 0.5 + 3.0 + 0.002 + 0.5)
        direct = _hist([0.001, 0.5, 3.0, 0.002, 0.5])
        assert a.bucket_counts() == direct.bucket_counts()

    @settings(max_examples=50, deadline=None)
    @given(shards=st.lists(samples_strategy, min_size=2, max_size=4))
    def test_merged_equals_concatenated_exactly(self, shards):
        """Merging shard histograms is *lossless*: the merged state is
        bit-identical to observing every sample into one histogram, so
        merged quantiles == concatenated-sample quantiles by
        construction (no tolerance needed at the bucket level)."""
        merged = _hist(shards[0])
        for shard_samples in shards[1:]:
            merged.merge(_hist(shard_samples))
        concatenated = _hist([s for chunk in shards for s in chunk])
        assert merged.bucket_counts() == concatenated.bucket_counts()
        assert merged._count == concatenated._count
        assert merged._sum == pytest.approx(concatenated._sum)
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == concatenated.quantile(q)

    @settings(max_examples=30, deadline=None)
    @given(shards=st.lists(samples_strategy, min_size=2, max_size=4))
    def test_merged_quantile_within_one_bucket_of_raw(self, shards):
        """Acceptance-bar property: the cluster percentile read off
        merged buckets sits within one log-bucket width of the true
        percentile of the raw concatenated samples."""
        raw = np.array([s for chunk in shards for s in chunk])
        wires = {
            i: {"shard_request_seconds": _registry_wire(chunk)}
            for i, chunk in enumerate(shards)
        }
        merged = merge_registry_wires(wires)["shard_request_seconds"]
        for q in (0.5, 0.95):
            estimate = federated_quantile(merged, q)
            # nearest-rank on the raw samples — the same order statistic
            # the bucket estimator targets (linear interpolation is a
            # different estimator and can land a bucket away)
            true = float(np.quantile(raw, q, method="inverted_cdf"))
            lo, hi = _bucket_of(true)
            assert lo <= estimate <= hi

    def test_merge_does_not_mutate_other(self):
        a = _hist([0.01])
        b = _hist([0.02, 0.03])
        before = b.bucket_counts()
        a.merge(b)
        assert b.bucket_counts() == before


def _registry_wire(samples):
    return {
        "kind": "histogram", "help": "", "bounds": list(BOUNDS),
        "buckets": _hist(samples).bucket_counts(),
        "sum": float(sum(samples)), "count": len(samples),
    }


def _bucket_of(value):
    """[lower, upper] bounds of the bucket ``value`` falls in."""
    lower = 0.0
    for bound in BOUNDS:
        if value <= bound:
            return lower, bound
        lower = bound
    return lower, math.inf


class TestRegistryFederation:
    def _wires(self):
        wires = {}
        for shard in (0, 1, 2):
            registry = MetricsRegistry()
            registry.counter("requests_total", "calls").inc(10 * (shard + 1))
            registry.gauge("queue_depth", "queued").set(shard)
            registry.histogram(
                "latency_seconds", "latency", buckets=BOUNDS
            ).observe(0.01 * (shard + 1))
            wires[shard] = registry.to_wire()
        return wires

    def test_counters_sum_with_breakdown(self):
        merged = merge_registry_wires(self._wires())
        counter = merged["requests_total"]
        assert counter["value"] == 60.0
        assert counter["by_shard"] == {"0": 10.0, "1": 20.0, "2": 30.0}

    def test_gauges_keep_per_shard_values(self):
        merged = merge_registry_wires(self._wires())
        gauge = merged["queue_depth"]
        assert "value" not in gauge
        assert gauge["by_shard"] == {"0": 0.0, "1": 1.0, "2": 2.0}

    def test_histograms_merge_buckets(self):
        merged = merge_registry_wires(self._wires())
        hist = merged["latency_seconds"]
        assert hist["count"] == 3
        assert hist["by_shard_count"] == {"0": 1, "1": 1, "2": 1}
        assert sum(hist["buckets"]) == 3

    def test_bounds_mismatch_is_skipped_not_corrupted(self):
        wires = self._wires()
        wires[9] = {"latency_seconds": {
            "kind": "histogram", "help": "", "bounds": [0.1, 1.0],
            "buckets": [5, 5, 5], "sum": 1.0, "count": 15,
        }}
        merged = merge_registry_wires(wires)
        hist = merged["latency_seconds"]
        assert hist["count"] == 3  # the skewed shard contributed nothing
        assert hist["skipped_shards"] == ["9"]

    def test_histogram_from_wire_round_trip(self):
        wire = _registry_wire([0.01, 0.5, 0.5])
        hist = histogram_from_wire(wire, "latency")
        assert hist._count == 3
        assert hist.bucket_counts() == wire["buckets"]

    def test_federated_percentiles_shape(self):
        merged = merge_registry_wires(self._wires())
        report = federated_percentiles(merged["latency_seconds"])
        assert set(report) == {"p50_s", "p95_s", "p99_s", "samples"}
        assert report["samples"] == 3
