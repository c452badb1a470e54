"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Prometheus-flavoured in both naming rules and data model, but dependency
free and cheap enough to leave permanently wired into the query paths:
incrementing a counter is one lock acquisition and one float add.

Instruments are created lazily and idempotently through the registry::

    registry = get_registry()
    registry.counter("query_bloom_negatives_total",
                     "Exact-match queries short-circuited by a Bloom filter")
    registry.counter("query_bloom_negatives_total").inc()

Re-requesting a name returns the existing instrument; requesting it as a
different type raises.  Export with
:func:`repro.telemetry.exporters.metrics_to_text`.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_BUCKETS",
    "log_buckets",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets (seconds): spans simulated query latencies
#: from sub-millisecond Bloom rejections to minute-scale builds.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0
)


def log_buckets(lo: float, hi: float, per_decade: int = 4) -> tuple[float, ...]:
    """Logarithmically spaced histogram bounds covering ``[lo, hi]``.

    ``per_decade`` bounds per power of ten, so relative quantile-
    estimation error is uniform across the whole latency range — the
    right shape for serving latencies that span five decades (cache hits
    to straggler partition loads).
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for log-spaced buckets")
    if per_decade < 1:
        raise ValueError("per_decade must be at least 1")
    n = int(math.ceil(per_decade * math.log10(hi / lo)))
    bounds = [lo * (10.0 ** (i / per_decade)) for i in range(n + 1)]
    bounds[-1] = min(bounds[-1], hi) if bounds[-1] > hi else bounds[-1]
    # round to a stable decimal form so exposition text stays tidy
    rounded = []
    for b in bounds:
        r = float(f"{b:.6g}")
        if not rounded or r > rounded[-1]:
            rounded.append(r)
    return tuple(rounded)


class _Instrument:
    """Base: name, help text, and a lock shared by all mutations."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge(_Instrument):
    """A value that can go up and down (e.g. cache residency)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram(_Instrument):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  ``observe`` records one sample.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be distinct")
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +Inf last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    return
            self._bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``inf`` last."""
        out = []
        running = 0
        for bound, n in zip(self.bounds, self._bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self._bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Nearest-rank bucket selection with linear interpolation inside
        the bucket — the standard Prometheus ``histogram_quantile``
        estimate.  Accuracy is bounded by bucket width, which is why the
        serving latency histogram uses :func:`log_buckets`.  Samples in
        the ``+Inf`` bucket clamp to the largest finite bound.  Returns
        0.0 with no observations.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        cumulative = 0
        lower = 0.0
        for bound, n in zip(self.bounds, counts):
            if cumulative + n >= rank:
                fraction = (rank - cumulative) / n
                return lower + (bound - lower) * fraction
            cumulative += n
            lower = bound
        return self.bounds[-1]

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram, losslessly.

        Bucket counts, sum, and count add element-wise — the federation
        primitive that makes cluster percentiles correct: merging the
        per-shard *buckets* and then taking :meth:`quantile` is exactly
        equivalent to having observed the concatenated samples into one
        histogram, whereas averaging per-shard percentiles is not a
        percentile of anything.  Requires identical bucket bounds
        (always true for instruments created from the same code path).
        """
        if not isinstance(other, Histogram):
            raise TypeError("can only merge another Histogram")
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.name!r} has {len(self.bounds)} bounds, "
                f"{other.name!r} has {len(other.bounds)}"
            )
        with other._lock:
            counts = list(other._bucket_counts)
            other_sum = other._sum
            other_count = other._count
        with self._lock:
            for i, n in enumerate(counts):
                self._bucket_counts[i] += n
            self._sum += other_sum
            self._count += other_count

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` last (a copy)."""
        with self._lock:
            return list(self._bucket_counts)

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0


class MetricsRegistry:
    """Named instruments, created on first request, in creation order."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def reset(self) -> None:
        """Zero every instrument (keeps registrations and help text)."""
        for instrument in self.instruments():
            instrument.reset()

    def clear(self) -> None:
        """Forget every instrument."""
        with self._lock:
            self._instruments.clear()

    def to_wire(self) -> dict:
        """Full instrument state in JSON-safe form, keyed by name.

        The federation scrape payload (see
        :mod:`repro.telemetry.federation`): it carries kind/help/bounds
        so the *receiving* side can reconstruct instruments it has never
        seen, and it is plain lists/dicts so it survives the JSON wire.
        """
        wire: dict = {}
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                with instrument._lock:
                    wire[instrument.name] = {
                        "kind": "histogram",
                        "help": instrument.help,
                        "bounds": list(instrument.bounds),
                        "buckets": list(instrument._bucket_counts),
                        "sum": instrument._sum,
                        "count": instrument._count,
                    }
            else:
                wire[instrument.name] = {
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "value": instrument.value,
                }
        return wire


#: The library-wide registry used by all built-in instrumentation.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The shared metrics registry."""
    return _REGISTRY
