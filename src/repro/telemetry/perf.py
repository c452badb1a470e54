"""Kernel-level cost attribution: named kernel counters.

Traces answer "where did this request go"; this module answers "where
do the cycles go" (docs/OBSERVABILITY.md, "Cost attribution"):

* **Kernel counters** — a process-wide :class:`KernelProfiler`
  (:data:`KERNELS`) accumulating ``(calls, elements, seconds)`` per
  *named kernel*: ``paa``, ``sax``, ``encode``, ``mindist``,
  ``euclidean``, ``leaf_scan``, ``deserialize`` and ``partition_load``.
  The hot paths guard every measurement behind ``KERNELS.enabled`` so the
  disabled cost is one attribute check (the same contract the tracer's
  ``NULL_SPAN`` makes).  When tracing is also on, each recorded kernel
  adds a ``kernel_<name>_s`` attribute to the innermost live span,
  giving per-span cost attribution for free.

* **Registry export** — :func:`publish_to_registry` mirrors the totals
  into the shared registry as ``kernel_<name>_{calls,elements,seconds}
  _total`` counters for Prometheus exposition.

* **Reports** — :func:`perf_report` / :func:`write_perf` emit the
  totals as a validated ``repro.perf/v1`` JSON document.

A function-level profile needs none of this: ``python -m cProfile -o
knn.prof -m repro knn ...`` profiles any command.
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

from .spans import get_tracer

__all__ = [
    "PERF_SCHEMA",
    "KernelProfiler",
    "KERNELS",
    "enable_kernel_counters",
    "disable_kernel_counters",
    "publish_to_registry",
    "perf_report",
    "write_perf",
    "validate_perf",
    "summarize_kernels",
]

PERF_SCHEMA = "repro.perf/v1"

_KERNEL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: The shared tracer, resolved once: recorded seconds also land on its
#: innermost live span.
_tracer = get_tracer()


class KernelProfiler:
    """Thread-safe ``kernel -> (calls, elements, seconds)`` accumulator.

    Disabled by default; every hot-path call site guards its clock reads
    behind ``profiler.enabled`` so the off cost is a single attribute
    check.  ``clock`` is ``perf_counter`` (wall seconds — kernel totals
    summed across concurrent workers may legitimately exceed the stage
    wall, exactly like CPU seconds).
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._kernels: dict[str, list] = {}

    # -- recording -----------------------------------------------------------

    def record(self, name: str, elements: int = 0, seconds: float = 0.0,
               calls: int = 1) -> None:
        """Accumulate one kernel invocation; no-op when disabled.

        When tracing is active the seconds also land on the innermost
        live span as a ``kernel_<name>_s`` attribute, so traces carry
        per-span cost attribution.
        """
        if not self.enabled:
            return
        with self._lock:
            row = self._kernels.get(name)
            if row is None:
                row = self._kernels[name] = [0, 0, 0.0]
            row[0] += calls
            row[1] += elements
            row[2] += seconds
        if seconds and _tracer.enabled:
            _tracer.current().incr(f"kernel_{name}_s", seconds)

    # -- lifecycle -----------------------------------------------------------

    def enable(self, reset: bool = False) -> "KernelProfiler":
        if reset:
            self.reset()
        self.enabled = True
        return self

    def disable(self) -> "KernelProfiler":
        self.enabled = False
        return self

    def reset(self) -> None:
        with self._lock:
            self._kernels.clear()

    # -- inspection ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """``name -> {calls, elements, seconds}``, a copy."""
        with self._lock:
            return {
                name: {"calls": row[0], "elements": row[1], "seconds": row[2]}
                for name, row in self._kernels.items()
            }

    def seconds(self, name: str) -> float:
        with self._lock:
            row = self._kernels.get(name)
            return row[2] if row else 0.0

    def snapshot(self) -> dict[str, tuple]:
        """Current state keyed by kernel name: ``(calls, elements, seconds)``."""
        with self._lock:
            return {name: tuple(row) for name, row in self._kernels.items()}


#: The library-wide kernel profiler.  Disabled by default; the CLI's
#: ``--perf`` flag or :func:`enable_kernel_counters` turns it on.
KERNELS = KernelProfiler(enabled=False)


def enable_kernel_counters(reset: bool = True) -> KernelProfiler:
    """Turn the shared kernel counters on (optionally clearing totals)."""
    return KERNELS.enable(reset=reset)


def disable_kernel_counters() -> KernelProfiler:
    """Turn the shared kernel counters off (totals are kept)."""
    return KERNELS.disable()


# ---------------------------------------------------------------------------
# Registry export: kernel_<name>_{calls,elements,seconds}_total counters
# ---------------------------------------------------------------------------

# Last totals already mirrored into the registry, so repeated publishes
# only increment counters by what is new (counters are monotone).
_published: dict[str, tuple] = {}
_publish_lock = threading.Lock()


def publish_to_registry(registry=None,
                        profiler: KernelProfiler | None = None) -> int:
    """Mirror kernel totals into the metrics registry; returns kernel count.

    Creates three counters per kernel —
    ``kernel_<name>_calls_total`` / ``_elements_total`` /
    ``_seconds_total`` — so kernel costs ride the existing Prometheus
    exposition and validation.
    Idempotent: only the delta since the previous publish is added.
    """
    from .metrics import get_registry

    registry = registry if registry is not None else get_registry()
    profiler = profiler if profiler is not None else KERNELS
    snapshot = profiler.snapshot()
    with _publish_lock:
        for name, (calls, elements, seconds) in sorted(snapshot.items()):
            prev = _published.get(name, (0, 0, 0.0))
            d_calls = calls - prev[0]
            d_elements = elements - prev[1]
            d_seconds = seconds - prev[2]
            if d_calls:
                registry.counter(
                    f"kernel_{name}_calls_total",
                    f"Invocations of the {name} kernel",
                ).inc(d_calls)
            if d_elements:
                registry.counter(
                    f"kernel_{name}_elements_total",
                    f"Elements processed by the {name} kernel",
                ).inc(d_elements)
            if d_seconds > 0:
                registry.counter(
                    f"kernel_{name}_seconds_total",
                    f"Wall seconds spent inside the {name} kernel",
                ).inc(d_seconds)
            _published[name] = (calls, elements, seconds)
    return len(snapshot)


# ---------------------------------------------------------------------------
# repro.perf/v1 document: export + validation (CI contract)
# ---------------------------------------------------------------------------


def perf_report(profiler: KernelProfiler | None = None) -> dict:
    """Assemble the ``repro.perf/v1`` document for the current process."""
    from .. import __version__

    profiler = profiler if profiler is not None else KERNELS
    kernels = profiler.totals()
    return {
        "schema": PERF_SCHEMA,
        "generated_by": f"repro {__version__}",
        "enabled": profiler.enabled,
        "kernels": {
            name: {
                "calls": row["calls"],
                "elements": row["elements"],
                "seconds": round(row["seconds"], 9),
            }
            for name, row in sorted(kernels.items())
        },
    }


def write_perf(path: str | Path,
               profiler: KernelProfiler | None = None) -> Path:
    """Write the ``repro.perf/v1`` document as JSON; returns the path."""
    path = Path(path)
    doc = perf_report(profiler=profiler)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def validate_perf(doc: object) -> int:
    """Check a ``repro.perf/v1`` document; returns the kernel count.

    Raises ``ValueError`` naming the first violation — the same contract
    as :func:`~repro.telemetry.exporters.validate_trace`.
    """
    if not isinstance(doc, dict):
        raise ValueError("perf document must be a JSON object")
    if doc.get("schema") != PERF_SCHEMA:
        raise ValueError(
            f"unexpected schema {doc.get('schema')!r}, want {PERF_SCHEMA!r}"
        )
    kernels = doc.get("kernels")
    if not isinstance(kernels, dict):
        raise ValueError("'kernels' must be an object")
    for name, row in kernels.items():
        if not _KERNEL_NAME_RE.match(name):
            raise ValueError(f"invalid kernel name {name!r}")
        if not isinstance(row, dict):
            raise ValueError(f"kernel {name}: row must be an object")
        for field in ("calls", "elements", "seconds"):
            value = row.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"kernel {name}: {field} must be a number >= 0"
                )
        if not isinstance(row.get("calls"), int):
            raise ValueError(f"kernel {name}: calls must be an integer")
    return len(kernels)


def summarize_kernels(kernels: dict[str, dict],
                      limit: int | None = None) -> str:
    """Human-oriented kernel table (``repro stats`` on a perf file)."""
    rows = sorted(
        kernels.items(), key=lambda kv: kv[1].get("seconds", 0.0),
        reverse=True,
    )
    if limit is not None:
        rows = rows[:limit]
    total_s = sum(row.get("seconds", 0.0) for row in kernels.values())
    lines = [
        f"{'kernel':<18} {'calls':>10} {'elements':>14} "
        f"{'seconds':>10} {'share':>6}"
    ]
    for name, row in rows:
        seconds = row.get("seconds", 0.0)
        share = (seconds / total_s) if total_s > 0 else 0.0
        lines.append(
            f"{name:<18} {row.get('calls', 0):>10,} "
            f"{row.get('elements', 0):>14,} {seconds:>10.4f} {share:>6.1%}"
        )
    lines.append(f"{'total':<18} {'':>10} {'':>14} {total_s:>10.4f}")
    return "\n".join(lines)

