"""Kernel-level cost attribution and collapsed-stack profiling.

Traces (PR 4) answer "where did this request go"; this module answers
"where do the cycles go".  It adds three pieces to the observability
layer (docs/OBSERVABILITY.md, "Cost attribution & profiling"):

* **Kernel counters** — a process-wide :class:`KernelProfiler`
  (:data:`KERNELS`) accumulating ``(calls, elements, seconds)`` per
  *named kernel*: ``paa``, ``sax``, ``encode``, ``mindist``,
  ``euclidean``, ``leaf_scan``, ``deserialize``, ``partition_load``,
  and the executor kernels ``exec_compute`` / ``exec_dispatch``.  The
  hot paths guard every measurement behind ``KERNELS.enabled`` so the
  disabled cost is one attribute check (the same contract the tracer's
  ``NULL_SPAN`` makes).  When tracing is also on, each recorded kernel
  adds a ``kernel_<name>_s`` attribute to the innermost live span,
  giving per-span cost attribution for free.

* **Registry export** — :func:`publish_to_registry` mirrors the totals
  into the shared registry as ``kernel_<name>_{calls,elements,seconds}
  _total`` counters for Prometheus exposition.

* **Collapsed-stack profiles** — :func:`profile_to_folded` turns
  cProfile data into flamegraph-compatible folded stacks
  (``caller;callee microseconds``); the tracer's ``--profile-spans``
  hook feeds a shared :class:`FoldedAccumulator` when folded capture is
  enabled, and :func:`perf_report` / :func:`write_perf` emit the whole
  picture as a validated ``repro.perf/v1`` JSON document.
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

__all__ = [
    "PERF_SCHEMA",
    "KernelProfiler",
    "KERNELS",
    "get_kernel_profiler",
    "enable_kernel_counters",
    "disable_kernel_counters",
    "publish_to_registry",
    "FoldedAccumulator",
    "get_folded",
    "profile_to_folded",
    "folded_to_lines",
    "write_folded",
    "perf_report",
    "write_perf",
    "validate_perf",
    "summarize_kernels",
]

PERF_SCHEMA = "repro.perf/v1"

_KERNEL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

# Cached module handle: resolving the tracer through the module avoids a
# perf->spans->perf import cycle while keeping the enabled-path cost at
# one attribute chain (spans imports perf lazily for folded capture).
_tracer = None


def _get_tracer():
    global _tracer
    if _tracer is None:
        from .spans import get_tracer

        _tracer = get_tracer()
    return _tracer


class _KernelSection:
    """Context-manager convenience over :meth:`KernelProfiler.record`."""

    __slots__ = ("_profiler", "_name", "_elements", "_start")

    def __init__(self, profiler: "KernelProfiler", name: str, elements: int):
        self._profiler = profiler
        self._name = name
        self._elements = elements
        self._start = 0.0

    def __enter__(self) -> "_KernelSection":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.record(
            self._name,
            elements=self._elements,
            seconds=time.perf_counter() - self._start,
        )


class _NullSection:
    """Shared no-op section for the disabled path (no allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SECTION = _NullSection()


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
        if seconds:
            tracer = _get_tracer()
            if tracer.enabled:
                tracer.current().incr(f"kernel_{name}_s", seconds)

    def section(self, name: str, elements: int = 0):
        """``with KERNELS.section("paa", n): ...`` timing convenience.

        Hot paths should instead guard explicit clock reads behind
        ``enabled`` (no allocation); this is for cold call sites and
        tests.
        """
        if not self.enabled:
            return _NULL_SECTION
        return _KernelSection(self, name, elements)

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


def get_kernel_profiler() -> KernelProfiler:
    """The shared kernel profiler used by all built-in instrumentation."""
    return KERNELS


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


def _reset_published() -> None:
    """Forget the publish watermark (test helper, and registry resets)."""
    with _publish_lock:
        _published.clear()


# ---------------------------------------------------------------------------
# Collapsed stacks (flamegraph .folded) from cProfile data
# ---------------------------------------------------------------------------


def _frame_name(func: tuple) -> str:
    """``file:line:function`` frame label, flamegraph-safe.

    Semicolons separate stack frames and spaces separate the stack from
    its value in the folded format, so both are scrubbed.
    """
    filename, lineno, name = func
    if filename == "~":  # builtins have no file
        label = name.strip("<>")
    else:
        label = f"{Path(filename).name}:{lineno}:{name}"
    return label.replace(";", ",").replace(" ", "_")


def profile_to_folded(profile_or_stats) -> dict[str, float]:
    """Collapse cProfile data into folded ``caller;callee`` stacks.

    Values are *self* seconds: each function's total time (``tt``) is
    split across its callers proportionally to the per-caller cumulative
    time, so the folded values sum to the profile's total self time —
    the invariant flamegraph renderers expect.  cProfile records only
    pairwise caller/callee edges, so stacks are two frames deep; that is
    enough to see which caller makes a kernel hot.
    """
    import cProfile
    import pstats

    if isinstance(profile_or_stats, cProfile.Profile):
        stats = pstats.Stats(profile_or_stats)
    else:
        stats = profile_or_stats
    folded: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        if tt <= 0:
            continue
        frame = _frame_name(func)
        if not callers:
            folded[frame] = folded.get(frame, 0.0) + tt
            continue
        total_caller_ct = sum(entry[3] for entry in callers.values())
        for caller, (_ccc, _cnc, _ctt, cct) in callers.items():
            weight = (cct / total_caller_ct) if total_caller_ct > 0 else (
                1.0 / len(callers)
            )
            stack = f"{_frame_name(caller)};{frame}"
            folded[stack] = folded.get(stack, 0.0) + tt * weight
    return folded


def folded_to_lines(folded: dict[str, float]) -> list[str]:
    """Render folded stacks as ``stack microseconds`` lines, sorted."""
    lines = []
    for stack in sorted(folded):
        micros = max(1, round(folded[stack] * 1e6))
        lines.append(f"{stack} {micros}")
    return lines


def write_folded(folded: dict[str, float], path: str | Path) -> Path:
    """Write folded stacks in flamegraph.pl / speedscope format."""
    path = Path(path)
    lines = folded_to_lines(folded)
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


class FoldedAccumulator:
    """Thread-safe merge of folded-stack dictionaries across spans."""

    def __init__(self):
        self._lock = threading.Lock()
        self._folded: dict[str, float] = {}
        self.profiles = 0

    def add(self, folded: dict[str, float]) -> None:
        with self._lock:
            self.profiles += 1
            for stack, seconds in folded.items():
                self._folded[stack] = self._folded.get(stack, 0.0) + seconds

    def folded(self) -> dict[str, float]:
        with self._lock:
            return dict(self._folded)

    def write(self, path: str | Path) -> Path:
        return write_folded(self.folded(), path)

    def reset(self) -> None:
        with self._lock:
            self._folded.clear()
            self.profiles = 0


#: Shared accumulator fed by the tracer's ``--profile-spans`` hook when
#: folded capture is enabled (``enable_span_profiling(folded=True)``).
_FOLDED = FoldedAccumulator()


def get_folded() -> FoldedAccumulator:
    """The shared folded-stack accumulator."""
    return _FOLDED


# ---------------------------------------------------------------------------
# repro.perf/v1 document: export + validation (CI contract)
# ---------------------------------------------------------------------------


def perf_report(profiler: KernelProfiler | None = None,
                folded: FoldedAccumulator | None = None) -> dict:
    """Assemble the ``repro.perf/v1`` document for the current process."""
    from .. import __version__

    profiler = profiler if profiler is not None else KERNELS
    folded = folded if folded is not None else _FOLDED
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
        "folded_profiles": folded.profiles,
    }


def write_perf(path: str | Path,
               profiler: KernelProfiler | None = None,
               folded: FoldedAccumulator | None = None) -> Path:
    """Write the ``repro.perf/v1`` document as JSON; returns the path."""
    path = Path(path)
    doc = perf_report(profiler=profiler, folded=folded)
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
    profiles = doc.get("folded_profiles", 0)
    if not isinstance(profiles, int) or profiles < 0:
        raise ValueError("'folded_profiles' must be an integer >= 0")
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

