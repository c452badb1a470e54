"""Telemetry: structured tracing, metrics, exporters, and logging.

The observability layer for the whole reproduction (see
docs/OBSERVABILITY.md).  Four pieces:

* :mod:`~repro.telemetry.spans` — a :class:`Tracer` producing nested,
  timed spans with attributes.  Disabled by default and near-free when
  disabled; the library's hot paths are instrumented unconditionally.
* :mod:`~repro.telemetry.metrics` — a :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms (Bloom outcomes, cache
  hits, MINDIST prunes, partitions loaded, ...).
* :mod:`~repro.telemetry.exporters` — JSON trace dumps
  (``repro.trace/v1``) and Prometheus text exposition, plus validators
  and human-oriented summaries.
* :mod:`~repro.telemetry.log` — one-call stdlib-logging setup for the
  ``repro.*`` module loggers.
* :mod:`~repro.telemetry.perf` — kernel-level cost attribution
  (``KERNELS`` counters, ``repro.perf/v1`` reports) and
  flamegraph-compatible collapsed-stack profiles.

Typical use::

    from repro import telemetry

    telemetry.enable_tracing()
    index = build_tardis_index(dataset)
    result = knn_multi_partitions_access(index, query, k=10)
    telemetry.write_trace(telemetry.get_tracer(), "trace.json")
    telemetry.write_metrics(telemetry.get_registry(), "metrics.prom")
"""

from . import context, log
from .carrier import (
    CARRIER_SCHEMA,
    COMPACT_SPAN_CAP,
    TraceContext,
    compact_spans,
    extract,
    inject,
    should_ship,
    spans_from_compact,
)
from .context import attach, current_span, detach, trace_id_of, under_parent
from .exporters import (
    TRACE_SCHEMA,
    aggregate_spans,
    metrics_to_text,
    orphan_roots,
    render_waterfall,
    summarize_trace,
    trace_to_dict,
    validate_metrics_text,
    validate_trace,
    write_metrics,
    write_trace,
)
from .federation import (
    federated_percentiles,
    federated_quantile,
    federation_to_text,
    histogram_from_wire,
    merge_registry_wires,
)
from .journal import (
    JOURNAL_SCHEMA,
    EventJournal,
    SlowQueryLog,
    get_journal,
    merge_journal_events,
    validate_journal_header,
    validate_journal_lines,
    validate_journal_record,
    write_journal,
    write_merged_journal,
)
from .perf import (
    KERNELS,
    PERF_SCHEMA,
    FoldedAccumulator,
    KernelProfiler,
    disable_kernel_counters,
    enable_kernel_counters,
    get_folded,
    get_kernel_profiler,
    perf_report,
    profile_to_folded,
    publish_to_registry,
    summarize_kernels,
    validate_perf,
    write_folded,
    write_perf,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_buckets,
)
from .spans import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    new_trace_id,
    span_from_dict,
    traced,
)

__all__ = [
    "Span",
    "Tracer",
    "NullSpan",
    "NULL_SPAN",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "traced",
    "new_trace_id",
    "span_from_dict",
    "CARRIER_SCHEMA",
    "COMPACT_SPAN_CAP",
    "TraceContext",
    "inject",
    "extract",
    "should_ship",
    "compact_spans",
    "spans_from_compact",
    "current_span",
    "attach",
    "detach",
    "under_parent",
    "trace_id_of",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_BUCKETS",
    "log_buckets",
    "TRACE_SCHEMA",
    "trace_to_dict",
    "write_trace",
    "validate_trace",
    "orphan_roots",
    "metrics_to_text",
    "write_metrics",
    "validate_metrics_text",
    "aggregate_spans",
    "summarize_trace",
    "render_waterfall",
    "merge_registry_wires",
    "histogram_from_wire",
    "federated_quantile",
    "federated_percentiles",
    "federation_to_text",
    "JOURNAL_SCHEMA",
    "EventJournal",
    "SlowQueryLog",
    "get_journal",
    "write_journal",
    "validate_journal_record",
    "validate_journal_header",
    "validate_journal_lines",
    "merge_journal_events",
    "write_merged_journal",
    "PERF_SCHEMA",
    "KERNELS",
    "KernelProfiler",
    "get_kernel_profiler",
    "enable_kernel_counters",
    "disable_kernel_counters",
    "publish_to_registry",
    "FoldedAccumulator",
    "get_folded",
    "profile_to_folded",
    "write_folded",
    "perf_report",
    "write_perf",
    "validate_perf",
    "summarize_kernels",
    "context",
    "log",
]
