"""Telemetry: structured tracing, metrics, exporters, and logging.

The observability layer for the whole reproduction (see
docs/OBSERVABILITY.md):

* :mod:`~repro.telemetry.spans` — a :class:`Tracer` producing nested,
  timed spans with attributes.  Disabled by default and near-free when
  disabled; the library's hot paths are instrumented unconditionally.
  ``Tracer.attach`` / ``detach`` / ``current`` and ``span(parent=...)``
  carry a request's trace across threads and queues.
* :mod:`~repro.telemetry.carrier` — the ``repro.tracectx/v1`` wire
  carrier and compact span summaries that carry a trace across
  processes.
* :mod:`~repro.telemetry.metrics` — a :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms (Bloom outcomes, cache
  hits, MINDIST prunes, partitions loaded, ...).
* :mod:`~repro.telemetry.exporters` — JSON trace dumps
  (``repro.trace/v1``) and Prometheus text exposition, plus validators
  and human-oriented summaries.
* :mod:`~repro.telemetry.federation` — merges per-shard registries into
  one cluster view (counters sum, histogram buckets add).
* :mod:`~repro.telemetry.journal` — the event journal and slow-query
  log (``repro.journal/v1``).
* :mod:`~repro.telemetry.log` — one-call stdlib-logging setup for the
  ``repro.*`` module loggers.
* :mod:`~repro.telemetry.perf` — kernel-level cost attribution
  (``KERNELS`` counters, ``repro.perf/v1`` reports).
* :mod:`~repro.telemetry.validate` — the schema gate CI runs over
  emitted files (``python -m repro.telemetry.validate``).

Typical use::

    from repro import telemetry

    telemetry.enable_tracing()
    index = build_tardis_index(dataset)
    result = knn_multi_partitions_access(index, query, k=10)
    telemetry.write_trace(telemetry.get_tracer(), "trace.json")
    telemetry.write_metrics(telemetry.get_registry(), "metrics.prom")
"""

from . import log
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
    KernelProfiler,
    disable_kernel_counters,
    enable_kernel_counters,
    perf_report,
    publish_to_registry,
    summarize_kernels,
    validate_perf,
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
    trace_id_of,
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
    "trace_id_of",
    "CARRIER_SCHEMA",
    "COMPACT_SPAN_CAP",
    "TraceContext",
    "inject",
    "extract",
    "should_ship",
    "compact_spans",
    "spans_from_compact",
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
    "enable_kernel_counters",
    "disable_kernel_counters",
    "publish_to_registry",
    "perf_report",
    "write_perf",
    "validate_perf",
    "summarize_kernels",
    "log",
]
