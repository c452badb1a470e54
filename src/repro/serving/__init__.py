"""Query-serving subsystem: a long-lived front-end over a TARDIS index.

The paper evaluates queries one at a time; the ROADMAP north star is a
system that serves heavy concurrent traffic.  This package supplies that
serving tier (docs/SERVING.md), built from five cooperating pieces:

* :mod:`~repro.serving.admission` — a bounded admission queue with a
  configurable backpressure policy (``block`` the caller or ``shed`` with
  a structured :class:`OverloadedError`) and graceful drain-on-shutdown.
* :mod:`~repro.serving.batcher` — a dynamic micro-batcher that groups
  queued queries by their Tardis-G home partition (reusing
  :mod:`repro.core.batch`'s grouping) so one partition load is amortized
  across the requests that queued up behind a busy consumer (an opt-in
  ``max_delay_ms`` linger can hold a window open for more).
* :mod:`~repro.serving.result_cache` — a keyed result cache (query
  digest + strategy + k + pth), invalidated by the service's own write
  and rebalance paths.
* :mod:`~repro.serving.slo` — an SLO tracker publishing p50/p95/p99
  latency (log-bucketed histogram estimates), queue depth, shed count,
  batch occupancy, partition skew and cache hit-rate through
  :mod:`repro.telemetry`.
* :mod:`~repro.serving.server` — a JSON-lines TCP front-end plus client,
  surfaced as ``python -m repro serve`` / ``repro query-remote`` /
  ``repro top``; ``trace`` and ``journal`` wire ops expose each
  request's span timeline and the slow-query event journal
  (docs/OBSERVABILITY.md).

Typical embedded use::

    from repro.serving import QueryRequest, QueryService

    with QueryService(index, max_batch=16) as service:
        result = service.query(QueryRequest(series, op="knn", k=10))

Answers are identical to the serial :mod:`repro.core.queries` path —
tests/serving/test_service_equivalence.py asserts it per backend.
"""

from .admission import (
    AdmissionQueue,
    BACKPRESSURE_POLICIES,
    DeadlineExceededError,
    OverloadedError,
)
from .requests import OPS, QueryRequest, result_to_wire, wire_to_result
from .result_cache import ResultCache
from .server import (
    PROTO_VERSION,
    RequestTimeoutError,
    ServingClient,
    TardisServer,
    serve,
)
from .service import QueryService
from .slo import SLOTracker

__all__ = [
    "AdmissionQueue",
    "BACKPRESSURE_POLICIES",
    "DeadlineExceededError",
    "OverloadedError",
    "OPS",
    "PROTO_VERSION",
    "QueryRequest",
    "RequestTimeoutError",
    "result_to_wire",
    "wire_to_result",
    "ResultCache",
    "ServingClient",
    "TardisServer",
    "serve",
    "QueryService",
    "SLOTracker",
]
