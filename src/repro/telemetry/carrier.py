"""Cross-process trace propagation: the ``repro.tracectx/v1`` carrier.

Distributed tracing needs two wire forms, both defined here:

* **The carrier** — a tiny ``{"schema", "trace_id", "parent_span_id"}``
  dict the router stamps into every shard-bound request doc (under the
  ``"ctx"`` key).  The shard extracts it and opens its request root with
  :meth:`Tracer.start_remote_span`, so the shard's whole subtree joins
  the router's trace instead of starting an unrelated one.

* **Compact span summaries** — shard replies ship their subtree back as
  a flat, capped list of ``[name, offset_s, duration_s, span_id,
  parent_id, attributes]`` rows rather than the recursive
  :meth:`Span.to_dict` tree.  Offsets are relative to the subtree root,
  so the router can rebase the whole thing onto its call span's local
  clock (cross-host clocks never line up; relative layout does).

Sampling is **deterministic in the trace id**: every replica and every
shard hashing the same ``trace_id`` reaches the same ship/skip decision,
so a sampled request is either shipped by *all* of its fan-out legs or
by none — partial traces never appear.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .spans import Span, _jsonable

__all__ = [
    "CARRIER_SCHEMA",
    "COMPACT_SPAN_CAP",
    "TraceContext",
    "inject",
    "extract",
    "should_ship",
    "compact_spans",
    "spans_from_compact",
    "reply_trace",
]

#: Schema tag stamped into every carrier dict.
CARRIER_SCHEMA = "repro.tracectx/v1"

#: Hard cap on span rows in one compact reply payload.  A large fan-out
#: kNN can touch hundreds of partitions; the reply must stay bounded no
#: matter what the shard did, so depth-first truncation applies past
#: this limit and the payload records how many rows were dropped.
COMPACT_SPAN_CAP = 128

#: Denominator for the deterministic sampling hash (64-bit digest).
_HASH_SPACE = float(1 << 64)


class TraceContext(NamedTuple):
    """Extracted carrier: the remote request identity a shard joins."""

    trace_id: str
    parent_span_id: str


def inject(span) -> dict | None:
    """Carrier dict naming ``span`` as the remote parent (or ``None``).

    Returns ``None`` for no-op spans (tracing disabled) so callers can
    do ``doc["ctx"] = inject(call_span)`` guarded by a single check.
    """
    if not isinstance(span, Span):
        return None
    return {
        "schema": CARRIER_SCHEMA,
        "trace_id": span.trace_id,
        "parent_span_id": span.span_id,
    }


def extract(doc) -> TraceContext | None:
    """Pull a :class:`TraceContext` out of a request doc's ``ctx`` field.

    Tolerant by design (wire docs cross version boundaries): anything
    that is not a well-formed ``repro.tracectx/v1`` carrier yields
    ``None`` and the receiver falls back to a local root.
    """
    if not isinstance(doc, dict):
        return None
    ctx = doc.get("ctx")
    if not isinstance(ctx, dict) or ctx.get("schema") != CARRIER_SCHEMA:
        return None
    trace_id = ctx.get("trace_id")
    parent = ctx.get("parent_span_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    if not isinstance(parent, str) or not parent:
        return None
    return TraceContext(trace_id, parent)


def should_ship(trace_id: str | None, rate: float) -> bool:
    """Deterministic sampling decision for one trace.

    Hashes the trace id (blake2b, 64-bit) against ``rate`` so the same
    request gets the same decision on every shard, replica, and retry.
    ``rate >= 1`` always ships; ``rate <= 0`` never does.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0 or not trace_id:
        return False
    digest = hashlib.blake2b(trace_id.encode("ascii", "replace"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") / _HASH_SPACE < rate


def compact_spans(root, cap: int = COMPACT_SPAN_CAP) -> dict | None:
    """Flatten ``root``'s subtree into the compact reply payload.

    Rows are depth-first ``[name, offset_s, duration_s, span_id,
    parent_id, attributes]`` with offsets relative to ``root``'s start;
    at most ``cap`` rows survive and ``truncated`` counts the rest.
    Attributes are trimmed to JSON scalars/lists (same policy as
    :meth:`Span.to_dict`); empty attribute dicts ship as ``None``.
    """
    if not isinstance(root, Span):
        return None
    base = root.start_s
    rows = []
    truncated = 0
    for span in root.iter_spans():
        if len(rows) >= max(1, int(cap)):
            truncated += 1
            continue
        attrs = {k: _jsonable(v) for k, v in span.attributes.items()} or None
        rows.append([
            span.name,
            round(max(0.0, span.start_s - base), 9),
            round(span.duration_s, 9),
            span.span_id,
            span.parent_id,
            attrs,
        ])
    return {
        "compact": True,
        "schema": CARRIER_SCHEMA,
        "spans": rows,
        "truncated": truncated,
    }


def reply_trace(root, doc: dict, ctx) -> dict | None:
    """What a ``"trace": true`` request gets back for its root span.

    A router-originated call (``ctx`` carrier present) ships the capped
    compact form, and only when the trace id samples in under the
    request's ``trace_sample`` — never the full recursive tree, so reply
    size stays bounded no matter the fan-out.  A direct (human) client
    gets the full tree: it drives the ``query-remote --trace`` timeline.
    ``None`` when tracing is off.
    """
    if not isinstance(root, Span):
        return None
    if ctx is None:
        return root.to_dict()
    rate = float(doc.get("trace_sample", 1.0))
    return compact_spans(root) if should_ship(root.trace_id, rate) else None


def spans_from_compact(payload, base_s: float = 0.0) -> Span | None:
    """Rebuild the subtree a :func:`compact_spans` payload describes.

    The first row is the subtree root; every other row attaches to its
    ``parent_id`` when that parent survived truncation, else directly to
    the root (truncation only ever drops *later* depth-first rows, so a
    parent missing its children is possible but never the reverse —
    still, be lenient).  Starts are rebased to ``base_s``.  Returns
    ``None`` for anything malformed.
    """
    if not isinstance(payload, dict) or not payload.get("compact"):
        return None
    rows = payload.get("spans")
    if not isinstance(rows, list) or not rows:
        return None
    by_id: dict[str, Span] = {}
    root: Span | None = None
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) < 6:
            continue
        name, offset, duration, span_id, parent_id, attrs = row[:6]
        span = Span(str(name), attrs if isinstance(attrs, dict) else None)
        if isinstance(span_id, str) and span_id:
            span.span_id = span_id
        span.parent_id = parent_id if isinstance(parent_id, str) else None
        span.start_s = base_s + float(offset or 0.0)
        span.end_s = span.start_s + float(duration or 0.0)
        if root is None:
            root = span
        else:
            parent = by_id.get(span.parent_id) or root
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
            parent.children.append(span)
        by_id[span.span_id] = span
    if root is not None and payload.get("truncated"):
        root.set("spans_truncated", int(payload["truncated"]))
    return root
