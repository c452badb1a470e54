"""Structured tracing: nested, timed spans with attributes.

A :class:`Tracer` produces a tree of :class:`Span` objects per top-level
operation (an index build, one query).  Instrumented code opens spans with
the context manager::

    tracer = get_tracer()
    with tracer.span("query/route", strategy="multi-partitions") as sp:
        ...
        sp.set("partition_id", pid)

or the decorator::

    @traced("build/global phase")
    def build_global(...): ...

Design constraints, in priority order:

* **Near-zero overhead when disabled.**  ``span()`` on a disabled tracer
  returns a shared no-op singleton: no allocation, no clock read, no lock.
  The hot query paths stay instrumented unconditionally and the cost is a
  single attribute check.
* **Thread-safe.**  The active-span stack is thread-local (each thread
  grows its own subtree); finished root spans are appended to a shared,
  lock-protected list.
* **Wall *and* simulated time.**  Spans measure real elapsed seconds
  (``perf_counter``); instrumentation that knows the simulated cluster
  cost records it as the ``simulated_s`` attribute so traces can drive the
  paper's Fig. 11/14 breakdowns.
* **Request-scoped context.**  Every span carries a ``trace_id`` /
  ``span_id`` / ``parent_id`` triple, and a span tree can cross thread and
  queue boundaries through explicit parent handoff: ``span(parent=...)``,
  the manual :meth:`Tracer.start_span` / :meth:`Tracer.end_span` pair, and
  :meth:`Tracer.attach` / :meth:`Tracer.detach` tokens that make a foreign
  span the current parent of this thread (see docs/OBSERVABILITY.md,
  "Trace context").
"""

from __future__ import annotations

import functools
import threading
import time
import uuid
from typing import Callable, Iterator

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
    "trace_id_of",
    "span_from_dict",
]


def new_trace_id() -> str:
    """A fresh 128-bit-derived hex trace/span identifier (16 chars)."""
    return uuid.uuid4().hex[:16]


def trace_id_of(span) -> str | None:
    """The trace id of a span handle, or ``None`` for no-op spans."""
    if isinstance(span, Span):
        return span.trace_id
    return None


class Span:
    """One timed operation: name, attributes, child spans, and identity.

    ``trace_id`` names the request-scoped tree the span belongs to (every
    descendant shares its root's trace id); ``span_id`` is unique per
    span; ``parent_id`` is ``None`` exactly for root spans.
    """

    __slots__ = ("name", "attributes", "start_s", "end_s", "children",
                 "trace_id", "span_id", "parent_id")

    def __init__(
        self,
        name: str,
        attributes: dict | None = None,
        trace_id: str | None = None,
        parent_id: str | None = None,
    ):
        self.name = name
        self.attributes: dict = dict(attributes) if attributes else {}
        self.start_s = time.perf_counter()
        self.end_s: float | None = None
        self.children: list["Span"] = []
        self.span_id = new_trace_id()
        self.trace_id = trace_id or new_trace_id()
        self.parent_id = parent_id

    # -- mutation ------------------------------------------------------------

    def set(self, key: str, value) -> None:
        """Set one attribute (overwrites)."""
        self.attributes[key] = value

    def incr(self, key: str, amount: float = 1) -> None:
        """Add to a numeric attribute, creating it at zero."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    def finish(self) -> None:
        if self.end_s is None:
            self.end_s = time.perf_counter()

    def link_child(self, child: "Span") -> "Span":
        """Attach ``child`` (and its subtree) under this span.

        Rewrites the child subtree's ``trace_id`` so the whole tree keeps
        the root's request identity — the primitive behind cross-thread
        and cross-process span stitching.
        """
        child.parent_id = self.span_id
        if child.trace_id != self.trace_id:
            for span in child.iter_spans():
                span.trace_id = self.trace_id
        self.children.append(child)
        return child

    # -- inspection ----------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Measured wall seconds (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self, _parent_start: float | None = None) -> dict:
        """JSON-serializable form (see docs/OBSERVABILITY.md for schema).

        Children additionally carry ``offset_s`` — their start relative
        to the parent's start — so waterfall renderers can lay spans out
        on a shared timeline without shipping absolute clock readings.
        """
        doc = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "duration_s": round(self.duration_s, 9),
            "attributes": {k: _jsonable(v) for k, v in self.attributes.items()},
            "children": [child.to_dict(self.start_s) for child in self.children],
        }
        if _parent_start is not None:
            doc["offset_s"] = round(max(0.0, self.start_s - _parent_start), 9)
        if self.parent_id is not None:
            doc["parent_id"] = self.parent_id
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, " \
               f"{len(self.children)} children)"


def span_from_dict(doc: dict, base_s: float = 0.0) -> Span:
    """Rebuild a span tree from its :meth:`Span.to_dict` wire form.

    The sharded router uses this to adopt the span tree a shard returned
    in a reply envelope (:meth:`Tracer.adopt` with the router's call
    span as parent then re-stamps the trace id across the subtree).
    Durations and relative ``offset_s`` positions survive the round
    trip; absolute wall-clock instants do not cross the wire, so the
    rebuilt tree is rebased to ``base_s`` (the adopting side passes its
    call span's start so the subtree lands on the local timeline).
    """
    span = Span(
        doc.get("name", "?"),
        doc.get("attributes") or {},
        trace_id=doc.get("trace_id"),
        parent_id=doc.get("parent_id"),
    )
    if doc.get("span_id"):
        span.span_id = doc["span_id"]
    span.start_s = base_s + float(doc.get("offset_s", 0.0))
    span.end_s = span.start_s + float(doc.get("duration_s", 0.0))
    for child in doc.get("children") or []:
        child_span = span_from_dict(child, base_s=span.start_s)
        child_span.parent_id = span.span_id
        span.children.append(child_span)
    return span


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class NullSpan:
    """The do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value) -> None:
        return None

    def incr(self, key: str, amount: float = 1) -> None:
        return None

    def finish(self) -> None:
        return None

    @property
    def duration_s(self) -> float:
        return 0.0

    #: Identity fields mirror :class:`Span` so handoff code can read them
    #: uniformly without isinstance checks.
    trace_id = None
    span_id = None
    parent_id = None


#: Shared no-op span: every ``span()`` call on a disabled tracer returns
#: this same object, so the disabled path allocates nothing.
NULL_SPAN = NullSpan()


class _AttachToken:
    """Opaque receipt from :meth:`Tracer.attach`, redeemed by ``detach``."""

    __slots__ = ("span",)

    def __init__(self, span):
        self.span = span


#: Shared no-op token: returned by ``attach`` when there is nothing to do
#: (tracing disabled or a no-op span), so ``detach`` stays branch-cheap.
NULL_TOKEN = _AttachToken(NULL_SPAN)


class _SpanContext:
    """Context manager that pushes/pops one live span.

    ``linked=True`` means the span was already attached to an explicit
    parent (``span(parent=...)``) and must not be re-linked to whatever
    happens to top this thread's stack.
    """

    __slots__ = ("_tracer", "_span", "_linked")

    def __init__(self, tracer: "Tracer", span: Span, linked: bool = False):
        self._tracer = tracer
        self._span = span
        self._linked = linked

    def __enter__(self) -> Span:
        self._tracer._push(self._span, linked=self._linked)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.set("error", f"{exc_type.__name__}: {exc}")
        self._span.finish()
        self._tracer._pop(self._span)


class Tracer:
    """Produces nested spans; collects finished root spans.

    One module-level tracer (see :func:`get_tracer`) serves the whole
    library; tests may instantiate private tracers.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots = []  # list, or deque(maxlen=...) after set_root_limit

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, parent: Span | NullSpan | None = None,
             **attributes):
        """Open a span as a context manager; no-op when disabled.

        ``parent`` hands the span an explicit parent (normally one
        started on another thread via :meth:`start_span`), overriding the
        thread-local stack — the primitive that lets a trace survive
        queue and thread boundaries.
        """
        if not self.enabled:
            return NULL_SPAN
        span = Span(name, attributes)
        linked = False
        if parent is not None and isinstance(parent, Span):
            parent.link_child(span)
            linked = True
        return _SpanContext(self, span, linked=linked)

    def start_span(self, name: str, parent: Span | NullSpan | None = None,
                   **attributes):
        """Begin a manually-managed span (close with :meth:`end_span`).

        Unlike :meth:`span`, the returned span is *not* pushed on any
        thread's stack: it is a handle meant to be carried across queue /
        thread boundaries (a serving request's root, a queue-wait
        segment).  With ``parent`` given, the span joins that parent's
        tree; otherwise it starts a new trace.
        Returns :data:`NULL_SPAN` when disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        span = Span(name, attributes)
        if parent is not None and isinstance(parent, Span):
            parent.link_child(span)
        return span

    def start_remote_span(self, name: str, trace_id: str,
                          parent_span_id: str, **attributes):
        """Begin a span whose parent lives in another process.

        The distributed-tracing entry point on the *receiving* side of a
        ``repro.tracectx/v1`` carrier (see
        :mod:`repro.telemetry.carrier`): the span joins the remote
        request's ``trace_id`` and names the caller's span as its
        parent.  Because ``parent_id`` is set, :meth:`end_span` will
        *not* collect it as a local root — the shard ships it back in
        the reply for the router to re-parent, so remote-rooted work
        never pollutes the local orphan gate.  Returns
        :data:`NULL_SPAN` when disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(name, attributes, trace_id=trace_id,
                    parent_id=parent_span_id)

    def end_span(self, span) -> None:
        """Finish a :meth:`start_span` span; roots join the collection.

        Idempotent: ending an already-ended (or no-op) span does nothing,
        so error paths can end unconditionally.
        """
        if not isinstance(span, Span) or span.end_s is not None:
            return
        span.finish()
        if span.parent_id is None:
            with self._lock:
                self._roots.append(span)

    def attach(self, span) -> _AttachToken:
        """Make ``span`` this thread's current parent; returns a token.

        Spans subsequently opened on this thread nest under ``span`` even
        though it was started elsewhere.  Balance with :meth:`detach`
        (tokens enforce ordering).  No-op (shared token) when disabled or
        when handed a no-op span, so call sites need no guards.
        """
        if not self.enabled or not isinstance(span, Span):
            return NULL_TOKEN
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)
        return _AttachToken(span)

    def detach(self, token: _AttachToken) -> None:
        """Undo an :meth:`attach`; must nest properly with opened spans."""
        if token is NULL_TOKEN:
            return
        stack = getattr(self._local, "stack", None)
        if not stack or stack[-1] is not token.span:
            raise RuntimeError(
                f"detach of {token.span.name!r} out of order"
            )
        stack.pop()

    def current(self):
        """The innermost live span of this thread (or the no-op span).

        Lets leaf instrumentation annotate whatever span is active without
        threading a span object through every call::

            get_tracer().current().incr("bloom_negatives")
        """
        if not self.enabled:
            return NULL_SPAN
        stack = getattr(self._local, "stack", None)
        if not stack:
            return NULL_SPAN
        return stack[-1]

    def _push(self, span: Span, linked: bool = False) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if not linked and stack:
            stack[-1].link_child(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if not stack or stack[-1] is not span:  # pragma: no cover - misuse
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )
        stack.pop()
        if span.parent_id is None:
            with self._lock:
                self._roots.append(span)

    # -- collection ----------------------------------------------------------

    @property
    def roots(self) -> list[Span]:
        """Finished top-level spans, in completion order (a copy)."""
        with self._lock:
            return list(self._roots)

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, depth-first across all roots."""
        for root in self.roots:
            yield from root.iter_spans()

    def find_trace(self, trace_id: str) -> Span | None:
        """The finished root span with ``trace_id``, newest first."""
        with self._lock:
            roots = list(self._roots)
        for root in reversed(roots):
            if root.trace_id == trace_id:
                return root
        return None

    def set_root_limit(self, max_roots: int | None) -> None:
        """Bound the finished-roots collection (ring-buffer semantics).

        Long-lived processes (``repro serve``) keep only the newest
        ``max_roots`` request trees instead of growing without bound;
        ``None`` restores unbounded collection (the CLI batch default).
        """
        from collections import deque

        with self._lock:
            if max_roots is None:
                self._roots = list(self._roots)
            else:
                if max_roots <= 0:
                    raise ValueError("max_roots must be positive")
                self._roots = deque(self._roots, maxlen=max_roots)

    def adopt(self, spans: list[Span], parent: Span | None = None) -> None:
        """Fold finished spans collected elsewhere into this tracer.

        Used by the router: a shard ships the span tree of its part of a
        request back with the response, and the router adopts it so the
        trace stays complete across processes.  With ``parent`` given
        (the router's span that dispatched the call), the shipped spans
        are stitched under it instead of becoming orphan roots.
        """
        if not spans:
            return
        if parent is not None and isinstance(parent, Span):
            for span in spans:
                parent.link_child(span)
            return
        with self._lock:
            self._roots.extend(spans)

    def reset(self) -> None:
        """Drop collected spans (keeps the enabled flag and root limit)."""
        with self._lock:
            self._roots.clear()

    # -- decorator -----------------------------------------------------------

    def traced(self, name: str | None = None) -> Callable:
        """Decorator form: the wrapped call becomes one span."""

        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                with self.span(span_name):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate


#: The library-wide tracer.  Disabled by default; ``--trace`` on the CLI or
#: :func:`enable_tracing` turns it on.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The shared tracer used by all built-in instrumentation."""
    return _TRACER


def enable_tracing(reset: bool = True) -> Tracer:
    """Turn the shared tracer on (optionally clearing prior spans)."""
    if reset:
        _TRACER.reset()
    _TRACER.enabled = True
    return _TRACER


def disable_tracing() -> Tracer:
    """Turn the shared tracer off (collected spans are kept)."""
    _TRACER.enabled = False
    return _TRACER


def traced(name: str | None = None) -> Callable:
    """Decorator tracing through the shared tracer (checked at call time)."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _TRACER
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
