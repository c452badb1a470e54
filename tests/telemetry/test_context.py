"""Trace context: ids, explicit parent handoff, attach/detach tokens."""

import threading

import pytest

from repro.telemetry.spans import (
    NULL_SPAN,
    NULL_TOKEN,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    new_trace_id,
    trace_id_of,
)


class TestIdentity:
    def test_new_trace_id_shape(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 for i in ids)
        assert all(int(i, 16) >= 0 for i in ids)

    def test_span_carries_identity_triple(self):
        span = Span("root")
        assert span.parent_id is None
        assert span.trace_id and span.span_id
        child = Span("child")
        span.link_child(child)
        assert child.parent_id == span.span_id
        assert child.trace_id == span.trace_id

    def test_link_child_rewrites_subtree_trace_id(self):
        root = Span("root")
        foreign = Span("foreign")
        grandchild = Span("grand")
        foreign.link_child(grandchild)
        root.link_child(foreign)
        assert {s.trace_id for s in root.iter_spans()} == {root.trace_id}

    def test_trace_id_of(self):
        span = Span("x")
        assert trace_id_of(span) == span.trace_id
        assert trace_id_of(NULL_SPAN) is None
        assert trace_id_of(None) is None


class TestParentHandoff:
    def test_span_parent_overrides_thread_stack(self):
        tracer = Tracer(enabled=True)
        foreign = tracer.start_span("foreign-root")
        with tracer.span("local-root"):
            with tracer.span("handed-off", parent=foreign) as inner:
                assert inner.trace_id == foreign.trace_id
        tracer.end_span(foreign)
        # Only the two roots registered; handed-off lives under foreign.
        names = [r.name for r in tracer.roots]
        assert names == ["local-root", "foreign-root"]
        assert [c.name for c in foreign.children] == ["handed-off"]

    def test_start_end_span_crosses_threads(self):
        tracer = Tracer(enabled=True)
        root = tracer.start_span("serve/request")
        queue_span = tracer.start_span("serve/queue-wait", parent=root)

        def worker():
            tracer.end_span(queue_span)
            execute = tracer.start_span("serve/execute", parent=root)
            with tracer.span("query/load", parent=execute):
                pass
            tracer.end_span(execute)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.end_span(root)
        assert len(tracer.roots) == 1
        (only,) = tracer.roots
        assert [c.name for c in only.children] == [
            "serve/queue-wait", "serve/execute"
        ]
        assert {s.trace_id for s in only.iter_spans()} == {only.trace_id}

    def test_end_span_is_idempotent(self):
        tracer = Tracer(enabled=True)
        span = tracer.start_span("once")
        tracer.end_span(span)
        first = span.end_s
        tracer.end_span(span)
        assert span.end_s == first
        assert len(tracer.roots) == 1
        tracer.end_span(NULL_SPAN)  # no-op, no raise

    def test_disabled_tracer_hands_out_null(self):
        tracer = Tracer(enabled=False)
        assert tracer.start_span("x") is NULL_SPAN
        assert tracer.attach(NULL_SPAN) is NULL_TOKEN
        tracer.detach(NULL_TOKEN)  # no-op


class TestAttachDetach:
    def test_attach_makes_span_current(self):
        tracer = Tracer(enabled=True)
        root = tracer.start_span("root")
        token = tracer.attach(root)
        assert tracer.current() is root
        with tracer.span("child"):
            pass
        tracer.detach(token)
        assert tracer.current() is NULL_SPAN
        tracer.end_span(root)
        assert [c.name for c in root.children] == ["child"]
        assert [r.name for r in tracer.roots] == ["root"]

    def test_detach_out_of_order_raises(self):
        tracer = Tracer(enabled=True)
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        token_a = tracer.attach(a)
        tracer.attach(b)
        with pytest.raises(RuntimeError):
            tracer.detach(token_a)

    def test_module_level_helpers_use_shared_tracer(self):
        tracer = enable_tracing()
        try:
            assert get_tracer() is tracer
            root = tracer.start_span("root")
            token = get_tracer().attach(root)
            assert get_tracer().current() is root
            with tracer.span("nested"):
                pass
            get_tracer().detach(token)
            assert get_tracer().current() is not root
            tracer.end_span(root)
            assert [c.name for c in root.children] == ["nested"]
        finally:
            disable_tracing()


class TestRootCollection:
    def test_attached_parent_spans_never_become_roots(self):
        tracer = Tracer(enabled=True)
        root = tracer.start_span("serve/request")
        for _ in range(3):
            child = tracer.start_span("serve/execute", parent=root)
            tracer.end_span(child)
        tracer.end_span(root)
        assert [r.name for r in tracer.roots] == ["serve/request"]

    def test_root_limit_rings(self):
        tracer = Tracer(enabled=True)
        tracer.set_root_limit(3)
        for i in range(10):
            span = tracer.start_span(f"r{i}")
            tracer.end_span(span)
        assert [r.name for r in tracer.roots] == ["r7", "r8", "r9"]
        tracer.set_root_limit(None)  # back to unbounded
        span = tracer.start_span("r10")
        tracer.end_span(span)
        assert len(tracer.roots) == 4

    def test_root_limit_validation(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            tracer.set_root_limit(0)

    def test_find_trace_newest_first(self):
        tracer = Tracer(enabled=True)
        first = tracer.start_span("a")
        tracer.end_span(first)
        second = tracer.start_span("b")
        tracer.end_span(second)
        assert tracer.find_trace(second.trace_id) is second
        assert tracer.find_trace(first.trace_id) is first
        assert tracer.find_trace("nope") is None

    def test_adopt_with_parent_reparents(self):
        tracer = Tracer(enabled=True)
        parent = tracer.start_span("driver")
        shipped = [Span("child-a"), Span("child-b")]
        for span in shipped:
            span.finish()
        tracer.adopt(shipped, parent=parent)
        tracer.end_span(parent)
        assert [r.name for r in tracer.roots] == ["driver"]
        assert [c.name for c in parent.children] == ["child-a", "child-b"]
        assert {s.trace_id for s in parent.iter_spans()} == {parent.trace_id}

    def test_adopt_without_parent_extends_roots(self):
        tracer = Tracer(enabled=True)
        shipped = [Span("lonely")]
        shipped[0].finish()
        tracer.adopt(shipped)
        assert [r.name for r in tracer.roots] == ["lonely"]
