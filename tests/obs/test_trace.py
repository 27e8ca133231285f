"""Tests for spans, the collector, and capture lifetimes."""

import pytest

from repro import obs
from repro.obs import trace


class TestSpanNesting:
    def test_parent_child_linkage(self):
        with obs.capture() as collector:
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_parent(self):
        with obs.capture() as collector:
            with obs.span("parent") as parent:
                with obs.span("first"):
                    pass
                with obs.span("second"):
                    pass
        first, second = collector.find_spans("first")[0], collector.find_spans("second")[0]
        assert first.parent_id == parent.span_id
        assert second.parent_id == parent.span_id
        assert collector.children_of(parent) == [first, second]

    def test_completion_order_is_depth_first(self):
        # Children finish before their parents, so completion order is the
        # post-order walk of the span tree.
        with obs.capture() as collector:
            with obs.span("a"):
                with obs.span("b"):
                    pass
                with obs.span("c"):
                    pass
        assert [s.name for s in collector.spans] == ["b", "c", "a"]

    def test_current_span_tracks_with_structure(self):
        assert obs.current_span() is None
        with obs.capture():
            with obs.span("outer") as outer:
                assert obs.current_span() is outer
                with obs.span("inner") as inner:
                    assert obs.current_span() is inner
                assert obs.current_span() is outer
            assert obs.current_span() is None

    def test_set_attaches_attributes_chainably(self):
        with obs.capture() as collector:
            with obs.span("s", a=1) as span:
                assert span.set(b=2) is span
        finished = collector.spans[0]
        assert finished.attributes == {"a": 1, "b": 2}
        assert finished.duration_s >= 0.0

    def test_span_finished_on_exception(self):
        with obs.capture() as collector:
            with pytest.raises(RuntimeError):
                with obs.span("doomed"):
                    raise RuntimeError("boom")
        assert [s.name for s in collector.spans] == ["doomed"]


class TestInactivePath:
    def test_span_yields_null_span_without_collector(self):
        assert not obs.is_active()
        with obs.span("ignored", key="value") as span:
            assert span is trace.NULL_SPAN
            assert span.set(more=1) is span
        assert not trace.ACTIVE

    def test_null_span_context_reuses_null_span(self):
        with trace.NULL_SPAN_CONTEXT as span:
            assert span is trace.NULL_SPAN

    def test_helpers_noop_without_collector(self):
        obs.inc("delta_ticks_total", path="patched")
        obs.set_gauge("some_gauge", 3.0)
        obs.observe("some_histogram", 0.1)
        assert obs.active_collector() is None


class TestCaptureLifetime:
    def test_active_flag_tracks_installation(self):
        assert not trace.ACTIVE
        with obs.capture():
            assert trace.ACTIVE
            assert obs.is_active()
        assert not trace.ACTIVE
        assert obs.active_collector() is None

    def test_nested_captures_restore_previous(self):
        with obs.capture() as outer:
            with obs.span("before"):
                pass
            with obs.capture() as inner:
                assert obs.active_collector() is inner
                with obs.span("nested"):
                    pass
            assert obs.active_collector() is outer
        assert [s.name for s in outer.spans] == ["before"]
        assert [s.name for s in inner.spans] == ["nested"]

    def test_capture_writes_jsonl_even_on_exception(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with pytest.raises(ValueError):
            with obs.capture(trace_path=str(path)):
                with obs.span("attempt"):
                    raise ValueError("crashed mid-run")
        records = obs.read_jsonl(str(path))
        assert records[0]["type"] == "meta"
        assert any(r["type"] == "span" and r["name"] == "attempt" for r in records)

    def test_uninstall_restores_on_collector_error(self):
        collector = obs.Collector()
        previous = obs.install(collector)
        try:
            assert obs.active_collector() is collector
        finally:
            obs.uninstall(previous)
        assert obs.active_collector() is None
