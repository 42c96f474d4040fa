"""Contract tests for the telemetry core (tracer + metrics).

These pin the library's own guarantees: span nesting and export
format, fixed label sets, bounded cardinality, and the null objects'
no-op behavior.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    NULL_TELEMETRY,
    NULL_TRACER,
    OVERFLOW_LABEL,
    NullRegistry,
    NullTracer,
    Registry,
    Telemetry,
    Tracer,
)


# -- tracer -------------------------------------------------------------


class TestTracer:
    def test_nested_spans_link_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == ""

    def test_trace_id_stamps_every_span(self):
        tracer = Tracer()
        tracer.set_trace_id("req-42")
        with tracer.span("a"):
            pass
        assert tracer.spans()[0].trace_id == "req-42"

    def test_trace_id_is_per_thread(self):
        tracer = Tracer()
        tracer.set_trace_id("main")
        seen = {}

        def worker():
            tracer.set_trace_id("worker")
            with tracer.span("w"):
                pass
            seen["trace"] = tracer.trace_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["trace"] == "worker"
        assert tracer.trace_id == "main"

    def test_attributes_and_error_marking(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("risky", kind="test"):
                raise ValueError("boom")
        span = tracer.spans()[0]
        assert span.attributes["kind"] == "test"
        assert span.attributes["error"] == "ValueError"

    def test_event_is_a_zero_duration_span(self):
        tracer = Tracer()
        tracer.event("early_stop", round=3)
        span = tracer.spans()[0]
        assert span.name == "early_stop"
        assert span.attributes == {"round": 3}
        assert span.duration_ms() < 50.0

    def test_bounded_buffer_keeps_oldest_and_counts_drops(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            tracer.event("e", i=i)
        spans = tracer.spans()
        assert [s.attributes["i"] for s in spans] == [0, 1, 2]
        assert tracer.dropped == 2

    def test_abandoned_inner_span_does_not_corrupt_stack(self):
        # A generator abandoned mid-span ends the outer span while the
        # inner one is still on the stack; end_span pops through it.
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        tracer.end_span(outer)
        with tracer.span("after") as after:
            pass
        assert after.parent_id == ""

    def test_export_and_jsonl_dump_are_parseable(self, tmp_path):
        tracer = Tracer()
        tracer.set_trace_id("t1")
        with tracer.span("outer", run="x"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "spans.jsonl"
        assert tracer.dump_jsonl(path) == 2
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert {r["name"] for r in records} == {"outer", "inner"}
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        for record in records:
            assert record["trace_id"] == "t1"
            assert record["start_ms"] >= 0.0
            assert record["duration_ms"] >= 0.0

    def test_reset_clears_buffer(self):
        tracer = Tracer()
        tracer.event("a")
        tracer.reset()
        assert tracer.spans() == []
        assert tracer.dropped == 0


# -- counters -----------------------------------------------------------


class TestCounter:
    def test_inc_value_and_render(self):
        reg = Registry()
        counter = reg.counter("hits_total", "hits", labels=("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.0
        text = reg.render()
        assert '# TYPE hits_total counter' in text
        assert 'hits_total{kind="a"} 3' in text
        assert 'hits_total{kind="b"} 1' in text
        assert text.endswith("\n")

    def test_label_set_is_fixed(self):
        counter = Registry().counter("c_total", labels=("kind",))
        with pytest.raises(ValueError):
            counter.inc()  # missing label
        with pytest.raises(ValueError):
            counter.inc(kind="a", extra="x")  # unknown label

    def test_bounded_cardinality_collapses_to_other(self):
        counter = Registry().counter("c_total", labels=("k",), max_series=2)
        counter.inc(k="a")
        counter.inc(k="b")
        counter.inc(k="c")  # over budget -> "other"
        counter.inc(k="d")
        assert counter.value(k="a") == 1.0
        assert counter.value(k=OVERFLOW_LABEL) == 2.0
        assert len(counter.series()) <= 3  # 2 real + overflow

    def test_child_pre_resolves_the_series(self):
        counter = Registry().counter("c_total", labels=("k",))
        bound = counter.child(k="x")
        bound.inc()
        bound.inc(4)
        assert counter.value(k="x") == 5.0


# -- histograms ---------------------------------------------------------


class TestHistogram:
    def test_observe_count_sum_and_buckets(self):
        reg = Registry()
        hist = reg.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(55.5)
        text = reg.render()
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="10"} 2' in text  # cumulative
        assert 'lat_ms_bucket{le="+Inf"} 3' in text
        assert "lat_ms_sum 55.5" in text
        assert "lat_ms_count 3" in text

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Registry().histogram("h", buckets=())
        with pytest.raises(ValueError):
            Registry().histogram("h", buckets=(5.0, 1.0))

    def test_labels_and_children(self):
        hist = Registry().histogram("h_ms", labels=("phase",))
        hist.child(phase="train").observe(3.0)
        hist.observe(7.0, phase="train")
        assert hist.count(phase="train") == 2
        assert hist.sum(phase="train") == pytest.approx(10.0)


# -- registry -----------------------------------------------------------


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = Registry()
        a = reg.counter("c_total", labels=("k",))
        b = reg.counter("c_total", labels=("k",))
        assert a is b

    def test_redeclare_with_different_shape_raises(self):
        reg = Registry()
        reg.counter("m", labels=("k",))
        with pytest.raises(ValueError):
            reg.histogram("m", labels=("k",))
        with pytest.raises(ValueError):
            reg.counter("m", labels=("other",))

    def test_empty_registry_renders_empty(self):
        assert Registry().render() == ""

    def test_snapshot_is_json_ready(self):
        reg = Registry()
        reg.counter("c_total", labels=("k",)).inc(k="a")
        reg.histogram("h_ms").observe(2.0)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["c_total"]["kind"] == "counter"
        assert snap["h_ms"]["series"][0]["count"] == 1


# -- telemetry bundle + null objects ------------------------------------


class TestTelemetry:
    def test_enabled_bundle_has_live_parts(self):
        tel = Telemetry()
        assert tel.enabled
        assert isinstance(tel.tracer, Tracer)
        assert isinstance(tel.registry, Registry)
        assert tel.annotate_results

    def test_annotate_results_off(self):
        tel = Telemetry(enabled=True, annotate_results=False)
        assert tel.enabled and not tel.annotate_results

    def test_disabled_bundle_is_the_shared_null(self):
        assert Telemetry.disabled() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled
        assert not NULL_TELEMETRY.annotate_results
        assert isinstance(NULL_TELEMETRY.tracer, NullTracer)
        assert isinstance(NULL_TELEMETRY.registry, NullRegistry)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", k=1) as span:
            assert span is None
        NULL_TRACER.set_trace_id("x")
        NULL_TRACER.event("e")
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.export() == []
        assert NULL_TRACER.dropped == 0

    def test_null_registry_is_inert(self):
        counter = NULL_REGISTRY.counter("c_total", labels=("k",))
        counter.inc(k="whatever", bogus="ignored")
        hist = NULL_REGISTRY.histogram("h_ms")
        hist.observe(1.0)
        hist.child().observe(2.0)
        assert NULL_REGISTRY.render() == ""
        assert NULL_REGISTRY.snapshot() == {}
