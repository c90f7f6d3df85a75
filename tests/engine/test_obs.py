"""Tests for the observability layer: spans, tracing, counters."""

import json

import pytest

from repro.engine.obs import (
    DEFAULT_LATENCY_BOUNDS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    TRACE_SCHEMA_VERSION,
    measure,
    process_user_s,
)


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("compile", files=2):
            with tracer.span("unit", file="a.c"):
                pass
            with tracer.span("unit", file="b.c"):
                pass
        with tracer.span("analyze", solver="pretransitive"):
            pass
        assert [r.name for r in tracer.roots] == ["compile", "analyze"]
        compile_span = tracer.roots[0]
        assert [c.name for c in compile_span.children] == ["unit", "unit"]
        assert compile_span.children[0].attrs["file"] == "a.c"

    def test_current_and_annotate(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("link") as span:
            assert tracer.current is span
            tracer.annotate(objects=7)
        assert tracer.current is None
        assert span.attrs["objects"] == 7
        tracer.annotate(ignored=True)  # no open span: must not raise

    def test_find_and_iter_spans_parents(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        pairs = {s.name: (p.name if p else None)
                 for s, p in tracer.iter_spans()}
        assert pairs == {"a": None, "b": "a", "c": "b"}
        assert [s.name for s in tracer.find("b")] == ["b"]

    def test_exception_annotates_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current is None
        inner = tracer.find("inner")[0]
        assert "boom" in inner.attrs["error"]
        assert inner.closed and tracer.find("outer")[0].closed


class TestSpanTiming:
    def test_timing_monotonicity(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
        outer, inner = tracer.find("outer")[0], tracer.find("inner")[0]
        assert outer.closed and inner.closed
        assert inner.wall_seconds >= 0
        assert outer.wall_seconds >= inner.wall_seconds
        assert inner.start_wall >= outer.start_wall
        assert inner.end_wall <= outer.end_wall
        assert outer.user_seconds >= 0

    def test_open_span_reports_live_duration(self):
        tracer = Tracer()
        ctx = tracer.span("open")
        span = ctx.__enter__()
        try:
            assert not span.closed
            assert span.wall_seconds >= 0
        finally:
            ctx.__exit__(None, None, None)
        assert span.closed


class TestTraceExport:
    def test_to_dict_schema(self):
        tracer = Tracer()
        with tracer.span("compile", files=1):
            with tracer.span("unit", file="a.c"):
                pass
        doc = tracer.to_dict(registry=MetricsRegistry())
        assert doc["schema"] == TRACE_SCHEMA_VERSION
        assert isinstance(doc["counters"], dict)
        (root,) = doc["trace"]
        assert root["name"] == "compile"
        assert root["attrs"] == {"files": 1}
        assert root["children"][0]["name"] == "unit"
        assert root["start_s"] == 0.0
        assert root["wall_s"] >= root["children"][0]["wall_s"]

    def test_write_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("analyze"):
            pass
        out = tmp_path / "trace.json"
        tracer.write(str(out))
        doc = json.loads(out.read_text())
        assert doc["trace"][0]["name"] == "analyze"

    def test_write_dispatches_on_jsonl_extension(self, tmp_path):
        """``Tracer.write`` must honour the documented contract: a
        ``.jsonl`` path gets the flat one-span-per-line format."""
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        out = tmp_path / "trace.jsonl"
        tracer.write(str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # flat: one record per span, no tree doc
        records = [json.loads(line) for line in lines]
        by_name = {r["name"]: r for r in records}
        assert by_name["b"]["parent"] == by_name["a"]["id"]
        # Round-trip consistency with the tree export.
        tree = tracer.to_dict(registry=MetricsRegistry())
        assert tree["trace"][0]["name"] == "a"
        assert {r["name"] for r in records} \
            == {s.name for s, _ in tracer.iter_spans()}

    def test_total_wall_s(self):
        tracer = Tracer()
        assert tracer.total_wall_s == 0.0
        with tracer.span("a"):
            sum(range(1000))
        with tracer.span("b"):
            pass
        total = tracer.total_wall_s
        a, b = tracer.roots
        assert total >= a.wall_seconds
        assert abs(total - (b.end_wall - a.start_wall)) < 1e-9
        # An open root counts up to now.
        ctx = tracer.span("open")
        ctx.__enter__()
        try:
            assert tracer.total_wall_s >= total
        finally:
            ctx.__exit__(None, None, None)

    def test_write_jsonl_parent_references(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        out = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(out))
        records = [json.loads(line) for line in out.read_text().splitlines()]
        by_name = {r["name"]: r for r in records}
        assert by_name["a"]["parent"] is None
        assert by_name["b"]["parent"] == by_name["a"]["id"]
        assert by_name["c"]["parent"] is None
        assert all("children" not in r for r in records)


class TestCounters:
    def test_counter_is_monotonic(self):
        c = Counter("x")
        assert c.add() == 1
        assert c.add(4) == 5
        with pytest.raises(ValueError):
            c.add(-1)
        assert c.value == 5

    def test_registry_snapshot_only_nonzero_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta").add(2)
        reg.counter("alpha").add(1)
        reg.counter("never")  # stays zero
        assert list(reg.snapshot().items()) == [("alpha", 1), ("zeta", 2)]

    def test_registry_snapshot_include_zero(self):
        reg = MetricsRegistry()
        reg.counter("zeta").add(2)
        reg.counter("never")  # stays zero
        snap = reg.snapshot(include_zero=True)
        # Schema-stable output: every registered counter, still sorted.
        assert list(snap.items()) == [("never", 0), ("zeta", 2)]

    def test_reset_keeps_handles_live(self):
        reg = MetricsRegistry()
        handle = reg.counter("cla.test")
        handle.add(3)
        reg.reset()
        assert reg.snapshot() == {}
        handle.add(2)  # the module-level-handle pattern must survive reset
        assert reg.snapshot() == {"cla.test": 2}
        assert reg.counter("cla.test") is handle

    def test_process_registry_feeds_load_accounting(self):
        from repro.cla.store import MemoryStore
        from repro.driver.api import compile_source

        REGISTRY.reset()
        unit = compile_source("int x, *p; void f(void){ p = &x; *p = 1; }")
        store = MemoryStore(unit)
        store.static_assignments()
        for name in list(store.block_names()):
            store.load_block(name)
        snap = REGISTRY.snapshot()
        assert snap.get("cla.assignments_loaded", 0) >= store.stats.loaded
        assert store.stats.blocks_loaded > 0
        assert snap.get("cla.blocks_loaded", 0) >= store.stats.blocks_loaded


class TestGauges:
    def test_gauge_set_and_registry(self):
        g = Gauge("rss")
        assert g.value == 0.0
        g.set(12.5)
        assert g.value == 12.5
        g.set(3.0)  # gauges go down, too
        assert g.value == 3.0

    def test_registry_gauges_snapshot(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(2.0)
        reg.gauge("a")  # stays zero
        assert reg.gauges() == {"b": 2.0}
        assert list(reg.gauges(include_zero=True).items()) \
            == [("a", 0.0), ("b", 2.0)]
        assert reg.gauge("b") is reg.gauge("b")
        reg.reset()
        assert reg.gauges() == {}


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_observe_buckets_and_totals(self):
        h = Histogram("h", bounds=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
            h.observe(v)
        assert h.count == 5
        assert h.buckets == [1, 2, 1, 1]  # last is the +Inf overflow
        assert abs(h.sum - 5.0605) < 1e-9
        assert h.max == 5.0
        # Cumulative counts, Prometheus-shaped.
        assert h.cumulative() == [(0.001, 1), (0.01, 3), (0.1, 4),
                                  (float("inf"), 5)]

    def test_quantiles_interpolate_within_buckets(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for v in [0.5] * 50 + [1.5] * 40 + [3.0] * 10:
            h.observe(v)
        assert h.quantile(0.0) == 0.0
        assert 0.0 < h.quantile(0.5) <= 1.0
        assert 1.0 < h.quantile(0.9) <= 2.0
        assert 2.0 < h.quantile(0.99) <= 4.0
        pct = h.percentiles()
        assert set(pct) == {"p50", "p90", "p99"}
        assert pct["p50"] <= pct["p90"] <= pct["p99"]

    def test_quantile_capped_by_observed_max(self):
        h = Histogram("h", bounds=(1.0,))
        h.observe(30.0)  # lands in +Inf, whose upper edge is the max
        assert 1.0 < h.quantile(0.99) <= 30.0
        assert h.quantile(1.0) == 30.0

    def test_empty_histogram_is_all_zero(self):
        h = Histogram("h")
        assert h.bounds == DEFAULT_LATENCY_BOUNDS
        assert h.count == 0 and h.sum == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0

    def test_registry_histograms_keyed_by_labels(self):
        reg = MetricsRegistry()
        a = reg.histogram("latency", op="alias")
        b = reg.histogram("latency", op="chain")
        assert a is not b
        assert reg.histogram("latency", op="alias") is a
        a.observe(0.002)
        families = reg.histograms()
        assert [dict(h.labels) for h in families] \
            == [{"op": "alias"}, {"op": "chain"}]
        reg.reset()
        assert a.count == 0  # zeroed in place, handle stays live
        assert reg.histogram("latency", op="alias") is a


class TestTracerAmbientContext:
    def test_context_attaches_attrs_to_spans(self):
        tracer = Tracer()
        with tracer.context(trace="t7"):
            with tracer.span("analyze", solver="s"):
                with tracer.span("inner"):
                    pass
        with tracer.span("outside"):
            pass
        analyze, inner = tracer.find("analyze")[0], tracer.find("inner")[0]
        assert analyze.attrs == {"solver": "s", "trace": "t7"}
        assert inner.attrs == {"trace": "t7"}
        assert "trace" not in tracer.find("outside")[0].attrs

    def test_explicit_attrs_win_over_ambient(self):
        tracer = Tracer()
        with tracer.context(trace="outer", extra=1):
            with tracer.context(trace="inner"):
                with tracer.span("s"):
                    pass
        span = tracer.find("s")[0]
        assert span.attrs == {"trace": "inner", "extra": 1}

    def test_span_attr_beats_ambient(self):
        tracer = Tracer()
        with tracer.context(trace="ambient"):
            with tracer.span("s", trace="explicit"):
                pass
        assert tracer.find("s")[0].attrs["trace"] == "explicit"

    def test_out_of_order_exit_is_tolerated(self):
        tracer = Tracer()
        a = tracer.context(trace="a")
        b = tracer.context(trace="b")
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)  # exits before b: must not raise
        with tracer.span("s"):
            pass
        assert tracer.find("s")[0].attrs["trace"] == "b"
        b.__exit__(None, None, None)
        a.__exit__(None, None, None)  # double exit: must not raise


class TestMeasure:
    def test_measure_still_works(self):
        m = measure(lambda: 21 * 2)
        assert m.result == 42
        assert m.real_seconds >= 0


class TestUserTime:
    def test_process_user_s_includes_reaped_children(self):
        """Parallel compiles do their work in worker processes;
        ``user_s`` must count their CPU, not just the parent's."""
        import os

        t = os.times()
        assert abs(process_user_s() - (t.user + t.children_user)) < 0.5

    def test_parallel_compile_user_time_is_counted(self):
        """A --jobs build's span user time must reflect the children's
        work once they are reaped (the satellite fix this pins)."""
        from repro.engine.pipeline import Pipeline

        sources = {
            f"f{i}.c": f"int x{i}, *p{i}; "
                       f"void fn{i}(void) {{ p{i} = &x{i}; }}\n"
            for i in range(4)
        }
        pipeline = Pipeline(jobs=2)
        pipeline.compile_units(sources)
        span = pipeline.tracer.find("compile")[0]
        # Children's CPU is only visible after wait(); the invariant that
        # must hold is that the measurement is well-formed, not negative.
        assert span.user_seconds >= 0.0
