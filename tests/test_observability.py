"""Unit tests for the observability substrate: spans, metrics, exporters."""

import gc
import json
import threading
import warnings

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.observability import (
    NULL_METRICS,
    NULL_TRACER,
    ConsoleExporter,
    InMemoryExporter,
    JsonLinesExporter,
    MetricsRegistry,
    ObservedRun,
    Tracer,
    configure,
    disable,
    format_span_tree,
    get_metrics,
    get_tracer,
    instrumented,
)


class TestTracer:
    def test_span_records_name_duration_and_attributes(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with tracer.span("work", {"n": 3}) as span:
            span.set_attribute("extra", "yes")
        (record,) = exporter.records
        assert record.name == "work"
        assert record.attributes == {"n": 3, "extra": "yes"}
        assert record.duration_s >= 0.0
        assert record.status == "ok"
        assert record.parent_id is None

    def test_nesting_assigns_parent_ids(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, outer_record = exporter.records
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer_record.parent_id is None
        assert exporter.children_of(outer_record.span_id) == [inner]

    def test_sibling_spans_share_parent(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, root = exporter.records
        assert a.parent_id == b.parent_id == root.span_id

    def test_exception_marks_error_status_and_propagates(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with pytest.raises(ValueError):
            with tracer.span("explodes"):
                raise ValueError("boom")
        (record,) = exporter.records
        assert record.status == "error"
        assert "boom" in record.attributes["error"]

    def test_thread_stacks_are_independent(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        barrier = threading.Barrier(2)

        def work(name):
            with tracer.span(name):
                barrier.wait(timeout=5)

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.parent_id is None for r in exporter.records)
        assert sorted(exporter.names()) == ["t0", "t1"]

    def test_null_tracer_spans_do_nothing(self):
        span = NULL_TRACER.span("ignored", {"a": 1})
        with span as inner:
            inner.set_attribute("b", 2)
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y")
        assert not NULL_TRACER.enabled


class TestRuntimeConfiguration:
    def test_defaults_are_null(self):
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS

    def test_instrumented_installs_and_restores(self):
        tracer = Tracer([InMemoryExporter()])
        registry = MetricsRegistry()
        with instrumented(tracer, registry) as (active_tracer, active_metrics):
            assert get_tracer() is tracer is active_tracer
            assert get_metrics() is registry is active_metrics
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS

    def test_instrumented_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with instrumented(Tracer(), MetricsRegistry()):
                raise RuntimeError("oops")
        assert get_tracer() is NULL_TRACER

    def test_configure_and_disable(self):
        tracer = Tracer()
        configure(tracer=tracer)
        try:
            assert get_tracer() is tracer
            assert get_metrics() is NULL_METRICS
        finally:
            disable()
        assert get_tracer() is NULL_TRACER


class TestObservedRun:
    def test_completed_block_snapshots_metrics_onto_the_trace(self, tmp_path):
        run = ObservedRun(trace_path=tmp_path / "t.jsonl")
        with run:
            assert get_tracer() is run.tracer
            assert get_metrics() is run.metrics
            with get_tracer().span("work"):
                get_metrics().counter("work_total").inc()
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS
        assert [record.name for record in run.spans] == ["work"]
        lines = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert [line["type"] for line in lines] == ["span", "metrics"]
        assert lines[1]["metrics"] == run.snapshot
        assert run.snapshot["counters"]["work_total"] == 1.0
        assert run.finalize() is None

    def test_failed_block_closes_the_artifact_without_a_manifest(self, tmp_path):
        run = ObservedRun(record_dir=tmp_path / "run")
        with pytest.raises(RuntimeError):
            with run:
                raise RuntimeError("oops")
        assert get_tracer() is NULL_TRACER
        assert sorted(path.name for path in (tmp_path / "run").iterdir()) == [
            "alerts.jsonl",
            "events.jsonl",
        ]

    def test_finalize_writes_the_manifest_with_the_health_summary(self, tmp_path):
        with ObservedRun(
            record_dir=tmp_path / "run", config={"k": 1}, seed=3, sim_clock=True, profile=True
        ) as run:
            with get_tracer().span("work"):
                pass
        manifest = run.finalize(extra={"note": "x"})
        assert manifest == json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"] == {"k": 1}
        assert manifest["seed"] == 3
        assert manifest["note"] == "x"
        assert manifest["health"] == run.health.summary()
        assert [phase["name"] for phase in manifest["profile"]["phases"]] == ["work"]
        # One SimClock: the profiler's CPU reading, the wall start, then the
        # monotonic start and end, 1 ms apart.
        assert run.spans[0].start_time_s == 1.001
        assert run.spans[0].duration_s == pytest.approx(0.001)

    def test_failed_set_up_closes_what_it_opened(self, tmp_path):
        (tmp_path / "F").touch()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotADirectoryError):
                ObservedRun(trace_path=tmp_path / "t.jsonl", record_dir=tmp_path / "F" / "run")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestMetrics:
    def test_counter_accumulates_and_rejects_negatives(self):
        registry = MetricsRegistry()
        counter = registry.counter("reports_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_sets_and_moves(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("dropout_rate")
        gauge.set(0.25)
        assert gauge.value == 0.25
        gauge.inc(-0.05)
        assert gauge.value == pytest.approx(0.20)

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(1.0)  # inclusive upper bound
        hist.observe(5.0, count=3)
        hist.observe(99.0)
        data = hist.to_dict()
        assert data["counts"] == [2, 3, 1]
        assert data["count"] == 6
        assert data["sum"] == pytest.approx(0.5 + 1.0 + 15.0 + 99.0)

    def test_histogram_observe_array_matches_scalar_path(self):
        registry = MetricsRegistry()
        values = np.array([0.2, 1.5, 7.0, 200.0])
        array_hist = registry.histogram("a", buckets=(1.0, 10.0))
        array_hist.observe_array(values)
        scalar_hist = registry.histogram("b", buckets=(1.0, 10.0))
        for v in values:
            scalar_hist.observe(float(v))
        assert array_hist.to_dict() == scalar_hist.to_dict()

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("empty", buckets=())

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7.0)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2.0}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        json.dumps(snap)  # snapshot must be JSON-serializable as-is

    def test_reset_clears_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_metrics_swallow_everything(self):
        NULL_METRICS.counter("c").inc(5)
        NULL_METRICS.gauge("g").set(1.0)
        NULL_METRICS.histogram("h").observe(2.0)
        assert NULL_METRICS.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert not NULL_METRICS.enabled

    def test_counter_thread_safety(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40_000


class TestExporters:
    def test_jsonl_exporter_writes_spans_and_metrics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonLinesExporter(path)
        tracer = Tracer([exporter])
        with tracer.span("outer", {"k": "v"}):
            with tracer.span("inner"):
                pass
        exporter.export_metrics({"counters": {"c": 1.0}})
        exporter.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["type"] for line in lines] == ["span", "span", "metrics"]
        assert lines[0]["name"] == "inner"  # children close first
        assert lines[1]["name"] == "outer"
        assert lines[0]["parent_id"] == lines[1]["span_id"]
        assert lines[2]["metrics"] == {"counters": {"c": 1.0}}

    def test_jsonl_exporter_rejects_use_after_close(self, tmp_path):
        exporter = JsonLinesExporter(tmp_path / "t.jsonl")
        exporter.close()
        with pytest.raises(ValueError):
            exporter.export_metrics({})

    def test_console_exporter_prints_one_line_per_span(self, capsys):
        tracer = Tracer([ConsoleExporter()])
        with tracer.span("hello", {"n": 1}):
            pass
        out = capsys.readouterr().out
        assert "hello" in out
        assert "n=1" in out
        assert out.count("\n") == 1

    def test_format_span_tree_indents_children(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        tree = format_span_tree(exporter.records)
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert lines[2].startswith("    grandchild")
