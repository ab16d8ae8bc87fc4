"""Unit tests for the second observability layer (PR 5).

Covers the satellites: orphan-safe span trees, durable JSONL export,
histogram quantiles against numpy, the deterministic SimClock, and the
phase profiler's CPU/allocation enrichment.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.observability import (
    DEFAULT_PHASE_BUCKETS,
    Histogram,
    InMemoryExporter,
    JsonLinesExporter,
    MetricsRegistry,
    PhaseProfiler,
    SimClock,
    SpanRecord,
    Tracer,
    format_span_tree,
)


def _record(name, span_id, parent_id=None, start=0.0, duration=0.001, attrs=None):
    return SpanRecord(
        name=name,
        span_id=span_id,
        parent_id=parent_id,
        start_time_s=start,
        duration_s=duration,
        attributes=attrs or {},
    )


class TestFormatSpanTreeOrphans:
    def test_orphan_rendered_as_synthetic_root(self):
        # Parent id 99 is not among the records (exporter attached mid-run).
        records = [
            _record("root", 1, None, start=0.0),
            _record("orphan", 2, parent_id=99, start=0.5),
        ]
        tree = format_span_tree(records)
        assert "root" in tree
        assert "orphan" in tree
        # Both render at depth 0 (no leading indent on either line).
        lines = tree.splitlines()
        assert all(not line.startswith(" ") for line in lines)

    def test_orphans_interleave_with_true_roots_by_start_time(self):
        records = [
            _record("late-root", 1, None, start=2.0),
            _record("early-orphan", 2, parent_id=42, start=1.0),
        ]
        lines = format_span_tree(records).splitlines()
        assert lines[0].startswith("early-orphan")
        assert lines[1].startswith("late-root")

    def test_orphan_keeps_its_own_children(self):
        records = [
            _record("orphan", 2, parent_id=99, start=0.0),
            _record("child", 3, parent_id=2, start=0.1),
        ]
        lines = format_span_tree(records).splitlines()
        assert lines[0].startswith("orphan")
        assert lines[1].startswith("  child")

    def test_no_spans_dropped(self):
        records = [_record(f"s{i}", i, parent_id=1000 + i) for i in range(1, 8)]
        tree = format_span_tree(records)
        for i in range(1, 8):
            assert f"s{i}" in tree

    def test_fully_parented_tree_unchanged(self):
        records = [
            _record("root", 1, None, start=0.0),
            _record("child", 2, parent_id=1, start=0.1),
        ]
        lines = format_span_tree(records).splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")


class TestJsonLinesDurability:
    def test_lines_reach_disk_without_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        exporter = JsonLinesExporter(path)
        exporter.export(_record("alpha", 1))
        exporter.export(_record("beta", 2))
        # No close(): with the flush_every=1 default every line is already
        # flushed, so a crashed run keeps its event log.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "alpha"
        assert json.loads(lines[1])["name"] == "beta"
        exporter.close()

    def test_append_mode_extends_existing_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesExporter(path) as first:
            first.export(_record("first", 1))
        with JsonLinesExporter(path, append=True) as second:
            second.export(_record("second", 2))
        names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
        assert names == ["first", "second"]

    def test_truncate_is_still_the_non_append_default(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesExporter(path) as first:
            first.export(_record("first", 1))
        with JsonLinesExporter(path) as second:
            second.export(_record("second", 2))
        names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
        assert names == ["second"]

    def test_flush_every_zero_buffers_until_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        exporter = JsonLinesExporter(path, flush_every=0)
        exporter.export(_record("buffered", 1))
        assert path.read_text() == ""
        exporter.close()
        assert json.loads(path.read_text())["name"] == "buffered"

    def test_negative_flush_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonLinesExporter(tmp_path / "x.jsonl", flush_every=-1)

    def test_write_line_appends_arbitrary_payloads(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesExporter(path) as exporter:
            exporter.write_line({"type": "event", "kind": "note"})
        assert json.loads(path.read_text())["kind"] == "note"


class TestHistogramQuantile:
    BUCKETS = tuple(float(b) for b in np.linspace(0.5, 50.0, 100))

    def test_quantiles_match_numpy_within_bucket_width(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform(1.0, 45.0, size=5_000)
        hist = Histogram("h", self.BUCKETS)
        for x in samples:
            hist.observe(float(x))
        width = self.BUCKETS[1] - self.BUCKETS[0]
        for q in (0.5, 0.9, 0.95, 0.99):
            assert hist.quantile(q) == pytest.approx(
                float(np.quantile(samples, q)), abs=2 * width
            )

    def test_overflow_clamps_to_last_bound(self):
        hist = Histogram("h", (1.0, 2.0))
        for _ in range(10):
            hist.observe(100.0)
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(0.99) == 2.0

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("h", (1.0, 2.0)).quantile(0.5) == 0.0

    def test_invalid_q_rejected(self):
        hist = Histogram("h", (1.0,))
        with pytest.raises(Exception):
            hist.quantile(1.5)

    def test_to_dict_reports_percentiles(self):
        hist = Histogram("h", self.BUCKETS)
        for x in np.linspace(1.0, 40.0, 1_000):
            hist.observe(float(x))
        payload = hist.to_dict()
        assert {"p50", "p95", "p99"} <= set(payload)
        assert payload["p50"] <= payload["p95"] <= payload["p99"]
        assert payload["p50"] == pytest.approx(hist.quantile(0.5))

    def test_single_bucket_interpolation(self):
        hist = Histogram("h", (10.0,))
        for _ in range(100):
            hist.observe(5.0)
        # All mass in [0, 10]; median interpolates to the bucket midpoint.
        assert hist.quantile(0.5) == pytest.approx(5.0)

    def test_percentiles_stay_inside_the_observed_range(self):
        # Shaped like a served round's uplink RTTs: 18 in (3, 10] ms and 6
        # in (10, 30] ms, none past 12 ms.  Interpolating up to the 30 ms
        # edge read p95 26.0 ms and p99 29.2 ms.
        rtts = np.concatenate([np.linspace(0.004, 0.0095, 18), np.linspace(0.0105, 0.012, 6)])
        hist = Histogram("serve_uplink_rtt_s", DEFAULT_PHASE_BUCKETS)
        for rtt in rtts:
            hist.observe(float(rtt))
        payload = hist.to_dict()
        assert (payload["min"], payload["max"]) == (0.004, 0.012)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert 0.004 <= hist.quantile(q) <= 0.012
        assert payload["p95"] <= 0.012 and payload["p99"] <= 0.012
        assert payload["p50"] == hist.quantile(0.5)

    def test_extremes_survive_arrays_snapshots_and_merges(self):
        values = [0.5, 2.5, 7.0]
        scalar, array = Histogram("h", (1.0, 5.0, 10.0)), Histogram("h", (1.0, 5.0, 10.0))
        for value in values:
            scalar.observe(value)
        array.observe_array(np.array(values))
        assert array.to_dict() == scalar.to_dict()
        registry = MetricsRegistry()
        registry.merge_snapshot({"histograms": {"h": scalar.to_dict()}})
        other = Histogram("h", (1.0, 5.0, 10.0))
        other.observe(12.0)
        registry.merge_snapshot({"histograms": {"h": other.to_dict()}})
        registry.merge_snapshot({"histograms": {"h": Histogram("h", (1.0, 5.0, 10.0)).to_dict()}})
        merged = registry.snapshot()["histograms"]["h"]
        assert (merged["min"], merged["max"], merged["count"]) == (0.5, 12.0, 4)
        assert Histogram("h", (1.0,)).to_dict()["min"] is None

    def test_payload_without_extremes_leaves_the_range_open(self):
        hist = Histogram("h", (10.0,))
        hist.merge_dict({"buckets": [10.0], "counts": [4, 0], "sum": 20.0, "count": 4})
        assert hist.quantile(0.5) == pytest.approx(5.0)
        assert hist.to_dict()["min"] is None


class TestSimClock:
    def test_arithmetic_sequence(self):
        clock = SimClock(start=1.0, step=0.5)
        assert [clock() for _ in range(3)] == [1.0, 1.5, 2.0]

    def test_tracer_timings_are_deterministic(self):
        def run():
            clock = SimClock(start=1.0, step=0.001)
            memory = InMemoryExporter()
            tracer = Tracer([memory], clock=clock)
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
            return [(r.name, r.start_time_s, r.duration_s) for r in memory.records]

        assert run() == run()

    def test_real_clock_spans_start_at_wall_time(self):
        # One clock: the default tracer's epoch puts perf_counter readings on
        # the time.time() scale, and durations stay differences of readings.
        memory = InMemoryExporter()
        with Tracer([memory]).span("work"):
            sum(range(1000))
        (record,) = memory.records
        assert abs(record.start_time_s - time.time()) < 1.0
        assert record.duration_s > 0.0

    def test_null_profiler_attribute_untouched(self):
        clock = SimClock()
        tracer = Tracer([], clock=clock)
        assert tracer.profiler is None


class TestPhaseProfiler:
    def test_spans_gain_cpu_time_attribute(self):
        memory = InMemoryExporter()
        profiler = PhaseProfiler()
        tracer = Tracer([memory], profiler=profiler)
        with tracer.span("work"):
            sum(range(10_000))
        (record,) = memory.records
        assert "cpu_time_s" in record.attributes
        assert record.attributes["cpu_time_s"] >= 0.0

    def test_summary_reports_phases_with_percentiles(self):
        profiler = PhaseProfiler()
        tracer = Tracer([], profiler=profiler)
        for _ in range(5):
            with tracer.span("phase.a"):
                pass
        with tracer.span("phase.b"):
            pass
        summary = profiler.summary()
        assert summary["trace_malloc"] is False
        names = [p["name"] for p in summary["phases"]]
        assert set(names) == {"phase.a", "phase.b"}
        for phase in summary["phases"]:
            assert {"count", "total_s", "cpu_total_s", "p50_s", "p95_s", "p99_s"} <= set(
                phase
            )
        a = next(p for p in summary["phases"] if p["name"] == "phase.a")
        assert a["count"] == 5

    def test_merge_external_folds_worker_cost(self):
        profiler = PhaseProfiler()
        profiler.merge_external("executor.worker", 0.25, cpu_s=0.2)
        profiler.merge_external("executor.worker", 0.35, cpu_s=0.3)
        (phase,) = profiler.phases()
        assert phase.name == "executor.worker"
        assert phase.count == 2
        assert phase.total_s == pytest.approx(0.6)
        assert phase.cpu_total_s == pytest.approx(0.5)

    def test_tracemalloc_peak_tracked_opt_in(self):
        memory = InMemoryExporter()
        profiler = PhaseProfiler(trace_malloc=True)
        tracer = Tracer([memory], profiler=profiler)
        try:
            with tracer.span("alloc"):
                _ = [bytearray(1024) for _ in range(64)]
        finally:
            profiler.stop()
        (record,) = memory.records
        assert record.attributes.get("peak_alloc_kb", 0.0) > 0.0
        (phase,) = profiler.phases()
        assert phase.peak_alloc_kb is not None

    def test_sim_clock_as_cpu_clock_is_deterministic(self):
        def run():
            clock = SimClock(start=1.0, step=0.001)
            profiler = PhaseProfiler(cpu_clock=clock)
            tracer = Tracer([], profiler=profiler, clock=clock)
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
            return profiler.summary()

        assert run() == run()

    def test_default_phase_buckets_sorted(self):
        assert list(DEFAULT_PHASE_BUCKETS) == sorted(DEFAULT_PHASE_BUCKETS)
