"""Observability substrate: tracing spans, metrics, and exporters.

The library is instrumented everywhere (cohort selection, bit assignment,
network transmission, secure aggregation, privacy accounting, adaptive
scheduling) against a process-wide tracer/metrics pair that defaults to
no-ops.  Nothing is timed, allocated, or exported -- and no RNG stream is
touched -- until instrumentation is explicitly installed:

    from repro.observability import InMemoryExporter, MetricsRegistry, Tracer, instrumented

    exporter = InMemoryExporter()
    with instrumented(Tracer([exporter]), MetricsRegistry()) as (tracer, metrics):
        estimate = query.run(population, rng=0)
    print(format_span_tree(exporter.records))
    print(metrics.snapshot())

``python -m repro.cli trace <figure|ablation>`` wraps an :class:`ObservedRun`
(this stack plus a JSONL trace, flight recorder and health monitor) around a
representative federated round, as ``serve`` and ``selfcheck`` do around
theirs.  The span and metric catalogue lives in ``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.observability.chrome_trace import build_chrome_trace, write_chrome_trace
from repro.observability.exporters import (
    ConsoleExporter,
    InMemoryExporter,
    JsonLinesExporter,
    format_span_tree,
)
from repro.observability.health import (
    ALERTS_FILENAME,
    AlertEvent,
    HealthMonitor,
    HealthRule,
    HealthSample,
    default_rules,
    load_alerts,
)
from repro.observability.live import LiveMonitor
from repro.observability.metrics import (
    DEFAULT_DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
)
from repro.observability.profiler import (
    DEFAULT_PHASE_BUCKETS,
    PhaseProfiler,
    PhaseSummary,
)
from repro.observability.recorder import (
    ARTIFACT_FORMAT,
    FlightRecorder,
    git_revision,
)
from repro.observability.registry import (
    RunIndexEntry,
    check_comparison,
    compare_runs,
    render_compare_markdown,
    render_list_markdown,
    scan_runs,
)
from repro.observability.report import (
    RunArtifact,
    build_report,
    load_run,
    render_markdown,
)
from repro.observability.tracing import (
    ROUND_SPAN,
    NullSpan,
    NullTracer,
    NULL_TRACER,
    SimClock,
    Span,
    SpanRecord,
    Tracer,
)

__all__ = [
    "ALERTS_FILENAME",
    "ARTIFACT_FORMAT",
    "AlertEvent",
    "ConsoleExporter",
    "Counter",
    "DEFAULT_DURATION_BUCKETS",
    "DEFAULT_PHASE_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "HealthRule",
    "HealthSample",
    "Histogram",
    "InMemoryExporter",
    "JsonLinesExporter",
    "LiveMonitor",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullSpan",
    "NullTracer",
    "ObservedRun",
    "PhaseProfiler",
    "PhaseSummary",
    "ROUND_SPAN",
    "RunArtifact",
    "RunIndexEntry",
    "SimClock",
    "Span",
    "SpanRecord",
    "Tracer",
    "build_chrome_trace",
    "build_report",
    "check_comparison",
    "compare_runs",
    "configure",
    "default_rules",
    "disable",
    "format_span_tree",
    "get_metrics",
    "get_tracer",
    "git_revision",
    "instrumented",
    "load_alerts",
    "load_run",
    "render_compare_markdown",
    "render_list_markdown",
    "render_markdown",
    "scan_runs",
    "write_chrome_trace",
]

# Process-wide instrumentation state.  Plain module globals (not
# contextvars): get_tracer()/get_metrics() sit on per-round hot paths and a
# dict-free global read is the cheapest thing Python offers.
_tracer: Tracer | NullTracer = NULL_TRACER
_metrics: MetricsRegistry | NullMetrics = NULL_METRICS


def get_tracer() -> Tracer | NullTracer:
    """The currently installed tracer (the no-op tracer by default)."""
    return _tracer


def get_metrics() -> MetricsRegistry | NullMetrics:
    """The currently installed metrics registry (no-op by default)."""
    return _metrics


def configure(
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | NullMetrics | None = None,
) -> None:
    """Install instrumentation process-wide; ``None`` leaves that half alone."""
    global _tracer, _metrics
    if tracer is not None:
        _tracer = tracer
    if metrics is not None:
        _metrics = metrics


def disable() -> None:
    """Restore the zero-overhead defaults."""
    global _tracer, _metrics
    _tracer = NULL_TRACER
    _metrics = NULL_METRICS


@contextmanager
def instrumented(
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | NullMetrics | None = None,
) -> Iterator[tuple[Tracer | NullTracer, MetricsRegistry | NullMetrics]]:
    """Temporarily install instrumentation, restoring the previous state.

    Omitted halves get fresh defaults: a :class:`Tracer` with no exporters
    is *not* useful, so ``tracer=None`` keeps whatever is installed;
    ``metrics=None`` likewise.  Yields the active ``(tracer, metrics)``.
    """
    global _tracer, _metrics
    previous = (_tracer, _metrics)
    if tracer is not None:
        _tracer = tracer
    if metrics is not None:
        _metrics = metrics
    try:
        yield (_tracer, _metrics)
    finally:
        _tracer, _metrics = previous


class ObservedRun:
    """One observed run: the stack ``trace``, ``serve`` and ``selfcheck`` install.

    The ``with`` block runs under :attr:`tracer` and :attr:`metrics`, whose
    exporters are, in order: :attr:`spans` in memory, a JSONL trace at
    ``trace_path``, a :class:`FlightRecorder` in ``record_dir`` and a
    :class:`HealthMonitor` over ``rules`` that sinks alerts into the artifact.
    ``sim_clock`` drives every clock from one :class:`SimClock`; ``profile``
    adds a :class:`PhaseProfiler` (``trace_malloc`` is ignored under it).
    Leaving the block snapshots the metrics onto the trace, closes it and
    stops the profiler; if the block raised, it also closes the recorder
    (no manifest) and the alert sink.  After a completed block, call
    :meth:`finalize` once.
    """

    def __init__(
        self,
        trace_path: str | Path | None = None,
        record_dir: str | Path | None = None,
        config: Mapping[str, Any] | None = None,
        seed: int | None = None,
        rules: Sequence[HealthRule] | None = None,
        sim_clock: bool = False,
        profile: bool = False,
        trace_malloc: bool = False,
    ) -> None:
        sim = SimClock(start=1.0, step=0.001) if sim_clock else None
        self.metrics = MetricsRegistry()
        self.snapshot: dict[str, Any] = {}
        self.profiler = (
            PhaseProfiler(trace_malloc=trace_malloc and not sim_clock, cpu_clock=sim)
            if profile
            else None
        )
        self._memory = InMemoryExporter()
        self._jsonl: JsonLinesExporter | None = None
        self.recorder: FlightRecorder | None = None
        self.health: HealthMonitor | None = None
        try:
            if trace_path is not None:
                self._jsonl = JsonLinesExporter(trace_path)
            if record_dir is not None:
                self.recorder = FlightRecorder(record_dir, config, seed, metrics=self.metrics)
            sink = self.recorder.directory / ALERTS_FILENAME if self.recorder else None
            self.health = HealthMonitor(rules=rules, metrics=self.metrics, sink=sink)
        except BaseException:
            self._close(failed=True)
            raise
        exporters = [x for x in (self._memory, self._jsonl, self.recorder, self.health) if x]
        self.tracer = Tracer(exporters, profiler=self.profiler, clock=sim)

    @property
    def spans(self) -> list[SpanRecord]:
        """Every span finished so far, in completion order."""
        return self._memory.records

    def __enter__(self) -> "ObservedRun":
        global _tracer, _metrics
        self._previous = (_tracer, _metrics)
        _tracer, _metrics = self.tracer, self.metrics
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _tracer, _metrics
        _tracer, _metrics = self._previous
        try:
            if exc_type is None:
                self.snapshot = self.metrics.snapshot()
                if self._jsonl is not None:
                    self._jsonl.export_metrics(self.snapshot)
        except BaseException:
            self._close(failed=True)
            raise
        self._close(failed=exc_type is not None)
        return False

    def _close(self, failed: bool) -> None:
        if self._jsonl is not None:
            self._jsonl.close()
        if self.profiler is not None:
            self.profiler.stop()
        if failed and self.recorder is not None:
            self.recorder.close()
        if failed and self.health is not None:
            self.health.close()

    def finalize(self, extra: Mapping[str, Any] | None = None, **fields: Any) -> dict | None:
        """Close the alert sink; when recording, write the manifest (with
        ``fields`` and ``extra`` plus ``"health"``) and return it."""
        self.health.close()
        if self.recorder is None:
            return None
        return self.recorder.finalize(
            metrics=self.snapshot,
            profiler=self.profiler,
            extra={**(extra or {}), "health": self.health.summary()},
            **fields,
        )
