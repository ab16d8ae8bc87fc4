"""Phase profiler: CPU time, peak allocations, and latency percentiles.

A :class:`PhaseProfiler` plugs into a :class:`~repro.observability.tracing.Tracer`
(``Tracer(exporters, profiler=profiler)``) and does two things:

* **Span enrichment** -- every span picks up a ``cpu_time_s`` attribute
  (:func:`time.process_time` delta) and, with ``trace_malloc=True``, a
  ``peak_alloc_kb`` attribute from :mod:`tracemalloc`, so exported records
  carry wall *and* CPU cost side by side.
* **Phase accumulation** -- finished spans are folded, by name, into
  fixed-bucket latency histograms, and :meth:`summary` reports per-phase
  p50/p95/p99 (via :meth:`Histogram.quantile`), call counts, and wall/CPU
  totals.  Because the percentiles depend only on bucket counts, runs that
  land the same spans in the same buckets report identical numbers.

The profiler is null-handle-free by design: when no profiler is installed
the tracer performs a single ``is not None`` check per span, and the
:data:`~repro.observability.tracing.NULL_TRACER` path is untouched.

Worker processes cannot share the parent's profiler (they fork with
observability disabled), so the trial-execution engine reports each chunk's
wall/CPU cost back to the parent, which folds it in via
:meth:`PhaseProfiler.merge_external`.

``tracemalloc`` caveat: per-span peaks use :func:`tracemalloc.reset_peak`,
so a parent span's figure can miss a peak that occurred before a nested
span began -- leaf-span numbers are exact, enclosing spans are lower
bounds.  Peak tracking also costs real time; keep it opt-in.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

from repro.observability.metrics import Histogram
from repro.observability.tracing import SpanRecord

__all__ = ["DEFAULT_PHASE_BUCKETS", "PhaseProfiler", "PhaseSummary"]

#: Log-spaced latency buckets (seconds) for phase histograms: 10 us to 5 min.
DEFAULT_PHASE_BUCKETS = (
    1e-05,
    3e-05,
    1e-04,
    3e-04,
    1e-03,
    3e-03,
    1e-02,
    3e-02,
    0.1,
    0.3,
    1.0,
    3.0,
    10.0,
    30.0,
    60.0,
    300.0,
)


@dataclass(frozen=True)
class PhaseSummary:
    """Aggregated cost of one span name (a "phase") across a run."""

    name: str
    count: int
    total_s: float
    cpu_total_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    peak_alloc_kb: float | None = None

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        if self.peak_alloc_kb is None:
            del payload["peak_alloc_kb"]
        return payload


class PhaseProfiler:
    """Enrich spans with CPU/allocation cost and summarize phases.

    Parameters
    ----------
    trace_malloc:
        Track per-span peak allocation with :mod:`tracemalloc` (opt-in; it
        slows allocation-heavy code noticeably).
    buckets:
        Latency-histogram buckets, seconds (default
        :data:`DEFAULT_PHASE_BUCKETS`).
    cpu_clock:
        CPU clock (default :func:`time.process_time`).  Pass the tracer's
        :class:`~repro.observability.tracing.SimClock` for deterministic
        recorded runs.
    """

    def __init__(
        self,
        trace_malloc: bool = False,
        buckets: Sequence[float] = DEFAULT_PHASE_BUCKETS,
        cpu_clock: Callable[[], float] | None = None,
    ) -> None:
        self.trace_malloc = bool(trace_malloc)
        self.buckets = tuple(float(b) for b in buckets)
        self._cpu = cpu_clock if cpu_clock is not None else time.process_time
        self._durations: dict[str, Histogram] = {}
        self._cpu_totals: dict[str, float] = {}
        self._peaks: dict[str, float] = {}
        self._started_tracemalloc = False

    # -- span hooks (called by Tracer/Span) ----------------------------
    def begin(self) -> tuple[float, float | None]:
        """Open one span's cost window; returns the token ``end`` consumes."""
        baseline: float | None = None
        if self.trace_malloc:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            tracemalloc.reset_peak()
            baseline = float(tracemalloc.get_traced_memory()[0])
        return (self._cpu(), baseline)

    def end(self, token: tuple[float, float | None]) -> dict[str, Any]:
        """Close the window; returns attributes to merge into the span."""
        attributes: dict[str, Any] = {"cpu_time_s": self._cpu() - token[0]}
        if token[1] is not None and tracemalloc.is_tracing():
            peak = float(tracemalloc.get_traced_memory()[1])
            attributes["peak_alloc_kb"] = max(0.0, (peak - token[1]) / 1024.0)
        return attributes

    def observe(self, record: SpanRecord) -> None:
        """Fold one finished span into its phase's accumulators."""
        cpu = record.attributes.get("cpu_time_s", 0.0)
        peak = record.attributes.get("peak_alloc_kb")
        self._fold(record.name, record.duration_s, float(cpu), peak)

    def merge_external(self, name: str, duration_s: float, cpu_s: float = 0.0) -> None:
        """Fold in work measured outside this process (forked workers)."""
        self._fold(name, float(duration_s), float(cpu_s), None)

    def _fold(
        self, name: str, duration_s: float, cpu_s: float, peak_kb: float | None
    ) -> None:
        hist = self._durations.get(name)
        if hist is None:
            hist = self._durations[name] = Histogram(name, self.buckets)
            self._cpu_totals[name] = 0.0
        hist.observe(duration_s)
        self._cpu_totals[name] += cpu_s
        if peak_kb is not None:
            self._peaks[name] = max(self._peaks.get(name, 0.0), float(peak_kb))

    # -- reporting ------------------------------------------------------
    def phases(self) -> list[PhaseSummary]:
        """Per-phase summaries, costliest (by total wall time) first."""
        summaries = [
            PhaseSummary(
                name=name,
                count=hist.count,
                total_s=hist.sum,
                cpu_total_s=self._cpu_totals[name],
                p50_s=hist.quantile(0.5),
                p95_s=hist.quantile(0.95),
                p99_s=hist.quantile(0.99),
                peak_alloc_kb=self._peaks.get(name),
            )
            for name, hist in self._durations.items()
        ]
        summaries.sort(key=lambda s: (-s.total_s, s.name))
        return summaries

    def summary(self) -> dict[str, Any]:
        """JSON-ready profile: the flight-recorder manifest's ``profile``."""
        return {
            "trace_malloc": self.trace_malloc,
            "buckets_s": list(self.buckets),
            "phases": [phase.to_dict() for phase in self.phases()],
        }

    def stop(self) -> None:
        """Stop tracemalloc if this profiler started it."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False
