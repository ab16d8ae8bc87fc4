"""Lightweight span tracing for the federated pipeline.

A :class:`Tracer` hands out context-manager :class:`Span` objects::

    with tracer.span("round.transmit", {"n_reports": 512}) as span:
        outcome = network.transmit(512, rng)
        span.set_attribute("delivered", int(outcome.delivered.sum()))

Spans are timed with the tracer's one clock, nest through a per-thread stack
(so concurrent rounds on different threads never corrupt each other's
parentage), and are handed to every configured exporter as an immutable
:class:`SpanRecord` the moment they close.  Exceptions mark the span's
``status`` as ``"error"`` and propagate unchanged.

The default tracer everywhere in the library is :data:`NULL_TRACER`, whose
spans are a single shared no-op object: no clock reads, no allocation, no
RNG draws -- instrumented code is bit-identical to uninstrumented code
unless a real tracer is installed (see :func:`repro.observability.instrumented`).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = [
    "ROUND_SPAN",
    "SpanRecord",
    "Span",
    "NullSpan",
    "SimClock",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]

#: The span the round core opens around every round attempt, in process or served:
#: the round boundary the recorder, the health and live monitors and the report read.
ROUND_SPAN = "federated.round"


class SimClock:
    """Deterministic clock: the n-th call returns ``start + n * step``.

    Installed as a :class:`Tracer`'s clock (and a profiler's CPU clock) it
    makes every recorded timestamp and duration a pure function of the call
    sequence, so two runs with the same seed produce *byte-identical*
    flight-recorder artifacts and reports (``repro.cli trace --sim-clock``).
    """

    __slots__ = ("_now", "step")

    def __init__(self, start: float = 0.0, step: float = 0.001) -> None:
        self._now = float(start)
        self.step = float(step)

    def __call__(self) -> float:
        now = self._now
        self._now = now + self.step
        return now

    def catch_up(self, copy: "SimClock") -> None:
        """Skip the readings a copy of this clock made elsewhere (a pool worker's)."""
        self._now = max(self._now, copy._now)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as delivered to exporters."""

    name: str
    span_id: int
    parent_id: int | None
    start_time_s: float
    duration_s: float
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the JSONL exporter's line payload)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time_s": self.start_time_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": self.attributes,
        }


class Span:
    """A live span: a reentrant-safe context manager owned by one tracer."""

    __slots__ = (
        "_tracer",
        "name",
        "attributes",
        "span_id",
        "parent_id",
        "_start",
        "_profile",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span_id = 0
        self.parent_id: int | None = None
        self._start = 0.0
        self._profile: Any = None

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one attribute to the span (overwrites an existing key)."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self.span_id = self._tracer._next_id()
        self.parent_id = self._tracer._push(self.span_id)
        profiler = self._tracer.profiler
        if profiler is not None:
            self._profile = profiler.begin()
        self._start = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = self._tracer.clock() - self._start
        profiler = self._tracer.profiler
        if profiler is not None and self._profile is not None:
            self.attributes.update(profiler.end(self._profile))
        self._tracer._pop()
        record = SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_time_s=self._tracer.epoch + self._start,
            duration_s=duration,
            status="ok" if exc_type is None else "error",
            attributes=dict(self.attributes)
            if exc_type is None
            else {**self.attributes, "error": repr(exc)},
        )
        self._tracer._export(record)
        return False


class NullSpan:
    """The do-nothing span: one shared instance serves every disabled call."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = NullSpan()


class Tracer:
    """Produces spans and fans finished records out to exporters.

    Parameters
    ----------
    exporters:
        Objects with an ``export(record: SpanRecord)`` method.  Exporters
        may be added later with :meth:`add_exporter`.
    profiler:
        Optional :class:`~repro.observability.profiler.PhaseProfiler`.  When
        set, every span is enriched with CPU time (and, opt-in, peak
        allocation) attributes on close, and the profiler accumulates
        per-phase latency histograms from the finished records.
    clock:
        The one clock every recorded time reads (default
        :func:`time.perf_counter`; a :class:`SimClock` makes recorded timings
        deterministic).  A span starts at :attr:`epoch` plus a reading: the
        default clock's epoch puts it on the ``time.time()`` scale, others' is 0.
        Pooled secure rounds send workers a copy, so the clock must pickle.
    """

    enabled = True

    def __init__(
        self,
        exporters: Sequence[Any] = (),
        profiler: Any = None,
        clock: Any = None,
    ) -> None:
        self._exporters = list(exporters)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.profiler = profiler
        self.clock = clock if clock is not None else time.perf_counter
        self.epoch = time.time() - time.perf_counter() if clock is None else 0.0

    def add_exporter(self, exporter: Any) -> None:
        self._exporters.append(exporter)

    def span(self, name: str, attributes: Mapping[str, Any] | None = None) -> Span:
        """Open a new span; use as a context manager."""
        return Span(self, name, dict(attributes) if attributes else {})

    def next_span_id(self) -> int:
        """Allocate one span id from this tracer's id space.

        The remote-span ingestion path uses this to remap span ids arriving
        from another process's tracer (whose local ids would collide) before
        re-exporting them here.
        """
        return next(self._ids)

    def ingest(self, record: SpanRecord) -> None:
        """Export an externally produced (already finished) span record.

        The record flows through the same exporter fan-out a locally closed
        span does; the caller is responsible for having remapped ``span_id``/
        ``parent_id`` into this tracer's id space (:meth:`next_span_id`) and
        for placing ``start_time_s`` on this tracer's timeline.
        """
        self._export(record)

    def wall_time(self) -> float:
        """One clock reading on the span timeline: :attr:`epoch` plus :meth:`now`."""
        return self.epoch + self.clock()

    def now(self) -> float:
        """One reading of this tracer's clock.

        For work timed outside a span and reported as an attribute, so that
        a :class:`SimClock` makes those timings deterministic too.
        """
        return self.clock()

    def current_span_id(self) -> int | None:
        """Id of this thread's innermost open span (``None`` outside any span).

        The parent to give a record of work measured elsewhere (a forked
        worker's phase timings) before passing it to :meth:`ingest`.
        """
        stack = self._stack()
        return stack[-1] if stack else None

    # -- internal plumbing used by Span --------------------------------
    def _next_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span_id: int) -> int | None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return parent

    def _pop(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def _export(self, record: SpanRecord) -> None:
        for exporter in self._exporters:
            exporter.export(record)
        if self.profiler is not None:
            self.profiler.observe(record)


class NullTracer:
    """Zero-overhead tracer: every ``span()`` call returns the same no-op."""

    enabled = False
    profiler = None
    clock = staticmethod(time.perf_counter)

    def add_exporter(self, exporter: Any) -> None:
        pass

    def span(self, name: str, attributes: Mapping[str, Any] | None = None) -> NullSpan:
        return _NULL_SPAN

    def next_span_id(self) -> int:
        return 0

    def ingest(self, record: SpanRecord) -> None:
        pass

    def wall_time(self) -> float:
        return 0.0

    def now(self) -> float:
        return time.perf_counter()

    def current_span_id(self) -> int | None:
        return None


#: The process-wide disabled tracer (the library default).
NULL_TRACER = NullTracer()
