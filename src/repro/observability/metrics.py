"""Process-wide metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe, name-addressed collection of
instruments::

    registry.counter("round_reports_lost_total").inc(37)
    registry.gauge("dropout_rate").set(0.12)
    registry.histogram("round_duration_s").observe(241.8)

``snapshot()`` freezes everything into one nested dict (JSON-ready), which
is what the JSONL trace exporter, the CLI ``trace`` subcommand, and the
benchmark harness all persist.

As with tracing, the library default is :data:`NULL_METRICS`: a registry
whose instruments are shared no-op singletons, so instrumented hot paths
cost one attribute lookup when metrics are disabled.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "DEFAULT_DURATION_BUCKETS",
]

#: Default histogram buckets for round/report durations, in seconds.
DEFAULT_DURATION_BUCKETS = (0.1, 1.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0)


class Counter:
    """A monotonically increasing value (floats allowed: epsilon is one)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value that can move in either direction."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed upper-bound buckets plus a running sum/count and the observed min/max.

    ``buckets`` are inclusive upper bounds in ascending order; one implicit
    overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float], help: str = "") -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs >= 1 bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(f"histogram {name!r} buckets must be strictly ascending")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min, self._max = math.inf, -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (count>1 batches cheaply)."""
        if count < 1:
            raise ConfigurationError(f"histogram {self.name!r} observe count must be >= 1")
        value = float(value)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += count
            self._sum += value * count
            self._count += count
            self._min, self._max = min(self._min, value), max(self._max, value)

    def observe_array(self, values: np.ndarray | Iterable[float]) -> None:
        """Vectorized :meth:`observe` for one value per array element."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.size == 0:
            return
        arr = arr.astype(np.float64, copy=False).ravel()
        idx = np.searchsorted(np.array(self.buckets), arr, side="left")
        bucket_counts = np.bincount(idx, minlength=len(self.buckets) + 1)
        with self._lock:
            self._counts = [have + int(c) for have, c in zip(self._counts, bucket_counts)]
            self._sum += float(arr.sum())
            self._count += int(arr.size)
            self._min = min(self._min, float(arr.min()))
            self._max = max(self._max, float(arr.max()))

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile of everything observed so far.

        Linear interpolation within the bucket holding the ``q``-th ranked
        observation, with the first bucket's lower edge taken as 0.0 (these
        instruments measure non-negative quantities), clamped into the
        observed ``[min, max]``; the implicit overflow bucket spans the
        last finite bound to the observed max.  The value depends only on
        the bucket *counts* and the observed extremes, never on the other
        raw observations -- what keeps recorded run reports stable.
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile q must be in [0, 1], got {q}")
        with self._lock:
            counts, total, low, high = list(self._counts), self._count, self._min, self._max
        return self._quantile_from_counts(self.buckets, counts, total, q, low, high)

    @staticmethod
    def _quantile_from_counts(
        buckets: Sequence[float], counts: Sequence[int], total: int, q: float,
        low: float, high: float,
    ) -> float:
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for i, count in enumerate(counts):
            if count and (cumulative + count >= rank or i == len(counts) - 1):
                if i == len(buckets):
                    # Overflow bucket: its upper edge is the observed max
                    # (the last bound when a merged payload left it open).
                    lower = float(buckets[-1])
                    upper = high if math.isfinite(high) else lower
                else:
                    upper = float(buckets[i])
                    lower = 0.0 if i == 0 else float(buckets[i - 1])
                fraction = min(max((rank - cumulative) / count, 0.0), 1.0)
                value = upper if i == 0 and upper <= 0.0 else lower + fraction * (upper - lower)
                return min(max(value, low), high)
            cumulative += count
        return float(buckets[-1])

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            counts, total, low, high = list(self._counts), self._count, self._min, self._max
            payload = {
                "buckets": list(self.buckets),
                "counts": counts,
                "sum": self._sum,
                "count": total,
                "min": low if math.isfinite(low) else None,
                "max": high if math.isfinite(high) else None,
            }
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            payload[key] = self._quantile_from_counts(self.buckets, counts, total, q, low, high)
        return payload

    def merge_dict(self, payload: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`to_dict` payload into this one.

        Bucket layouts must match exactly -- a merge across different
        layouts would silently misplace counts.
        """
        bounds = tuple(float(b) for b in payload.get("buckets", ()))
        if bounds != self.buckets:
            raise ConfigurationError(
                f"histogram {self.name!r} bucket mismatch on merge: "
                f"{bounds} vs {self.buckets}"
            )
        counts = payload.get("counts", [])
        if len(counts) != len(self._counts):
            raise ConfigurationError(
                f"histogram {self.name!r} expects {len(self._counts)} bucket counts, "
                f"got {len(counts)}"
            )
        with self._lock:
            self._counts = [have + int(c) for have, c in zip(self._counts, counts)]
            self._sum += float(payload.get("sum", 0.0))
            self._count += int(payload.get("count", 0))
            if payload.get("count"):  # extremes a payload lacks leave the range open
                low, high = payload.get("min"), payload.get("max")
                self._min = min(self._min, -math.inf if low is None else float(low))
                self._max = max(self._max, math.inf if high is None else float(high))


class MetricsRegistry:
    """Name-addressed instruments with get-or-create semantics."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, factory) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as {type(existing).__name__}, "
                        f"not {kind.__name__}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, buckets, help))

    def snapshot(self) -> dict[str, Any]:
        """Freeze every instrument into one nested, JSON-ready dict."""
        with self._lock:
            instruments = dict(self._instruments)
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, instrument in sorted(instruments.items()):
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.value
            else:
                out["histograms"][name] = instrument.to_dict()
        return out

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The primitive behind worker-metric merging: a forked
        ``ParallelExecutor`` worker records into its own registry, returns
        the snapshot, and the parent folds it here.  Counters add, gauges
        take the incoming value (last write wins -- point-in-time values
        have no meaningful sum), histograms merge bucket-by-bucket (layouts
        must match; see :meth:`Histogram.merge_dict`).  Instruments missing
        on this side are created on demand.
        """
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
            else:
                self.counter(name)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            buckets = payload.get("buckets") or DEFAULT_DURATION_BUCKETS
            self.histogram(name, buckets=buckets).merge_dict(payload)

    def reset(self) -> None:
        """Drop every instrument (tests and repeated CLI runs)."""
        with self._lock:
            self._instruments.clear()


class _NullInstrument:
    """One object that satisfies the Counter/Gauge/Histogram call surface."""

    __slots__ = ()
    name = ""
    help = ""
    value = 0.0
    count = 0
    sum = 0.0
    buckets: tuple[float, ...] = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass

    def observe_array(self, values) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def to_dict(self) -> dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: every lookup returns the shared no-op instrument."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS, help: str = ""
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        pass

    def reset(self) -> None:
        pass


#: The process-wide disabled registry (the library default).
NULL_METRICS = NullMetrics()
