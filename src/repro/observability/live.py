"""Live campaign monitor: per-round progress lines on stderr.

``repro.cli trace --watch`` attaches a :class:`LiveMonitor` next to the
other exporters, as ``scripts/health_demo.py`` does for its campaigns: every
closing ``federated.round`` span (one round attempt, in process or served)
becomes one progress line --
round/attempt, delivered vs planned reports, cumulative report throughput,
a naive ETA from the mean time per completed round, and whatever health
alerts are currently firing.  A round completes with its one attempt that
did not fail, so a retried round counts once.  Output goes to **stderr** so
the machine-readable stdout JSON stream is never perturbed; piping
``trace --json --watch`` through ``jq`` keeps working.

Time comes from span timestamps, never from a wall-clock read of its own,
so ``--sim-clock`` watch output is deterministic too (handy in tests).
"""

from __future__ import annotations

import sys
from typing import IO, Any

from repro.observability.health import HealthMonitor, rank_active
from repro.observability.tracing import ROUND_SPAN, SpanRecord

__all__ = ["LiveMonitor"]


class LiveMonitor:
    """Tracer exporter rendering one stderr line per round attempt.

    Parameters
    ----------
    planned_rounds:
        Expected round count; enables the ETA column once a round has
        completed.  ``None`` renders progress without an ETA.
    health:
        Optional :class:`HealthMonitor` whose active alerts are appended to
        every line.  The live monitor only *reads* the health state; the
        health monitor is an exporter of the same tracer, registered before
        this one so each line shows the alerts its round just changed.
    stream:
        Defaults to ``sys.stderr`` (resolved at write time, so pytest's
        capsys and CLI redirections both behave).
    """

    def __init__(
        self,
        planned_rounds: int | None = None,
        health: HealthMonitor | None = None,
        stream: IO[str] | None = None,
    ) -> None:
        self.planned_rounds = planned_rounds
        self.health = health
        self._stream = stream
        self._rounds_done = 0
        self._reports_total = 0
        self._first_start: float | None = None
        self._last_end: float | None = None

    def _out(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    # -- exporter protocol ---------------------------------------------
    def export(self, record: SpanRecord) -> None:
        if record.name != ROUND_SPAN:
            return
        attrs = record.attributes
        failed = bool(attrs.get("failed"))
        if not failed:
            self._rounds_done += 1
        survived = int(attrs.get("surviving_clients") or 0)
        planned = int(attrs.get("planned_clients") or 0)
        self._reports_total += survived
        if self._first_start is None:
            self._first_start = record.start_time_s
        self._last_end = record.start_time_s + record.duration_s
        self.emit(
            round_index=attrs.get("round_index"),
            attempt=attrs.get("attempt"),
            survived=survived,
            planned=planned,
            failed=failed,
            degraded=bool(attrs.get("degraded")),
        )

    # -- rendering ------------------------------------------------------
    def emit(
        self,
        round_index: Any = None,
        attempt: Any = None,
        survived: int = 0,
        planned: int = 0,
        failed: bool = False,
        degraded: bool = False,
    ) -> None:
        """Render one progress line from the accumulated state."""
        elapsed = None
        if self._first_start is not None and self._last_end is not None:
            elapsed = max(0.0, self._last_end - self._first_start)
        parts = [f"round {round_index}"]
        if attempt is not None and int(attempt) > 1:
            parts.append(f"attempt {attempt}")
        parts.append(f"{survived}/{planned} reports")
        if failed:
            parts.append("FAILED")
        elif degraded:
            parts.append("degraded")
        parts.append(f"{self._reports_total} total")
        if elapsed and elapsed > 0:
            parts.append(f"{self._reports_total / elapsed:.0f} reports/s")
        eta = self._eta(elapsed)
        if eta is not None:
            parts.append(f"ETA {eta:.1f}s")
        alerts = self.active_alert_labels()
        if alerts:
            parts.append("alerts: " + ", ".join(alerts))
        print("[watch] " + " | ".join(parts), file=self._out(), flush=True)

    def _eta(self, elapsed: float | None) -> float | None:
        if (
            self.planned_rounds is None
            or elapsed is None
            or elapsed <= 0
            or self._rounds_done == 0
        ):
            return None
        remaining = max(0, self.planned_rounds - self._rounds_done)
        return remaining * (elapsed / self._rounds_done)

    def active_alert_labels(self) -> list[str]:
        if self.health is None:
            return []
        return [
            f"{alert['rule']}({alert['severity']})"
            for alert in rank_active(self.health.active_alerts())
        ]

    def finish(self, estimate: float | None = None) -> None:
        """Render a closing summary line."""
        parts = [f"{self._rounds_done} round(s)", f"{self._reports_total} reports"]
        if estimate is not None:
            parts.append(f"estimate {estimate:.6g}")
        alerts = self.active_alert_labels()
        parts.append("alerts: " + (", ".join(alerts) if alerts else "none"))
        print("[watch] done | " + " | ".join(parts), file=self._out(), flush=True)
