"""Campaign health plane: declarative SLO/alert rules over round samples.

Long campaigns are *services*, and services need health signals while they
run, not just post-hoc reports.  A :class:`HealthMonitor` evaluates a set of
declarative :class:`HealthRule` objects against a stream of
:class:`HealthSample` observations -- one per round attempt (plus campaign,
streaming and estimate samples) -- and turns threshold crossings into
**alerts with fire/resolve semantics**: a rule that starts failing emits one
``fired`` event, stays silently active while it keeps failing, and emits one
``resolved`` event when the condition clears.  Every transition is appended
to the monitor's event list and, when a sink is configured, to an
``alerts.jsonl`` file next to the flight-recorder artifact.

The monitor is a tracer exporter and reads spans only.  Each closing
``federated.round`` span (any round attempt, in process or served), each
successful ``campaign.round`` span and each successful
``streaming.estimate`` snapshot becomes one sample, stamped with the span's
end time on the tracer's clock, so ``--sim-clock`` runs produce
byte-identical ``alerts.jsonl`` across same-seed runs.  ``ObservedRun``
(``trace``, ``serve``) installs it this way.  The one explicit call is
:meth:`HealthMonitor.observe_estimate`, the end-of-run estimate and its
Lemma 3.1 analysis, stamped at the last sample's time.

The built-in rule set (:func:`default_rules`) covers the SLOs the ROADMAP's
scaling arc needs visible: epsilon-budget burn rate vs. schedule, retry
storms, quorum degradation, dropout-rate clipping, encoding-range shifts
from the :class:`~repro.core.monitor.HighBitMonitor`, and
estimate-vs-Lemma-3.1 variance drift scored with the
:mod:`repro.verification.statcheck` normal tail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.observability.exporters import JsonLinesExporter
from repro.observability.tracing import ROUND_SPAN, SpanRecord

__all__ = [
    "ALERTS_FILENAME",
    "SEVERITIES",
    "AlertEvent",
    "DropoutClipRule",
    "EpsilonBurnRateRule",
    "HealthMonitor",
    "HealthRule",
    "HealthSample",
    "MonitorShiftRule",
    "QuorumDegradationRule",
    "Reading",
    "RetryStormRule",
    "ShardFailureRule",
    "StragglerSkewRule",
    "VarianceDriftRule",
    "default_rules",
]

#: Alert transition log written next to a flight-recorder artifact.
ALERTS_FILENAME = "alerts.jsonl"

#: Valid rule severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class HealthSample:
    """One health observation: a round attempt, estimate, or snapshot.

    ``kind`` is one of ``"round"`` (a round attempt completed or failed),
    ``"estimate"`` (an end-of-run estimate with its Lemma 3.1 analysis),
    ``"campaign"`` (one campaign round's drift-monitor outcome), or
    ``"streaming"`` (a streaming-aggregator snapshot).  Rules ignore kinds
    they do not understand.  ``counters`` is the metrics-registry counter
    snapshot at sample time (empty when no registry is installed).
    """

    kind: str
    t_s: float
    round_index: int | None = None
    attempt: int | None = None
    planned: int | None = None
    survived: int | None = None
    failed: bool = False
    degraded: bool = False
    observed_error: float | None = None
    predicted_std: float | None = None
    shift: bool = False
    uplink_median_s: float | None = None
    uplink_slow_decile_s: float | None = None
    counters: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Reading:
    """One rule evaluation: firing, clear, or no opinion (``firing=None``)."""

    firing: bool | None
    value: float | None = None
    detail: str = ""


class HealthRule:
    """One declarative SLO: a named, severity-tagged condition over samples.

    Subclasses implement :meth:`evaluate`; returning ``Reading(None)``
    leaves the rule's fired/resolved state untouched (insufficient data or
    an irrelevant sample kind).  Rules may keep internal window state; the
    monitor evaluates them in registration order, one pass per sample.
    """

    name: str = "rule"
    severity: str = "warning"
    description: str = ""

    def evaluate(self, sample: HealthSample) -> Reading:
        raise NotImplementedError


@dataclass(frozen=True)
class AlertEvent:
    """One fire/resolve transition, as persisted to ``alerts.jsonl``."""

    rule: str
    severity: str
    state: str  # "fired" | "resolved"
    t_s: float
    round_index: int | None
    value: float | None
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "alert",
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            "t_s": self.t_s,
            "round_index": self.round_index,
            "value": self.value,
            "detail": self.detail,
        }


# ----------------------------------------------------------------------
# Built-in rules
# ----------------------------------------------------------------------


class EpsilonBurnRateRule(HealthRule):
    """Cumulative epsilon spend is ahead of its schedule.

    With a budget and a planned round count, each completed round is allowed
    ``budget / planned_rounds`` of spend; the rule fires when the cumulative
    spend (the ``privacy_epsilon_spent_total`` counter) exceeds ``headroom``
    times the allowance earned so far (and resolves if later on-schedule
    rounds catch the allowance back up).
    Without ``planned_rounds`` the whole budget is the allowance, so the
    rule degenerates to "spent more than ``headroom * budget``".
    """

    name = "epsilon-burn-rate"
    severity = "critical"
    description = "epsilon spend ahead of the budgeted burn schedule"

    def __init__(
        self,
        budget: float,
        planned_rounds: int | None = None,
        headroom: float = 1.05,
    ) -> None:
        if budget <= 0:
            raise ConfigurationError(f"epsilon budget must be positive, got {budget}")
        if planned_rounds is not None and planned_rounds < 1:
            raise ConfigurationError(f"planned_rounds must be >= 1, got {planned_rounds}")
        if headroom < 1.0:
            raise ConfigurationError(f"headroom must be >= 1.0, got {headroom}")
        self.budget = float(budget)
        self.planned_rounds = planned_rounds
        self.headroom = float(headroom)
        self._completed = 0

    def evaluate(self, sample: HealthSample) -> Reading:
        if sample.kind != "round":
            return Reading(None)
        if not sample.failed:
            self._completed += 1
        spent = sample.counters.get("privacy_epsilon_spent_total")
        if spent is None:
            return Reading(None)
        if self.planned_rounds is None:
            allowance = self.budget
        else:
            allowance = self.budget * min(1.0, self._completed / self.planned_rounds)
        firing = spent > self.headroom * allowance + 1e-12
        return Reading(
            firing,
            value=float(spent),
            detail=(
                f"spent {spent:.4g} eps vs allowance {allowance:.4g} "
                f"after {self._completed} completed round(s)"
            ),
        )


class RetryStormRule(HealthRule):
    """Too many retried attempts inside the trailing attempt window.

    Each round sample with ``attempt > 1`` marks one retry; the rule fires
    when at least ``threshold`` marks land inside the last ``window``
    attempts, and resolves once enough clean attempts push them out.
    """

    name = "retry-storm"
    severity = "warning"
    description = "retried round attempts clustered inside the window"

    def __init__(self, window: int = 5, threshold: int = 2) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        self.window = window
        self.threshold = threshold
        self._recent: deque[int] = deque(maxlen=window)

    def evaluate(self, sample: HealthSample) -> Reading:
        if sample.kind != "round":
            return Reading(None)
        self._recent.append(1 if (sample.attempt or 1) > 1 else 0)
        retries = sum(self._recent)
        return Reading(
            retries >= self.threshold,
            value=float(retries),
            detail=f"{retries} retried attempt(s) in the last {len(self._recent)}",
        )


class QuorumDegradationRule(HealthRule):
    """Failed or degraded rounds dominate the trailing window.

    Counts round attempts that failed outright or completed degraded (and
    streaming snapshots flagged under-evidenced) over the last ``window``
    samples; fires when the rate reaches ``max_rate`` with a full window.
    """

    name = "quorum-degradation"
    severity = "warning"
    description = "failed/degraded rounds exceed the tolerated rate"

    def __init__(self, window: int = 5, max_rate: float = 0.4) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if not 0.0 < max_rate <= 1.0:
            raise ConfigurationError(f"max_rate must be in (0, 1], got {max_rate}")
        self.window = window
        self.max_rate = max_rate
        self._recent: deque[int] = deque(maxlen=window)

    def evaluate(self, sample: HealthSample) -> Reading:
        if sample.kind not in ("round", "streaming"):
            return Reading(None)
        self._recent.append(1 if (sample.failed or sample.degraded) else 0)
        if len(self._recent) < self.window:
            return Reading(None)
        rate = sum(self._recent) / len(self._recent)
        return Reading(
            rate >= self.max_rate,
            value=rate,
            detail=f"{sum(self._recent)}/{len(self._recent)} recent rounds failed or degraded",
        )


class DropoutClipRule(HealthRule):
    """Dropout-rate clips observed inside the trailing window.

    Watches the ``dropout_rate_clips_total`` counter: a clip means a fault
    override pushed the effective dropout rate past the model's ceiling --
    the statistical weather is worse than anything the plan budgeted for.
    """

    name = "dropout-clip"
    severity = "warning"
    description = "dropout rate clipped at the model ceiling"

    def __init__(self, window: int = 5, threshold: int = 1) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        self.window = window
        self.threshold = threshold
        self._recent: deque[float] = deque(maxlen=window + 1)

    def evaluate(self, sample: HealthSample) -> Reading:
        if sample.kind != "round":
            return Reading(None)
        clips = sample.counters.get("dropout_rate_clips_total")
        if clips is None:
            return Reading(None)
        self._recent.append(float(clips))
        delta = self._recent[-1] - self._recent[0]
        return Reading(
            delta >= self.threshold,
            value=delta,
            detail=f"{delta:.0f} dropout-rate clip(s) in the last {len(self._recent) - 1} round(s)",
        )


class ShardFailureRule(HealthRule):
    """Secure-aggregation shards failed inside the trailing window.

    Watches the ``secure_shard_failures_total`` counter: a failed shard
    means a masking session fell below its recovery threshold and its
    clients were excluded from the round -- the round *degraded* rather
    than aborting, and this rule is how that containment stays visible.
    Resolves once ``window`` clean rounds push the failures out.
    """

    name = "shard-failure"
    severity = "warning"
    description = "secure-aggregation shard(s) below recovery threshold"

    def __init__(self, window: int = 5, threshold: int = 1) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        self.window = window
        self.threshold = threshold
        self._recent: deque[float] = deque(maxlen=window + 1)

    def evaluate(self, sample: HealthSample) -> Reading:
        if sample.kind != "round":
            return Reading(None)
        failures = sample.counters.get("secure_shard_failures_total")
        if failures is None:
            # The failures counter springs into existence at its first
            # increment; a clean secure round before that still counts as
            # an explicit zero baseline, or the first failure's delta
            # would be invisible to the window.
            if sample.counters.get("secure_shards_total") is None:
                return Reading(None)
            failures = 0.0
        self._recent.append(float(failures))
        delta = self._recent[-1] - self._recent[0]
        return Reading(
            delta >= self.threshold,
            value=delta,
            detail=(
                f"{delta:.0f} shard failure(s) in the last "
                f"{len(self._recent) - 1} round(s)"
            ),
        )


class StragglerSkewRule(HealthRule):
    """Slowest-decile uplink latency diverged from the round median.

    Served rounds stamp ``uplink_median_s`` / ``uplink_slow_decile_s`` on
    their round span (derived from per-uplink arrival times relative to the
    ANNOUNCE broadcast).  When the slow decile runs more than ``max_ratio``
    times the median, a straggling cohort is dragging the round's tail --
    the collect deadline is doing the cohort's waiting.  Samples without
    uplink timings (in-process rounds, telemetry off) are no opinion, and
    a degenerate median below ``floor_s`` is ignored rather than divided by.
    """

    name = "straggler-skew"
    severity = "warning"
    description = "slowest-decile uplink latency diverged from the median"

    def __init__(self, max_ratio: float = 4.0, floor_s: float = 1e-6) -> None:
        if max_ratio <= 1.0:
            raise ConfigurationError(f"max_ratio must be > 1.0, got {max_ratio}")
        if floor_s <= 0.0:
            raise ConfigurationError(f"floor_s must be positive, got {floor_s}")
        self.max_ratio = float(max_ratio)
        self.floor_s = float(floor_s)

    def evaluate(self, sample: HealthSample) -> Reading:
        if sample.kind != "round":
            return Reading(None)
        median = sample.uplink_median_s
        slow = sample.uplink_slow_decile_s
        if median is None or slow is None or median < self.floor_s:
            return Reading(None)
        ratio = float(slow) / float(median)
        return Reading(
            ratio > self.max_ratio,
            value=ratio,
            detail=(
                f"slow-decile uplink {slow * 1e3:.3g} ms is {ratio:.2f}x "
                f"the median {median * 1e3:.3g} ms (threshold {self.max_ratio:g}x)"
            ),
        )


class MonitorShiftRule(HealthRule):
    """The occupied bit range shifted (heavy tail / distribution change).

    Reads campaign samples only, one per ``campaign.round`` span: fires on a
    round the :class:`~repro.core.monitor.HighBitMonitor` flagged, resolves
    on the next quiet one.
    """

    name = "monitor-shift"
    severity = "info"
    description = "encoding-range (top occupied bit) shift detected"

    def evaluate(self, sample: HealthSample) -> Reading:
        if sample.kind != "campaign":
            return Reading(None)
        return Reading(sample.shift, detail="HighBitMonitor flagged a bit-range shift")


class VarianceDriftRule(HealthRule):
    """The observed estimate error is inconsistent with Lemma 3.1.

    Standardizes the observed error by the lemma's predicted standard
    deviation (evaluated at realized counts) and scores the two-sided
    normal tail with :func:`repro.verification.statcheck.normal_sf`; fires
    when the p-value drops below ``alpha``.  A correct pipeline trips this
    with probability ``alpha`` per estimate, so the default is far out in
    the tail -- a fire means the variance model and reality have drifted
    apart (a wrong debias constant, an unaccounted failure mode).
    """

    name = "variance-drift"
    severity = "critical"
    description = "estimate error outside the Lemma 3.1 variance model"

    def __init__(self, alpha: float = 1e-4) -> None:
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha

    def evaluate(self, sample: HealthSample) -> Reading:
        if sample.kind != "estimate":
            return Reading(None)
        error, std = sample.observed_error, sample.predicted_std
        if error is None or std is None or std <= 0.0 or std != std or std == float("inf"):
            return Reading(None)
        # Lazy import: repro.verification pulls in estimator modules that
        # import this package; at evaluate time everything is initialized.
        from repro.verification.statcheck import normal_sf

        z = float(error) / float(std)
        p = min(1.0, 2.0 * normal_sf(z))
        return Reading(
            p < self.alpha,
            value=z,
            detail=f"|z| = {z:.3f} (two-sided p = {p:.3g}) vs alpha = {self.alpha:g}",
        )


def default_rules(
    epsilon_budget: float | None = None,
    planned_rounds: int | None = None,
    window: int = 5,
    retry_threshold: int = 2,
    degradation_rate: float = 0.4,
    drift_alpha: float = 1e-4,
    straggler_ratio: float = 4.0,
) -> list[HealthRule]:
    """The standard SLO set; the burn-rate rule needs a budget to exist."""
    rules: list[HealthRule] = [
        RetryStormRule(window=window, threshold=retry_threshold),
        QuorumDegradationRule(window=window, max_rate=degradation_rate),
        DropoutClipRule(window=window),
        ShardFailureRule(window=window),
        MonitorShiftRule(),
        VarianceDriftRule(alpha=drift_alpha),
        StragglerSkewRule(max_ratio=straggler_ratio),
    ]
    if epsilon_budget is not None:
        rules.insert(0, EpsilonBurnRateRule(epsilon_budget, planned_rounds=planned_rounds))
    return rules


# ----------------------------------------------------------------------
# The monitor
# ----------------------------------------------------------------------


class HealthMonitor:
    """Evaluate SLO rules per sample and record fire/resolve transitions.

    Parameters
    ----------
    rules:
        The rule set (default :func:`default_rules` with no budget).  Rule
        names must be unique -- they key the fire/resolve state.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        snapshotted into every sample's ``counters``.  ``None`` falls back
        to the process-wide registry at sample time.
    sink:
        Where alert transitions are persisted: a path (an ``alerts.jsonl``
        file, opened with line-level flushing like the flight recorder's
        event log) or any object with a ``write_line(dict)`` method.
        ``None`` keeps transitions in memory only.

    Installed as a tracer exporter, the monitor takes each closing
    :data:`~repro.observability.tracing.ROUND_SPAN` as a round attempt (see
    :meth:`export`).
    """

    def __init__(
        self,
        rules: Sequence[HealthRule] | None = None,
        metrics: Any = None,
        sink: str | Path | Any | None = None,
    ) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"health rule names must be unique, got {names}")
        for rule in self.rules:
            if rule.severity not in SEVERITIES:
                raise ConfigurationError(
                    f"rule {rule.name!r} severity must be one of {SEVERITIES}, "
                    f"got {rule.severity!r}"
                )
        self._metrics = metrics
        self._owns_sink = isinstance(sink, (str, Path))
        self._sink = JsonLinesExporter(sink, flush_every=1) if self._owns_sink else sink
        self._active: dict[str, AlertEvent] = {}
        self._fired: dict[str, int] = {}
        self._resolved: dict[str, int] = {}
        self._events: list[AlertEvent] = []
        self._evaluations = 0
        self._t = 0.0

    # -- sample construction -------------------------------------------
    def _counters(self) -> dict[str, float]:
        registry = self._metrics
        if registry is None:
            from repro.observability import get_metrics

            registry = get_metrics()
        if not getattr(registry, "enabled", False):
            return {}
        return dict(registry.snapshot().get("counters", {}))

    def _advance(self, t_s: float | None) -> float:
        if t_s is not None:
            self._t = max(self._t, float(t_s))
        return self._t

    # -- exporter protocol ----------------------------------------------
    def export(self, record: SpanRecord) -> None:
        """Evaluate one sample per closing round span, and per successful
        ``campaign.round`` or ``streaming.estimate`` span.

        A round attempt counts whether it completed or failed; a campaign
        round or snapshot that raised is no sample.
        """
        attrs = record.attributes
        if record.name == ROUND_SPAN:
            fields: dict[str, Any] = {
                "kind": "round",
                "round_index": attrs.get("round_index"),
                "attempt": attrs.get("attempt"),
                "planned": attrs.get("planned_clients"),
                "survived": attrs.get("surviving_clients"),
                "failed": bool(attrs.get("failed")),
                "degraded": bool(attrs.get("degraded")),
                "uplink_median_s": attrs.get("uplink_median_s"),
                "uplink_slow_decile_s": attrs.get("uplink_slow_decile_s"),
            }
        elif record.status != "ok":
            return
        elif record.name == "campaign.round":
            fields = {
                "kind": "campaign",
                "round_index": attrs.get("round_index"),
                "shift": attrs.get("alert") is not None,
                "degraded": bool(attrs.get("degraded")),
            }
        elif record.name == "streaming.estimate":
            fields = {
                "kind": "streaming",
                "survived": attrs.get("reports"),
                "degraded": bool(attrs.get("degraded")),
            }
        else:
            return
        t_s = self._advance(record.start_time_s + record.duration_s)
        self.evaluate(HealthSample(t_s=t_s, counters=self._counters(), **fields))

    def observe_estimate(
        self, analysis: Mapping[str, Any], t_s: float | None = None
    ) -> list[AlertEvent]:
        """An end-of-run estimate with its Lemma 3.1 analysis dict.

        Stamped at ``t_s``, by default the last sample's time.
        """
        return self.evaluate(
            HealthSample(
                kind="estimate",
                t_s=self._advance(t_s),
                observed_error=analysis.get("observed_error"),
                predicted_std=analysis.get("predicted_std"),
                counters=self._counters(),
            )
        )

    # -- the engine -----------------------------------------------------
    def evaluate(self, sample: HealthSample) -> list[AlertEvent]:
        """Run every rule against ``sample``; returns the transitions."""
        self._evaluations += 1
        transitions: list[AlertEvent] = []
        for rule in self.rules:
            reading = rule.evaluate(sample)
            if reading.firing is None:
                continue
            active = rule.name in self._active
            if reading.firing and not active:
                event = self._transition(rule, "fired", sample, reading)
                self._active[rule.name] = event
                self._fired[rule.name] = self._fired.get(rule.name, 0) + 1
                transitions.append(event)
            elif not reading.firing and active:
                event = self._transition(rule, "resolved", sample, reading)
                del self._active[rule.name]
                self._resolved[rule.name] = self._resolved.get(rule.name, 0) + 1
                transitions.append(event)
        return transitions

    def _transition(
        self, rule: HealthRule, state: str, sample: HealthSample, reading: Reading
    ) -> AlertEvent:
        event = AlertEvent(
            rule=rule.name,
            severity=rule.severity,
            state=state,
            t_s=sample.t_s,
            round_index=sample.round_index,
            value=reading.value,
            detail=reading.detail or rule.description,
        )
        self._events.append(event)
        if self._sink is not None:
            self._sink.write_line(event.to_dict())
        return event

    # -- reporting ------------------------------------------------------
    @property
    def events(self) -> tuple[AlertEvent, ...]:
        """Every fire/resolve transition so far, in order."""
        return tuple(self._events)

    def active_alerts(self) -> list[dict[str, Any]]:
        """Currently-firing alerts (rule, severity, since, value, detail)."""
        return [
            {
                "rule": event.rule,
                "severity": event.severity,
                "since_t_s": event.t_s,
                "value": event.value,
                "detail": event.detail,
            }
            for event in sorted(self._active.values(), key=lambda e: e.t_s)
        ]

    def summary(self) -> dict[str, Any]:
        """JSON-ready summary for the flight-recorder manifest."""
        by_severity: dict[str, int] = {}
        for name, count in self._fired.items():
            severity = next(r.severity for r in self.rules if r.name == name)
            by_severity[severity] = by_severity.get(severity, 0) + count
        return {
            "rules": [
                {"name": r.name, "severity": r.severity, "description": r.description}
                for r in self.rules
            ],
            "evaluations": self._evaluations,
            "fired_total": sum(self._fired.values()),
            "resolved_total": sum(self._resolved.values()),
            "by_rule": {
                name: {
                    "fired": self._fired.get(name, 0),
                    "resolved": self._resolved.get(name, 0),
                }
                for name in sorted(set(self._fired) | set(self._resolved))
            },
            "by_severity": {k: by_severity[k] for k in sorted(by_severity)},
            "active": self.active_alerts(),
        }

    def close(self) -> None:
        """Close a path-opened sink (no-op for injected sink objects)."""
        if self._owns_sink and self._sink is not None:
            self._sink.close()
            self._sink = None


def load_alerts(directory: str | Path) -> list[dict[str, Any]]:
    """Parse an artifact directory's ``alerts.jsonl`` ([] when absent).

    Like the event log, a truncated tail line (crashed run) is skipped.
    """
    import json

    path = Path(directory) / ALERTS_FILENAME
    if not path.exists():
        return []
    events: list[dict[str, Any]] = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events


def _severity_rank(severity: str) -> int:
    return SEVERITIES.index(severity) if severity in SEVERITIES else len(SEVERITIES)


def rank_active(alerts: Iterable[Mapping[str, Any]]) -> list[Mapping[str, Any]]:
    """Active alerts ordered most severe first (for live displays)."""
    return sorted(alerts, key=lambda a: (-_severity_rank(str(a.get("severity", ""))), a.get("rule")))
