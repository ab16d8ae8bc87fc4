"""Run reports: render a flight-recorder artifact as Markdown or JSON.

``repro.cli report <run-dir>`` loads the artifact a
:class:`~repro.observability.recorder.FlightRecorder` wrote (``events.jsonl``
+ ``manifest.json``) and renders what the campaign actually did:

* the hot-path span tree and per-phase latency percentiles (p50/p95/p99),
* total bits sent against the paper's one-bit-per-client budget,
* the epsilon-spend timeline from the privacy ledger,
* the retry/degradation timeline (every round attempt, failures included),
* the observed estimate error against the Lemma 3.1 two-sigma bound.

Rendering is a pure function of the artifact: the same directory always
produces the same report, and artifacts recorded under ``--sim-clock`` are
byte-identical across same-seed runs, timings included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.observability.exporters import format_span_tree
from repro.observability.health import load_alerts
from repro.observability.profiler import DEFAULT_PHASE_BUCKETS, PhaseProfiler
from repro.observability.metrics import Histogram
from repro.observability.recorder import EVENTS_FILENAME, MANIFEST_FILENAME
from repro.observability.tracing import ROUND_SPAN, SpanRecord

__all__ = ["RunArtifact", "load_run", "build_report", "render_markdown"]


@dataclass(frozen=True)
class RunArtifact:
    """One recorded run: its manifest plus the parsed event stream."""

    directory: Path
    manifest: dict[str, Any]
    events: list[dict[str, Any]]
    skipped_lines: int = 0
    alerts: list[dict[str, Any]] = field(default_factory=list)

    def spans(self) -> list[SpanRecord]:
        """Reconstruct the span stream in its original (completion) order."""
        records = []
        for event in self.events:
            if event.get("type") != "span":
                continue
            records.append(
                SpanRecord(
                    name=event["name"],
                    span_id=int(event["span_id"]),
                    parent_id=event["parent_id"],
                    start_time_s=float(event["start_time_s"]),
                    duration_s=float(event["duration_s"]),
                    status=event.get("status", "ok"),
                    attributes=dict(event.get("attributes", {})),
                )
            )
        return records


def load_run(directory: str | Path) -> RunArtifact:
    """Load a flight-recorder artifact directory.

    A truncated final event line (crashed run) is skipped, not fatal --
    everything the recorder flushed before death is still reported.  A
    manifest that is not valid JSON, or not a JSON object, raises
    :class:`ValueError`.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILENAME
    events_path = directory / EVENTS_FILENAME
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{manifest_path} not found -- is {directory} a recorded run? "
            "(produce one with `repro.cli trace <target> --record <dir>`)"
        )
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path} is not a JSON object")
    events: list[dict[str, Any]] = []
    skipped = 0
    if events_path.exists():
        for line in events_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
    return RunArtifact(
        directory=directory,
        manifest=manifest,
        events=events,
        skipped_lines=skipped,
        alerts=load_alerts(directory),
    )


def _phases_from_events(artifact: RunArtifact) -> list[dict[str, Any]]:
    """Per-phase summary recomputed from span events (pre-profiler artifacts)."""
    profiler = PhaseProfiler()
    for record in artifact.spans():
        profiler.observe(record)
    return [phase.to_dict() for phase in profiler.phases()]


def _recovery_timeline(artifact: RunArtifact) -> list[dict[str, Any]]:
    """Every round attempt plus retry waits, in start-time order."""
    entries: list[dict[str, Any]] = []
    for record in artifact.spans():
        attrs = record.attributes
        if record.name == "round.retry":
            entries.append(
                {
                    "t_s": record.start_time_s,
                    "kind": "retry",
                    "round_index": attrs.get("round_index"),
                    "attempt": attrs.get("failed_attempt"),
                    "detail": (
                        f"backoff {attrs.get('backoff_s', 0.0):.1f}s before attempt "
                        f"{attrs.get('next_attempt')}: {attrs.get('reason', '')}"
                    ),
                }
            )
        elif record.name == ROUND_SPAN:
            if attrs.get("failed"):
                kind = "failed"
                if "surviving_clients" in attrs:
                    detail = (
                        f"{attrs['surviving_clients']}/{attrs.get('planned_clients')} "
                        "survivors (below quorum)"
                    )
                else:
                    # Another exception (the bit meter's, say) ended the
                    # attempt before its fold stamped the survivors.
                    detail = f"aborted: {attrs.get('error', '')}"
            elif attrs.get("degraded"):
                kind = "degraded"
                detail = (
                    f"{attrs.get('surviving_clients')}/{attrs.get('planned_clients')} "
                    f"survivors, variance x{attrs.get('variance_inflation', 1.0):.2f}"
                )
            else:
                kind = "completed"
                detail = (
                    f"{attrs.get('surviving_clients')}/{attrs.get('planned_clients')} "
                    "survivors"
                )
            if attrs.get("faults"):
                detail += f" [faults: {attrs['faults']}]"
            entries.append(
                {
                    "t_s": record.start_time_s,
                    "kind": kind,
                    "round_index": attrs.get("round_index"),
                    "attempt": attrs.get("attempt"),
                    "detail": detail,
                }
            )
    entries.sort(key=lambda e: e["t_s"])
    return entries


def _privacy_timeline(manifest: dict[str, Any]) -> dict[str, Any]:
    privacy = manifest.get("privacy") or {}
    timeline = []
    cumulative = 0.0
    for step, entry in enumerate(privacy.get("ledger", []), start=1):
        cumulative += float(entry.get("epsilon", 0.0))
        timeline.append(
            {
                "step": step,
                "epsilon": float(entry.get("epsilon", 0.0)),
                "cumulative_epsilon": cumulative,
                "note": entry.get("note", ""),
            }
        )
    return {
        "epsilon_spent": float(privacy.get("epsilon_spent", 0.0)),
        "delta_spent": float(privacy.get("delta_spent", 0.0)),
        "epsilon_budget": privacy.get("epsilon_budget"),
        "timeline": timeline,
    }


def _communication(manifest: dict[str, Any]) -> dict[str, Any]:
    counters = (manifest.get("metrics") or {}).get("counters", {})
    config = manifest.get("config", {})
    delivered = float(counters.get("round_reports_delivered_total", 0.0))
    planned = float(counters.get("round_reports_planned_total", 0.0))
    lost = float(counters.get("round_reports_lost_total", 0.0))
    n_clients = config.get("n_clients")
    budget = float(n_clients) if n_clients else None
    meter = manifest.get("bit_meter") or {}
    return {
        "bits_sent": delivered,
        "bits_budget": budget,
        "budget_utilization": (delivered / budget) if budget else None,
        "reports_planned": planned,
        "reports_delivered": delivered,
        "reports_lost": lost,
        "metered_bits": meter.get("total_bits"),
    }


def _series(histogram: dict[str, Any]) -> dict[str, Any]:
    """A latency series from a :meth:`Histogram.to_dict` payload: percentiles from buckets."""
    return {
        "count": histogram.get("count", 0),
        "p50_s": histogram.get("p50", 0.0),
        "p95_s": histogram.get("p95", 0.0),
        "p99_s": histogram.get("p99", 0.0),
    }


def _wire_latency(artifact: RunArtifact) -> dict[str, Any] | None:
    """Uplink RTT, server queue delay and client send time of served rounds.

    A served round observes each accepted report's RTT (ANNOUNCE to the
    arrival of its REPORTS message) and queue delay (arrival to drain) into
    the ``serve_uplink_rtt_s`` and ``serve_uplink_queue_delay_s`` histograms
    of the manifest's metrics.  Remote ``fleet.uplink`` spans (ingested from
    telemetry) give the client side, one per connection and attempt, binned
    on the same :data:`DEFAULT_PHASE_BUCKETS`.  Every percentile comes from
    bucket counts.  In-process artifacts have none of these and report no
    wire section.
    """
    histograms = (artifact.manifest.get("metrics") or {}).get("histograms", {})
    rtt = histograms.get("serve_uplink_rtt_s", {})
    queue_delay = histograms.get("serve_uplink_queue_delay_s", {})
    client_send = Histogram("fleet.uplink", DEFAULT_PHASE_BUCKETS)
    attempts = 0
    for record in artifact.spans():
        if record.name == ROUND_SPAN and "uplink_median_s" in record.attributes:
            attempts += 1
        elif record.name == "fleet.uplink" and record.attributes.get("remote"):
            client_send.observe(record.duration_s)
    if not (rtt or queue_delay or client_send.count):
        return None
    return {
        "attempts": attempts,
        "uplink_rtt": _series(rtt),
        "queue_delay": _series(queue_delay),
        "client_send": _series(client_send.to_dict()),
    }


def build_report(artifact: RunArtifact) -> dict[str, Any]:
    """Assemble the JSON-ready report all renderers share."""
    manifest = artifact.manifest
    profile = manifest.get("profile")
    phases = profile["phases"] if profile else _phases_from_events(artifact)
    counters = (manifest.get("metrics") or {}).get("counters", {})
    return {
        "label": manifest.get("label"),
        "seed": manifest.get("seed"),
        "git_revision": manifest.get("git_revision"),
        "format": manifest.get("format"),
        "config": manifest.get("config", {}),
        "events": manifest.get("events", {}),
        "skipped_lines": artifact.skipped_lines,
        "estimate": manifest.get("estimate"),
        "analysis": manifest.get("analysis"),
        "communication": _communication(manifest),
        "wire": _wire_latency(artifact),
        "privacy": _privacy_timeline(manifest),
        "recovery": _recovery_timeline(artifact),
        "phases": phases,
        "counters": {k: counters[k] for k in sorted(counters)},
        "health": manifest.get("health"),
        "alerts": artifact.alerts,
        "span_tree": format_span_tree(artifact.spans()),
    }


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def _num(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_markdown(report: dict[str, Any]) -> str:
    """Render the report dict as the human-facing Markdown document."""
    lines: list[str] = []
    out = lines.append
    out(f"# Run report: {report.get('label')}")
    out("")
    config = report.get("config", {})
    out(f"- seed: {report.get('seed')}")
    out(f"- git revision: {report.get('git_revision') or 'unknown'}")
    if config:
        pairs = "  ".join(f"{k}={config[k]}" for k in sorted(config))
        out(f"- config: {pairs}")
    events = report.get("events", {})
    out(
        f"- recorded: {events.get('spans', 0)} spans, {events.get('rounds', 0)} "
        f"round boundaries, {events.get('events', 0)} events"
    )
    if report.get("skipped_lines"):
        out(f"- WARNING: {report['skipped_lines']} malformed event line(s) skipped")
    out("")

    estimate = report.get("estimate")
    analysis = report.get("analysis") or {}
    out("## Estimate vs. Lemma 3.1")
    out("")
    if estimate:
        out("| quantity | value |")
        out("| --- | --- |")
        out(f"| estimate | {_num(estimate.get('value'))} |")
        out(f"| ground truth | {_num(analysis.get('truth'))} |")
        out(f"| observed error | {_num(analysis.get('observed_error'))} |")
        out(f"| predicted std (Lemma 3.1, realized counts) | {_num(analysis.get('predicted_std'))} |")
        out(f"| two-sigma bound | {_num(analysis.get('bound_2sigma'))} |")
        within = analysis.get("within_bound")
        out(f"| within bound | {'yes' if within else 'NO' if within is not None else '-'} |")
        out(f"| method | {estimate.get('method')} |")
        out(f"| cohort | {estimate.get('n_clients')} clients, {estimate.get('n_bits')} bits |")
    else:
        out("(no estimate recorded)")
    out("")

    comm = report.get("communication", {})
    out("## Communication budget")
    out("")
    out("| quantity | value |")
    out("| --- | --- |")
    out(f"| bits sent (delivered reports) | {_num(comm.get('bits_sent'))} |")
    out(f"| paper budget (1 bit x cohort) | {_num(comm.get('bits_budget'))} |")
    utilization = comm.get("budget_utilization")
    out(
        "| budget utilization | "
        + (f"{utilization * 100:.1f}% |" if utilization is not None else "- |")
    )
    out(f"| reports planned | {_num(comm.get('reports_planned'))} |")
    out(f"| reports lost | {_num(comm.get('reports_lost'))} |")
    out(f"| metered private bits | {_num(comm.get('metered_bits'))} |")
    out("")

    wire = report.get("wire")
    if wire:
        out("## Wire latency")
        out("")
        out(f"served attempts with uplink timings: {wire.get('attempts', 0)}")
        out("")
        out("| series | count | p50 ms | p95 ms | p99 ms |")
        out("| --- | --- | --- | --- | --- |")
        for key, title in (
            ("uplink_rtt", "uplink RTT (announce -> arrival)"),
            ("queue_delay", "server queue delay (arrival -> drain)"),
            ("client_send", "client send (fleet.uplink span)"),
        ):
            series = wire.get(key) or {}
            out(
                f"| {title} | {series.get('count', 0)} | {_ms(series.get('p50_s', 0.0))} | "
                f"{_ms(series.get('p95_s', 0.0))} | {_ms(series.get('p99_s', 0.0))} |"
            )
        out("")

    privacy = report.get("privacy", {})
    out("## Privacy spend")
    out("")
    out(
        f"epsilon spent: {_num(privacy.get('epsilon_spent'))}"
        + (
            f" of budget {_num(privacy.get('epsilon_budget'))}"
            if privacy.get("epsilon_budget") is not None
            else " (no budget set)"
        )
    )
    timeline = privacy.get("timeline", [])
    if timeline:
        out("")
        out("| step | epsilon | cumulative | note |")
        out("| --- | --- | --- | --- |")
        for entry in timeline:
            out(
                f"| {entry['step']} | {_num(entry['epsilon'])} | "
                f"{_num(entry['cumulative_epsilon'])} | {entry['note']} |"
            )
    out("")

    health = report.get("health")
    alerts = report.get("alerts", [])
    if health is not None or alerts:
        out("## Alerts")
        out("")
        if health is not None:
            active = health.get("active", [])
            out(
                f"health: {health.get('fired_total', 0)} fired, "
                f"{health.get('resolved_total', 0)} resolved, "
                f"{len(active)} still active over {health.get('evaluations', 0)} evaluation(s)"
            )
            for alert in active:
                out(
                    f"- ACTIVE [{alert.get('severity')}] {alert.get('rule')}: "
                    f"{alert.get('detail')}"
                )
            out("")
        if alerts:
            out("| t (s) | rule | severity | state | round | detail |")
            out("| --- | --- | --- | --- | --- | --- |")
            for alert in alerts:
                out(
                    f"| {float(alert.get('t_s', 0.0)):.3f} | {alert.get('rule')} | "
                    f"{alert.get('severity')} | {alert.get('state')} | "
                    f"{alert.get('round_index')} | {alert.get('detail')} |"
                )
        else:
            out("(no alert transitions recorded)")
        out("")

    recovery = report.get("recovery", [])
    out("## Retry / degradation timeline")
    out("")
    if recovery:
        out("| t (s) | round | attempt | outcome | detail |")
        out("| --- | --- | --- | --- | --- |")
        for entry in recovery:
            out(
                f"| {entry['t_s']:.3f} | {entry.get('round_index')} | "
                f"{entry.get('attempt')} | {entry['kind']} | {entry['detail']} |"
            )
    else:
        out("(no round attempts recorded)")
    out("")

    out("## Phase profile")
    out("")
    phases = report.get("phases", [])
    if phases:
        out("| phase | count | total ms | cpu ms | p50 ms | p95 ms | p99 ms |")
        out("| --- | --- | --- | --- | --- | --- | --- |")
        for phase in phases:
            out(
                f"| {phase['name']} | {phase['count']} | {_ms(phase['total_s'])} | "
                f"{_ms(phase.get('cpu_total_s', 0.0))} | {_ms(phase['p50_s'])} | "
                f"{_ms(phase['p95_s'])} | {_ms(phase['p99_s'])} |"
            )
    else:
        out("(no spans recorded)")
    out("")

    out("## Hot-path span tree")
    out("")
    out("```")
    out(report.get("span_tree") or "(empty)")
    out("```")
    out("")

    counters = report.get("counters", {})
    if counters:
        out("## Counters")
        out("")
        out("| counter | value |")
        out("| --- | --- |")
        for name, value in counters.items():
            out(f"| {name} | {_num(value)} |")
        out("")
    return "\n".join(lines)
