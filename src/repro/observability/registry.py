"""Run registry: index flight-recorder artifacts and compare runs.

A campaign leaves one artifact directory per recorded run (``manifest.json``
+ ``events.jsonl`` + optional ``alerts.jsonl``).  This module makes a tree
of such directories *queryable*:

* :func:`scan_runs` walks a root for manifests and returns one
  :class:`RunIndexEntry` per artifact -- label, seed, format, estimate,
  alert counts -- tolerating corrupt manifests (flagged, not fatal);
* :func:`compare_runs` loads two artifacts and computes the cross-run
  deltas operators care about: per-phase latency percentiles with ratios,
  counter deltas, estimate-error drift, and fired-alert counts by rule and
  severity;
* :func:`check_comparison` turns a comparison into a pass/fail gate:
  phase-p95 regressions past a tolerance ratio, estimate-error blowups, and
  new critical alerts all fail the gate.

``repro.cli runs list|compare|check`` is the CLI surface; everything here
is a pure function of the artifacts, so the same directories always produce
the same output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.observability.recorder import MANIFEST_FILENAME
from repro.observability.report import build_report, load_run

__all__ = [
    "RunIndexEntry",
    "scan_runs",
    "compare_runs",
    "check_comparison",
    "render_list_markdown",
    "render_compare_markdown",
]


@dataclass(frozen=True)
class RunIndexEntry:
    """One indexed artifact directory (or a corrupt one, flagged)."""

    directory: Path
    label: str | None = None
    seed: int | None = None
    format: int | None = None
    git_revision: str | None = None
    estimate: float | None = None
    observed_error: float | None = None
    epsilon_spent: float | None = None
    rounds: int = 0
    alerts_fired: int = 0
    alerts_active: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "directory": str(self.directory),
            "label": self.label,
            "seed": self.seed,
            "format": self.format,
            "git_revision": self.git_revision,
            "estimate": self.estimate,
            "observed_error": self.observed_error,
            "epsilon_spent": self.epsilon_spent,
            "rounds": self.rounds,
            "alerts_fired": self.alerts_fired,
            "alerts_active": self.alerts_active,
            "error": self.error,
        }


def _index_one(directory: Path) -> RunIndexEntry:
    manifest_path = directory / MANIFEST_FILENAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return RunIndexEntry(directory=directory, error=f"{type(exc).__name__}: {exc}")
    if not isinstance(manifest, dict):
        return RunIndexEntry(directory=directory, error="manifest is not a JSON object")
    estimate = manifest.get("estimate") or {}
    analysis = manifest.get("analysis") or {}
    privacy = manifest.get("privacy") or {}
    health = manifest.get("health") or {}
    events = manifest.get("events") or {}
    return RunIndexEntry(
        directory=directory,
        label=manifest.get("label"),
        seed=manifest.get("seed"),
        format=manifest.get("format"),
        git_revision=manifest.get("git_revision"),
        estimate=estimate.get("value"),
        observed_error=analysis.get("observed_error"),
        epsilon_spent=privacy.get("epsilon_spent"),
        rounds=int(events.get("rounds") or 0),
        alerts_fired=int(health.get("fired_total") or 0),
        alerts_active=len(health.get("active") or []),
    )


def scan_runs(root: str | Path) -> list[RunIndexEntry]:
    """Index every artifact directory under ``root`` (manifest-bearing dirs).

    ``root`` itself may be an artifact directory.  Entries come back sorted
    by directory path, so listings are stable across scans.
    """
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"run registry root {root} does not exist")
    manifest_paths = sorted(root.rglob(MANIFEST_FILENAME))
    return [_index_one(path.parent) for path in manifest_paths]


# ----------------------------------------------------------------------
# Cross-run comparison
# ----------------------------------------------------------------------


def _ratio(candidate: float | None, baseline: float | None) -> float | None:
    if candidate is None or baseline is None or baseline == 0:
        return None
    return candidate / baseline


def _alert_rollup(report: dict[str, Any]) -> dict[str, Any]:
    health = report.get("health") or {}
    by_rule = {
        name: int(stats.get("fired", 0)) for name, stats in (health.get("by_rule") or {}).items()
    }
    by_severity = {k: int(v) for k, v in (health.get("by_severity") or {}).items()}
    return {
        "fired_total": int(health.get("fired_total") or 0),
        "resolved_total": int(health.get("resolved_total") or 0),
        "active": len(health.get("active") or []),
        "by_rule": by_rule,
        "by_severity": by_severity,
    }


def compare_runs(baseline_dir: str | Path, candidate_dir: str | Path) -> dict[str, Any]:
    """Load two artifacts and compute their cross-run deltas.

    Returns a JSON-ready dict with four delta families: ``phases`` (p50/p95
    per shared phase plus the candidate/baseline p95 ratio, and the phases
    unique to either side), ``counters`` (values plus delta for the union of
    counter names), ``estimate`` (value and observed-error drift), and
    ``alerts`` (fired counts by rule and severity on both sides).
    """
    baseline_report = build_report(load_run(baseline_dir))
    candidate_report = build_report(load_run(candidate_dir))

    base_phases = {p["name"]: p for p in baseline_report.get("phases", [])}
    cand_phases = {p["name"]: p for p in candidate_report.get("phases", [])}
    shared = sorted(set(base_phases) & set(cand_phases))
    phases = [
        {
            "name": name,
            "baseline_p50_s": base_phases[name]["p50_s"],
            "candidate_p50_s": cand_phases[name]["p50_s"],
            "baseline_p95_s": base_phases[name]["p95_s"],
            "candidate_p95_s": cand_phases[name]["p95_s"],
            "baseline_p99_s": base_phases[name]["p99_s"],
            "candidate_p99_s": cand_phases[name]["p99_s"],
            "p95_ratio": _ratio(cand_phases[name]["p95_s"], base_phases[name]["p95_s"]),
        }
        for name in shared
    ]

    base_counters = baseline_report.get("counters", {})
    cand_counters = candidate_report.get("counters", {})
    counters = {
        name: {
            "baseline": base_counters.get(name),
            "candidate": cand_counters.get(name),
            "delta": (
                None
                if name not in base_counters or name not in cand_counters
                else cand_counters[name] - base_counters[name]
            ),
        }
        for name in sorted(set(base_counters) | set(cand_counters))
    }

    base_analysis = baseline_report.get("analysis") or {}
    cand_analysis = candidate_report.get("analysis") or {}
    base_estimate = baseline_report.get("estimate") or {}
    cand_estimate = candidate_report.get("estimate") or {}
    estimate = {
        "baseline_value": base_estimate.get("value"),
        "candidate_value": cand_estimate.get("value"),
        "baseline_observed_error": base_analysis.get("observed_error"),
        "candidate_observed_error": cand_analysis.get("observed_error"),
        "error_ratio": _ratio(
            cand_analysis.get("observed_error"), base_analysis.get("observed_error")
        ),
    }

    return {
        "baseline": {
            "directory": str(Path(baseline_dir)),
            "label": baseline_report.get("label"),
            "seed": baseline_report.get("seed"),
        },
        "candidate": {
            "directory": str(Path(candidate_dir)),
            "label": candidate_report.get("label"),
            "seed": candidate_report.get("seed"),
        },
        "phases": phases,
        "phases_only_baseline": sorted(set(base_phases) - set(cand_phases)),
        "phases_only_candidate": sorted(set(cand_phases) - set(base_phases)),
        "counters": counters,
        "estimate": estimate,
        "alerts": {
            "baseline": _alert_rollup(baseline_report),
            "candidate": _alert_rollup(candidate_report),
        },
    }


def check_comparison(comparison: dict[str, Any], tolerance: float = 1.25) -> tuple[bool, list[str]]:
    """Gate a comparison: ``(ok, messages)``, one message per finding.

    Fails when a shared phase's p95 regressed past ``tolerance``x, the
    observed estimate error grew past ``tolerance``x, or the candidate
    fired more critical alerts than the baseline.  Improvements are
    reported but never fail.
    """
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must be > 1.0, got {tolerance}")
    messages: list[str] = []
    ok = True
    for phase in comparison.get("phases", []):
        ratio = phase.get("p95_ratio")
        if ratio is None:
            continue
        if ratio > tolerance:
            ok = False
            messages.append(
                f"REGRESSION {phase['name']}: p95 {phase['baseline_p95_s']:.6g}s -> "
                f"{phase['candidate_p95_s']:.6g}s ({ratio:.2f}x > {tolerance:.2f}x)"
            )
        elif ratio < 1.0 / tolerance:
            messages.append(
                f"improved {phase['name']}: p95 {phase['baseline_p95_s']:.6g}s -> "
                f"{phase['candidate_p95_s']:.6g}s ({ratio:.2f}x)"
            )
    estimate = comparison.get("estimate", {})
    error_ratio = estimate.get("error_ratio")
    if error_ratio is not None and error_ratio > tolerance:
        ok = False
        messages.append(
            f"REGRESSION estimate error: {estimate['baseline_observed_error']:.6g} -> "
            f"{estimate['candidate_observed_error']:.6g} ({error_ratio:.2f}x > {tolerance:.2f}x)"
        )
    alerts = comparison.get("alerts", {})
    base_critical = (alerts.get("baseline", {}).get("by_severity") or {}).get("critical", 0)
    cand_critical = (alerts.get("candidate", {}).get("by_severity") or {}).get("critical", 0)
    if cand_critical > base_critical:
        ok = False
        messages.append(
            f"REGRESSION alerts: candidate fired {cand_critical} critical alert(s) "
            f"vs baseline {base_critical}"
        )
    if ok and not messages:
        messages.append("no regressions detected")
    return ok, messages


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _num(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_list_markdown(entries: list[RunIndexEntry], root: str | Path) -> str:
    """Render an index listing as a Markdown table."""
    lines = [f"# Recorded runs under {root}", ""]
    good = [e for e in entries if e.ok]
    bad = [e for e in entries if not e.ok]
    if good:
        lines.append(
            "| run | label | seed | rounds | estimate | observed error "
            "| eps spent | alerts fired | active |"
        )
        lines.append("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
        for entry in good:
            lines.append(
                f"| {entry.directory} | {entry.label} | {_num(entry.seed)} | "
                f"{entry.rounds} | {_num(entry.estimate)} | {_num(entry.observed_error)} | "
                f"{_num(entry.epsilon_spent)} | {entry.alerts_fired} | {entry.alerts_active} |"
            )
    else:
        lines.append("(no readable runs found)")
    if bad:
        lines.append("")
        lines.append("## Unreadable artifacts")
        lines.append("")
        for entry in bad:
            lines.append(f"- {entry.directory}: {entry.error}")
    lines.append("")
    return "\n".join(lines)


def render_compare_markdown(comparison: dict[str, Any]) -> str:
    """Render a comparison as the human-facing Markdown document."""
    lines: list[str] = []
    out = lines.append
    baseline = comparison.get("baseline", {})
    candidate = comparison.get("candidate", {})
    out(f"# Run comparison: {baseline.get('label')} -> {candidate.get('label')}")
    out("")
    out(f"- baseline: {baseline.get('directory')} (seed {_num(baseline.get('seed'))})")
    out(f"- candidate: {candidate.get('directory')} (seed {_num(candidate.get('seed'))})")
    out("")

    out("## Phase percentiles")
    out("")
    phases = comparison.get("phases", [])
    if phases:
        out("| phase | p50 base (ms) | p50 cand (ms) | p95 base (ms) | p95 cand (ms) | p95 ratio |")
        out("| --- | --- | --- | --- | --- | --- |")
        for phase in phases:
            ratio = phase.get("p95_ratio")
            out(
                f"| {phase['name']} | {phase['baseline_p50_s'] * 1e3:.3f} | "
                f"{phase['candidate_p50_s'] * 1e3:.3f} | {phase['baseline_p95_s'] * 1e3:.3f} | "
                f"{phase['candidate_p95_s'] * 1e3:.3f} | "
                + (f"{ratio:.2f}x |" if ratio is not None else "- |")
            )
    else:
        out("(no shared phases)")
    for key, title in (
        ("phases_only_baseline", "baseline only"),
        ("phases_only_candidate", "candidate only"),
    ):
        names = comparison.get(key, [])
        if names:
            out("")
            out(f"Phases {title}: " + ", ".join(names))
    out("")

    out("## Estimate")
    out("")
    estimate = comparison.get("estimate", {})
    out("| quantity | baseline | candidate |")
    out("| --- | --- | --- |")
    out(
        f"| value | {_num(estimate.get('baseline_value'))} | "
        f"{_num(estimate.get('candidate_value'))} |"
    )
    out(
        f"| observed error | {_num(estimate.get('baseline_observed_error'))} | "
        f"{_num(estimate.get('candidate_observed_error'))} |"
    )
    ratio = estimate.get("error_ratio")
    if ratio is not None:
        out(f"| error ratio | - | {ratio:.2f}x |")
    out("")

    out("## Counters")
    out("")
    counters = comparison.get("counters", {})
    if counters:
        out("| counter | baseline | candidate | delta |")
        out("| --- | --- | --- | --- |")
        for name, row in counters.items():
            out(
                f"| {name} | {_num(row.get('baseline'))} | {_num(row.get('candidate'))} | "
                f"{_num(row.get('delta'))} |"
            )
    else:
        out("(no counters recorded)")
    out("")

    out("## Alerts")
    out("")
    alerts = comparison.get("alerts", {})
    out("| side | fired | resolved | active | by severity |")
    out("| --- | --- | --- | --- | --- |")
    for side in ("baseline", "candidate"):
        rollup = alerts.get(side, {})
        severities = rollup.get("by_severity") or {}
        rendered = (
            ", ".join(f"{k}={severities[k]}" for k in sorted(severities)) if severities else "-"
        )
        out(
            f"| {side} | {rollup.get('fired_total', 0)} | {rollup.get('resolved_total', 0)} | "
            f"{rollup.get('active', 0)} | {rendered} |"
        )
    rules = sorted(
        set((alerts.get("baseline", {}).get("by_rule") or {}))
        | set((alerts.get("candidate", {}).get("by_rule") or {}))
    )
    if rules:
        out("")
        out("| rule | baseline fired | candidate fired |")
        out("| --- | --- | --- |")
        for rule in rules:
            out(
                f"| {rule} | {(alerts.get('baseline', {}).get('by_rule') or {}).get(rule, 0)} | "
                f"{(alerts.get('candidate', {}).get('by_rule') or {}).get(rule, 0)} |"
            )
    out("")
    return "\n".join(lines)
