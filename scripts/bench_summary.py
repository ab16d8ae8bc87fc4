"""Reduce a pytest-benchmark JSON report to a compact trajectory summary.

Usage::

    python scripts/bench_summary.py benchmarks/results/benchmark.json BENCH_micro.json
    python scripts/bench_summary.py benchmarks/results/benchmark.json BENCH_micro.json --label pr2
    python scripts/bench_summary.py --check BENCH_micro.json
    python scripts/bench_summary.py --check BENCH_micro.json --baseline seed --tolerance 1.5
    python scripts/bench_summary.py --scale benchmarks/results/scale.json BENCH_scale.json

The pytest-benchmark report carries per-round samples, machine info, and
warmup details; for tracking performance across PRs only a handful of
stable numbers matter.  The destination file holds a *trajectory*: one
labelled entry per summarization, appended in order, so successive PRs can
watch means drift without digging through git history.  Re-summarizing
under an existing label replaces that entry (idempotent re-runs); the
label defaults to the report's git commit id.  A pre-trajectory
single-summary file (the seed format) is converted in place, keeping its
numbers as the first entry.

``--check`` is the regression gate: it compares the trajectory's newest
entry against a baseline entry (``--baseline <label>``, default: the
previous entry) and exits non-zero naming every benchmark whose mean
slowed by more than ``--tolerance`` (a ratio; default 1.25).  The strict
default suits same-machine comparisons (``make bench-check``); CI compares
cross-runner numbers and passes a looser tolerance.

``--scale`` summarizes the columnar scale study instead: the source is the
``benchmarks/results/scale.json`` payload written by
``benchmarks/bench_scale.py::test_columnar_round_throughput`` (clients/sec
per population size, object-path speedup, tracemalloc peak) and
``test_secure_agg_throughput`` (hierarchical masking clients/sec), appended
to a ``BENCH_scale.json`` trajectory with the same labelling rules
(``make bench-scale`` drives the full 10**7 run).  An entry whose columnar
clients/sec map equals the previous entry's exactly was carried forward,
not measured, and is refused with a one-line error.  ``--check --scale``
gates the scale trajectory the same way ``--check`` gates the micro one,
except the compared numbers are throughput rates (higher is better): the
newest entry fails when any shared rate dropped past the tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def summarize(report: dict, label: str | None = None) -> dict:
    """Pick the stable fields out of one pytest-benchmark report."""
    benchmarks = []
    for bench in sorted(report.get("benchmarks", []), key=lambda b: b["fullname"]):
        stats = bench["stats"]
        benchmarks.append(
            {
                "name": bench["fullname"],
                "mean_s": stats["mean"],
                "stddev_s": stats["stddev"],
                "min_s": stats["min"],
                "rounds": stats["rounds"],
            }
        )
    machine = report.get("machine_info", {})
    if label is None:
        commit = report.get("commit_info", {}) or {}
        commit_id = commit.get("id") or ""
        label = commit_id[:12] if commit_id else "unlabeled"
    return {
        "label": label,
        "python": machine.get("python_version", "unknown"),
        "cpu_count": machine.get("cpu", {}).get("count", None)
        if isinstance(machine.get("cpu"), dict)
        else None,
        "n_benchmarks": len(benchmarks),
        "benchmarks": benchmarks,
    }


def summarize_scale(payload: dict, label: str | None = None) -> dict:
    """Reduce one ``scale.json`` payload to a scale-trajectory entry.

    The stable numbers: clients/sec at each benched population size, the
    object-path speedup at the reference size, the streaming chunk, the
    tracemalloc peak per client at the largest size, and -- when the
    secure-aggregation study ran -- the hierarchical masking throughput
    and its speedup over the per-client submit loop, plus the wire-served
    round throughput (single and concurrent campaigns) when that study ran.
    """
    columnar = payload.get("columnar", {})
    reference = payload.get("object_reference", {})
    memory = payload.get("tracemalloc", {})
    secure = payload.get("secure_agg", {})
    serve = payload.get("serve", {})
    entry = {
        "label": label or "unlabeled",
        "chunk": payload.get("chunk"),
        "clients_per_s": {
            n: row.get("clients_per_s") for n, row in sorted(
                columnar.items(), key=lambda item: int(item[0])
            )
        },
        "speedup_vs_object": payload.get("speedup_vs_object"),
        "object_reference_n": reference.get("n"),
        "peak_bytes_per_client": memory.get("peak_bytes_per_client"),
        "peak_at_n": memory.get("n"),
    }
    if secure:
        entry["secure_agg"] = {
            "n": secure.get("n"),
            "shard_size": secure.get("shard_size"),
            "clients_per_s": secure.get("clients_per_s"),
            "speedup_vs_loop": secure.get("speedup_vs_loop"),
        }
    if serve:
        campaigns = serve.get("campaigns") or {}
        entry["serve"] = {
            "n_clients": serve.get("n_clients"),
            "telemetry": serve.get("telemetry"),
            "reports_per_s": serve.get("reports_per_s"),
            "concurrent_campaigns": campaigns.get("count"),
            "concurrent_reports_per_s": campaigns.get("reports_per_s"),
        }
    return entry


def load_trajectory(destination: Path) -> list[dict]:
    """Existing entries at ``destination``, converting the seed format.

    The seed format was a single summary dict; it becomes the trajectory's
    first entry (labelled ``seed``) so its numbers stay comparable.
    """
    try:
        existing = json.loads(destination.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return []
    if isinstance(existing, dict) and "trajectory" in existing:
        entries = existing["trajectory"]
        return entries if isinstance(entries, list) else []
    if isinstance(existing, dict) and "benchmarks" in existing:
        return [{"label": "seed", **existing}]
    return []


def carried_forward(entries: list[dict], entry: dict) -> str | None:
    """Why ``entry`` repeats the previous entry's columnar rates, else None.

    Measured clients/sec never repeat digit for digit, so a ``clients_per_s``
    map equal to the previous entry's (the one ``entry`` would follow, i.e.
    ignoring an entry it replaces) was copied, not re-measured.
    """
    rates = entry.get("clients_per_s")
    previous = [e for e in entries if e.get("label") != entry.get("label")]
    if not rates or not previous or previous[-1].get("clients_per_s") != rates:
        return None
    return (
        f"columnar clients_per_s of {entry.get('label')!r} equal entry "
        f"{previous[-1].get('label')!r} exactly; carried-forward numbers are "
        "rejected -- re-run `make bench-scale`"
    )


def append_entry(destination: Path, entry: dict) -> list[dict]:
    """Add ``entry`` to the trajectory at ``destination`` (replacing its label)."""
    entries = [e for e in load_trajectory(destination) if e.get("label") != entry["label"]]
    entries.append(entry)
    destination.write_text(json.dumps({"trajectory": entries}, indent=2) + "\n")
    return entries


def check_regressions(
    entries: list[dict],
    baseline_label: str | None = None,
    tolerance: float = 1.25,
) -> tuple[bool, list[str]]:
    """Compare the newest trajectory entry against a baseline entry.

    Returns ``(ok, messages)``: ``ok`` is False when any benchmark present
    in both entries slowed by more than ``tolerance`` (newest mean divided
    by baseline mean), or when the comparison itself is impossible (missing
    baseline, fewer than two entries, no overlapping benchmarks).
    """
    if tolerance <= 0:
        return False, [f"tolerance must be positive, got {tolerance}"]
    if not entries:
        return False, ["trajectory is empty; nothing to check"]
    newest = entries[-1]
    if baseline_label is None:
        if len(entries) < 2:
            return False, [
                "trajectory has a single entry; need a previous entry (or --baseline) "
                "to compare against"
            ]
        baseline = entries[-2]
    else:
        labelled = [e for e in entries if e.get("label") == baseline_label]
        if not labelled:
            known = ", ".join(repr(e.get("label")) for e in entries)
            return False, [f"no trajectory entry labelled {baseline_label!r} (have: {known})"]
        baseline = labelled[-1]
    base_means = {b["name"]: b["mean_s"] for b in baseline.get("benchmarks", [])}
    messages = []
    regressions = []
    compared = 0
    for bench in newest.get("benchmarks", []):
        base_mean = base_means.get(bench["name"])
        if base_mean is None or base_mean <= 0:
            continue
        compared += 1
        ratio = bench["mean_s"] / base_mean
        line = (
            f"{bench['name']}: {bench['mean_s'] * 1e3:.3f} ms vs "
            f"{base_mean * 1e3:.3f} ms ({ratio:.2f}x baseline {baseline.get('label')!r})"
        )
        if ratio > tolerance:
            regressions.append(f"REGRESSION {line} exceeds tolerance {tolerance:.2f}x")
        else:
            messages.append(f"ok {line}")
    if compared == 0:
        return False, [
            f"entries {newest.get('label')!r} and {baseline.get('label')!r} share no "
            "benchmarks; nothing compared"
        ]
    return not regressions, messages + regressions


def _scale_rates(entry: dict) -> dict[str, float]:
    """The higher-is-better throughput rates of one scale-trajectory entry."""
    rates = {}
    for n, rate in (entry.get("clients_per_s") or {}).items():
        if rate:
            rates[f"columnar@{n}"] = float(rate)
    secure = entry.get("secure_agg") or {}
    if secure.get("clients_per_s"):
        rates[f"secure_agg@{secure.get('n')}"] = float(secure["clients_per_s"])
    serve = entry.get("serve") or {}
    if serve.get("reports_per_s"):
        rates[f"serve@{serve.get('n_clients')}"] = float(serve["reports_per_s"])
    if serve.get("concurrent_reports_per_s"):
        rates[f"serve_campaigns@{serve.get('concurrent_campaigns')}"] = float(
            serve["concurrent_reports_per_s"]
        )
    return rates


def check_scale_regressions(
    entries: list[dict],
    baseline_label: str | None = None,
    tolerance: float = 1.25,
) -> tuple[bool, list[str]]:
    """Like :func:`check_regressions`, for scale entries (rates, not means).

    Each rate is clients/sec, so a regression is the newest rate dropping
    below ``baseline / tolerance``.  Rates present in only one entry (e.g.
    the secure-agg section before it existed) are skipped.
    """
    if tolerance <= 0:
        return False, [f"tolerance must be positive, got {tolerance}"]
    if not entries:
        return False, ["trajectory is empty; nothing to check"]
    newest = entries[-1]
    if baseline_label is None:
        if len(entries) < 2:
            return False, [
                "trajectory has a single entry; need a previous entry (or --baseline) "
                "to compare against"
            ]
        baseline = entries[-2]
    else:
        labelled = [e for e in entries if e.get("label") == baseline_label]
        if not labelled:
            known = ", ".join(repr(e.get("label")) for e in entries)
            return False, [f"no trajectory entry labelled {baseline_label!r} (have: {known})"]
        baseline = labelled[-1]
    base_rates = _scale_rates(baseline)
    telemetry_on = bool((newest.get("serve") or {}).get("telemetry"))
    messages = []
    regressions = []
    compared = 0
    for name, rate in _scale_rates(newest).items():
        base_rate = base_rates.get(name)
        if base_rate is None or base_rate <= 0:
            continue
        compared += 1
        ratio = base_rate / rate
        line = (
            f"{name}: {rate:,.0f} clients/s vs {base_rate:,.0f} clients/s "
            f"({ratio:.2f}x slowdown vs baseline {baseline.get('label')!r})"
        )
        if ratio > tolerance:
            message = f"REGRESSION {line} exceeds tolerance {tolerance:.2f}x"
            if name.startswith("serve") and telemetry_on:
                # Name the usual suspect: the served bench runs with fleet
                # telemetry on, so a serve-only drop implicates the uplink
                # drain/ingest path, not the aggregation core.
                message = (
                    f"TELEMETRY REGRESSION {line} exceeds tolerance "
                    f"{tolerance:.2f}x -- served round ran with fleet "
                    "telemetry enabled; profile the TELEMETRY drain/ingest "
                    "path (serve.telemetry spans) before blaming the core"
                )
            regressions.append(message)
        else:
            messages.append(f"ok {line}")
    if compared == 0:
        return False, [
            f"entries {newest.get('label')!r} and {baseline.get('label')!r} share no "
            "throughput rates; nothing compared"
        ]
    return not regressions, messages + regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python scripts/bench_summary.py",
        description="Append a pytest-benchmark report to a trajectory summary, "
        "or gate on regressions with --check",
    )
    parser.add_argument(
        "source",
        nargs="?",
        help="pytest-benchmark JSON report (with --check: the trajectory file)",
    )
    parser.add_argument(
        "destination", nargs="?", help="trajectory summary file (e.g. BENCH_micro.json)"
    )
    parser.add_argument(
        "--label",
        default=None,
        help="entry label (default: the report's git commit id); an existing "
        "entry with the same label is replaced",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: compare the trajectory's newest entry against the "
        "baseline and exit 1 naming any benchmark slower than the tolerance",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="summarize a columnar scale payload (benchmarks/results/scale.json) "
        "into a BENCH_scale.json trajectory instead of a pytest-benchmark report",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="LABEL",
        help="trajectory entry to compare against (default: the previous entry)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.25,
        metavar="RATIO",
        help="maximum allowed newest/baseline mean ratio (default: 1.25)",
    )
    args = parser.parse_args(argv)

    if args.check:
        default_path = "BENCH_scale.json" if args.scale else "BENCH_micro.json"
        trajectory_path = Path(args.source or default_path)
        entries = load_trajectory(trajectory_path)
        if not entries and not trajectory_path.exists():
            print(f"error: {trajectory_path} not found", file=sys.stderr)
            return 1
        checker = check_scale_regressions if args.scale else check_regressions
        ok, messages = checker(
            entries, baseline_label=args.baseline, tolerance=args.tolerance
        )
        for message in messages:
            print(message, file=sys.stdout if ok else sys.stderr)
        if ok:
            print(f"bench check passed ({trajectory_path}, tolerance {args.tolerance:.2f}x)")
        return 0 if ok else 1

    if args.source is None or args.destination is None:
        parser.error("source and destination are required unless --check is given")
    source, destination = Path(args.source), Path(args.destination)
    try:
        report = json.loads(source.read_text())
    except FileNotFoundError:
        hint = (
            "`make bench-scale`"
            if args.scale
            else f"`pytest benchmarks/ --benchmark-only --benchmark-json={source}` "
            "first (or just `make bench`)"
        )
        print(f"error: {source} not found -- run {hint}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {source} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if args.scale:
        entry = summarize_scale(report, label=args.label)
        reason = carried_forward(load_trajectory(destination), entry)
        if reason is not None:
            print(f"error: {reason}", file=sys.stderr)
            return 1
        entries = append_entry(destination, entry)
        details = []
        if entry.get("speedup_vs_object") is not None:
            details.append(
                f"columnar {entry['speedup_vs_object']:.1f}x at "
                f"n={entry['object_reference_n']}"
            )
        secure = entry.get("secure_agg") or {}
        if secure.get("speedup_vs_loop") is not None:
            details.append(
                f"secure-agg {secure['speedup_vs_loop']:.1f}x at n={secure['n']}"
            )
        serve = entry.get("serve") or {}
        if serve.get("reports_per_s") is not None:
            details.append(
                f"served {serve['reports_per_s']:,.0f} reports/s at "
                f"n={serve['n_clients']}"
            )
        print(
            f"scale study summarized into {destination} as {entry['label']!r} "
            f"({len(entries)} trajectory entries; {'; '.join(details) or 'no sections'})"
        )
        return 0
    entry = summarize(report, label=args.label)
    entries = append_entry(destination, entry)
    print(
        f"{entry['n_benchmarks']} benchmarks summarized into {destination} "
        f"as {entry['label']!r} ({len(entries)} trajectory entries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
