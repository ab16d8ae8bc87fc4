"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result files ``run.py --out DIR`` writes,
one per workload and seed (traced results are skipped).  For every workload
and end-to-end metric of ``BENCHMARK.json`` this prints both sides' median
and quartiles, the change's wins over runs paired by seed, and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  distance;
* ``unresolved``: either side's spread (interquartile distance over median)
  is wider than the metric's bound, and not every change run beats every
  parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``within bound``: otherwise.

A last row per workload compares the share of failed operations.  The exit
code is 1 when any verdict is ``worse`` or the failed share grew, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, relative_spread

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """Untraced result records by workload, then by seed."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("traced") is False and "metrics" in record:
            runs[record["workload"]][record["seed"]] = record
    return runs


def _pairs(parent: dict[int, dict], change: dict[int, dict]) -> list[tuple[dict, dict]]:
    """Runs paired by seed; with no seed in common, paired in seed order."""
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[s], change[s]) for s in common]
    return list(zip((parent[s] for s in sorted(parent)), (change[s] for s in sorted(change))))


def verdict(
    parent: list[float], change: list[float], wins: int, pairs: int, better: str, bound: float
) -> str:
    """One workload x metric verdict (see the module docstring)."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if pairs and wins >= 0.9 * pairs and abs(c_med - p_med) > p_q3 - p_q1 and worse_by < 0:
        return "improved"
    if max(relative_spread(parent), relative_spread(change)) > bound:
        all_better = all(sign * (c - p) < 0 for c in change for p in parent)
        return "within bound" if all_better else "unresolved"
    return "worse" if worse_by > bound else "within bound"


def _cell(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent_dir: Path, change_dir: Path) -> tuple[list[str], bool]:
    """Markdown table lines, and whether anything got worse."""
    spec = json.loads(SPEC_PATH.read_text())
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] "
        "| median shift | wins | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        parent, change = parent_runs.get(workload, {}), change_runs.get(workload, {})
        if not parent or not change:
            lines.append(f"| {workload} | (no runs on {'parent' if not parent else 'change'}) "
                         "| | | | | |")
            continue
        pairs = _pairs(parent, change)
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            p_values = [r["metrics"][name]["value"] for r in parent.values()]
            c_values = [r["metrics"][name]["value"] for r in change.values()]
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(
                1
                for p, c in pairs
                if sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) < 0
            )
            result = verdict(p_values, c_values, wins, len(pairs), better, bound)
            regressed |= result == "worse"
            p_med, c_med = quartiles(p_values)[1], quartiles(c_values)[1]
            shift = (c_med - p_med) / abs(p_med) if p_med else 0.0
            lines.append(
                f"| {workload} | {name} ({metric['unit']}, {better} is better) "
                f"| {_cell(p_values)} | {_cell(c_values)} | {shift:+.1%} "
                f"| {wins}/{len(pairs)} | {result} (bound {bound:.0%}) |"
            )
        p_failed = sum(r["failed"] for r in parent.values())
        p_attempted = sum(r["attempted"] for r in parent.values())
        c_failed = sum(r["failed"] for r in change.values())
        c_attempted = sum(r["attempted"] for r in change.values())
        grew = c_failed / c_attempted > p_failed / p_attempted
        regressed |= grew
        lines.append(
            f"| {workload} | ops_failed share | {p_failed}/{p_attempted} "
            f"| {c_failed}/{c_attempted} | | | {'worse' if grew else 'not worse'} |"
        )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("parent", type=Path, help="result directory of the parent commit")
    parser.add_argument("change", type=Path, help="result directory of the change")
    args = parser.parse_args(argv)
    lines, regressed = compare(args.parent, args.change)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
