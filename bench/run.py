"""Run the repository benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]

Each workload runs in a fresh subprocess (``bench/session.py``) that sets up,
runs a closed loop of queries for ``--seconds`` (default: ``run_seconds`` in
``BENCHMARK.json``) and checks every answer.  Without ``--workload`` every
workload runs in turn.

Untraced (``--trace 0``, the default) prints every end-to-end metric of
``BENCHMARK.json``.  Timings are at nominal host speed (``hostspeed.py``);
their wall-clock values are printed beside them.  ``setup_s`` is the median
over five spawns of the time from starting the subprocess to holding the
first estimate; the four extra spawns stop right there, after probing the
host.  Traced (``--trace`` or ``--trace 1``) prints every per-layer metric
instead and writes the spans as JSONL.

Each result is written as JSON with its provenance to ``--out`` (default
``out/bench``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 whenever a result is printed, failed answers included; it is 1,
with nothing printed on standard output, when a workload cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SESSION = Path(__file__).resolve().parent / "session.py"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up is timed over this many spawns; the median is reported.
SETUP_SPAWNS = 5

#: Hard wall-clock budget for one workload, set-up spawns included.
WORKLOAD_BUDGET_S = 170.0


class WorkloadError(RuntimeError):
    """A workload could not start or produced no result."""


def load_spec() -> dict[str, Any]:
    with SPEC_PATH.open() as handle:
        return json.load(handle)


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one session subprocess; returns (set-up seconds, result record)."""
    env = dict(os.environ, REPRO_WORKERS="1")
    # time.monotonic is CLOCK_MONOTONIC on Linux, shared with the child, so
    # its ready stamp minus our spawn stamp is the set-up time.
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(SESSION), *args],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkloadError(f"session exceeded its time budget: {' '.join(args)}") from exc
    ready = None
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("BENCH-READY "):
            ready = float(line.split()[1])
        elif line.startswith("BENCH-RESULT "):
            record = json.loads(line[len("BENCH-RESULT "):])
    if proc.returncode != 0:
        raise WorkloadError(f"session exited with code {proc.returncode}: {' '.join(args)}")
    if ready is None:
        raise WorkloadError(f"session never reported ready: {' '.join(args)}")
    if record is None:
        raise WorkloadError(f"session printed no result: {' '.join(args)}")
    return ready - spawned, record


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Run one workload in fresh subprocesses; returns its result record.

    Each spawn reports the host probe's factor right after its set-up, so
    each set-up sample is taken to nominal host speed on its own.
    """
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    args = [
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    setup_s, record = _spawn(args, deadline)
    record["setup_samples_s"] = [setup_s]
    record["setup_host_factors"] = [record.pop("setup_host_factor")]
    if not trace:
        for _ in range(SETUP_SPAWNS - 1):
            setup_s, setup = _spawn(args + ["--setup-only"], deadline)
            record["setup_samples_s"].append(setup_s)
            record["setup_host_factors"].append(setup["setup_host_factor"])
    return record


def metrics_of(record: dict, spec: dict) -> dict[str, dict[str, Any]]:
    """The declared metrics of a record, with their units, in spec order."""
    if record["traced"]:
        declared = spec["per_layer"]
        values = dict(record["per_layer"])
    else:
        declared = spec["end_to_end"]
        setup_s = statistics.median(
            s / f for s, f in zip(record["setup_samples_s"], record["setup_host_factors"])
        )
        values = dict(record["end_to_end"], setup_s=setup_s)
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            f"measured metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def provenance(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Where and how a result was measured, so copied numbers are detectable."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                    capture_output=True, text=True, timeout=10, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "run_seconds": seconds,
        "traced": trace,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(record: dict, metrics: dict[str, dict[str, Any]]) -> None:
    """Human-readable lines: every metric by name and unit, with sample counts."""
    print(
        f"{record['workload']}  seed {record['seed']}  queries {record['queries']}  "
        f"attempted {record['attempted']}  failed {record['failed']}"
        + ("  (traced)" if record["traced"] else f"  wall {record['wall_s']:.2f} s")
    )
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    if record["traced"]:
        query_s = record["traced_query_p50_s"]
        print(f"  traced query p50 {_fmt(query_s)} s over {record['traced_queries']} queries")
        for name, metric in metrics.items():
            share = ""
            if metric["unit"] == "s" and query_s > 0:
                share = f"  ({100 * metric['value'] / query_s:.1f}% of query)"
            print(f"  {name:36s} {_fmt(metric['value']):>14s} {metric['unit']}{share}")
        return
    samples = record["samples"]
    wall = dict(record["wall_clock"], setup_s=statistics.median(record["setup_samples_s"]))
    host = record["host_factor"]
    print(
        f"  host slowdown factor ({'+'.join(host['kernels'])}): median {host['median']:.3f} "
        f"[{host['q1']:.3f}, {host['q3']:.3f}] over {host['samples']} queries; "
        f"{statistics.median(record['setup_host_factors']):.3f} after set-up"
    )
    notes = {
        "clients_per_s": f"median of {samples['stretches']} stretches",
        "query_p50_s": f"median of {record['queries']} queries",
        "query_p90_s": (
            f"median of the p90s of {samples['stretches']} stretches of "
            f"{record['queries']} queries"
        ),
        "setup_s": f"median of {len(record['setup_samples_s'])} spawns",
        "nrmse": f"{samples['nrmse']} estimates",
    }
    for name, metric in metrics.items():
        parts = [f"wall-clock {_fmt(wall[name])}"] if name in wall else []
        parts += [notes[name]] if name in notes else []
        note = f"  ({'; '.join(parts)})" if parts else ""
        print(f"  {name:16s} {_fmt(metric['value']):>14s} {metric['unit']}{note}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", choices=workloads, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=ROOT / "out" / "bench")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 1

    trace = bool(args.trace)
    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [args.workload] if args.workload else workloads:
        try:
            record = run_workload(name, args.seed, args.seconds, trace, args.out)
        except WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = metrics_of(record, spec)
        record["metrics"] = metrics
        record["provenance"] = provenance(args.seed, args.seconds, trace)
        args.out.mkdir(parents=True, exist_ok=True)
        suffix = "-trace" if trace else ""
        (args.out / f"{name}-seed{args.seed}{suffix}.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
        report(record, metrics)
        summary["correct"] &= record["failed"] == 0
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        if args.workload:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{name}:{k}": v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
