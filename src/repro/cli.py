"""Command-line runner for the paper's figures and our ablations.

Usage::

    python -m repro.cli figure 1a            # full-size reproduction
    python -m repro.cli figure 3b --quick    # scaled-down smoke run
    python -m repro.cli figure 2a --json     # machine-readable series
    python -m repro.cli figure 1a --workers 4  # parallel trials, same output
    python -m repro.cli ablation poisoning
    python -m repro.cli trace 1a --quick     # traced federated round -> JSONL
    python -m repro.cli trace 3a --record out/run1 --sim-clock  # flight-recorder artifact
    python -m repro.cli report out/run1      # render the artifact as Markdown
    python -m repro.cli runs list out        # index recorded runs under a root
    python -m repro.cli runs compare out/run1 out/run2  # cross-run deltas
    python -m repro.cli runs check out/run1 out/run2    # regression gate (exit 1)
    python -m repro.cli list

Each figure/ablation command prints the figure's series as a markdown table
(the tabular equivalent of the paper's line plots), or as JSON with
``--json``.  The ``trace`` command runs one fully-instrumented federated
round sized like the named figure/ablation, prints the span tree and a
metrics summary, and writes spans plus a final metrics snapshot as JSON
lines; ``--record <dir>`` additionally captures a flight-recorder artifact
(event log + manifest) that ``report`` renders as Markdown or JSON (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import FixedPointEncoder
from repro.experiments import (
    alpha_sweep,
    b_send_sweep,
    caching_ablation,
    delta_sweep,
    distributed_dp_comparison,
    dropout_adjustment,
    figure_1a,
    figure_1b,
    figure_1c,
    figure_2a,
    figure_2b,
    figure_2c,
    figure_3a,
    figure_3b,
    figure_4a,
    figure_4b,
    figure_4c,
    gamma_sweep,
    poisoning_sweep,
    render_series_table,
    render_snapshot,
    schedule_sensitivity,
    series_to_json,
    snapshot_to_json,
    variance_decomposition,
)
from repro.exceptions import ConfigurationError, RoundFailedError
from repro.federated import (
    ClientBatch,
    ClientFleet,
    DropoutModel,
    EmulationProfile,
    FaultSchedule,
    FederatedMeanQuery,
    NetworkModel,
    RetryPolicy,
    RoundServer,
    ServeConfig,
    fleet_values,
    ground_truth_mean,
)
from repro.federated.serve import run_coroutine
from repro.analysis import per_report_bit_variance
from repro.metrics.execution import executor_for
from repro.observability import (
    LiveMonitor,
    ObservedRun,
    build_report,
    check_comparison,
    compare_runs,
    default_rules,
    format_span_tree,
    load_run,
    render_compare_markdown,
    render_list_markdown,
    render_markdown,
    scan_runs,
    write_chrome_trace,
)
from repro.privacy import RandomizedResponse
from repro.privacy.accountant import BitMeter, PrivacyAccountant

__all__ = [
    "main",
    "FIGURES",
    "DIAGNOSTICS",
    "FIGURE_PANELS",
    "ABLATIONS",
    "run_traced_round",
    "run_report_command",
    "run_runs_command",
    "run_selfcheck_command",
    "run_serve_command",
    "run_fleet_command",
]

#: figure id -> (runner, quick-mode overrides, metric, x-axis label)
FIGURES: dict[str, tuple[Callable, dict, str, str]] = {
    "1a": (figure_1a, {"n_clients": 2_000, "n_reps": 10}, "nrmse", "mu"),
    "1b": (figure_1b, {"n_clients": 20_000, "n_reps": 10}, "nrmse", "mu"),
    "1c": (figure_1c, {"n_clients": 2_000, "n_reps": 10}, "nrmse", "bits"),
    "2a": (figure_2a, {"cohorts": (1_000, 5_000, 20_000), "n_reps": 10}, "nrmse", "n"),
    "2b": (figure_2b, {"cohorts": (1_000, 5_000, 20_000), "n_reps": 10}, "nrmse", "n"),
    "2c": (figure_2c, {"n_clients": 2_000, "n_reps": 10}, "nrmse", "bits"),
    "3a": (figure_3a, {"n_clients": 2_000, "n_reps": 10}, "rmse", "epsilon"),
    "3b": (figure_3b, {"n_clients": 2_000, "n_reps": 10}, "rmse", "epsilon"),
    "4a": (figure_4a, {"n_clients": 2_000, "n_reps": 10}, "rmse", "noise multiple"),
    "4c": (figure_4c, {"n_clients": 2_000, "n_reps": 10}, "rmse", "bits"),
}

#: Single-run diagnostic panels (no repetition sweep; rendered as a
#: snapshot table rather than a series).  Registered here so argparse
#: choices stay sorted and no caller needs to special-case panel ids.
DIAGNOSTICS: dict[str, Callable] = {
    "4b": figure_4b,
}

#: Every figure panel id, sweep and diagnostic alike, in sorted order.
FIGURE_PANELS: list[str] = sorted(set(FIGURES) | set(DIAGNOSTICS))

ABLATIONS: dict[str, tuple[Callable, dict, str, str]] = {
    "delta": (delta_sweep, {"n_clients": 2_000, "n_reps": 10}, "nrmse", "delta"),
    "gamma": (gamma_sweep, {"n_clients": 2_000, "n_reps": 10}, "nrmse", "gamma"),
    "alpha": (alpha_sweep, {"n_clients": 2_000, "n_reps": 10}, "nrmse", "alpha"),
    "caching": (caching_ablation, {"cohorts": (1_000, 5_000), "n_reps": 10}, "nrmse", "n"),
    "b-send": (b_send_sweep, {"n_clients": 2_000, "n_reps": 10}, "nrmse", "b_send"),
    "variance-decomposition": (
        variance_decomposition,
        {"cohorts": (10_000, 50_000), "n_reps": 10},
        "nrmse",
        "n",
    ),
    "poisoning": (poisoning_sweep, {"n_clients": 2_000, "n_reps": 10}, "nrmse", "fraction"),
    "distributed-dp": (
        distributed_dp_comparison,
        {"n_clients": 10_000, "n_reps": 10},
        "nrmse",
        "epsilon",
    ),
    "dropout": (dropout_adjustment, {"n_clients": 1_000, "n_reps": 5}, "nrmse", "dropout rate"),
    "schedule-sensitivity": (
        schedule_sensitivity,
        {"n_clients": 2_000, "n_reps": 10},
        "nrmse",
        "uniform mix fraction",
    ),
}

#: Targets whose traced round should apply local DP (the epsilon figures).
_LDP_TRACE_TARGETS = frozenset({"3a", "3b", "4a", "4c", "distributed-dp"})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description="Reproduce figures from 'Private and Efficient Federated Numerical Aggregation'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    workers_help = (
        "worker processes for trial execution (default: $REPRO_WORKERS or 1; "
        "results are bit-identical for any worker count)"
    )

    fig = sub.add_parser("figure", help="reproduce a paper figure panel")
    fig.add_argument("panel", choices=FIGURE_PANELS)
    fig.add_argument("--quick", action="store_true", help="scaled-down parameters")
    fig.add_argument("--json", action="store_true", help="emit the series as JSON")
    fig.add_argument("--workers", type=int, default=None, help=workers_help)

    abl = sub.add_parser("ablation", help="run a design-choice ablation")
    abl.add_argument("name", choices=sorted(ABLATIONS))
    abl.add_argument("--quick", action="store_true", help="scaled-down parameters")
    abl.add_argument("--json", action="store_true", help="emit the series as JSON")
    abl.add_argument("--workers", type=int, default=None, help=workers_help)

    trace = sub.add_parser(
        "trace",
        help="run one fully-traced federated round and export spans + metrics as JSONL",
    )
    trace.add_argument("target", choices=FIGURE_PANELS + sorted(ABLATIONS))
    trace.add_argument("--quick", action="store_true", help="smaller cohort")
    trace.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help="population size (default: 2000 with --quick, else 20000)",
    )
    trace.add_argument(
        "--chunk", type=int, default=None, metavar="SIZE",
        help="stream elicitation/collection in chunks of SIZE clients "
        "(default: $REPRO_BATCH_CHUNK or 65536); emits per-chunk "
        "client_plane.* spans",
    )
    trace.add_argument("--secure-agg", action="store_true", help="route through secure aggregation")
    trace.add_argument(
        "--shard-size", type=int, default=32, metavar="K",
        help="clients per secure-aggregation shard (with --secure-agg; shards "
        "run masking sessions independently and in parallel under "
        "$REPRO_WORKERS)",
    )
    trace.add_argument("--seed", type=int, default=0, help="round RNG seed")
    trace.add_argument(
        "--out", default=None, help="JSONL output path (default: trace_<target>.jsonl)"
    )
    trace.add_argument(
        "--max-retries", type=int, default=0,
        help="retries per failed round attempt (0 disables retry; failures abort)",
    )
    trace.add_argument(
        "--min-quorum", type=int, default=1,
        help="minimum surviving clients for a round attempt to count",
    )
    trace.add_argument(
        "--fault-schedule", default=None, metavar="SPEC",
        help=(
            "scripted fault events: a .json file, inline JSON, or a compact spec "
            "like '2:blackout;4-5:loss=0.6;6:deadline*0.5' (1-based round attempts)"
        ),
    )
    trace.add_argument(
        "--json", action="store_true",
        help="emit the run summary, spans, and metrics as JSON instead of text",
    )
    trace.add_argument(
        "--record", default=None, metavar="DIR",
        help=(
            "capture a flight-recorder artifact (events.jsonl + manifest.json) "
            "into DIR; render it later with `repro.cli report DIR`"
        ),
    )
    trace.add_argument(
        "--profile", action="store_true",
        help="enable the phase profiler: per-span CPU time, per-phase p50/p95/p99 "
        "(implied by --record)",
    )
    trace.add_argument(
        "--trace-malloc", action="store_true",
        help="also track per-span peak allocations via tracemalloc (implies --profile; "
        "ignored under --sim-clock)",
    )
    trace.add_argument(
        "--sim-clock", action="store_true",
        help="time spans with a deterministic simulated clock so same-seed runs "
        "produce byte-identical traces, artifacts, and reports",
    )
    trace.add_argument(
        "--watch", action="store_true",
        help="render live per-round progress (throughput, ETA, active alerts) "
        "to stderr; stdout output is unchanged",
    )

    serve = sub.add_parser(
        "serve",
        help="run an asyncio round server: one federated round over real "
        "wire-protocol TCP sockets (pair with `repro.cli fleet`)",
    )
    serve.add_argument("--clients", type=int, required=True, metavar="N",
                       help="planned cohort size (wire client ids 0..N-1)")
    serve.add_argument("--bits", type=int, default=10, help="fixed-point bit depth")
    serve.add_argument(
        "--epsilon", type=float, default=None,
        help="client-side randomized response epsilon (default: no LDP)",
    )
    serve.add_argument("--seed", type=int, default=0, help="server RNG seed (bit assignment)")
    serve.add_argument(
        "--deadline-s", type=float, default=30.0,
        help="wall-clock report-collection deadline per attempt (seconds)",
    )
    serve.add_argument(
        "--registration-timeout-s", type=float, default=30.0,
        help="how long to wait for the full fleet to register",
    )
    serve.add_argument(
        "--min-quorum", type=int, default=1,
        help="minimum accepted reports for an attempt to count",
    )
    serve.add_argument(
        "--max-retries", type=int, default=0,
        help="retries per failed attempt (simulated backoff; 0 disables)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: ephemeral; see --port-file)",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port to PATH once listening (ephemeral-port rendezvous)",
    )
    serve.add_argument(
        "--record", default=None, metavar="DIR",
        help="capture a flight-recorder artifact (events.jsonl + manifest.json) into DIR",
    )
    serve.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write spans + metrics snapshot as JSONL to PATH",
    )
    serve.add_argument(
        "--sim-clock", action="store_true",
        help="time spans with a deterministic SimClock instead of the real clock; "
        "same-seed runs write byte-identical artifacts only with a sim-clocked fleet "
        "in the same process (the `fleet` command times with the real clock)",
    )
    serve.add_argument("--json", action="store_true", help="emit the result as JSON")

    fleet = sub.add_parser(
        "fleet",
        help="run a simulated client fleet against a round server "
        "(deterministic values; optional network emulation)",
    )
    fleet.add_argument("--clients", type=int, required=True, metavar="N",
                       help="number of simulated devices (wire ids 0..N-1)")
    fleet.add_argument("--host", default="127.0.0.1", help="server address")
    fleet.add_argument("--port", type=int, default=None, help="server port")
    fleet.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="poll PATH for the server's port (written by `serve --port-file`)",
    )
    fleet.add_argument(
        "--seed", type=int, default=0,
        help="fleet seed: drives both the value population and per-client RNG streams",
    )
    fleet.add_argument(
        "--emulation", default=None, metavar="SPEC",
        help="network emulation profile, e.g. 'loss=0.2,latency=45,sigma=0.6,scale=0.001' "
        "(loss rate, lognormal median/shape in simulated seconds, real-time scale)",
    )
    fleet.add_argument(
        "--rendezvous-timeout", type=float, default=10.0, metavar="S",
        help="seconds to wait for --port-file to appear before giving up "
        "(exit code 2; default 10)",
    )
    fleet.add_argument("--json", action="store_true", help="emit the result as JSON")

    report = sub.add_parser(
        "report",
        help="render a recorded run (a --record artifact directory) as Markdown or JSON",
    )
    report.add_argument("run_dir", help="artifact directory written by `trace --record`")
    report.add_argument(
        "--json", action="store_true", help="emit the report as JSON instead of Markdown"
    )
    report.add_argument(
        "--chrome-trace", default=None, metavar="PATH",
        help="also export the span stream (remote fleet spans on their own "
        "tracks) as Chrome trace-event JSON to PATH (Perfetto / chrome://tracing)",
    )

    runs = sub.add_parser(
        "runs",
        help="query the run registry: list recorded artifacts, compare two runs, "
        "or gate a candidate run against a baseline",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="index every recorded artifact directory under a root"
    )
    runs_list.add_argument("root", help="directory scanned recursively for manifest.json")
    runs_list.add_argument(
        "--json", action="store_true", help="emit the index as JSON instead of Markdown"
    )
    runs_compare = runs_sub.add_parser(
        "compare",
        help="cross-run deltas (phase percentiles, counters, estimate error, alerts)",
    )
    runs_compare.add_argument("baseline", help="baseline artifact directory")
    runs_compare.add_argument("candidate", help="candidate artifact directory")
    runs_compare.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON instead of Markdown"
    )
    runs_check = runs_sub.add_parser(
        "check",
        help="gate a candidate run against a baseline (exit 1 on regression)",
    )
    runs_check.add_argument("baseline", help="baseline artifact directory")
    runs_check.add_argument("candidate", help="candidate artifact directory")
    runs_check.add_argument(
        "--tolerance", type=float, default=1.25,
        help="ratio past which a phase-p95 or estimate-error regression fails (default 1.25)",
    )

    selfcheck = sub.add_parser(
        "selfcheck",
        help="run the verification suite: runtime invariants + Monte-Carlo oracles",
    )
    selfcheck.add_argument(
        "--deep",
        action="store_true",
        help="widen the sweep: LDP/local/b_send variants, every baseline, more reps",
    )
    selfcheck.add_argument("--json", action="store_true", help="emit the report as JSON")
    selfcheck.add_argument("--seed", type=int, default=0, help="oracle suite seed")
    selfcheck.add_argument("--workers", type=int, default=None, help=workers_help)
    selfcheck.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write selfcheck spans + metrics snapshot as JSONL",
    )

    sub.add_parser("list", help="list available figures and ablations")
    return parser


def _lemma31_analysis(estimate, truth: float, encoder, epsilon: float | None) -> dict:
    """Observed error vs. the Lemma 3.1 prediction at the *realized* counts.

    The lemma's variance ``sum_j 4^j v_j / (n p_j)`` is evaluated with each
    bit's realized report count ``c_j`` in place of its expectation
    ``n p_j`` (dropout and loss make the two differ), then mapped to the
    real domain through the encoder's linear decode (``std * scale``).  The
    reported bound is two predicted standard deviations.
    """
    variance_encoded = 0.0
    unbounded = False
    for j, (mean, count) in enumerate(zip(estimate.bit_means, estimate.counts)):
        v = per_report_bit_variance(float(np.clip(mean, 0.0, 1.0)), epsilon)
        if v == 0.0:
            continue
        if count <= 0:
            unbounded = True
            continue
        variance_encoded += (4.0**j) * v / float(count)
    predicted_std = (
        float("inf") if unbounded else math.sqrt(variance_encoded) * encoder.scale
    )
    observed = abs(float(estimate.value) - float(truth))
    bound = 2.0 * predicted_std
    return {
        "truth": float(truth),
        "observed_error": observed,
        "predicted_std": predicted_std,
        "bound_2sigma": bound,
        "within_bound": bool(observed <= bound),
        "epsilon": epsilon,
    }


def _retry_policy(max_retries: int, redraw_cohort: bool) -> RetryPolicy | None:
    """The ``--max-retries`` policy; ``None`` (a failed attempt aborts) for 0."""
    if max_retries < 0:
        raise ConfigurationError(f"--max-retries must be >= 0, got {max_retries}")
    if max_retries == 0:
        return None
    return RetryPolicy(max_attempts=max_retries + 1, redraw_cohort=redraw_cohort)


def run_traced_round(
    target: str,
    quick: bool = False,
    clients: int | None = None,
    chunk: int | None = None,
    secure_agg: bool = False,
    shard_size: int = 32,
    seed: int = 0,
    out_path: str | None = None,
    stream=None,
    max_retries: int = 0,
    min_quorum: int = 1,
    fault_schedule: str | None = None,
    record_dir: str | None = None,
    profile: bool = False,
    trace_malloc: bool = False,
    sim_clock: bool = False,
    as_json: bool = False,
    watch: bool = False,
    watch_stream=None,
) -> dict:
    """Run one instrumented :class:`FederatedMeanQuery` round pipeline.

    The ``target`` (a figure panel or ablation name) sizes the run; every
    target exercises the same full pipeline -- cohort selection, bit
    assignment, lossy network transmission, optional secure aggregation and
    local DP, and reconstruction.  ``max_retries``/``min_quorum``/
    ``fault_schedule`` configure round-failure recovery (a chaos run: see
    ``docs/operations.md``).

    The population is one columnar :class:`ClientBatch` (struct-of-arrays)
    of ``clients`` clients (default: 2,000 with ``quick``, else 20,000);
    ``chunk`` bounds the streaming chunk size so elicitation and report
    collection emit per-chunk ``client_plane.*`` spans (see
    ``docs/performance.md``).

    ``record_dir`` captures a flight-recorder artifact (event log +
    manifest, including the privacy ledger and bit-meter totals) for
    ``repro.cli report``; recording implies the phase profiler.  With
    ``sim_clock`` every recorded timing comes from a deterministic
    :class:`SimClock`, so two same-seed runs produce byte-identical
    artifacts (``trace_malloc`` is ignored in that mode -- allocation peaks
    are not deterministic, but ``alerts.jsonl`` is: alert times derive from
    span times).  Every run evaluates the default SLO health rules per
    round; recorded runs persist the transitions to ``alerts.jsonl`` and the
    summary into the manifest.  ``watch`` renders live per-round progress
    and active alerts to ``watch_stream`` (stderr by default) without
    touching stdout.  Returns a summary dict (estimate, truth, paths,
    analysis, reconciliation).
    """
    stream = stream if stream is not None else sys.stdout
    n_clients = int(clients) if clients is not None else (2_000 if quick else 20_000)
    if n_clients < 2:
        raise ConfigurationError(f"--clients must be >= 2, got {n_clients}")
    encoder = FixedPointEncoder.for_integers(10)
    epsilon = 2.0 if target in _LDP_TRACE_TARGETS else None
    perturbation = RandomizedResponse(epsilon=epsilon) if epsilon is not None else None

    rng = np.random.default_rng(seed)
    # One struct-of-arrays batch drawn column-wise: one to three values per
    # client (sizes, then one flat value draw).
    sizes = rng.integers(1, 4, n_clients)
    flat = np.clip(rng.normal(600.0, 100.0, int(sizes.sum())), 0.0, None)
    offsets = np.zeros(n_clients + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    population = ClientBatch(values=flat, offsets=offsets)
    truth = ground_truth_mean(population)

    recording = record_dir is not None
    accountant = PrivacyAccountant() if recording else None
    meter = BitMeter(max_bits_per_value=1) if recording else None
    query = FederatedMeanQuery(
        encoder,
        mode="adaptive",
        perturbation=perturbation,
        dropout=DropoutModel(rate=0.05),
        network=NetworkModel(loss_rate=0.05, deadline_s=600.0),
        secure_aggregation=secure_agg,
        shard_size=shard_size,
        min_reports_per_bit=2,
        min_quorum=min_quorum,
        retry=_retry_policy(max_retries, redraw_cohort=True),
        faults=FaultSchedule.load(fault_schedule) if fault_schedule else None,
        meter=meter,
        accountant=accountant,
        chunk_clients=chunk,
    )

    # The standalone JSONL trace stays the default; under --record the
    # artifact's event log subsumes it unless --out asks for both.
    path = None
    if out_path is not None or not recording:
        path = out_path or f"trace_{target}.jsonl"
    run = ObservedRun(
        trace_path=path,
        record_dir=record_dir,
        config={
            "target": target,
            "quick": quick,
            "secure_agg": secure_agg,
            "shard_size": shard_size,
            "n_clients": n_clients,
            "chunk": chunk,
            "n_bits": encoder.n_bits,
            "epsilon": epsilon,
            "max_retries": max_retries,
            "min_quorum": min_quorum,
            "sim_clock": sim_clock,
        },
        seed=seed,
        # The adaptive pipeline plans 2 rounds, each spending the
        # perturbation's epsilon.
        rules=default_rules(
            epsilon_budget=2.0 * epsilon if epsilon is not None else None,
            planned_rounds=2,
        ),
        sim_clock=sim_clock,
        profile=profile or trace_malloc or recording,
        trace_malloc=trace_malloc,
    )
    live = None
    if watch:
        live = LiveMonitor(planned_rounds=2, health=run.health, stream=watch_stream)
        run.tracer.add_exporter(live)
    with run:
        estimate = query.run(population, rng=rng)

    analysis = _lemma31_analysis(estimate, truth, encoder, epsilon)
    run.health.observe_estimate(analysis)
    if live is not None:
        live.finish(estimate=float(estimate.value))
    run.finalize(estimate=estimate, accountant=accountant, meter=meter, analysis=analysis)
    health_summary = run.health.summary()
    snapshot = run.snapshot

    counters = snapshot["counters"]
    planned = counters.get("round_reports_planned_total", 0.0)
    delivered = counters.get("round_reports_delivered_total", 0.0)
    lost = counters.get("round_reports_lost_total", 0.0)
    # Report counters accumulate per *attempt* (failed attempts included),
    # so reconciliation sums the outcome's full attempt history.
    history = [pair for round_ in estimate.metadata["attempt_history"] for pair in round_]
    reconciled = (
        planned == delivered + lost
        and planned == sum(p for p, _ in history)
        and delivered == sum(s for _, s in history)
    )

    result = {
        "estimate": estimate,
        "truth": truth,
        "path": path,
        "snapshot": snapshot,
        "reconciled": reconciled,
        "n_spans": len(run.spans),
        "analysis": analysis,
        "health": health_summary,
        "record_dir": str(record_dir) if recording else None,
    }

    if as_json:
        payload = {
            "target": target,
            "seed": seed,
            "quick": quick,
            "clients": n_clients,
            "chunk": chunk,
            "secure_agg": secure_agg,
            "shard_size": shard_size,
            "estimate": float(estimate.value),
            "truth": float(truth),
            "reconciled": reconciled,
            "n_spans": len(run.spans),
            "trace_path": path,
            "record_dir": result["record_dir"],
            "analysis": analysis,
            "health": health_summary,
            "recovery": {
                "round_attempts": estimate.metadata["round_attempts"],
                "degraded_rounds": estimate.metadata["degraded_rounds"],
                "backoff_s": estimate.metadata["backoff_s"],
            },
            "spans": [record.to_dict() for record in run.spans],
            "metrics": snapshot,
        }
        print(json.dumps(payload, indent=2, default=str), file=stream)
        return result

    print(f"# Traced federated round ({target})", file=stream)
    print(file=stream)
    print(
        f"population: ClientBatch, n={n_clients}"
        + (f", chunk={chunk}" if chunk is not None else ""),
        file=stream,
    )
    print(file=stream)
    print(format_span_tree(run.spans), file=stream)
    print(file=stream)
    print("## Metrics", file=stream)
    print(json.dumps(snapshot, indent=2, default=str), file=stream)
    print(file=stream)
    print(f"estimate: {estimate.value:.4f}  (ground truth {truth:.4f})", file=stream)
    print(
        f"lemma 3.1: observed error {analysis['observed_error']:.4f} vs 2-sigma bound "
        f"{analysis['bound_2sigma']:.4f} (within: {analysis['within_bound']})",
        file=stream,
    )
    print(
        f"reports: planned={planned:.0f} delivered={delivered:.0f} lost={lost:.0f}  "
        f"reconciled with RoundOutcome: {reconciled}",
        file=stream,
    )
    attempts = estimate.metadata["round_attempts"]
    if sum(attempts) > len(attempts) or any(estimate.metadata["degraded_rounds"]):
        print(
            f"recovery: attempts={attempts} degraded={estimate.metadata['degraded_rounds']} "
            f"backoff_s={estimate.metadata['backoff_s']}",
            file=stream,
        )
    if accountant is not None:
        print(f"privacy: epsilon spent = {accountant.spent_epsilon:.4f}", file=stream)
    active = health_summary["active"]
    print(
        f"health: {health_summary['fired_total']} alert(s) fired, "
        f"{health_summary['resolved_total']} resolved"
        + (
            "; ACTIVE: " + ", ".join(f"{a['rule']}({a['severity']})" for a in active)
            if active
            else ""
        ),
        file=stream,
    )
    if run.profiler is not None:
        print(file=stream)
        print("## Phases (p50/p95/p99 ms)", file=stream)
        for phase in run.profiler.phases()[:12]:
            print(
                f"{phase.name}: n={phase.count} total={phase.total_s * 1e3:.3f}ms "
                f"cpu={phase.cpu_total_s * 1e3:.3f}ms p50={phase.p50_s * 1e3:.3f} "
                f"p95={phase.p95_s * 1e3:.3f} p99={phase.p99_s * 1e3:.3f}",
                file=stream,
            )
    if path is not None:
        print(
            f"trace written to {path} ({len(run.spans)} spans + metrics snapshot)",
            file=stream,
        )
    if recording:
        print(f"flight-recorder artifact written to {record_dir}", file=stream)
    return result


def run_report_command(
    run_dir: str,
    as_json: bool = False,
    chrome_trace: str | None = None,
    stream=None,
    error_stream=None,
) -> int:
    """Render a recorded run directory as Markdown (or JSON with ``--json``).

    ``--chrome-trace PATH`` additionally lays the artifact's span stream out
    as Chrome trace-event JSON -- server phases on one track, each telemetry
    client on its own -- for Perfetto / ``chrome://tracing``.

    A missing or corrupt ``manifest.json`` is an operator error, not a bug:
    it gets one line on stderr and exit code 2, never a traceback.
    """
    stream = stream if stream is not None else sys.stdout
    error_stream = error_stream if error_stream is not None else sys.stderr
    try:
        artifact = load_run(run_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=error_stream)
        return 2
    except BrokenPipeError:
        raise
    except (ValueError, OSError) as exc:
        print(
            f"error: cannot read manifest in {run_dir}: {exc}",
            file=error_stream,
        )
        return 2
    report = build_report(artifact)
    if as_json:
        print(json.dumps(report, indent=2, default=str), file=stream)
    else:
        print(render_markdown(report), file=stream)
    if chrome_trace is not None:
        label = str(artifact.manifest.get("label") or artifact.directory.name)
        document = write_chrome_trace(chrome_trace, artifact.spans(), label=label)
        # Keep --json stdout parseable: the notice goes to stderr there.
        notice_stream = error_stream if as_json else stream
        print(
            f"chrome trace written to {chrome_trace} "
            f"({len(document['traceEvents'])} events, "
            f"{document['otherData']['clients']} client track(s))",
            file=notice_stream,
        )
    return 0


def run_runs_command(args, stream=None, error_stream=None) -> int:
    """Dispatch ``runs list|compare|check`` against the run registry."""
    stream = stream if stream is not None else sys.stdout
    error_stream = error_stream if error_stream is not None else sys.stderr
    try:
        if args.runs_command == "list":
            entries = scan_runs(args.root)
            if args.json:
                print(
                    json.dumps([e.to_dict() for e in entries], indent=2, default=str),
                    file=stream,
                )
            else:
                print(render_list_markdown(entries, args.root), file=stream)
            return 0
        comparison = compare_runs(args.baseline, args.candidate)
        if args.runs_command == "compare":
            if args.json:
                print(json.dumps(comparison, indent=2, default=str), file=stream)
            else:
                print(render_compare_markdown(comparison), file=stream)
            return 0
        try:
            ok, messages = check_comparison(comparison, tolerance=args.tolerance)
        except ValueError as exc:
            print(f"error: {exc}", file=error_stream)
            return 2
        for message in messages:
            print(message, file=stream)
        return 0 if ok else 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=error_stream)
        return 2
    except BrokenPipeError:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: cannot read artifact: {exc}", file=error_stream)
        return 2


def run_selfcheck_command(
    deep: bool = False,
    seed: int = 0,
    workers: int | None = None,
    as_json: bool = False,
    trace_out: str | None = None,
    stream=None,
) -> int:
    """Run the verification suite with spans + metrics; 0 iff everything holds.

    The executor (``--workers`` / ``REPRO_WORKERS``) feeds the executor-twin
    oracle, so running this command under different worker counts is the
    deployment-side check of the bit-identity contract.
    """
    from repro.verification import run_selfcheck

    stream = stream if stream is not None else sys.stdout
    executor = executor_for(workers)
    with ObservedRun(trace_path=trace_out or None) as run:
        report = run_selfcheck(deep=deep, seed=seed, executor=executor)

    counters = run.snapshot["counters"]
    if as_json:
        payload = report.to_dict()
        payload["metrics"] = counters
        print(json.dumps(payload, indent=2, default=str), file=stream)
    else:
        print(f"# Selfcheck ({'deep' if deep else 'quick'}, seed={seed})", file=stream)
        print(file=stream)
        print(report.render(), file=stream)
        print(
            f"spans: {len(run.spans)}  checks: "
            f"{counters.get('selfcheck_checks_total', 0):.0f}  failures: "
            f"{counters.get('selfcheck_failures_total', 0):.0f}"
            + (f"  trace written to {trace_out}" if trace_out else ""),
            file=stream,
        )
    return 0 if report.passed else 1


def run_serve_command(
    clients: int,
    bits: int = 10,
    epsilon: float | None = None,
    seed: int = 0,
    deadline_s: float = 30.0,
    registration_timeout_s: float = 30.0,
    min_quorum: int = 1,
    max_retries: int = 0,
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: str | None = None,
    record_dir: str | None = None,
    out_path: str | None = None,
    sim_clock: bool = False,
    as_json: bool = False,
    stream=None,
    error_stream=None,
) -> int:
    """Serve one federated round over TCP to a wire-protocol client fleet.

    Binds (writing the bound port to ``port_file`` for an ephemeral-port
    rendezvous with ``repro.cli fleet``), waits for registration, and drives
    the announce/collect/reconstruct state machine under full
    instrumentation: ``--out`` exports the round core's ``federated.*`` and
    ``round.*`` spans, the ``serve.*``/``uplink.*`` spans and a metrics
    snapshot as JSONL, ``--record`` captures a flight-recorder
    artifact in exactly the form in-process traced rounds produce (rendered
    by ``repro.cli report``), with the round's epsilon ledger and bit-meter
    totals.  A round that exhausts its retry budget prints the failure and
    exits 1.
    """
    stream = stream if stream is not None else sys.stdout
    error_stream = error_stream if error_stream is not None else sys.stderr
    config = ServeConfig(
        n_clients=clients,
        n_bits=bits,
        epsilon=epsilon,
        seed=seed,
        deadline_s=deadline_s,
        registration_timeout_s=registration_timeout_s,
        min_quorum=min_quorum,
        retry=_retry_policy(max_retries, redraw_cohort=False),
        host=host,
        port=port,
    )

    run = ObservedRun(
        trace_path=out_path,
        record_dir=record_dir,
        config={"command": "serve", "sim_clock": sim_clock, **config.to_manifest()},
        seed=seed,
        sim_clock=sim_clock,
    )

    async def _serve():
        server = RoundServer(config)
        bound_port = await server.start()
        try:
            if port_file is not None:
                # Written whole, then renamed into place: a fleet never reads
                # half a port, and the file goes away with the server.
                partial = Path(f"{port_file}.partial")
                partial.write_text(f"{bound_port}\n")
                os.replace(partial, port_file)
            result = await server.serve_round()
        finally:
            await server.close()
            if port_file is not None:
                Path(port_file).unlink(missing_ok=True)
        return bound_port, result

    try:
        with run:
            # Not asyncio.run, which formats the result's repr on 3.11-3.12.
            bound_port, result = run_coroutine(_serve())
    except RoundFailedError as exc:
        print(f"round failed: {exc}", file=error_stream)
        return 1

    # The manifest's ``serve`` section; ``--json`` prints the same fields
    # and the bound port, which the manifest leaves out to stay reproducible.
    served = {
        "registered_clients": result.registered_clients,
        "connections": result.connections,
        "surviving_clients": result.surviving_clients,
        "attempts": result.attempts,
        "wire_rejects": result.wire_rejects,
        "late_reports": result.late_reports,
        "telemetry_clients": result.telemetry_clients,
        "remote_spans": result.remote_spans,
    }
    run.finalize(
        estimate=result.estimate,
        accountant=result.accountant,
        meter=result.meter,
        extra={"serve": served},
    )

    counters = run.snapshot["counters"]
    if as_json:
        payload = {
            "command": "serve",
            "estimate": float(result.estimate.value),
            "planned_clients": result.planned_clients,
            "port": bound_port,
            **served,
            "degraded": result.degraded,
            "backoff_s": result.backoff_s,
            "collect_duration_s": result.duration_s,
            "record_dir": record_dir,
            "trace_path": out_path,
            "metrics": run.snapshot,
        }
        print(json.dumps(payload, indent=2, default=str), file=stream)
        return 0

    print(f"# Served federated round (port {bound_port})", file=stream)
    print(file=stream)
    print(
        f"estimate: {result.estimate.value:.4f}  "
        f"({result.surviving_clients}/{result.planned_clients} clients, "
        f"{result.registered_clients} registered, attempt {result.attempts})",
        file=stream,
    )
    print(
        f"uplinks: accepted={counters.get('serve_reports_total', 0):.0f} "
        f"rejected={result.wire_rejects} late={result.late_reports}  "
        f"collect={result.duration_s:.3f}s",
        file=stream,
    )
    if result.telemetry_clients:
        print(
            f"telemetry: {result.telemetry_clients} client(s) uplinked "
            f"{result.remote_spans} span(s)",
            file=stream,
        )
    if result.degraded or result.backoff_s > 0:
        print(
            f"recovery: degraded={result.degraded} backoff_s={result.backoff_s}",
            file=stream,
        )
    if out_path is not None:
        print(f"trace written to {out_path}", file=stream)
    if record_dir is not None:
        print(f"flight-recorder artifact written to {record_dir}", file=stream)
    return 0


def _resolve_port(
    port: int | None, port_file: str | None, timeout_s: float, deadline: float
) -> int:
    """The fleet's port rendezvous: an explicit port, or poll the port file
    until the ``time.monotonic()`` reading ``deadline``, ``timeout_s`` after
    the fleet started."""
    if port is not None:
        return int(port)
    if port_file is None:
        raise ConfigurationError("fleet needs --port or --port-file")
    path = Path(port_file)
    while True:
        try:
            text = path.read_text().strip()
            if text:
                return int(text)
        except (FileNotFoundError, ValueError):
            pass
        if time.monotonic() >= deadline:
            raise ConfigurationError(
                f"no port appeared in {port_file} within {timeout_s:g}s "
                "(is the server running with --port-file?)"
            )
        time.sleep(0.05)


def run_fleet_command(
    clients: int,
    host: str = "127.0.0.1",
    port: int | None = None,
    port_file: str | None = None,
    seed: int = 0,
    emulation: str | None = None,
    rendezvous_timeout_s: float = 10.0,
    as_json: bool = False,
    stream=None,
    error_stream=None,
) -> int:
    """Run a simulated device fleet against a round server.

    Client values come from :func:`repro.federated.fleet_values` (clipped
    ``Normal(600, 100)`` under ``seed``), so any twin that knows the seed can
    recompute exactly what the fleet reported on.  A port file that never
    appears within ``rendezvous_timeout_s`` is one line on stderr and exit
    code 2 (the fleet never hangs on a server that failed to start).  A port
    file whose port refuses the connection -- one an earlier server left
    behind -- is read again until the same deadline.  Exits 1 if the server
    aborted the round or never announced a result.
    """
    stream = stream if stream is not None else sys.stdout
    error_stream = error_stream if error_stream is not None else sys.stderr
    deadline = time.monotonic() + rendezvous_timeout_s
    profile = EmulationProfile.parse(emulation) if emulation else None
    while True:
        try:
            resolved = _resolve_port(port, port_file, rendezvous_timeout_s, deadline)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=error_stream)
            return 2
        fleet = ClientFleet(fleet_values(clients, seed), seed=seed, profile=profile)
        try:
            # Not asyncio.run, which formats the result's repr on 3.11-3.12.
            result = run_coroutine(fleet.run(host, resolved))
            break
        except ConnectionRefusedError:
            if port_file is None or time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
    ok = not result.aborted and result.estimate is not None
    if as_json:
        payload = {
            "command": "fleet",
            "clients": result.n_clients,
            "uplinks_sent": result.uplinks_sent,
            "uplinks_dropped": result.uplinks_dropped,
            "estimate": result.estimate,
            "aborted": result.aborted,
            "clients_with_result": len(result.results),
        }
        print(json.dumps(payload, indent=2), file=stream)
        return 0 if ok else 1
    print(
        f"fleet: {result.n_clients} clients, {result.uplinks_sent} uplinks sent, "
        f"{result.uplinks_dropped} dropped",
        file=stream,
    )
    if result.aborted:
        print("round aborted by the server", file=error_stream)
    elif result.estimate is None:
        print("no result announced before the fleet disconnected", file=error_stream)
    else:
        print(
            f"estimate: {result.estimate:.4f} "
            f"(announced to {len(result.results)} clients)",
            file=stream,
        )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input ends in one ``error:`` line and exit 2."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early -- not an error.
        return 0
    except RoundFailedError as exc:
        # A ConfigurationError subclass, but the input was fine: the round
        # ran and missed its quorum (exit 1, as ``serve`` reports it).
        print(f"round failed: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A port in use, a refused connection, a path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    # Checked before any work: NumPy would reject a negative seed, and
    # bind() or connect() a port past 65535, with a traceback.
    if getattr(args, "seed", 0) < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    port = getattr(args, "port", None)
    if port is not None and not 0 <= port <= 65535:
        raise ConfigurationError(f"--port must be in [0, 65535], got {port}")

    if args.command == "list":
        print("figures:  " + " ".join(FIGURE_PANELS))
        print("ablations: " + " ".join(sorted(ABLATIONS)))
        return 0

    if args.command == "selfcheck":
        return run_selfcheck_command(
            deep=args.deep,
            seed=args.seed,
            workers=args.workers,
            as_json=args.json,
            trace_out=args.trace_out,
        )

    if args.command == "trace":
        result = run_traced_round(
            args.target,
            quick=args.quick,
            clients=args.clients,
            chunk=args.chunk,
            secure_agg=args.secure_agg,
            shard_size=args.shard_size,
            seed=args.seed,
            out_path=args.out,
            max_retries=args.max_retries,
            min_quorum=args.min_quorum,
            fault_schedule=args.fault_schedule,
            record_dir=args.record,
            profile=args.profile,
            trace_malloc=args.trace_malloc,
            sim_clock=args.sim_clock,
            as_json=args.json,
            watch=args.watch,
        )
        return 0 if result["reconciled"] else 1

    if args.command == "serve":
        return run_serve_command(
            clients=args.clients,
            bits=args.bits,
            epsilon=args.epsilon,
            seed=args.seed,
            deadline_s=args.deadline_s,
            registration_timeout_s=args.registration_timeout_s,
            min_quorum=args.min_quorum,
            max_retries=args.max_retries,
            host=args.host,
            port=args.port,
            port_file=args.port_file,
            record_dir=args.record,
            out_path=args.out,
            sim_clock=args.sim_clock,
            as_json=args.json,
        )

    if args.command == "fleet":
        return run_fleet_command(
            clients=args.clients,
            host=args.host,
            port=args.port,
            port_file=args.port_file,
            seed=args.seed,
            emulation=args.emulation,
            rendezvous_timeout_s=args.rendezvous_timeout,
            as_json=args.json,
        )

    if args.command == "report":
        return run_report_command(
            args.run_dir, as_json=args.json, chrome_trace=args.chrome_trace
        )

    if args.command == "runs":
        return run_runs_command(args)

    executor = executor_for(args.workers)

    if args.command == "figure":
        if args.panel in DIAGNOSTICS:
            # Diagnostic panels are a single run (no repetition sweep to
            # distribute) rendered as a snapshot table.
            snapshot = DIAGNOSTICS[args.panel]()
            print(snapshot_to_json(snapshot) if args.json else render_snapshot(snapshot))
            return 0
        runner, quick_kwargs, metric, x_name = FIGURES[args.panel]
        results = runner(**(quick_kwargs if args.quick else {}), executor=executor)
        title = f"Figure {args.panel}"
        if args.json:
            print(series_to_json(title, results, metric=metric, x_name=x_name))
        else:
            print(render_series_table(title, results, metric=metric, x_name=x_name))
        return 0

    runner, quick_kwargs, metric, x_name = ABLATIONS[args.name]
    results = runner(**(quick_kwargs if args.quick else {}), executor=executor)
    title = f"Ablation: {args.name}"
    if args.json:
        print(series_to_json(title, results, metric=metric, x_name=x_name))
    else:
        print(render_series_table(title, results, metric=metric, x_name=x_name))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
