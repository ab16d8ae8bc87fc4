"""Deterministic chaos campaigns demonstrating the health plane end to end.

Usage::

    python scripts/health_demo.py                        # narrate both campaigns
    python scripts/health_demo.py --assert-retry-storm   # CI gate (exit 1 on miss)
    python scripts/health_demo.py --assert-shard-failure # CI gate, secure campaign
    python scripts/health_demo.py --out out/health_demo  # record both campaigns

Two scripted campaigns, each deterministic down to the alert transitions:

1. A basic-mode campaign against the fault schedule ``2:blackout;4-5:loss=0.6``
   with a quorum high enough that a loss=0.6 attempt fails.  Attempt 2 (the
   blackout) and attempts 4-5 (the loss bursts) fail and are retried, so the
   retry-storm rule *must* fire mid-campaign, and the quiet tail of clean
   rounds *must* resolve it.
2. A secure-aggregation campaign against ``3:shard=0``: round 3 blacks out
   every client in shard 0, whose masking session falls below its recovery
   threshold.  The round *degrades* (shard excluded, variance inflated)
   rather than aborting, the shard-failure rule fires on the counter delta,
   and the clean tail resolves it.

``--assert-retry-storm`` / ``--assert-shard-failure`` turn those
obligations into exit codes -- the CI chaos job runs both next to the
failure-injection tests.

Each campaign runs under an :class:`ObservedRun` on a simulated clock: its
:class:`HealthMonitor` reads the round spans as a tracer exporter, so every
alert is stamped on the tracer's clock and two same-seed runs write the same
``alerts.jsonl``.  A :class:`LiveMonitor` on the same tracer shows on stderr
what an operator watching the campaign would see.  With ``--out DIR`` the
basic campaign is recorded into ``DIR`` and the secure one into
``DIR/secure``: each an ``alerts.jsonl`` next to the flight recorder's
``events.jsonl`` and ``manifest.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core import FixedPointEncoder
from repro.federated import (
    ClientDevice,
    FaultSchedule,
    FederatedMeanQuery,
    MonitoringCampaign,
    NetworkModel,
    RetryPolicy,
)
from repro.observability import ALERTS_FILENAME, HealthMonitor, LiveMonitor, ObservedRun

FAULT_SPEC = "2:blackout;4-5:loss=0.6"

#: Secure campaign: round 3 blacks out shard 0 (8 clients of 64).
SECURE_FAULT_SPEC = "3:shard=0"
SECURE_SHARD_SIZE = 8


def _population(rng: np.random.Generator, n_clients: int) -> list[ClientDevice]:
    return [
        ClientDevice(i, np.clip(rng.normal(600.0, 100.0, 1), 0.0, None))
        for i in range(n_clients)
    ]


def _observed_run(out_dir: Path | None, seed: int, rounds: int, faults: str) -> ObservedRun:
    """A sim-clocked observed run, recorded into ``out_dir`` when one is given."""
    config = {"faults": faults, "rounds": rounds}
    return ObservedRun(record_dir=out_dir, config=config, seed=seed, sim_clock=True)


def _observe_campaign(
    run: ObservedRun,
    campaign: MonitoringCampaign,
    population: list[ClientDevice],
    rng: np.random.Generator,
    rounds: int,
) -> HealthMonitor:
    """Run ``rounds`` campaign rounds under ``run``, watched on stderr."""
    live = LiveMonitor(planned_rounds=rounds, health=run.health)
    run.tracer.add_exporter(live)
    with run:
        for _ in range(rounds):
            campaign.run_round(population, rng=rng)
    estimate = campaign.records[-1].estimate
    live.finish(estimate=estimate.value)
    run.finalize(estimate=estimate)
    return run.health


def run_demo(
    seed: int = 0,
    rounds: int = 10,
    n_clients: int = 400,
    out_dir: str | None = None,
) -> HealthMonitor:
    """Run the chaos campaign; returns the health monitor for inspection."""
    rng = np.random.default_rng(seed)
    population = _population(rng, n_clients)
    query = FederatedMeanQuery(
        FixedPointEncoder.for_integers(10),
        mode="basic",
        network=NetworkModel(loss_rate=0.05, deadline_s=600.0),
        # loss=0.6 leaves ~38% of the cohort: below half, so the burst rounds
        # fail and retry; the clean baseline (~95% delivery) clears easily.
        min_quorum=n_clients // 2,
        retry=RetryPolicy(max_attempts=4, redraw_cohort=False),
        faults=FaultSchedule.from_spec(FAULT_SPEC),
    )
    run = _observed_run(None if out_dir is None else Path(out_dir), seed, rounds, FAULT_SPEC)
    return _observe_campaign(run, MonitoringCampaign(query), population, rng, rounds)


def run_secure_demo(
    seed: int = 0,
    rounds: int = 10,
    n_clients: int = 64,
    out_dir: str | None = None,
) -> tuple[HealthMonitor, MonitoringCampaign]:
    """Run the secure-aggregation shard-blackout campaign.

    The shard-failure rule reads the ``secure_shard_failures_total``
    counter delta from the observed run's metrics registry, which the
    masking sessions increment.
    """
    rng = np.random.default_rng(seed)
    population = _population(rng, n_clients)
    query = FederatedMeanQuery(
        FixedPointEncoder.for_integers(10),
        mode="basic",
        secure_aggregation=True,
        shard_size=SECURE_SHARD_SIZE,
        faults=FaultSchedule.from_spec(SECURE_FAULT_SPEC),
    )
    campaign = MonitoringCampaign(query)
    record_dir = None if out_dir is None else Path(out_dir) / "secure"
    run = _observed_run(record_dir, seed, rounds, SECURE_FAULT_SPEC)
    return _observe_campaign(run, campaign, population, rng, rounds), campaign


def _print_events(health: HealthMonitor) -> None:
    if health.events:
        print("| t (s) | rule | severity | state | detail |")
        print("| --- | --- | --- | --- | --- |")
        for event in health.events:
            print(
                f"| {event.t_s:.3f} | {event.rule} | {event.severity} | "
                f"{event.state} | {event.detail} |"
            )
    else:
        print("(no alert transitions)")
    summary = health.summary()
    print()
    print(
        f"fired: {summary['fired_total']}  resolved: {summary['resolved_total']}  "
        f"active: {len(summary['active'])}"
    )


def _assert_fired_and_resolved(health: HealthMonitor, rule: str) -> int:
    """Exit code 1 with a message unless ``rule`` both fired and resolved."""
    counts = health.summary()["by_rule"].get(rule, {})
    if not counts.get("fired"):
        print(f"ASSERTION FAILED: {rule} alert never fired", file=sys.stderr)
        return 1
    if counts.get("resolved", 0) < counts.get("fired", 0):
        print(
            f"ASSERTION FAILED: {rule} alert fired but never resolved",
            file=sys.stderr,
        )
        return 1
    print(f"{rule} alert fired and resolved, as scripted")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="campaign RNG seed")
    parser.add_argument("--rounds", type=int, default=10, help="campaign rounds to run")
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="record both campaigns (alerts.jsonl, events.jsonl, manifest.json) into "
        "DIR and DIR/secure",
    )
    parser.add_argument(
        "--assert-retry-storm",
        action="store_true",
        help="exit 1 unless the retry-storm alert both fired and resolved",
    )
    parser.add_argument(
        "--assert-shard-failure",
        action="store_true",
        help="exit 1 unless the secure campaign degraded (not aborted) and the "
        "shard-failure alert both fired and resolved",
    )
    args = parser.parse_args(argv)

    health = run_demo(seed=args.seed, rounds=args.rounds, out_dir=args.out)
    print(f"# Health demo: chaos campaign under '{FAULT_SPEC}'")
    print()
    _print_events(health)
    if args.out:
        print(f"alerts written to {Path(args.out) / ALERTS_FILENAME}")

    secure_health, secure_campaign = run_secure_demo(
        seed=args.seed, rounds=args.rounds, out_dir=args.out
    )
    print()
    print(
        f"# Secure-aggregation campaign under '{SECURE_FAULT_SPEC}' "
        f"(shard size {SECURE_SHARD_SIZE})"
    )
    print()
    _print_events(secure_health)
    print(
        f"rounds degraded: {secure_campaign.rounds_degraded} of "
        f"{secure_campaign.rounds_run} (shard excluded, round completed)"
    )
    if args.out:
        print(f"alerts written to {Path(args.out) / 'secure' / ALERTS_FILENAME}")

    status = 0
    if args.assert_retry_storm:
        status = _assert_fired_and_resolved(health, "retry-storm") or status
    if args.assert_shard_failure:
        if secure_campaign.rounds_degraded < 1:
            print(
                "ASSERTION FAILED: the shard blackout never degraded a round",
                file=sys.stderr,
            )
            status = 1
        status = _assert_fired_and_resolved(secure_health, "shard-failure") or status
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
