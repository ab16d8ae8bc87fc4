"""Served-round smoke: wire-protocol rounds must match their in-process twins.

Usage::

    python scripts/serve_demo.py                  # run both legs, assert, narrate
    python scripts/serve_demo.py --out out/serve_demo  # choose the artifact root

Two deterministic loopback campaigns, each a real TCP round through the full
control-message + frame protocol (HELLO, ANNOUNCE, REPORTS, RESULT):

1. **Lossless parity.**  A 32-client fleet served on a fixed seed must
   produce an estimate *bit-identical* to the in-process
   :class:`FederatedMeanQuery` round on the same population and seed -- the
   transport is not allowed to perturb the math.  The round records a
   standard flight-recorder artifact (``events.jsonl`` + ``manifest.json``)
   renderable with ``repro.cli report``.
2. **Adversarial uplinks.**  A 24-client fleet under a lossy emulation
   profile, with three clients shipping garbage instead of their frames,
   must match :func:`in_process_estimate` with exactly those three uplinks
   rejected (``wire_rejects_total``), and the recorded span stream must
   contain the ``uplink.reject`` accounting spans.  The round is LDP
   (epsilon 2), so its recorded manifest must also show the server's
   privacy books: epsilon 2.0 spent once, and one metered bit per
   accepted report.

Any parity miss, unaccounted reject, or missing artifact exits non-zero --
the CI chaos job runs this next to the failure-injection campaigns.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core import FixedPointEncoder
from repro.federated import (
    ClientDevice,
    EmulationProfile,
    FederatedMeanQuery,
    ServeConfig,
    fleet_values,
    in_process_estimate,
    run_loopback,
)
from repro.observability import ObservedRun, load_run
from repro.observability.recorder import EVENTS_FILENAME

LOSSLESS_N = 32
ADVERSARIAL_N = 24
CORRUPTED = (3, 11, 19)


def _recorded_loopback(directory: Path, config: ServeConfig, values, **kwargs):
    """Run one loopback round under a flight recorder; return (served, fleet, manifest)."""
    with ObservedRun(
        record_dir=directory,
        config={"command": "serve-demo", **config.to_manifest()},
        seed=config.seed,
        round_span="serve.round",
    ) as run:
        served, fleet = run_loopback(config, values, **kwargs)
    manifest = run.finalize(
        estimate=served.estimate, accountant=served.accountant, meter=served.meter
    )
    return served, fleet, manifest


def lossless_leg(out_root: Path) -> Path:
    """Leg 1: served estimate bit-identical to the in-process query."""
    values = fleet_values(LOSSLESS_N, seed=3)
    cfg = ServeConfig(
        n_clients=LOSSLESS_N, seed=11, deadline_s=30.0, registration_timeout_s=30.0
    )
    record_dir = out_root / "lossless"
    served, fleet, _manifest = _recorded_loopback(record_dir, cfg, values, fleet_seed=3)

    population = [ClientDevice(i, [float(v)]) for i, v in enumerate(values)]
    in_process = FederatedMeanQuery(
        FixedPointEncoder.for_integers(cfg.n_bits), mode="basic"
    ).run(population, rng=cfg.seed)
    if served.estimate.value != in_process.value:
        raise SystemExit(
            f"PARITY MISS: served {served.estimate.value!r} != "
            f"in-process {in_process.value!r}"
        )
    if served.wire_rejects or served.late_reports or fleet.uplinks_dropped:
        raise SystemExit("lossless round lost or rejected uplinks; it must not")
    artifact = load_run(record_dir)  # must be a loadable standard artifact
    print(
        f"leg 1 ok: {LOSSLESS_N} wire clients -> estimate "
        f"{served.estimate.value:.4f} == in-process FederatedMeanQuery "
        f"(artifact: {record_dir}, {artifact.manifest['events']['spans']} spans)"
    )
    return record_dir


def adversarial_leg(out_root: Path) -> Path:
    """Leg 2: lossy + corrupted clients; rejects accounted, twin matched."""
    values = fleet_values(ADVERSARIAL_N, seed=5)
    profile = EmulationProfile(loss_rate=0.25, latency_median_s=10.0)
    cfg = ServeConfig(
        n_clients=ADVERSARIAL_N,
        epsilon=2.0,
        seed=9,
        deadline_s=5.0,
        registration_timeout_s=30.0,
    )
    record_dir = out_root / "adversarial"
    served, fleet, manifest = _recorded_loopback(
        record_dir,
        cfg,
        values,
        profile=profile,
        fleet_seed=5,
        mutate=lambda cid, attempt, frame: b"\x00garbage" if cid in CORRUPTED else frame,
    )
    twin = in_process_estimate(
        values, cfg, profile=profile, fleet_seed=5, corrupted=CORRUPTED
    )
    if served.estimate.value != twin.value:
        raise SystemExit(
            f"PARITY MISS: served {served.estimate.value!r} != twin {twin.value!r}"
        )
    # Emulation loss applies after mutation, so the corrupted uplinks that
    # survived the network must ALL have been rejected at the server: every
    # sent uplink is either accepted (a survivor) or accounted as a reject.
    rejected = served.wire_rejects
    sent_corrupted = fleet.uplinks_sent - served.surviving_clients
    if rejected != sent_corrupted:
        raise SystemExit(
            f"REJECT MISS: {rejected} rejects for {sent_corrupted} bad uplinks"
        )
    events = (record_dir / EVENTS_FILENAME).read_text().splitlines()
    reject_spans = [
        span
        for span in (json.loads(line) for line in events if line.strip())
        if span.get("name") == "uplink.reject"
    ]
    if rejected and not reject_spans:
        raise SystemExit("no uplink.reject spans recorded for rejected uplinks")
    reasons = sorted({span["attributes"]["reason"] for span in reject_spans})
    # Served rounds meter through the same round core as in-process ones.
    spent = manifest["privacy"]["epsilon_spent"]
    metered = manifest["bit_meter"]["total_bits"]
    if spent != cfg.epsilon or metered != served.surviving_clients:
        raise SystemExit(
            f"METERING MISS: epsilon spent {spent} (expected {cfg.epsilon}), "
            f"{metered} metered bits for {served.surviving_clients} accepted reports"
        )
    print(
        f"leg 2 ok: {ADVERSARIAL_N} clients, {len(CORRUPTED)} adversarial, "
        f"loss {profile.loss_rate:.0%} -> estimate {served.estimate.value:.4f} == twin, "
        f"{rejected} uplinks rejected (reasons: {', '.join(reasons) or 'none'}), "
        f"{fleet.uplinks_dropped} dropped by emulation, epsilon {spent} spent, "
        f"{metered} bits metered (artifact: {record_dir})"
    )
    return record_dir


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("out/serve_demo"),
        help="artifact root (default: out/serve_demo)",
    )
    args = parser.parse_args(argv)
    lossless_leg(args.out)
    adversarial_leg(args.out)
    print("serve demo: both legs matched their in-process twins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
