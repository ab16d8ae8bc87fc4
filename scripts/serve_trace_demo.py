"""Distributed-tracing smoke: one served round, one merged end-to-end timeline.

Usage::

    python scripts/serve_trace_demo.py                       # run, assert, narrate
    python scripts/serve_trace_demo.py --out out/serve_trace_demo

One deterministic loopback campaign under simulated clocks: a 24-client
fleet on 8 connections of 3 clients each, played through the full wire
protocol (HELLO, ANNOUNCE with trace context, REPORTS, RESULT, TELEMETRY)
while a flight recorder captures the merged span stream.  The round must

1. match its in-process :func:`in_process_estimate` twin bit-for-bit --
   telemetry is observability, never arithmetic;
2. ingest telemetry from *every* fleet connection, whose client ranges
   together cover clients 0..23, with each remote span stamped with the
   server's deterministic round trace id (:func:`round_trace_id`), so
   client and server spans form one trace;
3. export as valid Chrome trace-event JSON (``trace.json`` next to the
   artifact) with the server phases on track 0 and one track per
   connection, labelled with its client range.

Both clocks are simulated (``SimClock`` server-side and per connection), and
nothing recorded names an OS-assigned port, so two runs write byte-identical
``run/events.jsonl``, ``run/manifest.json`` and ``trace.json``.  Any parity
miss, missing client, foreign trace id, or malformed export exits non-zero --
the CI chaos job runs this twice next to the failure-injection campaigns,
compares the two runs' files byte for byte, and uploads ``trace.json`` for
inspection in Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.federated import (
    ServeConfig,
    fleet_values,
    in_process_estimate,
    round_trace_id,
    run_loopback,
)
from repro.federated.fleet import fleet_ranges
from repro.observability import (
    ROUND_SPAN,
    ObservedRun,
    SimClock,
    load_run,
    write_chrome_trace,
)
from repro.observability.chrome_trace import SERVER_TRACK

N_CLIENTS = 24
SEED = 11
FLEET_SEED = 3
FLEET_SPANS = {"fleet.round", "fleet.encode", "fleet.uplink"}
#: The fleet's connections, as ``(first client id, clients)``.
RANGES = {(lo, hi - lo) for lo, hi in fleet_ranges(N_CLIENTS)}


def run_traced_leg(out_root: Path) -> Path:
    """Serve one recorded round with telemetry and verify the merged trace."""
    values = fleet_values(N_CLIENTS, seed=FLEET_SEED)
    cfg = ServeConfig(
        n_clients=N_CLIENTS, seed=SEED, deadline_s=30.0, registration_timeout_s=30.0
    )
    record_dir = out_root / "run"
    with ObservedRun(
        record_dir=record_dir,
        config={"command": "serve-trace-demo", **cfg.to_manifest()},
        seed=cfg.seed,
        sim_clock=True,
    ) as run:
        served, fleet = run_loopback(
            cfg,
            values,
            fleet_seed=FLEET_SEED,
            clock_factory=lambda: SimClock(start=1.0, step=0.001),
        )
    run.finalize(estimate=served.estimate)

    twin = in_process_estimate(values, cfg, fleet_seed=FLEET_SEED)
    if served.estimate.value != twin.value:
        raise SystemExit(
            f"PARITY MISS: served {served.estimate.value!r} != twin {twin.value!r}"
        )
    if (
        served.telemetry_clients != N_CLIENTS
        or fleet.telemetry_sent != N_CLIENTS
        or served.connections != len(RANGES)
    ):
        raise SystemExit(
            f"TELEMETRY MISS: {served.telemetry_clients} ingested / "
            f"{fleet.telemetry_sent} sent for {N_CLIENTS} clients on "
            f"{served.connections} connections"
        )
    print(
        f"leg 1 ok: {N_CLIENTS} wire clients on {served.connections} connections -> "
        f"estimate {served.estimate.value:.4f} == in-process twin, telemetry "
        f"for {served.telemetry_clients} clients, "
        f"{served.remote_spans} remote spans ingested"
    )
    return record_dir


def verify_merged_trace(record_dir: Path) -> list:
    """Every client's spans must sit under the server's round trace id."""
    artifact = load_run(record_dir)
    spans = artifact.spans()
    expected_trace = round_trace_id(SEED)
    if artifact.manifest["config"].get("trace_id") != expected_trace:
        raise SystemExit("manifest trace_id does not match round_trace_id(seed)")
    remote = [span for span in spans if span.attributes.get("remote")]
    trace_ids = {span.attributes.get("trace_id") for span in remote}
    if trace_ids != {expected_trace}:
        raise SystemExit(
            f"TRACE MISS: remote spans carry trace ids {sorted(trace_ids)}, "
            f"expected only {expected_trace}"
        )
    ranges = {(int(span.attributes["client"]), int(span.attributes["clients"])) for span in remote}
    clients = {client for lo, k in ranges for client in range(lo, lo + k)}
    if ranges != RANGES or clients != set(range(N_CLIENTS)):
        raise SystemExit(
            f"TRACE MISS: telemetry from client ranges {sorted(ranges)}, "
            f"expected {sorted(RANGES)} covering 0..{N_CLIENTS - 1}"
        )
    names = {span.name for span in remote}
    if not FLEET_SPANS <= names:
        raise SystemExit(f"TRACE MISS: remote span names {sorted(names)}")
    round_ids = {span.span_id for span in spans if span.name == ROUND_SPAN}
    orphans = [
        span
        for span in remote
        if span.name == "fleet.round" and span.parent_id not in round_ids
    ]
    if orphans:
        raise SystemExit(f"{len(orphans)} fleet.round spans not parented to a round")
    if artifact.manifest["events"]["remote_spans"] != len(remote):
        raise SystemExit("manifest remote_spans count disagrees with event log")
    print(
        f"leg 2 ok: {len(remote)} remote spans from {len(ranges)} connections "
        f"covering {len(clients)} clients, all under trace {expected_trace}, "
        f"every fleet.round parented to {ROUND_SPAN}"
    )
    return spans


def export_timeline(record_dir: Path, spans) -> Path:
    """Write the Chrome trace next to the artifact and validate its shape."""
    trace_path = record_dir.parent / "trace.json"
    write_chrome_trace(trace_path, spans, label="serve-trace-demo")
    document = json.loads(trace_path.read_text())  # must be valid JSON on disk
    events = document["traceEvents"]
    if document["otherData"]["clients"] != N_CLIENTS:
        raise SystemExit(
            f"EXPORT MISS: client tracks cover {document['otherData']['clients']} "
            f"of {N_CLIENTS} clients"
        )
    tracks = {
        event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    expected = {"server"} | {f"clients {lo}-{lo + k - 1}" for lo, k in RANGES}
    if tracks != expected:
        raise SystemExit(f"EXPORT MISS: thread tracks {sorted(tracks)}")
    bad = [
        event
        for event in events
        if event["ph"] == "X" and (event["ts"] < 0.0 or event["dur"] < 1.0)
    ]
    if bad:
        raise SystemExit(f"EXPORT MISS: {len(bad)} events with bad ts/dur")
    server_events = sum(
        1 for e in events if e["ph"] == "X" and e["tid"] == SERVER_TRACK
    )
    print(
        f"leg 3 ok: {trace_path} holds {len(events)} trace events "
        f"({server_events} server-track) across {len(tracks)} tracks"
    )
    return trace_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("out/serve_trace_demo"),
        help="artifact root (default: out/serve_trace_demo)",
    )
    args = parser.parse_args(argv)
    record_dir = run_traced_leg(args.out)
    spans = verify_merged_trace(record_dir)
    export_timeline(record_dir, spans)
    print("serve trace demo: merged end-to-end timeline verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
