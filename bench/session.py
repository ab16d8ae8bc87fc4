"""One workload session: set up, run a closed loop of queries, check every answer.

``run.py`` starts this file as a fresh subprocess per workload::

    python3 bench/session.py --workload NAME --seed N --seconds S --trace 0|1 \
        --out DIR [--setup-only]

It prints ``BENCH-READY <time.monotonic()>`` once set up (imports, input
build, one cold query) so the parent can time set-up from the moment it
spawned the process, then ``BENCH-RESULT <json>`` when done.  With
``--setup-only`` the result holds only the host probe's factor right after
set-up.

The loop is closed: one query in flight at a time, issued from this process
and thread; each query starts only after the previous one returned and was
checked.  A second of untimed warm-up queries follows the cold one.  The
untraced run times the bare public call.  The traced run spends the first
half of its time untraced (the baseline for ``trace_overhead``) and the second
half alternating a ``query`` span around the real call with a staged replay
of the same query under per-layer spans.

Right after each query, outside its timed interval, a host-speed probe
(``hostspeed.py``) measures how fast the host runs; each latency is
reported at nominal host speed, next to its wall-clock value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterator, NamedTuple

from hostspeed import HostSpeedProbe
from stats import percentile, quartiles

ROOT = Path(__file__).resolve().parent.parent

#: The untraced loop keeps going past its time budget until it has this many
#: queries, so each stretch's p90 has at least one sample beyond it and the
#: run at least ten.
MIN_QUERIES = 100

#: Each half of a traced run keeps going until it has this many queries.
MIN_TRACED_QUERIES = 10

#: Untimed (but checked) queries after the cold one, so caches and the
#: allocator settle before timing: this long, and at least this many.
WARMUP_S = 1.0
WARMUP_QUERIES = 3

#: ``clients_per_s`` and ``query_p90_s`` are medians over this many
#: consecutive stretches of the timed loop.  A burst of host contention
#: slows a minority of stretches; the median ignores it where one ratio or
#: percentile over the whole run would not.
STRETCHES = 10

#: Per-query layer values, in the order they are reported.  Each is the
#: median over traced queries; a layer the workload never enters reads 0.
ROW_METRICS = (
    "cohort.select_s",
    "sampling.assign_s",
    "client_plane.take_s",
    "client_plane.elicit_s",
    "client_plane.collect_s",
    "client_plane.clients",
    "client_plane.kernel_clients_per_s",
    "privacy.perturb_s",
    "protocol.reconstruct_s",
    "server.orchestration_s",
    "wire.encode_us_per_report",
    "wire.decode_us_per_report",
    "wire.bytes_per_report",
    "fleet.run_s",
    "fleet.uplinks_sent",
    "fleet.uplinks_dropped",
    "serve.start_s",
    "serve.round_s",
    "serve.collect_s",
    "serve.close_s",
    "serve.reconstruct_kernel_s",
    "serve.kernel_ceiling_clients_per_s",
    "serve.wire_rejects",
    "serve.late_reports",
    "serve.attempts",
    "serve.telemetry_clients",
    "transport.overhead_s",
    "transport.connections",
    "secure_agg.hierarchy_s",
    "secure_agg.setup_s",
    "secure_agg.mask_s",
    "secure_agg.unmask_s",
    "secure_agg.shard_p50_s",
    "secure_agg.shard_max_s",
    "secure_agg.shards",
    "secure_agg.shard_failures",
    "secure_agg.dropouts",
    "secure_agg.masks_per_client",
)


class Recorder:
    """In-memory span log for the traced run, written out when it ends.

    Spans carry the query index as their trace id.  A *side* span times a
    kernel outside the query's own path (a socket-free ceiling, a standalone
    perturbation), so it is left out when the layer spans are subtracted
    from the query span.  Parents are explicit rather than a stack, so
    spans opened by concurrent coroutines stay well formed.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.trace = 0
        self.parent: int | None = None
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, side: bool = False) -> Iterator[int]:
        span_id = len(self.spans) + 1
        record: dict[str, Any] = {
            "trace": self.trace,
            "span_id": span_id,
            "parent_id": self.parent,
            "name": name,
            "side": side,
        }
        self.spans.append(record)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            record["start_s"] = start - self._origin
            record["duration_s"] = time.perf_counter() - start


def _attempt(workload, state, i: int):
    """Run query ``i``; an exception is the outcome, counted as a failure."""
    try:
        return workload.query(state, i)
    except Exception as exc:  # the loop must survive a failed query
        traceback.print_exc(file=sys.stderr)
        return exc


class Tally:
    """Checks each answer as it returns and keeps only what the metrics need.

    Holding every outcome until the loop ends would grow the session's memory
    and garbage-collection work with the query count, and both would leak
    into the numbers being measured.
    """

    def __init__(self, workload, state) -> None:
        self.workload = workload
        self.state = state
        self.truth = state.truth().mean
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[float] = []

    def add(self, i: int, outcome) -> int:
        """Check query ``i``'s outcome; returns the clients it folded in."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failures.append(f"query {i}: {outcome!r}")
            return 0
        try:
            reason = self.workload.check(self.state, i, outcome)
        except Exception as exc:  # a crashing check is a failed answer
            reason = f"check raised {exc!r}"
        if reason is not None:
            self.failures.append(f"query {i}: {reason}")
        self.errors.append(self.workload.estimate(outcome) - self.truth)
        return self.workload.clients(outcome)

    def nrmse(self) -> float:
        if not self.errors:
            return math.inf
        rmse = math.sqrt(sum(e * e for e in self.errors) / len(self.errors))
        return rmse / abs(self.truth)


def _timed(workload, state) -> Callable[[int], tuple[Any, float]]:
    """Query ``i`` timed around the bare public call."""

    def each(i: int):
        start = time.perf_counter()
        outcome = _attempt(workload, state, i)
        return outcome, time.perf_counter() - start

    return each


class Loop(NamedTuple):
    """What one closed loop measured, query by query."""

    #: Latency at nominal host speed: the wall-clock latency over the
    #: slowdown factor the host probe measured right after the query.
    latencies: list[float]
    #: Wall-clock latency.
    wall_latencies: list[float]
    #: How many clients each query folded in.
    clients: list[int]
    wall_s: float


def _loop(
    tally: Tally, first: int, seconds: float, min_queries: int, each, speed: HostSpeedProbe
) -> Loop:
    """Closed loop from query ``first``.

    ``each(i)`` runs query ``i`` and returns ``(outcome, latency_s)``.  The
    host is probed and the answer checked after the latency is taken, so
    neither costs query time.  The probe runs first, to catch the host in
    the state the query ran in.
    """
    loop = Loop([], [], [], 0.0)
    start = time.perf_counter()
    deadline = start + seconds
    i = first
    while True:
        outcome, latency = each(i)
        loop.latencies.append(latency / speed.sample())
        loop.wall_latencies.append(latency)
        loop.clients.append(tally.add(i, outcome))
        i += 1
        now = time.perf_counter()
        if now >= deadline and len(loop.latencies) >= min_queries:
            return loop._replace(wall_s=now - start)


def _stretches(n: int) -> list[slice]:
    """``STRETCHES`` consecutive, near-equal slices of ``n`` queries."""
    cuts = [round(k * n / STRETCHES) for k in range(STRETCHES + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _timings(latencies: list[float], clients: list[int]) -> dict[str, float]:
    """The timed end-to-end metrics of one loop's latencies."""
    stretches = _stretches(len(latencies))
    return {
        # Clients folded in per second spent in queries, per stretch.
        "clients_per_s": median(sum(clients[s]) / sum(latencies[s]) for s in stretches),
        "query_p50_s": median(latencies),
        "query_p90_s": median(percentile(latencies[s], 0.9) for s in stretches),
    }


def _layer_row(spans: list[dict], measures: dict[str, float], query_s: float) -> dict[str, float]:
    """One traced query's layer values from its spans and replay measures."""
    times: dict[str, float] = defaultdict(float)
    partition = 0.0
    for span in spans:
        if span["name"] in ("query", "replay"):
            continue
        times[span["name"]] += span["duration_s"]
        if not span["side"]:
            partition += span["duration_s"]
    row = dict.fromkeys(ROW_METRICS, 0.0)
    for name, seconds in times.items():
        if name + "_s" in row:
            row[name + "_s"] = seconds
    for name, value in measures.items():
        if name in row:
            row[name] = float(value)
    row["server.orchestration_s"] = query_s - partition

    plane_s = sum(
        times[name]
        for name in ("client_plane.take", "client_plane.elicit", "client_plane.collect")
    )
    if plane_s > 0:
        plane_s += times["sampling.assign"]
        row["client_plane.kernel_clients_per_s"] = row["client_plane.clients"] / plane_s
    reports = measures.get("wire.reports", 0)
    if reports:
        row["wire.encode_us_per_report"] = times["wire.encode"] / reports * 1e6
        row["wire.decode_us_per_report"] = times["wire.decode"] / reports * 1e6
        kernels_s = (
            times["sampling.assign"]
            + times["wire.encode"]
            + times["wire.decode"]
            + times["serve.reconstruct_kernel"]
        )
        row["serve.kernel_ceiling_clients_per_s"] = reports / kernels_s
        row["transport.overhead_s"] = times["serve.round"] - kernels_s
    return row


class TracedQueries:
    """A ``query`` span around each real call, then the staged replay of it."""

    def __init__(self, workload, state) -> None:
        self.workload = workload
        self.state = state
        self.rec = Recorder()
        self.rows: list[dict[str, float]] = []
        self.parities: list[bool] = []

    def each(self, i: int):
        rec = self.rec
        rec.trace, rec.parent = i, None
        with rec.span("query"):
            outcome = _attempt(self.workload, self.state, i)
        query_span = rec.spans[-1]
        first_span = len(rec.spans)
        with rec.span("replay") as replay_id:
            rec.parent = replay_id
            try:
                replay = self.workload.replay(self.state, i, rec)
            except Exception:  # a stale replay must not fail the run
                traceback.print_exc(file=sys.stderr)
                replay = None
        rec.parent = None
        self.parities.append(
            replay is not None
            and replay.parity
            and not isinstance(outcome, Exception)
            and replay.value == self.workload.estimate(outcome)
        )
        if replay is not None:
            self.rows.append(
                _layer_row(rec.spans[first_span:], replay.measures, query_span["duration_s"])
            )
        return outcome, query_span["duration_s"]


def run_session(
    workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    n_clients: int | None = None,
    min_queries: int = MIN_QUERIES,
    on_ready: Callable[[], None] | None = None,
    setup_only: bool = False,
) -> dict[str, Any]:
    """Set up ``workload``, run its loop, check every answer; returns the record.

    ``n_clients`` shrinks the workload (tests run it at toy size).  With
    ``setup_only`` the record holds only ``setup_host_factor``: the host
    probe's factor (every kernel, since set-up does every kind of work)
    right after set-up.
    """
    state = workload.setup(seed, n_clients)
    cold = _attempt(workload, state, 0)
    if on_ready is not None:
        on_ready()
    with HostSpeedProbe() as probe:
        setup_factor = probe.sample()
    if setup_only:
        return {"setup_host_factor": setup_factor}

    with HostSpeedProbe(workload.probe) as speed:
        record = _measure(workload, state, cold, seed, seconds, trace, min_queries, speed)
    q1, factor, q3 = quartiles(speed.samples)
    record.update(
        setup_host_factor=setup_factor,
        host_factor={
            "kernels": list(workload.probe),
            "median": factor, "q1": q1, "q3": q3, "samples": len(speed.samples),
        },
    )
    return record


def _measure(workload, state, cold, seed, seconds, trace, min_queries, speed) -> dict[str, Any]:
    """Warm up, then run the timed loop (or the two traced halves)."""
    tally = Tally(workload, state)
    tally.add(0, cold)
    timed = _timed(workload, state)
    warm = _loop(tally, 1, WARMUP_S, WARMUP_QUERIES, timed, speed)
    first = 1 + len(warm.latencies)
    record: dict[str, Any] = {"workload": workload.name, "seed": seed, "traced": trace}
    if trace:
        plain = _loop(tally, first, seconds / 2, MIN_TRACED_QUERIES, timed, speed)
        traced = TracedQueries(workload, state)
        traced_loop = _loop(
            tally, first + len(plain.latencies), seconds / 2, MIN_TRACED_QUERIES,
            traced.each, speed,
        )
        per_layer = {
            name: median(row[name] for row in traced.rows) if traced.rows else 0.0
            for name in ROW_METRICS
        }
        per_layer["trace_overhead"] = median(traced_loop.latencies) / median(plain.latencies) - 1
        per_layer["replay_parity"] = sum(traced.parities) / len(traced.parities)
        record.update(
            per_layer=per_layer,
            queries=len(plain.latencies) + len(traced_loop.latencies),
            traced_queries=len(traced_loop.latencies),
            # Wall-clock, like the layer spans it is compared with.
            traced_query_p50_s=median(traced_loop.wall_latencies),
            spans=traced.rec.spans,
        )
    else:
        loop = _loop(tally, first, seconds, min_queries, timed, speed)
        record.update(
            queries=len(loop.latencies),
            wall_s=loop.wall_s,
            samples={"stretches": len(_stretches(len(loop.latencies))), "nrmse": len(tally.errors)},
            end_to_end=dict(
                _timings(loop.latencies, loop.clients),
                nrmse=tally.nrmse(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ),
            wall_clock=_timings(loop.wall_latencies, loop.clients),
        )
    record.update(
        attempted=tally.attempted, failed=len(tally.failures), failures=tally.failures[:10]
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    record = run_session(
        workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        on_ready=lambda: print(f"BENCH-READY {time.monotonic()!r}", flush=True),
        setup_only=args.setup_only,
    )
    record["environment"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS"),
        "REPRO_BATCH_CHUNK": os.environ.get("REPRO_BATCH_CHUNK"),
    }
    spans = record.pop("spans", None)
    if spans is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with path.open("w") as handle:
            for span in spans:
                handle.write(json.dumps(dict(span, workload=args.workload)) + "\n")
        record["spans_path"] = str(path)
    print("BENCH-RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
