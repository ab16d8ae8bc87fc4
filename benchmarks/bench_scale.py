"""Scaling study: accuracy, wall-time, and client-plane throughput vs n.

Not a paper figure, but the operational question behind Figure 2a and the
deployment's "10s of thousands of devices" remark: how do error and server
cost scale with n?  The table doubles as a regression guard on the
vectorized hot path (the whole protocol should stay sub-linear in wall time
relative to naive per-client loops).

``test_columnar_round_throughput`` measures the columnar client plane:
clients/sec for full federated rounds over one struct-of-arrays
:class:`~repro.core.client_plane.ClientBatch` at each population size in
``REPRO_SCALE_CLIENTS`` (default ``100000,1000000``; ``make bench-scale``
raises it to 10**7), and a tracemalloc pass at the largest size proving the
round's allocations stay a small constant per client (chunked streaming, no
cohort x bits blowup).
"""

import asyncio
import os
import statistics
import time
import tracemalloc

import numpy as np

from benchmarks.conftest import run_once
from repro.core import AdaptiveBitPushing, ClientBatch, FixedPointEncoder
from repro.core.client_plane import batch_chunk_size
from repro.data.census import sample_ages
from repro.federated import FederatedMeanQuery

COHORTS = (1_000, 10_000, 100_000, 1_000_000)


def test_accuracy_and_walltime_scaling(benchmark, emit):
    rng = np.random.default_rng(0)
    encoder = FixedPointEncoder.for_integers(10)
    estimator = AdaptiveBitPushing(encoder)

    def run():
        rows = []
        for n in COHORTS:
            errors = []
            start = time.perf_counter()
            reps = 10 if n <= 100_000 else 3
            for _ in range(reps):
                ages = sample_ages(n, rng)
                errors.append(
                    (estimator.estimate(ages, rng).value - ages.mean()) / ages.mean()
                )
            elapsed = (time.perf_counter() - start) / reps
            rows.append((n, float(np.sqrt(np.mean(np.square(errors)))), elapsed))
        return rows

    rows = run_once(benchmark, run)
    lines = ["### Scaling: adaptive bit-pushing on census ages", "",
             "| n clients | NRMSE | s per estimate (incl. data gen) |", "|---|---|---|"]
    for n, nrmse, seconds in rows:
        lines.append(f"| {n:,} | {nrmse:.4f} | {seconds:.3f} |")
    emit("scaling", "\n".join(lines) + "\n")

    # Error decays with n (n^-1/2 shape); a million clients stay sub-second.
    nrmses = [r[1] for r in rows]
    assert nrmses[-1] < nrmses[0] / 5
    assert rows[-1][2] < 2.0


def _scale_sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_SCALE_CLIENTS", "").strip()
    if not raw:
        return (100_000, 1_000_000)
    return tuple(sorted({int(tok) for tok in raw.split(",") if tok.strip()}))


def _columnar_population(n: int, rng: np.random.Generator) -> ClientBatch:
    return ClientBatch.from_values(np.clip(rng.normal(600.0, 100.0, n), 0.0, None))


def _timed_round(query: FederatedMeanQuery, population, seed: int) -> float:
    start = time.perf_counter()
    query.run(population, rng=seed)
    return time.perf_counter() - start


def test_columnar_round_throughput(benchmark, emit):
    sizes = _scale_sizes()
    chunk = batch_chunk_size()
    encoder = FixedPointEncoder.for_integers(10)
    query = FederatedMeanQuery(encoder, mode="basic")
    rng = np.random.default_rng(12)

    def run():
        columnar = {}
        for n in sizes:
            population = _columnar_population(n, rng)
            # Best of two: the first pass over a fresh 8 B/client population
            # pays cold page faults.
            elapsed = min(_timed_round(query, population, seed=3) for _ in range(2))
            columnar[n] = {"seconds": elapsed, "clients_per_s": n / elapsed}

        # Memory-boundedness: re-run the largest columnar round under
        # tracemalloc, started *after* the population is built, so the peak
        # counts only what the round itself allocates.
        n_top = max(sizes)
        population = _columnar_population(n_top, rng)
        tracemalloc.start()
        query.run(population, rng=3)
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        return columnar, n_top, peak_bytes

    columnar, n_top, peak_bytes = run_once(benchmark, run)
    bytes_per_client = peak_bytes / n_top

    lines = [
        "### Columnar client plane: round throughput",
        "",
        f"(chunk = {chunk} clients)",
        "",
        "| n clients | s per round | clients/sec |",
        "|---|---|---|",
    ]
    for n, row in columnar.items():
        lines.append(f"| {n:,} | {row['seconds']:.3f} | {row['clients_per_s']:,.0f} |")
    lines += [
        "",
        f"tracemalloc peak at n = {n_top:,}: {peak_bytes / 1e6:.1f} MB "
        f"({bytes_per_client:.0f} B/client)",
    ]
    emit("scale_columnar", "\n".join(lines) + "\n")

    # Round allocations stay a small constant per client (no n x bits
    # temporaries; a ClientDevice list alone costs ~500+ B/client).
    assert bytes_per_client < 150.0, (
        f"round peak {bytes_per_client:.0f} B/client; chunked streaming should "
        "stay well under 150 B/client"
    )


#: Secure-aggregation study size: the acceptance target is >= 5x the
#: per-client loop's clients/sec at 10**4 clients.
SECURE_N = 10_000
SECURE_VECTOR_LENGTH = 16
SECURE_SHARD_SIZE = 32


def test_secure_agg_throughput(benchmark, emit):
    """Hierarchical vectorized masking vs the per-client submit loop.

    Both paths run the identical protocol over the identical shard tree
    (same sessions, same seeds, same Shamir recovery) and must produce the
    same total; the only difference is ``submit_batch`` + array kernels vs
    one ``submit`` call per client.
    """
    from repro.federated.secure_agg import (
        SecureAggregationSession,
        default_threshold,
        hierarchical_secure_sum,
        shard_bounds,
    )

    rng = np.random.default_rng(17)
    vectors = rng.integers(0, 2, size=(SECURE_N, SECURE_VECTOR_LENGTH)).astype(np.int64)

    def per_client_loop() -> tuple[np.ndarray, float]:
        start = time.perf_counter()
        total = np.zeros(SECURE_VECTOR_LENGTH, dtype=np.int64)
        for lo, hi in shard_bounds(SECURE_N, SECURE_SHARD_SIZE):
            k = hi - lo
            session = SecureAggregationSession(
                k,
                SECURE_VECTOR_LENGTH,
                threshold=default_threshold(k),
                rng=np.random.default_rng(lo),
            )
            for local in range(k):
                session.submit(local, [int(v) for v in vectors[lo + local]])
            total += np.asarray(session.finalize(), dtype=np.int64)
        return total, time.perf_counter() - start

    def run():
        # Best of two for the vectorized path (first pass pays warmup).
        vec_seconds = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            result = hierarchical_secure_sum(
                vectors, shard_size=SECURE_SHARD_SIZE, rng=1
            )
            vec_seconds = min(vec_seconds, time.perf_counter() - start)
        loop_total, loop_seconds = per_client_loop()
        np.testing.assert_array_equal(result.total, vectors.sum(axis=0))
        np.testing.assert_array_equal(loop_total, vectors.sum(axis=0))
        return vec_seconds, loop_seconds, len(result.shards)

    vec_seconds, loop_seconds, n_shards = run_once(benchmark, run)
    vec_rate = SECURE_N / vec_seconds
    loop_rate = SECURE_N / loop_seconds
    speedup = loop_seconds / vec_seconds

    emit(
        "scale_secure",
        "\n".join(
            [
                "### Secure aggregation: hierarchical vectorized masking",
                "",
                f"(n = {SECURE_N:,} clients, vector length "
                f"{SECURE_VECTOR_LENGTH}, shard size {SECURE_SHARD_SIZE}, "
                f"{n_shards} shards)",
                "",
                "| path | s per round | clients/sec |",
                "|---|---|---|",
                f"| vectorized hierarchical | {vec_seconds:.3f} | {vec_rate:,.0f} |",
                f"| per-client submit loop | {loop_seconds:.3f} | {loop_rate:,.0f} |",
                "",
                f"speedup: {speedup:.1f}x",
            ]
        )
        + "\n",
    )

    assert speedup >= 5.0, (
        f"secure-agg vectorized path is {speedup:.1f}x the per-client loop; "
        "acceptance floor is 5x"
    )


#: Served-round study size: one TCP loopback round of SERVE_N wire clients,
#: timed SERVE_ROUNDS times after one warm-up round, plus SERVE_CAMPAIGNS
#: concurrent independent campaigns in one event loop.
SERVE_N = 256
SERVE_ROUNDS = 9
SERVE_CAMPAIGNS = 4


def test_served_round_throughput(benchmark, emit):
    """Wire-served rounds over loopback TCP: reports/sec, single and concurrent.

    Every report crosses a real socket through the full control-message +
    frame protocol (HELLO, ANNOUNCE, REPORTS, RESULT), on the fleet's 8
    connections of 32 clients each, so this measures the serving stack end
    to end.  The estimate must stay bit-identical to the
    deterministic in-process twin -- throughput never buys back correctness.
    """
    from repro.federated import (
        ClientFleet,
        RoundServer,
        ServeConfig,
        fleet_values,
        in_process_estimate,
        run_loopback,
    )

    values = fleet_values(SERVE_N, seed=3)
    cfg = ServeConfig(
        n_clients=SERVE_N, seed=7, deadline_s=30.0, registration_timeout_s=30.0
    )
    twin = in_process_estimate(values, cfg, fleet_seed=3)

    async def campaign(seed: int):
        config = ServeConfig(
            n_clients=SERVE_N, seed=seed, deadline_s=30.0, registration_timeout_s=30.0
        )
        server = RoundServer(config)
        port = await server.start()
        fleet = ClientFleet(values, seed=3)
        fleet_task = asyncio.create_task(fleet.run(config.host, port))
        served = await server.serve_round()
        await fleet_task
        await server.close()
        return served

    async def concurrent_campaigns():
        return await asyncio.gather(
            *(campaign(seed) for seed in range(SERVE_CAMPAIGNS))
        )

    def run():
        # The warm-up round pays import/loop warmup; the median of the timed
        # rounds is what one host stall cannot move.
        rounds = []
        for _ in range(1 + SERVE_ROUNDS):
            start = time.perf_counter()
            served, fleet_result = run_loopback(cfg, values, fleet_seed=3)
            rounds.append(time.perf_counter() - start)
            assert served.estimate.value == twin.value
            assert fleet_result.uplinks_sent == SERVE_N
        single_seconds = statistics.median(rounds[1:])
        start = time.perf_counter()
        all_served = asyncio.run(concurrent_campaigns())
        concurrent_seconds = time.perf_counter() - start
        assert all(s.surviving_clients == SERVE_N for s in all_served)
        return single_seconds, concurrent_seconds

    single_seconds, concurrent_seconds = run_once(benchmark, run)
    single_rate = SERVE_N / single_seconds
    concurrent_reports = SERVE_N * SERVE_CAMPAIGNS
    concurrent_rate = concurrent_reports / concurrent_seconds

    emit(
        "scale_serve",
        "\n".join(
            [
                "### Served rounds: loopback TCP throughput",
                "",
                f"(n = {SERVE_N} wire clients per round; estimate bit-identical "
                "to the in-process twin)",
                "",
                "| scenario | s per round | reports/sec |",
                "|---|---|---|",
                f"| single round (median of {SERVE_ROUNDS}) | {single_seconds:.3f} | "
                f"{single_rate:,.0f} |",
                f"| {SERVE_CAMPAIGNS} concurrent campaigns | "
                f"{concurrent_seconds:.3f} | {concurrent_rate:,.0f} |",
            ]
        )
        + "\n",
    )

    # Floor, not a target: a loopback round of 256 clients on 8 fleet
    # connections must clear 10k reports/sec (about 50k/s on a 2-core VM)
    # or the asyncio serving stack has a structural problem.
    assert single_rate > 10_000.0, f"served rate {single_rate:,.0f} reports/s below floor"
