"""The benchmark's four round workloads.

Each workload builds its inputs from the run seed alone and exposes:

* ``setup(seed, n_clients=None)`` -- the inputs a user would hold (population
  values, the configured query object); ``n_clients`` shrinks a workload to
  toy size for tests;
* ``query(state, i)`` -- one end-to-end estimate through the public API, with
  per-query randomness derived from the run seed and the query index;
* ``check(state, i, outcome)`` -- ``None`` when the answer is right, else a
  one-line reason; run right after the query, outside its timed interval;
* ``replay(state, i, rec)`` -- a staged re-run of query ``i`` that calls each
  layer's public function under its own benchmark-side span (a
  ``session.Recorder``) and reports whether it reproduced the query's answer.

Why these four: each stresses a different layer of the round (README.md has
the full rationale and the predicted layer -> metric map).

* ``inproc-basic-1m``: the columnar client-plane kernels over a working set
  larger than cache; wire, serve and secure aggregation are bypassed.
* ``inproc-adaptive-ldp-100k``: the paper's default protocol (two adaptive
  rounds, caching, randomized response) on an in-cache cohort, where
  per-query fixed costs of the round core weigh most.
* ``served-256``: a lossless round over loopback TCP with telemetry on, fresh
  server and fleet per round; wire, fleet, serve and transport dominate.
* ``secure-1k``: hierarchical secure aggregation with 10% dropout, so mask
  expansion, Shamir setup and dropout recovery dominate.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis import per_report_bit_variance
from repro.core.client_plane import ClientBatch, collect_client_reports, elicit_values
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import bit_means_from_stats, combine_round_stats
from repro.core.results import MeanEstimate
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.core.squashing import squash_bit_means
from repro.exceptions import SecureAggregationError
from repro.federated import (
    ClientFleet,
    DropoutModel,
    FederatedMeanQuery,
    RoundServer,
    ServeConfig,
    fleet_values,
    in_process_estimate,
    run_loopback,
)
from repro.federated.client import BitReport
from repro.federated.secure_agg import SecureAggregationSession
from repro.federated.secure_agg.hierarchy import hierarchical_secure_sum, shard_bounds
from repro.federated.secure_agg.protocol import default_threshold
from repro.federated.wire import (
    MESSAGE_HEADER_SIZE,
    MSG_REPORTS,
    decode_batch_array,
    decode_message_header,
    encode_batch,
    encode_message,
)
from repro.privacy.randomized_response import RandomizedResponse

#: Every workload encodes values as 10-bit unsigned integers (the served
#: round's default encoding), so the population is the fleet's clipped
#: Normal(600, 100) on a unit grid.
ENCODER = FixedPointEncoder.for_integers(10)

#: A checked estimate may sit at most this many predicted standard
#: deviations from the population mean.
Z_BOUND = 6.0

# Seed-derivation keys: the population and the side draws of a replay never
# share a stream with the queries.
_POPULATION = 0x504F50
_SIDE = 0x534944


def derive(*keys: int) -> int:
    """A 32-bit seed that is a pure function of ``keys`` (run seed first)."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


@dataclass
class Replay:
    """What a staged replay reproduced, plus per-query layer values no span times.

    ``value`` is compared bit for bit with the query's estimate; ``parity``
    carries the replay's own cross-checks (secure sum vs plaintext sums,
    socket-free kernels vs the served estimate).
    """

    value: float | None = None
    parity: bool = True
    measures: dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Inputs and the accuracy check shared by every workload
# ----------------------------------------------------------------------
@dataclass
class Truth:
    """The population mean the protocol estimates, and its true bit means."""

    mean: float
    bit_means: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, encoder: FixedPointEncoder) -> "Truth":
        encoded = encoder.encode(values)
        return cls(
            mean=encoder.decode_scalar(float(encoded.mean())),
            bit_means=encoder.true_bit_means(values),
        )


def z_bound_failure(
    estimate: MeanEstimate,
    truth: Truth,
    encoder: FixedPointEncoder,
    epsilon: float | None = None,
) -> str | None:
    """Reason the estimate is outside ``Z_BOUND`` predicted deviations, else None.

    The variance is Lemma 3.1's ``sum_j 4**j v_j / c_j`` over the realized
    per-bit report counts (``v_j`` from :func:`per_report_bit_variance`,
    which includes randomized response); a bit with no reports is estimated
    as 0, a known bias that shifts the expected value instead.
    """
    counts = np.asarray(estimate.counts)
    variance = 0.0
    bias = 0.0
    for j, (mean, count) in enumerate(zip(truth.bit_means, counts)):
        if count > 0:
            variance += 4.0**j * per_report_bit_variance(float(mean), epsilon) / count
        else:
            bias -= 2.0**j * float(mean)
    expected = truth.mean + bias * encoder.scale
    sigma = math.sqrt(variance) * encoder.scale
    error = abs(estimate.value - expected)
    if error > Z_BOUND * sigma + 1e-9 * encoder.scale:
        return (
            f"estimate {estimate.value!r} is {error:.4g} from {expected:.6g}, "
            f"beyond {Z_BOUND:g} sigma = {Z_BOUND * sigma:.4g}"
        )
    return None


@dataclass
class Inputs:
    """What a user holds before querying: the population and the query object."""

    values: np.ndarray
    seed: int
    batch: ClientBatch | None = None
    query: FederatedMeanQuery | None = None
    _truth: Truth | None = None

    def truth(self) -> Truth:
        """The population mean the protocol estimates (computed on first use)."""
        if self._truth is None:
            self._truth = Truth.of(self.values, ENCODER)
        return self._truth


# ----------------------------------------------------------------------
# In-process and secure rounds: FederatedMeanQuery over a columnar batch
# ----------------------------------------------------------------------
class QueryWorkload:
    """``FederatedMeanQuery.run`` over the whole population, one query per call.

    ``probe`` names the host-probe kernels (``hostspeed.py``) that match
    where the query's time goes.
    """

    def __init__(
        self,
        name: str,
        n_clients: int,
        make_query: Callable[[], FederatedMeanQuery],
        probe: tuple[str, ...],
    ) -> None:
        self.name = name
        self.n_clients = n_clients
        self.make_query = make_query
        self.probe = probe

    def setup(self, seed: int, n_clients: int | None = None) -> Inputs:
        values = fleet_values(n_clients or self.n_clients, derive(seed, _POPULATION))
        return Inputs(values, seed, ClientBatch.from_values(values), self.make_query())

    def query(self, pop: Inputs, i: int) -> MeanEstimate:
        return pop.query.run(pop.batch, rng=derive(pop.seed, i))

    def clients(self, estimate: MeanEstimate) -> int:
        return estimate.n_clients

    def estimate(self, estimate: MeanEstimate) -> float:
        return estimate.value

    def check(self, pop: Inputs, i: int, estimate: MeanEstimate) -> str | None:
        q = pop.query
        n = len(pop.batch)
        for r, summary in enumerate(estimate.rounds, 1):
            if int(summary.counts.sum()) != summary.n_clients:
                return (
                    f"round {r}: {int(summary.counts.sum())} reports "
                    f"for {summary.n_clients} clients"
                )
        folded = sum(summary.n_clients for summary in estimate.rounds)
        if q.secure_aggregation:
            if not 0 < folded <= n:
                return f"secure round folded {folded} of {n} clients"
        elif folded != n:
            return f"rounds folded {folded} clients, cohort has {n}"
        epsilon = getattr(q.perturbation, "epsilon", None)
        return z_bound_failure(estimate, pop.truth(), q.encoder, epsilon)

    # -- staged replay --------------------------------------------------
    def replay(self, pop: Inputs, i: int, rec) -> Replay:
        q = pop.query
        out = Replay()
        gen = np.random.default_rng(derive(pop.seed, i))
        side_gen = np.random.default_rng(derive(pop.seed, i, _SIDE))
        with rec.span("cohort.select"):
            cohort = q.selector.select(pop.batch, None, None, gen)
        if q.mode == "basic":
            sums, counts = self._round(q, cohort, q.schedule, gen, side_gen, rec, out)
            with rec.span("protocol.reconstruct"):
                means = bit_means_from_stats(sums, counts, q.perturbation)
        else:
            with rec.span("cohort.select"):
                n_round1 = min(max(int(round(q.delta * len(cohort))), 1), len(cohort) - 1)
                order = gen.permutation(len(cohort))
            with rec.span("client_plane.take"):
                cohort1 = cohort.take(order[:n_round1])
                cohort2 = cohort.take(order[n_round1:])
            schedule1 = BitSamplingSchedule.geometric(q.encoder.n_bits, gamma=q.gamma)
            sums1, counts1 = self._round(q, cohort1, schedule1, gen, side_gen, rec, out)
            with rec.span("protocol.reconstruct"):
                means1 = bit_means_from_stats(sums1, counts1, q.perturbation)
            schedule2 = BitSamplingSchedule.from_bit_means(means1, alpha=q.alpha)
            sums2, counts2 = self._round(q, cohort2, schedule2, gen, side_gen, rec, out)
            with rec.span("protocol.reconstruct"):
                means2 = bit_means_from_stats(sums2, counts2, q.perturbation)
                means, _ = combine_round_stats([means1, means2], [counts1, counts2])
        with rec.span("protocol.reconstruct"):
            if q.perturbation is not None:
                means, _ = squash_bit_means(means, np.zeros_like(means))
            out.value = q.encoder.decode_scalar(float(q.encoder.powers @ means))
        return out

    def _round(self, q, clients, schedule, gen, side_gen, rec, out):
        """One round of ``FederatedMeanQuery._run_round``, layer by layer."""
        n = len(clients)
        with rec.span("sampling.assign"):
            assignment = central_assignment(n, schedule, gen)
        alive = np.ones(n, dtype=bool)
        if q.dropout is not None:
            with rec.span("sampling.dropout"):
                alive = q.dropout.draw_survivors(n, gen)
        survivors = np.flatnonzero(alive)
        with rec.span("client_plane.take"):
            live = clients.take(survivors)
        with rec.span("client_plane.elicit"):
            values = elicit_values(live, q.elicitation, gen, chunk=q.chunk_clients)
        out.measures["client_plane.clients"] = (
            out.measures.get("client_plane.clients", 0) + survivors.size
        )
        if q.secure_aggregation:
            return self._secure_round(q, values, assignment, alive, gen, side_gen, rec, out)
        with rec.span("client_plane.collect"):
            sums, counts = collect_client_reports(
                values, q.encoder, assignment[survivors], q.perturbation, gen,
                chunk=q.chunk_clients,
            )
        if q.perturbation is not None:
            bits = (
                (q.encoder.encode(values) >> assignment[survivors].astype(np.uint64))
                & np.uint64(1)
            ).astype(np.uint8)
            with rec.span("privacy.perturb", side=True):
                q.perturbation.perturb_bits(bits, side_gen)
        return sums, counts

    def _secure_round(self, q, values, assignment, alive, gen, side_gen, rec, out):
        """The secure collect stage: per-client vectors, then the shard tree."""
        n_bits = q.encoder.n_bits
        length = 2 * n_bits
        n = alive.size
        survivors = np.flatnonzero(alive)
        with rec.span("client_plane.collect"):
            encoded = q.encoder.encode(values)
            bits = np.zeros(n, dtype=np.int64)
            bits[survivors] = (
                (encoded >> assignment[survivors].astype(np.uint64)) & np.uint64(1)
            ).astype(np.int64)
            vectors = np.zeros((n, length), dtype=np.int64)
            vectors[survivors, assignment[survivors]] = 1
            vectors[survivors, n_bits + assignment[survivors]] = bits[survivors]
        with rec.span("secure_agg.hierarchy"):
            result = hierarchical_secure_sum(
                vectors, alive, shard_size=q.shard_size, workers=1, rng=gen
            )
        included = result.included
        plain = np.concatenate(
            [
                np.bincount(assignment[included], minlength=n_bits),
                np.bincount(assignment[included], weights=bits[included], minlength=n_bits),
            ]
        ).astype(np.int64)
        out.parity &= bool(np.array_equal(result.total, plain))

        # Session phases, shard by shard, on the same submissions.
        side_total = np.zeros(length, dtype=np.int64)
        for lo, hi in shard_bounds(n, q.shard_size):
            if hi - lo < 2:
                continue
            local = np.flatnonzero(alive[lo:hi])
            with rec.span("secure_agg.setup", side=True):
                session = SecureAggregationSession(
                    hi - lo, length, default_threshold(hi - lo), rng=side_gen
                )
            with rec.span("secure_agg.mask", side=True):
                session.submit_batch(local, vectors[lo:hi][local])
            with rec.span("secure_agg.unmask", side=True):
                try:
                    side_total += np.asarray(session.finalize(), dtype=np.int64)
                except SecureAggregationError:
                    pass
        out.parity &= bool(np.array_equal(side_total, result.total))

        durations = sorted(s.duration_s for s in result.shards)
        submitted = sum(s.submitted for s in result.shards)
        out.measures.update(
            {
                "secure_agg.shard_p50_s": float(np.median(durations)),
                "secure_agg.shard_max_s": durations[-1],
                "secure_agg.shards": len(result.shards),
                "secure_agg.shard_failures": len(result.failed_shards),
                "secure_agg.dropouts": sum(s.dropouts for s in result.shards),
                # n - 1 pairwise masks plus one self-mask per submitter.
                "secure_agg.masks_per_client": (
                    sum(s.submitted * s.n_clients for s in result.shards) / submitted
                    if submitted
                    else 0.0
                ),
            }
        )
        counts = result.total[:n_bits].astype(np.int64)
        sums = result.total[n_bits:].astype(np.float64)
        return sums, counts


# ----------------------------------------------------------------------
# Served rounds: RoundServer + ClientFleet over loopback TCP
# ----------------------------------------------------------------------
class ServedWorkload:
    """``run_loopback`` with a fresh server and fleet per round (the defaults:
    lossless, telemetry on)."""

    #: A served round's time goes to Python objects in one asyncio event loop.
    probe = ("objects", "event_loop")

    def __init__(self, name: str, n_clients: int) -> None:
        self.name = name
        self.n_clients = n_clients

    def setup(self, seed: int, n_clients: int | None = None) -> Inputs:
        return Inputs(fleet_values(n_clients or self.n_clients, derive(seed, _POPULATION)), seed)

    def round_config(self, fleet: Inputs, i: int) -> tuple[ServeConfig, int]:
        """Query ``i``'s server config and fleet seed."""
        config = ServeConfig(n_clients=int(fleet.values.size), seed=derive(fleet.seed, i, 0))
        return config, derive(fleet.seed, i, 1)

    def query(self, fleet: Inputs, i: int):
        config, fleet_seed = self.round_config(fleet, i)
        return run_loopback(config, fleet.values, fleet_seed=fleet_seed)

    def clients(self, outcome) -> int:
        return outcome[0].planned_clients

    def estimate(self, outcome) -> float:
        return outcome[0].estimate.value

    def check(self, fleet: Inputs, i: int, outcome) -> str | None:
        result, fleet_result = outcome
        config, fleet_seed = self.round_config(fleet, i)
        n = config.n_clients
        twin = in_process_estimate(fleet.values, config, fleet_seed=fleet_seed)
        if result.estimate.value != twin.value:
            return f"served estimate {result.estimate.value!r} != twin {twin.value!r}"
        if result.surviving_clients != n:
            return f"{result.surviving_clients} of {n} clients survived a lossless round"
        if result.wire_rejects != 0:
            return f"{result.wire_rejects} wire rejects in an honest round"
        if fleet_result.uplinks_sent != n:
            return f"fleet sent {fleet_result.uplinks_sent} of {n} uplinks"
        return None

    # -- staged replay --------------------------------------------------
    def replay(self, fleet: Inputs, i: int, rec) -> Replay:
        config, fleet_seed = self.round_config(fleet, i)
        out = Replay()
        result, fleet_result = asyncio.run(self._staged_round(config, fleet, fleet_seed, rec))
        out.value = result.estimate.value
        out.parity = self._socket_free(config, fleet.values, rec, out) == out.value
        out.measures.update(
            {
                "fleet.uplinks_sent": fleet_result.uplinks_sent,
                "fleet.uplinks_dropped": fleet_result.uplinks_dropped,
                "serve.collect_s": result.duration_s,
                "serve.wire_rejects": result.wire_rejects,
                "serve.late_reports": result.late_reports,
                "serve.attempts": result.attempts,
                "serve.telemetry_clients": result.telemetry_clients,
                "transport.connections": result.registered_clients,
            }
        )
        return out

    async def _staged_round(self, config: ServeConfig, fleet: Inputs, fleet_seed: int, rec):
        """``run_loopback``'s sequence with each server call under its own span."""
        server = RoundServer(config)
        with rec.span("serve.start"):
            port = await server.start()
        clients = ClientFleet(fleet.values, seed=fleet_seed)

        async def run_fleet():
            with rec.span("fleet.run", side=True):
                return await clients.run(config.host, port)

        fleet_task = asyncio.create_task(run_fleet())
        try:
            with rec.span("serve.round"):
                result = await server.serve_round()
        except BaseException:
            fleet_task.cancel()
            await asyncio.gather(fleet_task, return_exceptions=True)
            await server.close()
            raise
        fleet_result = await fleet_task
        with rec.span("serve.close"):
            await server.close()
        return result, fleet_result

    def _socket_free(self, config: ServeConfig, values: np.ndarray, rec, out) -> float:
        """The served round's arithmetic without sockets: the kernel ceiling.

        Assign as the server does, encode and frame each client's report as
        the fleet does, decode the frames in one batch, and reconstruct.
        """
        encoder = config.encoder
        n = config.n_clients
        with rec.span("sampling.assign", side=True):
            assignment = central_assignment(n, config.schedule, config.seed)
        with rec.span("wire.encode", side=True):
            messages = []
            for client_id in range(n):
                bit_index = int(assignment[client_id])
                encoded = encoder.encode(np.asarray([values[client_id]]))
                bit = int((encoded[0] >> np.uint64(bit_index)) & np.uint64(1))
                frame = encode_batch(
                    [BitReport(client_id=client_id, bit_index=bit_index, bit=bit)]
                )
                messages.append(encode_message(MSG_REPORTS, frame, seq=1))
        with rec.span("wire.decode", side=True):
            payloads = []
            for message in messages:
                _kind, _seq, length = decode_message_header(message[:MESSAGE_HEADER_SIZE])
                payloads.append(message[MESSAGE_HEADER_SIZE : MESSAGE_HEADER_SIZE + length])
            reports = decode_batch_array(b"".join(payloads))
        with rec.span("serve.reconstruct_kernel", side=True):
            counts = np.bincount(reports.bit_indices, minlength=config.n_bits).astype(np.int64)
            sums = np.bincount(
                reports.bit_indices,
                weights=reports.bits.astype(np.float64),
                minlength=config.n_bits,
            )
            with rec.span("protocol.reconstruct", side=True):
                means = bit_means_from_stats(sums, counts, None)
                value = encoder.decode_scalar(float(encoder.powers @ means))
        out.measures["wire.bytes_per_report"] = len(messages[0])
        out.measures["wire.reports"] = n
        return value


WORKLOADS: dict[str, Any] = {
    workload.name: workload
    for workload in (
        # In-process rounds spend their time in NumPy kernels.
        QueryWorkload(
            "inproc-basic-1m",
            1_000_000,
            lambda: FederatedMeanQuery(ENCODER, mode="basic"),
            probe=("numpy",),
        ),
        QueryWorkload(
            "inproc-adaptive-ldp-100k",
            100_000,
            lambda: FederatedMeanQuery(
                ENCODER, mode="adaptive", perturbation=RandomizedResponse(epsilon=1.0)
            ),
            probe=("numpy",),
        ),
        ServedWorkload("served-256", 256),
        # Secure rounds mix NumPy mask kernels with per-shard Python code.
        QueryWorkload(
            "secure-1k",
            1024,
            lambda: FederatedMeanQuery(
                ENCODER,
                mode="basic",
                secure_aggregation=True,
                shard_size=32,
                dropout=DropoutModel(rate=0.1),
            ),
            probe=("numpy", "objects"),
        ),
    )
}
