"""Server-side orchestration of federated bit-pushing queries.

:class:`FederatedMeanQuery` glues every substrate together the way the
deployed system does (Section 4.3): select an eligible cohort (minimum-size
enforced), plan a central-randomness bit assignment, adjust sampling
probabilities for the expected dropout rate, collect one-bit reports over a
lossy network from clients that may vanish mid-round, meter each disclosure,
optionally route the per-bit counters through secure aggregation, and
reconstruct the mean -- in one round (basic) or two (adaptive).

:meth:`FederatedMeanQuery.drive` is every round's one driver, over a
:class:`~repro.federated.rounds.Transport`: the in-memory round here, or
:mod:`repro.federated.serve`'s TCP server and served twin.  The arithmetic
is exactly :mod:`repro.core`'s: adaptive mode runs
:meth:`~repro.core.adaptive.AdaptiveBitPushing.run_rounds`, Algorithm 2's
one plan, with the attempt loop as its round.  This layer adds the systems
behaviour around it, so core tests guarantee correctness and federated
tests guarantee robustness.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveBitPushing
from repro.core.client_plane import (
    ClientBatch,
    collect_client_reports,
    elicit_values,
    report_bits,
)
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import BitPerturbation, decode_estimate
from repro.core.results import MeanEstimate
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.exceptions import ConfigurationError
from repro.federated.cohort import CohortSelector, Eligibility, Population, as_batch
from repro.federated.dropout import DropoutModel, DropoutRateTracker
from repro.federated.faults import FaultSchedule
from repro.federated.network import NetworkModel
from repro.federated.retry import RetryPolicy
from repro.federated.rounds import (
    Answer, Attempt, AttemptLoop, RoundOutcome, Transport, run_to_completion,
)
from repro.federated.secure_agg.hierarchy import (
    HierarchicalResult,
    ShardTask,
    aggregate_shards,
    shard_bounds,
)
from repro.observability import get_metrics, get_tracer
from repro.privacy.accountant import BitMeter, PrivacyAccountant
from repro.rng import ensure_rng

__all__ = ["RoundOutcome", "FederatedMeanQuery"]

_MODES = ("basic", "adaptive")


class _Excluding:
    """Eligibility minus a set of client ids: the pool a redrawn cohort comes from."""

    def __init__(self, eligibility: Eligibility | None, client_ids: np.ndarray) -> None:
        self.eligibility, self.client_ids = eligibility, client_ids

    def mask(self, batch: ClientBatch) -> np.ndarray:
        mask = ~np.isin(batch.client_ids, self.client_ids)
        return mask if self.eligibility is None else mask & self.eligibility.mask(batch)


class FederatedMeanQuery:
    """A configurable federated mean query over a device population.

    Parameters
    ----------
    encoder:
        Fixed-point encoding (clipping included) for the queried metric.
    mode:
        ``"adaptive"`` (two rounds, default) or ``"basic"`` (one round).
    schedule:
        Basic-mode sampling schedule (default: the Eq. 7 ``p_j \\propto 2**j``,
        i.e. weighted ``alpha = 1.0``).
    gamma, alpha, delta, caching:
        Adaptive-mode parameters of :attr:`plan`, the
        :class:`~repro.core.adaptive.AdaptiveBitPushing` whose
        :meth:`~repro.core.adaptive.AdaptiveBitPushing.run_rounds` runs the
        two rounds.  It validates them at construction, in either mode.
    perturbation:
        Optional local-DP bit perturbation (randomized response).
    squash_multiple:
        Bit-squash threshold in expected-DP-noise multiples (needs a
        perturbation with an ``epsilon``).
    dropout, network:
        Failure models; ``None`` disables each.
    selector:
        Cohort policy (default: no eligibility filter, minimum size 1).
    elicitation:
        Multi-value reduction strategy (``"sample"`` by default).
    min_reports_per_bit:
        Dropout-aware floor: sampled bits are guaranteed this many expected
        reports by mixing the schedule toward them ("sampling probabilities
        were auto-adjusted based on the dropout rate").
    secure_aggregation:
        Route per-bit counters through hierarchical pairwise-masked secure
        aggregation instead of plaintext summation.  The *planned* cohort is
        sharded, so mid-round dropout becomes real intra-session dropout
        with per-shard recovery; a shard that falls below its 2/3 threshold
        is excluded and the round degrades instead of aborting.  Shards run
        in parallel under ``REPRO_WORKERS`` (bit-identical for any worker
        count).
    shard_size:
        Clients per secure-aggregation shard (sessions are O(shard**2)).  A
        remainder of one client folds into the previous shard rather than
        bypassing masking.
    faults:
        Optional :class:`~repro.federated.faults.FaultSchedule`; its clock
        advances once per round *attempt* and the active fault overrides
        wrap ``dropout``/``network`` for that attempt.
    min_quorum:
        Minimum folded clients for an attempt to count (default 1: only a
        zero-survivor round fails).  Below it the attempt fails and is
        retried under ``retry``; at or above it the round completes, flagged
        degraded when survivors fall below
        :data:`~repro.federated.rounds.DEGRADED_FRACTION` of the plan.
    retry:
        :class:`RetryPolicy` for failed attempts (``None``: a failed round raises).
    meter, metric_name:
        Optional :class:`BitMeter` recording every folded client's
        disclosure of ``metric_name`` (over-disclosure raises).
    accountant:
        Optional :class:`PrivacyAccountant`: under an LDP ``perturbation``
        every *completed* attempt records one ledger entry of its epsilon
        (sequential composition; a failed attempt spends nothing).
    chunk_clients:
        Chunk size for the columnar client-plane kernels (``None``: the
        ``REPRO_BATCH_CHUNK`` default).  A pure performance/memory knob --
        results are bit-identical for every value.

    The population handed to :meth:`run` is a columnar
    :class:`~repro.core.client_plane.ClientBatch` or a list of device
    records, which :meth:`run` converts once with
    :meth:`~repro.core.client_plane.ClientBatch.from_devices` before cohort
    selection (O(n) Python: build large populations columnar).  Every round
    elicits, encodes, perturbs, and aggregates the batch in bounded-memory
    chunks.  Secure aggregation feeds it through the hierarchical shard tree
    (:mod:`repro.federated.secure_agg.hierarchy`): report bits masked in
    the 8-bit ring, submission matrices built one shard at a time, one
    Philox pass per phase for each group of shards, at most
    ``REPRO_WORKERS`` groups in flight.
    """

    def __init__(
        self,
        encoder: FixedPointEncoder,
        mode: str = "adaptive",
        schedule: BitSamplingSchedule | None = None,
        gamma: float | None = None,
        alpha: float = 0.5,
        delta: float = 1.0 / 3.0,
        caching: bool = True,
        perturbation: BitPerturbation | None = None,
        squash_multiple: float = 0.0,
        dropout: DropoutModel | None = None,
        network: NetworkModel | None = None,
        selector: CohortSelector | None = None,
        meter: BitMeter | None = None,
        elicitation: str = "sample",
        metric_name: str = "metric",
        min_reports_per_bit: int = 0,
        secure_aggregation: bool = False,
        shard_size: int = 32,
        min_quorum: int = 1,
        retry: RetryPolicy | None = None,
        faults: FaultSchedule | None = None,
        accountant: PrivacyAccountant | None = None,
        chunk_clients: int | None = None,
    ) -> None:
        if mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {mode!r}")
        self.plan = AdaptiveBitPushing(
            encoder, gamma=gamma, alpha=alpha, delta=delta, caching=caching,
            perturbation=perturbation, squash_multiple=squash_multiple,
        )
        if min_quorum < 1:
            raise ConfigurationError(f"min_quorum must be >= 1, got {min_quorum}")
        if min_reports_per_bit < 0:
            raise ConfigurationError(f"min_reports_per_bit must be >= 0, got {min_reports_per_bit}")
        if shard_size < 2:
            raise ConfigurationError(f"shard_size must be >= 2, got {shard_size}")
        if chunk_clients is not None and chunk_clients < 1:
            raise ConfigurationError(f"chunk_clients must be >= 1, got {chunk_clients}")
        if schedule is not None and schedule.n_bits != encoder.n_bits:
            raise ConfigurationError(
                f"schedule covers {schedule.n_bits} bits but encoder has {encoder.n_bits}"
            )
        self.encoder = encoder
        self.perturbation = perturbation
        self.min_quorum = min_quorum
        self.retry = retry
        self.meter = meter
        self.metric_name = metric_name
        self.accountant = accountant
        self.mode = mode
        self.schedule = schedule or BitSamplingSchedule.weighted(encoder.n_bits, alpha=1.0)
        self.dropout = dropout
        self.network = network
        self.selector = selector or CohortSelector(min_cohort_size=1)
        self.elicitation = elicitation
        self.min_reports_per_bit = min_reports_per_bit
        self.secure_aggregation = secure_aggregation
        self.shard_size = shard_size
        self.faults = faults
        self.chunk_clients = chunk_clients
        self.dropout_tracker = DropoutRateTracker(
            prior_rate=dropout.rate if dropout is not None else 0.0
        )

    # Algorithm 2's parameters live on the plan (gamma with its LDP default).
    gamma = property(lambda self: self.plan.gamma)
    alpha = property(lambda self: self.plan.alpha)
    delta = property(lambda self: self.plan.delta)
    caching = property(lambda self: self.plan.caching)
    squash_multiple = property(lambda self: self.plan.squash_multiple)

    # ------------------------------------------------------------------
    def run(
        self,
        population: Population,
        rng: np.random.Generator | int | None = None,
        eligibility: Eligibility | None = None,
        cohort_size: int | None = None,
    ) -> MeanEstimate:
        """Execute the query end-to-end and return the mean estimate.

        ``population`` is a columnar
        :class:`~repro.core.client_plane.ClientBatch` or a list of device
        records, converted here once, so both adaptive rounds and every
        redrawn retry draw from the same batch.  An adaptive round's redrawn
        cohort leaves out the clients the other round plans or ran, so each
        client discloses in one round at most.  :meth:`_run_round` answers.
        """
        gen = ensure_rng(rng)
        tracer = get_tracer()
        metrics = get_metrics()
        with tracer.span(
            "federated.query",
            {"mode": self.mode, "secure_aggregation": self.secure_aggregation},
        ) as query_span:
            with tracer.span(
                "federated.cohort_select", {"population": len(population)}
            ) as select_span:
                population = as_batch(population)
                cohort = self.selector.select(population, eligibility, cohort_size, gen)
                select_span.set_attribute("cohort_size", len(cohort))
            metrics.gauge("cohort_size").set(len(cohort))
            query_span.set_attribute("cohort_size", len(cohort))
            in_memory = Transport(partial(self._run_round, gen), f"federated-{self.mode}", lambda: {
                "secure_aggregation": self.secure_aggregation, "elicitation": self.elicitation,
            })
            return run_to_completion(self.drive(cohort, gen, in_memory, population, eligibility))[0]

    async def drive(
        self, cohort: Any, gen: np.random.Generator, transport: Transport,
        population: ClientBatch | None = None, eligibility: Eligibility | None = None,
    ) -> tuple[MeanEstimate, list[RoundOutcome]]:
        """The one driver: run the plan over ``cohort`` through ``transport``.

        ``cohort`` is what the transport indexes (a ``ClientBatch`` in
        memory, client ids when served).  Basic mode awaits its one round;
        adaptive mode runs each of :attr:`plan`'s rounds to completion, so
        only a basic round can await I/O.  ``population``/``eligibility``
        feed an in-memory retry's redrawn cohort.  Returns the estimate,
        labelled with the transport's method and final metadata, and each
        round's outcome.
        """
        if self.mode == "basic":
            outcome, _ = await self._round(
                cohort, self.schedule, gen, transport, 1, population, eligibility
            )
            outcomes = [outcome]
            pooled = (outcome.summary.bit_means, outcome.summary.counts)
        else:
            outcomes = []
            ran: list[Any] = []  # each finished round's cohort

            def run_round(indices, schedule, round_index):
                def others():  # the client ids of the other round, planned or run
                    ids = [np.delete(cohort.client_ids, indices)]
                    return np.concatenate(ids + [done.client_ids for done in ran])

                outcome, clients = run_to_completion(self._round(
                    cohort.take(indices), schedule, gen, transport, round_index,
                    population, eligibility, others,
                ))
                ran.append(clients)
                outcomes.append(outcome)
                return outcome.summary

            _, pooled = self.plan.run_rounds(len(cohort), gen, run_round)
        n_clients = len(cohort)
        with get_tracer().span("federated.reconstruct", {"n_bits": self.encoder.n_bits}) as span:
            estimate = decode_estimate(
                self.encoder,
                *pooled,
                perturbation=self.perturbation,
                threshold=self.plan.squash_thresholds(pooled[1]),
                n_clients=n_clients,
                method=transport.method,
                rounds=[o.summary for o in outcomes],
                metadata={
                    "cohort_size": n_clients,
                    "dropout_rates": [o.dropout_rate for o in outcomes],
                    "round_durations_s": [o.round_duration_s for o in outcomes],
                    "total_duration_s": sum(o.round_duration_s + o.backoff_s for o in outcomes),
                    "planned_clients": [o.planned_clients for o in outcomes],
                    "surviving_clients": [o.surviving_clients for o in outcomes],
                    "round_attempts": [o.attempts for o in outcomes],
                    "degraded_rounds": [o.degraded for o in outcomes],
                    "variance_inflation": [o.variance_inflation for o in outcomes],
                    "backoff_s": [o.backoff_s for o in outcomes],
                    "attempt_history": [
                        [list(pair) for pair in o.attempt_history] for o in outcomes
                    ],
                    **transport.metadata(),
                    "ldp": self.perturbation is not None,
                },
            )
            span.set_attribute("squashed_bits", list(estimate.squashed_bits))
            span.set_attribute("estimate", estimate.value)
        return estimate, outcomes

    async def _round(
        self, clients: Any, schedule: BitSamplingSchedule, gen: np.random.Generator,
        transport: Transport, round_index: int, population: ClientBatch | None = None,
        eligibility: Eligibility | None = None, others: Callable[[], np.ndarray] | None = None,
    ) -> tuple[RoundOutcome, Any]:
        """One round's attempts (adjust the schedule, assign, ``transport`` answers, fold);
        a retry may first redraw the cohort from ``population`` less ``others()``,
        the other round's clients.  Returns the outcome and the cohort it ran on."""
        if len(clients) == 0:
            raise ConfigurationError("round planned with zero clients")
        attempts = AttemptLoop(self, round_index)
        while True:
            n = len(clients)  # a redrawn cohort may be smaller
            with attempts.attempt(n) as attempt:
                adjusted = self._adjust_schedule(schedule, n)
                with get_tracer().span(
                    "round.assign", {"n_bits": self.encoder.n_bits, "n_clients": n}
                ):
                    assignment = central_assignment(n, adjusted, gen)
                answer = await transport.answer(attempt, clients, assignment)
                outcome = attempt.fold(answer, adjusted.probabilities)
                break
            # Reached only after a failed attempt that another may follow.
            if self.retry.redraw_cohort and population is not None:
                pool = eligibility if others is None else _Excluding(eligibility, others())
                clients = self.selector.select(population, pool, len(clients), gen)
        return attempts.complete(outcome), clients

    # ------------------------------------------------------------------
    async def _run_round(
        self, gen: np.random.Generator, attempt: Attempt, clients: ClientBatch,
        assignment: np.ndarray,
    ) -> Answer:
        """The in-memory transport: an attempt's faults, dropout, network and collect,
        each drawing from the query's ``gen`` after the attempt's assignment."""
        tracer = get_tracer()
        n = len(clients)
        # Scripted fault injection: the schedule's clock ticks once per
        # attempt, and the active overrides wrap the failure models.
        dropout, network = self.dropout, self.network
        shard_blackout: tuple[int, ...] = ()
        if self.faults is not None:
            active = self.faults.begin_attempt()
            if active.any:
                dropout = active.apply_dropout(dropout)
                network = active.apply_network(network)
                shard_blackout = active.shard_blackout
                attempt.span.set_attribute("faults", active.describe())

        # Failure simulation: device dropout, then network delivery.
        # With neither model no client is lost, and the round builds no
        # survivor mask (unless secure shards need one) and no index.
        alive = None
        with tracer.span("round.dropout", {"planned": n}) as dropout_span:
            if dropout is not None:
                alive = dropout.draw_survivors(n, gen)
            elif network is not None or self.secure_aggregation:
                alive = np.ones(n, dtype=bool)
            survived = n if alive is None else int(alive.sum())
            dropout_span.set_attribute("survived", survived)
        duration = 0.0
        if network is not None and survived:
            # An empty batch is never transmitted: there is nothing to
            # deliver, and a vacuous DeliveryOutcome would conflate
            # "nothing to send" with "everything sent was lost".
            outcome = network.transmit(survived, gen)
            delivered = np.zeros(n, dtype=bool)
            delivered[np.flatnonzero(alive)] = outcome.delivered
            duration = outcome.round_duration_s
            alive = delivered
            survived = int(alive.sum())
        self.dropout_tracker.update(planned=n, survived=survived)
        attempt.check_quorum(survived)

        # Client-side: elicit one value per survivor straight from the
        # flat value arrays, in bounded-memory chunks; a lossless round
        # passes the cohort and its assignment through instead of
        # copying them.
        lossless = survived == n
        survivors = None if lossless else np.flatnonzero(alive)
        with tracer.span("round.elicit", {"n_clients": survived}):
            values = elicit_values(
                clients if lossless else clients.take(survivors),
                self.elicitation,
                gen,
                chunk=self.chunk_clients,
            )

        shard_failures = 0
        if self.secure_aggregation:
            # Hierarchical sharded sessions over the *planned* cohort:
            # dropped clients are real intra-session dropouts, recovered
            # per shard; a below-threshold shard is excluded and the
            # round degrades instead of aborting.  Only the clients the
            # shards unmask are folded (and metered): a failed shard's
            # masked rows are never unmasked, so they disclose nothing.
            with tracer.span(
                "round.secure_agg",
                {"n_clients": survived, "shard_size": self.shard_size},
            ) as secure_span:
                sums, counts, secure = self._secure_collect(
                    values, alive, assignment, gen, shard_blackout=shard_blackout
                )
                folded = secure.included
                shard_failures = len(secure.failed_shards)
                secure_span.set_attribute("shards", len(secure.shards))
                secure_span.set_attribute("shard_failures", shard_failures)
                secure_span.set_attribute("included_clients", int(folded.size))
                secure_span.set_attribute(
                    "masked_bytes_per_client", secure.masked_bytes_per_client
                )
            attempt.check_quorum(int(folded.size), secure=True)
        else:
            # Chunk-streamed encode + extract + perturb + aggregate
            # (client_plane.collect spans per chunk); bit-identical to
            # the historical encode-then-collect_bit_reports for any
            # chunk size.
            with tracer.span("round.collect", {"n_clients": survived}):
                sums, counts = collect_client_reports(
                    values,
                    self.encoder,
                    assignment if lossless else assignment[survivors],
                    self.perturbation,
                    gen,
                    chunk=self.chunk_clients,
                )
            folded = survivors
        # Ids only for a meter: an unmetered round builds no id list.
        client_ids = ()
        if self.meter is not None:
            ids = clients.client_ids if folded is None else clients.client_ids[folded]
            client_ids = ids.tolist()
        return Answer(sums, counts, duration, client_ids, shard_failures)

    # ------------------------------------------------------------------
    def _adjust_schedule(
        self, schedule: BitSamplingSchedule, n_planned: int
    ) -> BitSamplingSchedule:
        """Dropout-aware floor on sampled bits' probabilities.

        With an expected survival fraction ``s``, a bit needs probability
        ``>= min_reports / (s * n)`` to expect ``min_reports`` reports.  We
        raise sampled bits to that floor and renormalize; unsampled bits
        (probability 0) stay unsampled.
        """
        if self.min_reports_per_bit == 0:
            return schedule
        expected_survivors = max(n_planned * self.dropout_tracker.expected_survival, 1.0)
        floor = self.min_reports_per_bit / expected_survivors
        probs = schedule.probabilities.copy()
        support = probs > 0
        k = int(support.sum())
        if floor * k >= 1.0:
            # Floor infeasible: fall back to uniform over the support.
            probs[support] = 1.0 / k
            return BitSamplingSchedule(probs)
        # Mix toward the floor so every sampled bit keeps >= floor *after*
        # normalization: p' = (1 - floor k) p + floor on the support.
        probs[support] = (1.0 - floor * k) * probs[support] + floor
        return BitSamplingSchedule(probs)

    # ------------------------------------------------------------------
    def _secure_collect(
        self,
        values: np.ndarray,
        alive: np.ndarray,
        assignment: np.ndarray,
        gen: np.random.Generator,
        shard_blackout: Sequence[int] = (),
    ) -> tuple[np.ndarray, np.ndarray, HierarchicalResult]:
        """Aggregate per-bit counters through hierarchical secure aggregation.

        The *planned* cohort is sharded (``alive`` marks who survived
        dropout/network, ``values`` holds one elicited value per survivor),
        so clients lost mid-round are real intra-session dropouts: each
        shard's survivors reveal seeds, Shamir reconstruction runs, and a
        shard that falls below its 2/3 threshold is excluded rather than
        fatal -- the caller degrades the round.  Each client contributes a
        ``2 * n_bits`` vector: a one-hot report-count half and a bit-value
        half, as ``bool`` entries, so a shard of up to 255 clients masks
        in the 8-bit ring.  Shard submission matrices are built lazily one
        shard at a time (and :func:`aggregate_shards` keeps at most
        ``REPRO_WORKERS`` shard groups in flight), so secure mode no longer
        materializes cohort-sized 2-D arrays; a remainder of one client
        folds into the previous shard instead of leaking its counter in
        plaintext.
        ``shard_blackout`` empties the named shards' submissions (scripted
        fault injection).
        """
        n_bits = self.encoder.n_bits
        n = int(alive.size)
        length = 2 * n_bits
        # Per-survivor bit reports (1-D, one scalar per client).
        survivor_pos = np.cumsum(alive) - 1
        bits = report_bits(
            self.encoder.encode(np.asarray(values)), assignment[alive], self.perturbation, gen
        )
        blackout = frozenset(int(s) for s in shard_blackout)

        def tasks():
            for index, (lo, hi) in enumerate(shard_bounds(n, self.shard_size)):
                local_ids = np.flatnonzero(alive[lo:hi])
                if index in blackout:
                    local_ids = local_ids[:0]
                rows = np.arange(local_ids.size)
                cols = assignment[lo + local_ids].astype(np.intp)
                vectors = np.zeros((local_ids.size, length), dtype=bool)
                vectors[rows, cols] = True
                vectors[rows, n_bits + cols] = bits[survivor_pos[lo + local_ids]]
                yield ShardTask(
                    index=index,
                    start=lo,
                    n_clients=hi - lo,
                    submitted_ids=local_ids,
                    vectors=vectors,
                )

        result = aggregate_shards(tasks(), length, rng=gen, workers=None)
        counts = result.total[:n_bits].astype(np.int64)
        sums = result.total[n_bits:].astype(np.float64)
        included = result.included
        # Always-on invariant: the masked aggregate must equal the plaintext
        # aggregate exactly over the clients it contains (the simulator holds
        # both sides; O(n) next to the O(shard**2) masking work).  Lazy
        # import: repro.verification pulls in estimator modules that
        # themselves import this package.
        from repro.verification.invariants import check_secure_sum

        included_assign = assignment[included]
        included_bits = bits[survivor_pos[included]]
        check_secure_sum(
            counts,
            np.bincount(included_assign, minlength=n_bits).astype(np.int64),
            context="secure-agg per-bit counts",
        )
        check_secure_sum(
            sums,
            np.bincount(
                included_assign, weights=included_bits.astype(np.float64), minlength=n_bits
            ),
            context="secure-agg per-bit sums",
        )
        return sums, counts, result
