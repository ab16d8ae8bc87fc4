"""Server-side orchestration of federated bit-pushing queries.

:class:`FederatedMeanQuery` glues every substrate together the way the
deployed system does (Section 4.3): select an eligible cohort (minimum-size
enforced), plan a central-randomness bit assignment, adjust sampling
probabilities for the expected dropout rate, collect one-bit reports over a
lossy network from clients that may vanish mid-round, meter each disclosure,
optionally route the per-bit counters through secure aggregation, and
reconstruct the mean -- in one round (basic) or two (adaptive).

The arithmetic is exactly :mod:`repro.core`'s; this layer adds the systems
behaviour around it, so core tests guarantee correctness and federated tests
guarantee robustness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.client_plane import (
    ClientBatch,
    collect_client_reports,
    elicit_values,
)
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import (
    BitPerturbation,
    bit_means_from_stats,
    combine_round_stats,
)
from repro.core.results import MeanEstimate, RoundSummary
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.core.squashing import per_bit_squash_thresholds, squash_bit_means
from repro.exceptions import ConfigurationError, RoundFailedError
from repro.federated.client import ClientDevice
from repro.federated.cohort import CohortSelector, Eligibility, Population
from repro.federated.dropout import DropoutModel, DropoutRateTracker
from repro.federated.faults import FaultSchedule
from repro.federated.multivalue import elicit_batch
from repro.federated.network import NetworkModel
from repro.federated.retry import RetryPolicy
from repro.federated.secure_agg.hierarchy import (
    HierarchicalResult,
    ShardTask,
    aggregate_shards,
    shard_bounds,
)
from repro.observability import HealthMonitor, get_metrics, get_tracer
from repro.privacy.accountant import BitMeter, PrivacyAccountant
from repro.rng import ensure_rng

__all__ = ["RoundOutcome", "FederatedMeanQuery"]

_MODES = ("basic", "adaptive")


def _subset(clients: Population, indices: np.ndarray) -> Population:
    """Positional subset preserving the population representation."""
    if isinstance(clients, ClientBatch):
        return clients.take(indices)
    return [clients[int(i)] for i in indices]


@dataclass(frozen=True)
class RoundOutcome:
    """Operational record of one collection round.

    ``planned_clients``/``surviving_clients`` describe the attempt that
    finally completed; ``attempt_history`` records every attempt's
    ``(planned, survived)`` pair, failed ones included, so per-attempt
    report accounting reconciles with the metrics counters.
    """

    summary: RoundSummary
    planned_clients: int
    surviving_clients: int
    round_duration_s: float
    attempts: int = 1
    degraded: bool = False
    backoff_s: float = 0.0
    attempt_history: tuple[tuple[int, int], ...] = ()

    @property
    def dropout_rate(self) -> float:
        if self.planned_clients == 0:
            return 0.0
        return 1.0 - self.surviving_clients / self.planned_clients

    @property
    def variance_inflation(self) -> float:
        """Widened-variance factor for a round completed under-strength.

        Bit-mean sampling variance scales as ``1 / survivors``, so a round
        that completed with fewer clients than planned carries
        ``planned / survivors`` times the variance its plan budgeted for.
        """
        if self.surviving_clients <= 0:
            return float("inf")
        return self.planned_clients / self.surviving_clients


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
        Adaptive-mode parameters, as in
        :class:`~repro.core.adaptive.AdaptiveBitPushing`.
    perturbation:
        Optional local-DP bit perturbation (randomized response).
    squash_multiple:
        Bit-squash threshold in expected-DP-noise multiples (needs a
        perturbation).
    dropout, network:
        Failure models; ``None`` disables each.
    selector:
        Cohort policy (default: no eligibility filter, minimum size 1).
    meter:
        Optional :class:`BitMeter`; every surviving client's disclosure is
        recorded (and over-disclosure raises).
    elicitation:
        Multi-value reduction strategy (``"sample"`` by default).
    metric_name:
        Value identity used for metering.
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
    min_quorum:
        Minimum surviving clients for a round attempt to count.  An attempt
        below quorum fails (and is retried under ``retry``); an attempt at
        or above quorum completes even under heavy loss, with the
        degradation recorded on the :class:`RoundOutcome`
        (``degraded``/``variance_inflation``).  Default 1 preserves the
        historical behaviour: only a zero-survivor round fails.
    degraded_fraction:
        A completed round whose survivors fall below this fraction of the
        plan is flagged degraded (``rounds_degraded_total`` metric).
    retry:
        :class:`RetryPolicy` for failed round attempts (``None`` disables
        retries: a failed round raises, as before).
    faults:
        Optional :class:`~repro.federated.faults.FaultSchedule`; its clock
        advances once per round *attempt* and the active fault overrides
        wrap ``dropout``/``network`` for that attempt.
    accountant:
        Optional :class:`~repro.privacy.accountant.PrivacyAccountant`.  When
        set alongside an LDP ``perturbation``, every *completed* round
        attempt records one ledger entry of the perturbation's epsilon
        (sequential composition across rounds; a failed attempt elicits
        nothing and spends nothing).  Flight-recorder manifests surface the
        resulting ledger as the run's epsilon-spend timeline.
    health:
        Optional :class:`~repro.observability.health.HealthMonitor`.  Every
        round attempt -- failed ones included -- is reported through
        :meth:`~repro.observability.health.HealthMonitor.observe_round`,
        timed on the *simulated* round durations, so SLO rules evaluate
        even when no tracer is installed.  Do not also register the same
        monitor as a tracer exporter, or rounds evaluate twice.
    chunk_clients:
        Chunk size for the columnar client-plane kernels (``None``: the
        ``REPRO_BATCH_CHUNK`` default).  A pure performance/memory knob --
        results are bit-identical for every value.

    The population handed to :meth:`run` may be a ``Sequence[ClientDevice]``
    (the object path) or a columnar
    :class:`~repro.core.client_plane.ClientBatch`; the two are bit-identical
    for the same seed (``"sample"``/``"max"``/``"latest"`` elicitation; see
    :mod:`repro.core.client_plane` for the ``"mean"`` caveat).  The columnar
    path elicits, encodes, perturbs, and aggregates in bounded-memory chunks,
    never materializing per-client objects.  Secure aggregation feeds both
    representations through the same hierarchical shard tree
    (:mod:`repro.federated.secure_agg.hierarchy`): vectorized masking
    kernels per shard, submission matrices built one shard at a time, at
    most ``REPRO_WORKERS`` shards in flight.
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
        degraded_fraction: float = 0.5,
        retry: RetryPolicy | None = None,
        faults: FaultSchedule | None = None,
        accountant: PrivacyAccountant | None = None,
        health: HealthMonitor | None = None,
        chunk_clients: int | None = None,
    ) -> None:
        if mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {mode!r}")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if min_reports_per_bit < 0:
            raise ConfigurationError(f"min_reports_per_bit must be >= 0, got {min_reports_per_bit}")
        if squash_multiple < 0:
            raise ConfigurationError(f"squash_multiple must be >= 0, got {squash_multiple}")
        if squash_multiple > 0 and perturbation is None:
            raise ConfigurationError("squash_multiple requires a perturbation")
        if shard_size < 2:
            raise ConfigurationError(f"shard_size must be >= 2, got {shard_size}")
        if min_quorum < 1:
            raise ConfigurationError(f"min_quorum must be >= 1, got {min_quorum}")
        if chunk_clients is not None and chunk_clients < 1:
            raise ConfigurationError(f"chunk_clients must be >= 1, got {chunk_clients}")
        if not 0.0 < degraded_fraction <= 1.0:
            raise ConfigurationError(
                f"degraded_fraction must be in (0, 1], got {degraded_fraction}"
            )
        if schedule is not None and schedule.n_bits != encoder.n_bits:
            raise ConfigurationError(
                f"schedule covers {schedule.n_bits} bits but encoder has {encoder.n_bits}"
            )
        self.encoder = encoder
        self.mode = mode
        self.schedule = schedule or BitSamplingSchedule.weighted(encoder.n_bits, alpha=1.0)
        # Under LDP the exploratory round defaults to uniform sampling; see
        # AdaptiveBitPushing for the rationale.
        self.gamma = gamma if gamma is not None else (0.0 if perturbation is not None else 0.5)
        self.alpha = alpha
        self.delta = delta
        self.caching = caching
        self.perturbation = perturbation
        self.squash_multiple = squash_multiple
        self.dropout = dropout
        self.network = network
        self.selector = selector or CohortSelector(min_cohort_size=1)
        self.meter = meter
        self.elicitation = elicitation
        self.metric_name = metric_name
        self.min_reports_per_bit = min_reports_per_bit
        self.secure_aggregation = secure_aggregation
        self.shard_size = shard_size
        self.min_quorum = min_quorum
        self.degraded_fraction = degraded_fraction
        self.retry = retry
        self.faults = faults
        self.accountant = accountant
        self.health = health
        self.chunk_clients = chunk_clients
        self.dropout_tracker = DropoutRateTracker(
            prior_rate=dropout.rate if dropout is not None else 0.0
        )

    # ------------------------------------------------------------------
    def run(
        self,
        population: Population,
        rng: np.random.Generator | int | None = None,
        eligibility: Eligibility | None = None,
        cohort_size: int | None = None,
    ) -> MeanEstimate:
        """Execute the query end-to-end and return the mean estimate.

        ``population`` may be a ``Sequence[ClientDevice]`` or a columnar
        :class:`~repro.core.client_plane.ClientBatch`.
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
                cohort = self.selector.select(population, eligibility, cohort_size, gen)
                select_span.set_attribute("cohort_size", len(cohort))
            metrics.gauge("cohort_size").set(len(cohort))
            query_span.set_attribute("cohort_size", len(cohort))

            if self.mode == "basic":
                outcome = self._run_round_with_recovery(
                    cohort, self.schedule, gen, round_index=1,
                    population=population, eligibility=eligibility,
                )
                outcomes = [outcome]
                pooled_means = outcome.summary.bit_means
                pooled_counts = outcome.summary.counts
            else:
                if len(cohort) < 2:
                    raise ConfigurationError(
                        f"adaptive mode needs at least 2 clients, got {len(cohort)}"
                    )
                n_round1 = min(max(int(round(self.delta * len(cohort))), 1), len(cohort) - 1)
                order = gen.permutation(len(cohort))
                cohort1 = _subset(cohort, order[:n_round1])
                cohort2 = _subset(cohort, order[n_round1:])

                schedule1 = BitSamplingSchedule.geometric(self.encoder.n_bits, gamma=self.gamma)
                outcome1 = self._run_round_with_recovery(
                    cohort1, schedule1, gen, round_index=1,
                    population=population, eligibility=eligibility,
                )
                round1_means = outcome1.summary.bit_means
                if self.squash_multiple > 0 and self.perturbation is not None:
                    threshold = self._squash_threshold(outcome1.summary.counts)
                    round1_means, _ = squash_bit_means(round1_means, threshold)

                schedule2 = BitSamplingSchedule.from_bit_means(round1_means, alpha=self.alpha)
                outcome2 = self._run_round_with_recovery(
                    cohort2, schedule2, gen, round_index=2,
                    population=population, eligibility=eligibility,
                )
                outcomes = [outcome1, outcome2]

                if self.caching:
                    pooled_means, pooled_counts = combine_round_stats(
                        [outcome1.summary.bit_means, outcome2.summary.bit_means],
                        [outcome1.summary.counts, outcome2.summary.counts],
                    )
                else:
                    have2 = outcome2.summary.counts > 0
                    pooled_means = np.where(
                        have2, outcome2.summary.bit_means, outcome1.summary.bit_means
                    )
                    pooled_counts = np.where(
                        have2, outcome2.summary.counts, outcome1.summary.counts
                    )

            with tracer.span(
                "federated.reconstruct", {"n_bits": self.encoder.n_bits}
            ) as reconstruct_span:
                squashed: tuple[int, ...] = ()
                if self.perturbation is not None:
                    threshold = (
                        self._squash_threshold(pooled_counts)
                        if self.squash_multiple > 0
                        else np.zeros_like(pooled_means)
                    )
                    pooled_means, squashed_idx = squash_bit_means(pooled_means, threshold)
                    squashed = tuple(int(j) for j in squashed_idx)

                encoded_mean = float(self.encoder.powers @ pooled_means)
                value = self.encoder.decode_scalar(encoded_mean)
                reconstruct_span.set_attribute("squashed_bits", list(squashed))
                reconstruct_span.set_attribute("estimate", value)

            total_duration = sum(o.round_duration_s + o.backoff_s for o in outcomes)
            return MeanEstimate(
                value=value,
                encoded_value=encoded_mean,
                bit_means=pooled_means,
                counts=pooled_counts,
                n_clients=len(cohort),
                n_bits=self.encoder.n_bits,
                method=f"federated-{self.mode}",
                rounds=tuple(o.summary for o in outcomes),
                squashed_bits=squashed,
                metadata={
                    "cohort_size": len(cohort),
                    "dropout_rates": [o.dropout_rate for o in outcomes],
                    "round_durations_s": [o.round_duration_s for o in outcomes],
                    "total_duration_s": total_duration,
                    "planned_clients": [o.planned_clients for o in outcomes],
                    "surviving_clients": [o.surviving_clients for o in outcomes],
                    "round_attempts": [o.attempts for o in outcomes],
                    "degraded_rounds": [o.degraded for o in outcomes],
                    "variance_inflation": [o.variance_inflation for o in outcomes],
                    "backoff_s": [o.backoff_s for o in outcomes],
                    "attempt_history": [
                        [list(pair) for pair in o.attempt_history] for o in outcomes
                    ],
                    "secure_aggregation": self.secure_aggregation,
                    "elicitation": self.elicitation,
                    "ldp": self.perturbation is not None,
                    "columnar": isinstance(population, ClientBatch),
                },
            )

    # ------------------------------------------------------------------
    def _run_round_with_recovery(
        self,
        clients: Population,
        schedule: BitSamplingSchedule,
        gen: np.random.Generator,
        round_index: int = 1,
        population: Population | None = None,
        eligibility: Eligibility | None = None,
    ) -> RoundOutcome:
        """Run one round, retrying failed attempts under the configured policy.

        Each attempt is a full :meth:`_run_round` execution (the fault
        schedule's clock ticks per attempt).  On failure: if attempts
        remain, wait out the policy's exponential backoff in simulated
        time, optionally re-draw a fresh cohort from the eligible
        population, and try again; otherwise the failure propagates.  The
        returned outcome records the attempt count, accumulated backoff,
        and every attempt's ``(planned, survived)`` pair.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        max_attempts = self.retry.max_attempts if self.retry is not None else 1
        history: list[tuple[int, int]] = []
        backoff_total = 0.0
        attempt = 1
        while True:
            try:
                outcome = self._run_round(clients, schedule, gen, round_index, attempt)
            except RoundFailedError as exc:
                history.append((exc.planned, exc.survived))
                if self.health is not None:
                    self.health.observe_round(
                        round_index=round_index,
                        attempt=attempt,
                        planned=exc.planned,
                        survived=exc.survived,
                        failed=True,
                        epsilon_spent=(
                            float(self.accountant.spent_epsilon)
                            if self.accountant is not None
                            else None
                        ),
                    )
                if attempt >= max_attempts:
                    raise
                backoff = self.retry.backoff_s(attempt)
                backoff_total += backoff
                metrics.counter("round_retries_total").inc()
                with tracer.span(
                    "round.retry",
                    {
                        "round_index": round_index,
                        "failed_attempt": attempt,
                        "next_attempt": attempt + 1,
                        "backoff_s": backoff,
                        "survived": exc.survived,
                        "planned": exc.planned,
                        "reason": str(exc),
                    },
                ):
                    if self.retry.redraw_cohort and population is not None:
                        clients = self.selector.select(
                            population, eligibility, len(clients), gen
                        )
                attempt += 1
                continue
            history.append((outcome.planned_clients, outcome.surviving_clients))
            if self.health is not None:
                self.health.observe_round(
                    round_index=round_index,
                    attempt=attempt,
                    planned=outcome.planned_clients,
                    survived=outcome.surviving_clients,
                    degraded=outcome.degraded,
                    duration_s=outcome.round_duration_s,
                    epsilon_spent=(
                        float(self.accountant.spent_epsilon)
                        if self.accountant is not None
                        else None
                    ),
                )
            return replace(
                outcome,
                attempts=attempt,
                backoff_s=backoff_total,
                attempt_history=tuple(history),
            )

    # ------------------------------------------------------------------
    def _run_round(
        self,
        clients: Population,
        schedule: BitSamplingSchedule,
        gen: np.random.Generator,
        round_index: int = 1,
        attempt: int = 1,
    ) -> RoundOutcome:
        tracer = get_tracer()
        metrics = get_metrics()
        n = len(clients)
        if n == 0:
            raise ConfigurationError("round planned with zero clients")
        with tracer.span(
            "federated.round",
            {"round_index": round_index, "planned_clients": n, "attempt": attempt},
        ) as round_span:
            metrics.counter("round_attempts_total").inc()
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
                    round_span.set_attribute("faults", active.describe())

            schedule = self._adjust_schedule(schedule, n)
            with tracer.span(
                "round.assign", {"n_bits": self.encoder.n_bits, "n_clients": n}
            ):
                assignment = central_assignment(n, schedule, gen)

            # Failure simulation: device dropout, then network delivery.
            with tracer.span("round.dropout", {"planned": n}) as dropout_span:
                alive = (
                    dropout.draw_survivors(n, gen)
                    if dropout is not None
                    else np.ones(n, dtype=bool)
                )
                dropout_span.set_attribute("survived", int(alive.sum()))
            duration = 0.0
            if network is not None and alive.any():
                # An empty batch is never transmitted: there is nothing to
                # deliver, and a vacuous DeliveryOutcome would conflate
                # "nothing to send" with "everything sent was lost".
                outcome = network.transmit(int(alive.sum()), gen)
                delivered = np.zeros(n, dtype=bool)
                delivered[np.flatnonzero(alive)] = outcome.delivered
                duration = outcome.round_duration_s
                alive = delivered
            survivors = np.flatnonzero(alive)
            self.dropout_tracker.update(planned=n, survived=int(survivors.size))
            quorum = max(1, self.min_quorum)
            if survivors.size < quorum:
                metrics.counter("rounds_failed_total").inc()
                metrics.counter("round_reports_planned_total").inc(n)
                metrics.counter("round_reports_delivered_total").inc(int(survivors.size))
                metrics.counter("round_reports_lost_total").inc(n - int(survivors.size))
                round_span.set_attribute("failed", True)
                round_span.set_attribute("surviving_clients", int(survivors.size))
                if survivors.size == 0:
                    message = "every client dropped out of the round"
                else:
                    message = (
                        f"round {round_index} attempt {attempt}: {survivors.size} "
                        f"survivors below quorum {quorum}"
                    )
                raise RoundFailedError(message, planned=n, survived=int(survivors.size))

            # Client-side: elicit one value each, meter the single-bit disclosure.
            # Batched across survivors -- stream-identical to per-client
            # elicit() calls, and one meter transaction per round.  Columnar
            # populations elicit straight from the flat value arrays in
            # bounded-memory chunks; a lossless round passes the cohort and
            # its assignment through instead of copying them.
            columnar = isinstance(clients, ClientBatch)
            lossless = survivors.size == n
            live = None
            with tracer.span(
                "round.elicit",
                {"n_clients": int(survivors.size), "columnar": columnar},
            ):
                if columnar:
                    live = clients if lossless else clients.take(survivors)
                    values = elicit_values(
                        live, self.elicitation, gen, chunk=self.chunk_clients
                    )
                else:
                    values = elicit_batch(
                        [clients[i].values for i in survivors], self.elicitation, gen
                    )
                # Secure mode meters after shard recovery instead: a failed
                # shard's masked rows are never unmasked, so those clients
                # disclose nothing, and metering after the inclusion quorum
                # check keeps retried attempts from double-recording.
                if self.meter is not None and not self.secure_aggregation:
                    if columnar:
                        ids = [int(i) for i in live.client_ids]
                    else:
                        ids = [clients[i].client_id for i in survivors]
                    self.meter.record_batch(ids, self.metric_name)
            live_assignment = assignment if lossless else assignment[survivors]

            shard_failures = 0
            if self.secure_aggregation:
                # Hierarchical sharded sessions over the *planned* cohort:
                # dropped clients are real intra-session dropouts, recovered
                # per shard; a below-threshold shard is excluded and the
                # round degrades instead of aborting.
                with tracer.span(
                    "round.secure_agg",
                    {
                        "n_clients": int(survivors.size),
                        "shard_size": self.shard_size,
                    },
                ) as secure_span:
                    sums, counts, secure = self._secure_collect(
                        values, alive, assignment, gen, shard_blackout=shard_blackout
                    )
                    included = secure.included
                    shard_failures = len(secure.failed_shards)
                    secure_span.set_attribute("shards", len(secure.shards))
                    secure_span.set_attribute("shard_failures", shard_failures)
                    secure_span.set_attribute("included_clients", int(included.size))
                survived_count = int(included.size)
                if survived_count < quorum:
                    metrics.counter("rounds_failed_total").inc()
                    metrics.counter("round_reports_planned_total").inc(n)
                    metrics.counter("round_reports_delivered_total").inc(survived_count)
                    metrics.counter("round_reports_lost_total").inc(n - survived_count)
                    round_span.set_attribute("failed", True)
                    round_span.set_attribute("surviving_clients", survived_count)
                    raise RoundFailedError(
                        f"round {round_index} attempt {attempt}: secure aggregation "
                        f"recovered {survived_count} clients, below quorum {quorum}",
                        planned=n,
                        survived=survived_count,
                    )
                if self.meter is not None:
                    if columnar:
                        positions = np.searchsorted(survivors, included)
                        ids = [int(i) for i in np.asarray(live.client_ids)[positions]]
                    else:
                        ids = [clients[int(i)].client_id for i in included]
                    self.meter.record_batch(ids, self.metric_name)
            else:
                # Chunk-streamed encode + extract + perturb + aggregate
                # (client_plane.collect spans per chunk); bit-identical to
                # the historical encode-then-collect_bit_reports for any
                # chunk size, for both population representations.
                with tracer.span("round.collect", {"n_clients": int(survivors.size)}):
                    sums, counts = collect_client_reports(
                        values,
                        self.encoder,
                        live_assignment,
                        self.perturbation,
                        gen,
                        chunk=self.chunk_clients,
                    )
                survived_count = int(survivors.size)
            means = bit_means_from_stats(sums, counts, self.perturbation)
            summary = RoundSummary(
                probabilities=schedule.probabilities,
                counts=counts,
                sums=means * counts,
                bit_means=means,
                n_clients=survived_count,
            )
            # A round that lost shards completed under-strength even when the
            # raw survivor fraction looks healthy: the exclusions widen the
            # variance exactly like dropout does.
            degraded = (
                survived_count < self.degraded_fraction * n or shard_failures > 0
            )
            outcome = RoundOutcome(
                summary=summary,
                planned_clients=n,
                surviving_clients=survived_count,
                round_duration_s=duration,
                degraded=degraded,
            )
            if self.accountant is not None and self.perturbation is not None:
                epsilon = getattr(self.perturbation, "epsilon", None)
                if epsilon is not None:
                    self.accountant.spend(
                        float(epsilon),
                        note=(
                            f"round {round_index} attempt {attempt}: randomized response "
                            f"over {survived_count} reports"
                        ),
                    )
            round_span.set_attribute("surviving_clients", outcome.surviving_clients)
            round_span.set_attribute("round_duration_s", outcome.round_duration_s)
            if degraded:
                round_span.set_attribute("degraded", True)
                round_span.set_attribute("variance_inflation", outcome.variance_inflation)
                metrics.counter("rounds_degraded_total").inc()
            self._record_round_metrics(metrics, outcome, live_assignment)
            return outcome

    def _record_round_metrics(
        self,
        metrics,
        outcome: RoundOutcome,
        live_assignment: np.ndarray,
    ) -> None:
        """Fold one round's operational counters into the metrics registry.

        Invariant (asserted by the trace CLI and the integration tests):
        ``round_reports_planned_total`` accumulates exactly
        ``round_reports_delivered_total + round_reports_lost_total``, each
        reconciling with the :class:`RoundOutcome` fields.
        """
        if not metrics.enabled:
            return
        metrics.counter("rounds_total").inc()
        metrics.counter("round_reports_planned_total").inc(outcome.planned_clients)
        metrics.counter("round_reports_delivered_total").inc(outcome.surviving_clients)
        metrics.counter("round_reports_lost_total").inc(
            outcome.planned_clients - outcome.surviving_clients
        )
        metrics.gauge("dropout_rate").set(outcome.dropout_rate)
        metrics.histogram("round_duration_s").observe(outcome.round_duration_s)
        bit_hist = metrics.histogram(
            "bit_index_distribution", buckets=tuple(float(j) for j in range(self.encoder.n_bits))
        )
        for j, count in enumerate(np.bincount(live_assignment, minlength=self.encoder.n_bits)):
            if count:
                bit_hist.observe(float(j), count=int(count))

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
        half.  Shard submission matrices are built lazily one shard at a
        time (and :func:`aggregate_shards` keeps at most ``REPRO_WORKERS``
        shards in flight), so secure mode no longer materializes
        cohort-sized 2-D arrays; a remainder of one client folds into the
        previous shard instead of leaking its counter in plaintext.
        ``shard_blackout`` empties the named shards' submissions (scripted
        fault injection).
        """
        n_bits = self.encoder.n_bits
        n = int(alive.size)
        length = 2 * n_bits
        # Per-survivor bit reports (1-D, one scalar per client).
        survivor_pos = np.cumsum(alive) - 1
        encoded = self.encoder.encode(np.asarray(values))
        bits = (
            (encoded >> assignment[alive].astype(np.uint64)) & np.uint64(1)
        ).astype(np.uint8)
        if self.perturbation is not None:
            bits = self.perturbation.perturb_bits(bits, gen)
        blackout = frozenset(int(s) for s in shard_blackout)

        def tasks():
            for index, (lo, hi) in enumerate(shard_bounds(n, self.shard_size)):
                local_ids = np.flatnonzero(alive[lo:hi])
                if index in blackout:
                    local_ids = local_ids[:0]
                rows = np.arange(local_ids.size)
                cols = assignment[lo + local_ids]
                vectors = np.zeros((local_ids.size, length), dtype=np.int64)
                vectors[rows, cols] = 1
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

    def _squash_threshold(self, counts: np.ndarray) -> np.ndarray:
        epsilon = getattr(self.perturbation, "epsilon", None)
        if epsilon is None:
            raise ConfigurationError(
                "squash_multiple needs a perturbation exposing an `epsilon` attribute"
            )
        return per_bit_squash_thresholds(self.squash_multiple, float(epsilon), counts)
