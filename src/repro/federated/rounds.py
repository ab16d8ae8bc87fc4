"""The round core: one implementation of a federated round's bookkeeping.

:class:`~repro.federated.server.FederatedMeanQuery` (in-memory dropout,
network and collect, or the secure shard tree),
:class:`~repro.federated.serve.RoundServer` (TCP announce and collect) and
:func:`~repro.federated.serve.in_process_estimate` (the served round's
per-client draws, replayed in memory) differ only in how reports arrive.
Everything around that lives here, once, and runs synchronously, so the TCP
server calls it between its ``await`` points:

* :meth:`AttemptLoop.attempt` -- each attempt's ``federated.round`` span
  (which the health monitor, the live view and the flight recorder read)
  and ``round_attempts_total``, and the retry loop around it: backoff, the
  ``round.retry`` span, ``round_retries_total`` and the attempt history;
* :meth:`RoundCore.assign` -- the attempt's ``round.assign`` draw of the
  central bit assignment;
* :meth:`Attempt.check_quorum` -- the quorum verdict and its
  :class:`~repro.exceptions.RoundFailedError` messages and counters;
* :meth:`Attempt.fold` -- per-bit ``(sums, counts)`` to a
  :class:`RoundOutcome` (the summary is
  :func:`~repro.core.protocol.round_summary`'s), then privacy accounting
  over the folded clients: the bit meter first and the epsilon ledger
  second, so an over-disclosure aborts the round before any epsilon is
  spent;
* :meth:`RoundCore.reconstruct` -- the ``federated.reconstruct`` span: the
  round's :class:`~repro.core.results.MeanEstimate` metadata around
  :func:`~repro.core.protocol.decode_estimate`, the squash, clip and decode
  the core estimators use too.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import BitPerturbation, decode_estimate, round_summary
from repro.core.results import MeanEstimate, RoundSummary
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.exceptions import ConfigurationError, RoundFailedError
from repro.federated.retry import RetryPolicy
from repro.observability import ROUND_SPAN, get_metrics, get_tracer
from repro.privacy.accountant import BitMeter, PrivacyAccountant

__all__ = ["DEGRADED_FRACTION", "Attempt", "AttemptLoop", "RoundCore", "RoundOutcome"]

#: A completed round whose survivors fall below this fraction of the plan is
#: flagged degraded (``rounds_degraded_total`` metric).
DEGRADED_FRACTION = 0.5


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


class RoundCore:
    """The round policy every transport shares, and the steps that apply it.

    Parameters
    ----------
    encoder:
        Fixed-point encoding the bit means decode through.
    perturbation:
        The local-DP bit perturbation clients applied (``None``: none); it
        drives debiasing, the [0, 1] clip and the epsilon spend.
    min_quorum:
        Minimum folded clients for a round attempt to count.  An attempt
        below quorum fails (and is retried under ``retry``); an attempt at
        or above quorum completes even under heavy loss, with the
        degradation recorded on the :class:`RoundOutcome`
        (``degraded``/``variance_inflation``).  Default 1: only a
        zero-survivor round fails.  A completed round whose survivors fall
        below :data:`DEGRADED_FRACTION` of the plan is flagged degraded.
    retry:
        :class:`RetryPolicy` for failed round attempts (``None`` disables
        retries: a failed round raises).
    meter:
        Optional :class:`BitMeter`; every folded client's disclosure of
        ``metric_name`` is recorded (and over-disclosure raises).
    metric_name:
        Value identity used for metering.
    accountant:
        Optional :class:`PrivacyAccountant`.  Under an LDP ``perturbation``
        every *completed* round attempt records one ledger entry of its
        epsilon (sequential composition across rounds; a failed attempt
        spends nothing).  Flight-recorder manifests surface the ledger as
        the run's epsilon-spend timeline.
    """

    def __init__(
        self,
        encoder: FixedPointEncoder,
        perturbation: BitPerturbation | None = None,
        min_quorum: int = 1,
        retry: RetryPolicy | None = None,
        meter: BitMeter | None = None,
        metric_name: str = "metric",
        accountant: PrivacyAccountant | None = None,
    ) -> None:
        if min_quorum < 1:
            raise ConfigurationError(f"min_quorum must be >= 1, got {min_quorum}")
        self.encoder = encoder
        self.perturbation = perturbation
        self.min_quorum = min_quorum
        self.retry = retry
        self.meter = meter
        self.metric_name = metric_name
        self.accountant = accountant

    # ------------------------------------------------------------------
    def assign(self, n: int, schedule: BitSamplingSchedule, gen: np.random.Generator) -> np.ndarray:
        """An attempt's central bit assignment of ``n`` clients, under ``round.assign``."""
        with get_tracer().span("round.assign", {"n_bits": self.encoder.n_bits, "n_clients": n}):
            return central_assignment(n, schedule, gen)

    def reconstruct(
        self, outcomes: Sequence[RoundOutcome], n_clients: int, method: str,
        metadata: Mapping[str, Any], pooled: tuple[np.ndarray, np.ndarray] | None = None,
        threshold: float | np.ndarray = 0.0,
    ) -> MeanEstimate:
        """Decode the rounds' bit means into the estimate, under ``federated.reconstruct``.

        ``pooled`` holds ``(bit_means, counts)`` pooled across rounds; by
        default the single round's own.  Under LDP the debiased means are
        first squashed below ``threshold`` and clipped into [0, 1]
        (:func:`~repro.core.protocol.decode_estimate`).
        """
        means, counts = pooled or (outcomes[0].summary.bit_means, outcomes[0].summary.counts)
        with get_tracer().span("federated.reconstruct", {"n_bits": self.encoder.n_bits}) as span:
            estimate = decode_estimate(
                self.encoder,
                means,
                counts,
                perturbation=self.perturbation,
                threshold=threshold,
                n_clients=n_clients,
                method=method,
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
                    **metadata,
                    "ldp": self.perturbation is not None,
                },
            )
            span.set_attribute("squashed_bits", list(estimate.squashed_bits))
            span.set_attribute("estimate", estimate.value)
        return estimate


@dataclass(frozen=True)
class Attempt:
    """One round attempt in flight: its ``federated.round`` span and plan."""

    core: RoundCore
    span: Any
    round_index: int
    number: int
    planned: int

    def check_quorum(self, survived: int, secure: bool = False) -> None:
        """Raise :class:`RoundFailedError` if the attempt's survivors miss quorum.

        ``secure`` marks the second check secure aggregation runs, on the
        clients its shards could unmask.
        """
        min_quorum = self.core.min_quorum
        if survived >= min_quorum:
            return
        planned = self.planned
        metrics = get_metrics()
        metrics.counter("rounds_failed_total").inc()
        metrics.counter("round_reports_planned_total").inc(planned)
        metrics.counter("round_reports_delivered_total").inc(survived)
        metrics.counter("round_reports_lost_total").inc(planned - survived)
        self.span.set_attribute("failed", True)
        self.span.set_attribute("surviving_clients", survived)
        where = f"round {self.round_index} attempt {self.number}"
        if secure:
            message = (
                f"{where}: secure aggregation recovered {survived} clients, "
                f"below quorum {min_quorum}"
            )
        elif survived == 0:
            message = "every client dropped out of the round"
        else:
            message = f"{where}: {survived} survivors below quorum {min_quorum}"
        raise RoundFailedError(message, planned=planned, survived=survived)

    def fold(
        self, sums: np.ndarray, counts: np.ndarray, probabilities: np.ndarray,
        duration_s: float, client_ids: Sequence[Hashable] = (), shard_failures: int = 0,
    ) -> RoundOutcome:
        """Fold the attempt's per-bit counters into its outcome.

        Each folded client reported one bit, so ``counts`` sums to the
        survivors; ``client_ids`` names them for the meter (only read when
        one is set).  Lost shards degrade the round even when the survivor
        fraction looks healthy: exclusions widen the variance like dropout.
        """
        core, span, planned = self.core, self.span, self.planned
        survived = int(counts.sum())
        summary = round_summary(sums, counts, probabilities, survived, core.perturbation)
        degraded = survived < DEGRADED_FRACTION * planned or shard_failures > 0
        outcome = RoundOutcome(summary, planned, survived, duration_s, degraded=degraded)
        if core.meter is not None:
            core.meter.record_batch(client_ids, core.metric_name)
        epsilon = getattr(core.perturbation, "epsilon", None)
        if core.accountant is not None and epsilon is not None:
            core.accountant.spend(
                float(epsilon),
                note=(
                    f"round {self.round_index} attempt {self.number}: randomized response "
                    f"over {survived} reports"
                ),
            )
        span.set_attribute("surviving_clients", survived)
        span.set_attribute("round_duration_s", duration_s)
        metrics = get_metrics()
        if degraded:
            span.set_attribute("degraded", True)
            span.set_attribute("variance_inflation", outcome.variance_inflation)
            metrics.counter("rounds_degraded_total").inc()
        if metrics.enabled:
            metrics.counter("rounds_total").inc()
            metrics.counter("round_reports_planned_total").inc(planned)
            metrics.counter("round_reports_delivered_total").inc(survived)
            metrics.counter("round_reports_lost_total").inc(planned - survived)
            metrics.gauge("dropout_rate").set(outcome.dropout_rate)
            metrics.histogram("round_duration_s").observe(duration_s)
            bit_hist = metrics.histogram(
                "bit_index_distribution",
                buckets=tuple(float(j) for j in range(core.encoder.n_bits)),
            )
            for j, count in enumerate(counts):
                if count:
                    bit_hist.observe(float(j), count=int(count))
        return outcome


class AttemptLoop:
    """One round's attempts and the retry loop around them.

    A transport runs each attempt in a ``while True:`` loop under
    :meth:`attempt`, breaking out once it folds, then stamps the outcome
    with :meth:`complete`.  ``number`` is the 1-based number of the attempt
    to run next.  Backoff is simulated time: recorded, never slept.
    """

    def __init__(self, core: RoundCore, round_index: int = 1) -> None:
        self.core = core
        self.round_index = round_index
        self.number = 1
        self.backoff_s = 0.0
        self.history: list[tuple[int, int]] = []

    @contextmanager
    def attempt(self, planned: int) -> Iterator[Attempt]:
        """Run the next attempt, of ``planned`` clients, under its ``federated.round`` span.

        Any exception that leaves the attempt marks its span ``failed``.  A
        :class:`RoundFailedError` then goes through :meth:`retry_after` and
        is swallowed while another attempt may run; any other exception
        passes through unchanged, unretried.
        """
        try:
            with get_tracer().span(
                ROUND_SPAN,
                {
                    "round_index": self.round_index,
                    "planned_clients": planned,
                    "attempt": self.number,
                },
            ) as span:
                get_metrics().counter("round_attempts_total").inc()
                try:
                    yield Attempt(self.core, span, self.round_index, self.number, planned)
                except BaseException:
                    span.set_attribute("failed", True)
                    raise
        except RoundFailedError as exc:
            if not self.retry_after(exc):
                raise

    def retry_after(self, exc: RoundFailedError) -> bool:
        """Record a failed attempt; ``False`` once the retry budget is spent."""
        self.history.append((exc.planned, exc.survived))
        retry = self.core.retry
        if retry is None or self.number >= retry.max_attempts:
            return False
        backoff = retry.backoff_s(self.number)
        self.backoff_s += backoff
        get_metrics().counter("round_retries_total").inc()
        with get_tracer().span(
            "round.retry",
            {
                "round_index": self.round_index,
                "failed_attempt": self.number,
                "next_attempt": self.number + 1,
                "backoff_s": backoff,
                "survived": exc.survived,
                "planned": exc.planned,
                "reason": str(exc),
            },
        ):
            pass
        self.number += 1
        return True

    def complete(self, outcome: RoundOutcome) -> RoundOutcome:
        """Record the completed attempt; stamp the outcome's recovery history."""
        self.history.append((outcome.planned_clients, outcome.surviving_clients))
        return replace(
            outcome, attempts=self.number, backoff_s=self.backoff_s,
            attempt_history=tuple(self.history),
        )
