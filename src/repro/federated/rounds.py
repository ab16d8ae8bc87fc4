"""The round's shared pieces: attempts, their fold, and the transport contract.

:meth:`~repro.federated.server.FederatedMeanQuery.drive` is the one driver
of every round.  Per attempt it draws the central bit assignment under
``round.assign`` and hands it to a :class:`Transport` -- the in-memory
round, :class:`~repro.federated.serve.RoundServer`'s TCP announce and
collect, or the served twin -- which differ only in how reports arrive.
Everything around that lives here or in the driver, once:

* :meth:`AttemptLoop.attempt` -- each attempt's ``federated.round`` span
  (which the health monitor, the live view and the flight recorder read)
  and ``round_attempts_total``, and the retry loop around it: backoff, the
  ``round.retry`` span, ``round_retries_total`` and the attempt history;
* :meth:`Attempt.check_quorum` -- the quorum verdict each transport asks
  for, and its :class:`~repro.exceptions.RoundFailedError` messages and
  counters;
* :meth:`Attempt.fold` -- a transport's :class:`Answer` to a
  :class:`RoundOutcome` (the summary is
  :func:`~repro.core.protocol.round_summary`'s), then privacy accounting
  over the folded clients: the bit meter first and the epsilon ledger
  second, so an over-disclosure aborts the round before any epsilon is
  spent.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Coroutine, Hashable, Iterator
from typing import Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from repro.core.protocol import round_summary
from repro.core.results import RoundSummary
from repro.exceptions import ConfigurationError, RoundFailedError
from repro.observability import ROUND_SPAN, get_metrics, get_tracer

if TYPE_CHECKING:
    from repro.federated.server import FederatedMeanQuery

__all__ = [
    "DEGRADED_FRACTION", "Answer", "Attempt", "AttemptLoop", "RoundOutcome", "Transport",
    "run_to_completion",
]

_T = TypeVar("_T")

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


class Answer(NamedTuple):
    """A transport's answer to one attempt: its folded reports' per-bit counters,
    their client ids for the meter (empty when there is none) and the secure
    shards it left out."""

    sums: np.ndarray
    counts: np.ndarray
    duration_s: float
    client_ids: Sequence[Hashable] = ()
    shard_failures: int = 0


@dataclass(frozen=True)
class Attempt:
    """One round attempt in flight: its ``federated.round`` span and plan."""

    query: FederatedMeanQuery
    span: Any
    round_index: int
    number: int
    planned: int

    def check_quorum(self, survived: int, secure: bool = False) -> None:
        """Raise :class:`RoundFailedError` if the attempt's survivors miss quorum.

        ``secure`` marks the second check secure aggregation runs, on the
        clients its shards could unmask.
        """
        min_quorum = self.query.min_quorum
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

    def fold(self, answer: Answer, probabilities: np.ndarray) -> RoundOutcome:
        """Fold the transport's answer into the attempt's outcome.

        Each folded client reported one bit, so ``answer.counts`` sums to
        the survivors.  Lost shards degrade the round even when the survivor
        fraction looks healthy: exclusions widen the variance like dropout.
        """
        query, span, planned = self.query, self.span, self.planned
        sums, counts, duration_s, client_ids, shard_failures = answer
        survived = int(counts.sum())
        summary = round_summary(sums, counts, probabilities, survived, query.perturbation)
        degraded = survived < DEGRADED_FRACTION * planned or shard_failures > 0
        outcome = RoundOutcome(summary, planned, survived, duration_s, degraded=degraded)
        if query.meter is not None:
            query.meter.record_batch(client_ids, query.metric_name)
        epsilon = getattr(query.perturbation, "epsilon", None)
        if query.accountant is not None and epsilon is not None:
            query.accountant.spend(
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
                buckets=tuple(float(j) for j in range(query.encoder.n_bits)),
            )
            for j, count in enumerate(counts):
                if count:
                    bit_hist.observe(float(j), count=int(count))
        return outcome


class AttemptLoop:
    """One round's attempts and the retry loop around them.

    The driver runs each attempt in a ``while True:`` loop under
    :meth:`attempt`, breaking out once it folds, then stamps the outcome
    with :meth:`complete`.  ``number`` is the 1-based number of the attempt
    to run next.  Backoff is simulated time: recorded, never slept.
    """

    def __init__(self, query: FederatedMeanQuery, round_index: int = 1) -> None:
        self.query = query
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
                    yield Attempt(self.query, span, self.round_index, self.number, planned)
                except BaseException:
                    span.set_attribute("failed", True)
                    raise
        except RoundFailedError as exc:
            if not self.retry_after(exc):
                raise

    def retry_after(self, exc: RoundFailedError) -> bool:
        """Record a failed attempt; ``False`` once the retry budget is spent."""
        self.history.append((exc.planned, exc.survived))
        retry = self.query.retry
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


class Transport(NamedTuple):
    """How one attempt's reports reach the driver.

    ``answer(attempt, clients, assignment)`` collects the reports of
    ``clients`` (a ``ClientBatch`` in memory, client ids when served) under
    their ``assignment``, asks ``attempt.check_quorum`` about the survivors
    and returns their :class:`Answer`; ``method`` and ``metadata()`` label
    the estimate.
    """

    answer: Callable[[Attempt, Any, np.ndarray], Awaitable[Answer]]
    method: str
    metadata: Callable[[], Mapping[str, Any]]


def run_to_completion(coroutine: Coroutine[Any, Any, _T]) -> _T:
    """Run a round coroutine that never suspends, and return its result.

    The in-memory query, the twin and each round of an adaptive plan run
    their transport this way.  A transport that awaits I/O suspends the
    coroutine instead: it is closed, so its open spans end failed, and
    :class:`~repro.exceptions.ConfigurationError` is raised at once.
    """
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise ConfigurationError(
        "the round's transport awaited I/O outside an event loop: only a basic "
        "round can run over an asynchronous transport"
    )
