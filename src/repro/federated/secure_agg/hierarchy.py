"""Hierarchical (sharded) secure aggregation with per-shard dropout recovery.

A single flat masking session is O(n**2) in both setup and recovery, which
is why a central aggregator bottlenecks past a few hundred clients (the
DisAgg line of work distributes exactly this).  This module arranges the
cohort as a two-level tree instead:

* **Leaves**: contiguous *shards* of ``shard_size`` clients, each running
  its own secure-aggregation session with the canonical 2/3 threshold.
  Dropout recovery -- survivor seed reveal plus Shamir reconstruction --
  happens *inside* the shard, so a client's disappearance costs
  O(shard_size) work, not O(n).
* **Root**: per-shard partial sums are already unmasked exact integers, so
  the root aggregator is plain integer addition -- commutative and exact,
  which makes the merge order (and therefore the worker schedule) irrelevant
  to the result.

**Failure containment.**  A shard whose submissions fall below its threshold
cannot be unmasked; it is reported as *failed* (``recovered=False``) and its
clients are excluded from the total, but the other shards' sums still
aggregate.  Callers degrade rather than abort: the server widens the round's
variance accounting and raises a health alert instead of failing the round.

**Shard groups.**  Shards run in contiguous groups of :data:`SHARD_GROUP`.
A group's sessions of one shape -- ``(n_clients, threshold, ring)`` --
form one :class:`~repro.federated.secure_agg.protocol.SessionBatch`:
their seeds, share matrices and masked rows carry a leading shard axis, so
each phase makes one pass per shape present instead of one per session --
one Shamir split product at setup, one seed gather and one signed apply to
mask, one vector of threshold verdicts and one pass of segment sums to
unmask.  The group expands all of its masks in one Philox pass per phase
and ring width present, and reconstructs the survivor self-seeds of all of
its sessions with one Shamir product per threshold present.  Each session
draws only from its own seed, a Philox row depends only on its seed, and
field and ring arithmetic are exact, so a group's totals and masked rows
equal its sessions' one-by-one results, whatever the group size.  Each
group times its ``secure_agg.setup``, ``secure_agg.mask`` and
``secure_agg.unmask`` phases as spans, and shares its time out among its
shards in proportion to the seeds each expanded.

**Parallelism.**  Groups are independent, so they fan out over a
``fork``-based process pool (one worker per group, at most ``workers`` in
flight).  Determinism follows the executor discipline of
:func:`repro.metrics.execution.spawn_seed_sequences`: shard ``i`` always
seeds its session from the ``i``-th spawned child of the caller's generator,
so results are bit-identical for every worker count and completion order.
Workers run with tracing disabled, time on a copy of the tracer's clock,
and return their phase timings and a private metrics snapshot for the
parent to record and merge.  Shard inputs are consumed lazily, group by
group, so aggregating a large cohort never materializes cohort-sized arrays.
"""

from __future__ import annotations

import copy
import itertools
import multiprocessing
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.federated.secure_agg.masking import mask_ring
from repro.federated.secure_agg.protocol import (
    SessionBatch,
    default_threshold,
    mask_batches,
    unmask_batches,
)
from repro.metrics.execution import (
    _FORK_AVAILABLE,
    resolve_workers,
    spawn_seed_sequences,
)
from repro.observability import get_metrics, get_tracer
from repro.observability.tracing import SimClock, SpanRecord
from repro.rng import ensure_rng

__all__ = [
    "SHARD_GROUP",
    "ShardTask",
    "ShardOutcome",
    "HierarchicalResult",
    "shard_bounds",
    "aggregate_shards",
    "hierarchical_secure_sum",
]

#: Shards per group.  Groups of 8 halve a 32-shard query's time next to one
#: session per pass, and still give two workers 4 groups; one group for the
#: whole query saves a little more time but grows peak memory with the
#: pass's temporaries (docs/performance.md).
SHARD_GROUP = 8


def shard_bounds(n_clients: int, shard_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard bounds over ``n_clients``.

    A remainder of exactly one client folds into the previous shard instead
    of standing alone: a lone client cannot be masked against peers, and the
    historical fallback of adding its counter to the aggregate in the clear
    was a plaintext leak (the ``n % shard_size == 1`` bug).  The last shard
    may therefore hold ``shard_size + 1`` clients.  ``n_clients == 1`` still
    yields a single singleton shard -- there is no previous shard to fold
    into -- which the aggregator reports as failed rather than leaking.
    """
    if shard_size < 2:
        raise ConfigurationError(f"shard_size must be >= 2, got {shard_size}")
    if n_clients < 0:
        raise ConfigurationError(f"n_clients must be >= 0, got {n_clients}")
    starts = list(range(0, n_clients, shard_size))
    if len(starts) > 1 and n_clients - starts[-1] == 1:
        starts.pop()
    return [
        (start, stop)
        for start, stop in zip(starts, starts[1:] + [n_clients])
    ]


@dataclass(frozen=True)
class ShardTask:
    """One shard's input to the aggregation tree.

    ``submitted_ids`` are *shard-local* client ids (``0 .. n_clients - 1``)
    that actually submit; ``vectors`` holds one row per submitted id, in the
    same order, and its dtype is the session's entry type (it sizes the
    mask ring).  Clients present in the shard but absent from
    ``submitted_ids`` are the shard's dropouts -- the session recovers their
    masks from the survivors.
    """

    index: int
    start: int
    n_clients: int
    submitted_ids: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's result: the partial sum, or a contained failure.

    ``submitted_global_ids`` are the cohort-level indices of the clients
    whose vectors this shard's session actually contains (``start`` plus
    the task's shard-local submitted ids).  ``ring_bits`` is the width of
    the session's mask ring (0 for a singleton shard, which has no session),
    and ``duration_s`` the shard's share of its group's time on the
    tracer's clock.
    """

    index: int
    start: int
    n_clients: int
    submitted_global_ids: np.ndarray
    threshold: int
    recovered: bool
    total: np.ndarray | None
    duration_s: float = 0.0
    ring_bits: int = 0

    @property
    def submitted(self) -> int:
        return int(self.submitted_global_ids.size)

    @property
    def dropouts(self) -> int:
        return self.n_clients - self.submitted


@dataclass(frozen=True)
class HierarchicalResult:
    """Root-level aggregate plus the per-shard ledger.

    ``total`` sums the *recovered* shards only; ``included`` /
    ``excluded`` partition the cohort's global client indices accordingly,
    so callers can reconcile the aggregate against exactly the clients it
    contains.
    """

    total: np.ndarray
    shards: tuple[ShardOutcome, ...]

    @property
    def failed_shards(self) -> tuple[ShardOutcome, ...]:
        return tuple(s for s in self.shards if not s.recovered)

    @property
    def included(self) -> np.ndarray:
        """Global indices of the submitted clients inside recovered shards.

        Exactly the clients whose vectors :attr:`total` contains.
        """
        parts = [s.submitted_global_ids for s in self.shards if s.recovered]
        return (
            np.concatenate(parts).astype(np.int64)
            if parts
            else np.empty(0, dtype=np.int64)
        )

    @property
    def included_submitters(self) -> int:
        return sum(s.submitted for s in self.shards if s.recovered)

    @property
    def excluded_clients(self) -> int:
        return sum(s.n_clients for s in self.shards if not s.recovered)

    @property
    def masked_bytes_per_client(self) -> float:
        """Bytes of masked upload per submitting client: length x ring width / 8."""
        submitted = sum(s.submitted for s in self.shards)
        masked_bits = sum(s.submitted * s.ring_bits for s in self.shards)
        return self.total.size * masked_bits / 8 / submitted if submitted else 0.0


@contextmanager
def _phase(name: str, phases: list, clock: Callable[[], float]) -> Iterator[dict[str, Any]]:
    """Time one group phase as a span and on ``clock``; the caller fills in its attributes."""
    attrs: dict[str, Any] = {}
    start = clock()
    with get_tracer().span(name) as span:
        yield attrs
        for key, value in attrs.items():
            span.set_attribute(key, value)
    phases.append((name, start, clock() - start, attrs))


def _run_group(
    tasks: list[ShardTask],
    seeds: list[np.random.SeedSequence],
    bitgen_cls: type,
    vector_length: int,
    clock: Callable[[], float],
) -> tuple[list[ShardOutcome], list[tuple[str, float, float, dict[str, Any]]]]:
    """Run one contiguous group of shards' sessions end to end (any process).

    The group's sessions of one shape -- ``(n_clients, threshold, ring)``
    -- form one :class:`~repro.federated.secure_agg.protocol.SessionBatch`,
    each session seeded from its shard's spawned seed.  Masking checks
    every shard's batch exactly as ``submit_batch`` does and applies one
    Philox pass per ring width; unmasking takes every session's threshold
    verdict, reconstructs the survivor self-seeds of the sessions at or
    above it with one Shamir product per threshold present, and collects
    their unmask seeds into one more pass per ring width.  A shard that
    cannot complete -- a singleton (no peer to mask against) or a
    below-threshold survivor set -- returns ``recovered=False`` instead of
    raising: shard failure is a contained, reportable outcome, not an error
    of the tree.

    The group's time on ``clock`` -- the tracer's or a worker's copy of it
    -- is shared out among its shards in proportion to the seeds each
    expanded, so the group's durations sum to its time.  Returns the
    outcomes and the three phases' ``(name, start reading, duration,
    attrs)``.
    """
    start = clock()
    phases: list = []
    shapes: dict[tuple, list[int]] = {}
    for i, task in enumerate(tasks):
        if task.n_clients >= 2:
            n = task.n_clients
            shape = (n, default_threshold(n), mask_ring(task.vectors.dtype, n))
            shapes.setdefault(shape, []).append(i)
    members = list(shapes.values())
    with _phase("secure_agg.setup", phases, clock) as attrs:
        batches = [
            SessionBatch(
                n,
                vector_length,
                threshold,
                ring,
                [np.random.Generator(bitgen_cls(seeds[i])) for i in shards],
            )
            for (n, threshold, ring), shards in shapes.items()
        ]
        ring_bits = max((batch.ring.bits for batch in batches), default=0)
        attrs.update(
            shards=len(tasks),
            seeds=sum(b.size * b.n_clients * (b.n_clients + 1) // 2 for b in batches),
            ring_bits=ring_bits,
        )
    with _phase("secure_agg.mask", phases, clock) as attrs:
        mask_batches(
            batches,
            [[tasks[i].submitted_ids for i in shards] for shards in members],
            [[tasks[i].vectors for i in shards] for shards in members],
        )
        masked_seeds = sum(int(batch.expanded.sum()) for batch in batches)
        attrs.update(shards=len(tasks), seeds=masked_seeds, ring_bits=ring_bits)
    with _phase("secure_agg.unmask", phases, clock) as attrs:
        passed = [batch.check_thresholds() for batch in batches]
        totals = unmask_batches(batches, passed)
        unmasked_seeds = sum(int(batch.expanded.sum()) for batch in batches) - masked_seeds
        attrs.update(shards=len(tasks), seeds=unmasked_seeds, ring_bits=ring_bits)

    batch_of: dict[int, SessionBatch] = {}
    recovered: dict[int, np.ndarray] = {}
    weights = np.zeros(len(tasks))
    for batch, shards, ok, total in zip(batches, members, passed, totals):
        batch_of.update(dict.fromkeys(shards, batch))
        weights[shards] = batch.expanded
        decoded = np.asarray(batch.ring.decode(total), dtype=np.int64).reshape(-1, vector_length)
        recovered.update(zip(np.asarray(shards)[ok].tolist(), decoded))
    if not weights.sum():
        weights[:] = 1.0
    shares = (clock() - start) * weights / weights.sum()
    outcomes = [
        ShardOutcome(
            index=task.index,
            start=task.start,
            n_clients=task.n_clients,
            submitted_global_ids=(task.start + np.asarray(task.submitted_ids)).astype(np.int64),
            threshold=batch_of[i].threshold if i in batch_of else 2,
            recovered=i in recovered,
            total=recovered.get(i),
            duration_s=float(shares[i]),
            ring_bits=batch_of[i].ring.bits if i in batch_of else 0,
        )
        for i, task in enumerate(tasks)
    ]
    return outcomes, phases


def _forked_group(
    tasks: list[ShardTask],
    seeds: list[np.random.SeedSequence],
    bitgen_cls: type,
    vector_length: int,
    parent_metrics_enabled: bool,
    clock: Callable[[], float],
) -> tuple[list[ShardOutcome], list, dict | None, Callable[[], float]]:
    """Worker entry point: one shard group with worker-private observability.

    Mirrors the trial executors' fork discipline: tracing off (a forked
    exporter would interleave writes on the shared descriptor), metrics into
    a private registry whose snapshot rides back for the parent to merge --
    so session counters match serial execution exactly.  The phase timings
    and ``clock`` ride back too, for the parent to record as spans.
    """
    from repro import observability
    from repro.observability import MetricsRegistry

    observability.disable()
    worker_metrics: MetricsRegistry | None = None
    if parent_metrics_enabled:
        worker_metrics = MetricsRegistry()
        observability.configure(metrics=worker_metrics)
    outcomes, phases = _run_group(tasks, seeds, bitgen_cls, vector_length, clock)
    snapshot = worker_metrics.snapshot() if worker_metrics is not None else None
    return outcomes, phases, snapshot, clock


def _record_phases(phases: list, clock: Callable[[], float], tracer) -> None:
    """Record a worker's phase readings of ``clock``, a copy of the tracer's, as spans."""
    if not tracer.enabled:
        return
    if isinstance(tracer.clock, SimClock):
        tracer.clock.catch_up(clock)
    parent = tracer.current_span_id()
    for name, start, duration, attrs in phases:
        tracer.ingest(
            SpanRecord(
                name=name,
                span_id=tracer.next_span_id(),
                parent_id=parent,
                start_time_s=tracer.epoch + start,
                duration_s=duration,
                attributes={**attrs, "worker": True},
            )
        )


def _record_shard(outcome: ShardOutcome, tracer, metrics) -> None:
    """Fold one shard outcome into the parent's spans and counters."""
    attrs = {
        "shard": outcome.index,
        "planned": outcome.n_clients,
        "submitted": outcome.submitted,
        "threshold": outcome.threshold,
        "recovered": outcome.recovered,
        "duration_s": outcome.duration_s,
        "ring_bits": outcome.ring_bits,
    }
    with tracer.span("shard.session", attrs):
        pass
    if not outcome.recovered:
        with tracer.span(
            "shard.failed",
            {
                "shard": outcome.index,
                "planned": outcome.n_clients,
                "submitted": outcome.submitted,
                "threshold": outcome.threshold,
            },
        ):
            pass
    if metrics.enabled:
        metrics.counter("secure_shards_total").inc()
        if not outcome.recovered:
            metrics.counter("secure_shard_failures_total").inc()
            metrics.counter("secure_clients_excluded_total").inc(outcome.n_clients)


def aggregate_shards(
    tasks: Iterable[ShardTask],
    vector_length: int,
    rng: np.random.Generator | int | None = None,
    workers: int | None = None,
) -> HierarchicalResult:
    """Run every shard's session, group by group, and merge the recovered partial sums.

    ``tasks`` is consumed lazily in contiguous groups of
    :data:`SHARD_GROUP`: with ``workers > 1`` at most ``workers`` groups are
    in flight at once, so callers can stream shard inputs without ever
    holding the whole cohort in memory.  Each task's ``vectors`` dtype is
    its session's entry type.  Shard ``i`` is seeded from the ``i``-th
    spawned child of ``rng`` regardless of grouping or scheduling, so the
    result is bit-identical for every worker count (asserted by the twin
    tests).

    ``workers=None`` reads ``REPRO_WORKERS`` (the executor convention).
    Falls back to serial execution when ``fork`` is unavailable or the
    tasks fill one group.
    """
    gen = ensure_rng(rng)
    n_workers = resolve_workers(workers)
    tracer = get_tracer()
    metrics = get_metrics()

    def groups() -> Iterator[tuple[list[ShardTask], list, type]]:
        # Seeds are spawned in shard order off the parent sequence, one
        # spawn call per group; children are identical to a single batched
        # spawn (SeedSequence.spawn is a counter walk).
        task_iter = iter(tasks)
        while group := list(itertools.islice(task_iter, SHARD_GROUP)):
            seeds, bitgen_cls = spawn_seed_sequences(gen, len(group))
            yield group, seeds, bitgen_cls

    outcomes: list[ShardOutcome] = []

    def record(group_outcomes: list[ShardOutcome]) -> None:
        for outcome in group_outcomes:
            _record_shard(outcome, tracer, metrics)
        outcomes.extend(group_outcomes)

    source = groups()
    head = list(itertools.islice(source, 2))
    source = itertools.chain(head, source)
    if n_workers < 2 or not _FORK_AVAILABLE or len(head) < 2:
        for group, seeds, bitgen_cls in source:
            record(_run_group(group, seeds, bitgen_cls, vector_length, tracer.clock)[0])
    else:
        context = multiprocessing.get_context("fork")
        parent_metrics_enabled = metrics.enabled
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=context) as pool:
            # Groups are recorded in submission order, not completion
            # order, so a traced pooled round lists its spans in one order.
            pending: deque = deque()

            def drain_oldest() -> None:
                group_outcomes, phases, snapshot, clock = pending.popleft().result()
                _record_phases(phases, clock, tracer)
                record(group_outcomes)
                if snapshot is not None and metrics.enabled:
                    metrics.merge_snapshot(snapshot)

            for group, seeds, bitgen_cls in source:
                if len(pending) >= n_workers:
                    drain_oldest()
                pending.append(
                    pool.submit(
                        _forked_group,
                        group,
                        seeds,
                        bitgen_cls,
                        vector_length,
                        parent_metrics_enabled,
                        copy.copy(tracer.clock),
                    )
                )
            while pending:
                drain_oldest()

    outcomes.sort(key=lambda o: o.index)
    total = np.zeros(vector_length, dtype=np.int64)
    for outcome in outcomes:
        if outcome.recovered and outcome.total is not None:
            total += outcome.total
    return HierarchicalResult(total=total, shards=tuple(outcomes))


def hierarchical_secure_sum(
    vectors: np.ndarray,
    submitted: np.ndarray | None = None,
    shard_size: int = 32,
    workers: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> HierarchicalResult:
    """Securely sum client row-vectors through the shard tree.

    The hierarchical twin of
    :func:`~repro.federated.secure_agg.protocol.secure_sum`: same exact
    integer total over the included clients, O(shard_size**2) masking work
    per shard instead of O(n**2) overall, and per-shard failure containment.
    The rows' dtype sizes each shard's mask ring, as in ``secure_sum``.
    ``submitted`` marks which clients submit (all, by default); a shard whose
    survivors fall below its 2/3 threshold is excluded, not fatal -- inspect
    :attr:`HierarchicalResult.failed_shards`.

    Examples
    --------
    >>> import numpy as np
    >>> vecs = np.ones((10, 3), dtype=np.int64)
    >>> result = hierarchical_secure_sum(vecs, shard_size=4, rng=0)
    >>> result.total.tolist()
    [10, 10, 10]
    >>> len(result.shards)
    3
    """
    vecs = np.asarray(vectors)
    if vecs.ndim != 2:
        raise ConfigurationError(f"expected a 2-D (clients x length) array, got {vecs.shape}")
    n_clients, length = vecs.shape
    if submitted is None:
        submitted = np.ones(n_clients, dtype=bool)
    submitted = np.asarray(submitted, dtype=bool)
    if submitted.shape != (n_clients,):
        raise ConfigurationError("submitted mask must have one entry per client")

    def tasks() -> Iterator[ShardTask]:
        for index, (start, stop) in enumerate(shard_bounds(n_clients, shard_size)):
            local_ids = np.flatnonzero(submitted[start:stop])
            yield ShardTask(
                index=index,
                start=start,
                n_clients=stop - start,
                submitted_ids=local_ids,
                vectors=vecs[start:stop][local_ids],
            )

    with get_tracer().span(
        "secure_agg.hierarchy",
        {"n_clients": n_clients, "shard_size": shard_size},
    ):
        return aggregate_shards(tasks(), length, rng=rng, workers=workers)
