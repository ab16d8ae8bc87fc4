"""Trial-execution engine: serial and multi-process backends for the harness.

Every accuracy figure in the paper is ~100 repetitions x many sweep points x
many methods.  The repetitions of one experimental *cell* are statistically
independent by construction -- each gets its own spawned child of the cell's
:class:`~numpy.random.SeedSequence` -- which makes them embarrassingly
parallel *without* sacrificing reproducibility.  This module owns that
machinery:

* :class:`SerialExecutor` -- runs repetitions in-process, in order.  This is
  the default and is bit-identical to the historical single-loop behaviour.
* :class:`ParallelExecutor` -- distributes contiguous chunks of repetitions
  over a ``fork``-based :class:`~concurrent.futures.ProcessPoolExecutor`.

**Determinism contract.**  Repetition ``i`` of a cell is computed from the
``i``-th spawned child of the cell seed and nothing else: no repetition ever
reads another repetition's stream, and chunk boundaries carry no randomness.
Estimates and truths are therefore *bit-identical* across executors and
worker counts (asserted by ``tests/test_execution.py``).

Closures (figure cell factories) are not picklable, so the parallel backend
relies on ``fork`` semantics: the cell task is parked in a module global
immediately before the pool forks, and workers inherit it by memory copy.
On platforms without ``fork`` the parallel executor degrades to serial
execution with a warning.  Worker processes run with tracing disabled (a
forked JSONL exporter would interleave writes on a shared descriptor), but
record metrics into a worker-private registry whose closing snapshot rides
back with the chunk results and is folded into the parent registry
(:meth:`MetricsRegistry.merge_snapshot`) -- so counters and histograms
incremented inside trial code match serial execution exactly.  The parent
additionally records one span per chunk plus the engine metrics
(``trials_executed_total``, ``executor_workers``,
``trial_cell_duration_s``) documented in ``docs/performance.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.observability import get_metrics, get_tracer

__all__ = [
    "CellTask",
    "TrialExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "executor_for",
    "resolve_workers",
    "get_executor",
    "configure_executor",
    "use_executor",
    "run_rep_chunk",
    "spawn_seed_sequences",
]

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class CellTask:
    """The three callables defining one experimental cell.

    ``make_data(rng) -> values``, ``run_estimator(values, rng) -> float``,
    ``truth_fn(values) -> float`` -- exactly the contract of
    :func:`repro.metrics.experiment.run_trials`.
    """

    make_data: Callable[[np.random.Generator], np.ndarray]
    run_estimator: Callable[[np.ndarray, np.random.Generator], float]
    truth_fn: Callable[[np.ndarray], float]


def spawn_seed_sequences(
    parent: np.random.Generator, n_children: int
) -> tuple[list[np.random.SeedSequence], type]:
    """Spawn ``n_children`` child seed sequences off a generator's own sequence.

    The children are the same ones ``parent.spawn(n_children)`` would have
    produced (and the parent's spawn counter advances identically), so a unit
    of work keyed to child ``i`` sees the same stream no matter which worker
    runs it, in what order, or whether the orchestrator is serial.  This is
    the determinism primitive shared by the trial executors and the sharded
    secure-aggregation plane.  Returns the children plus the parent's bit
    generator class (workers rebuild generators with it).
    """
    seed_seq = parent.bit_generator.seed_seq
    if not isinstance(seed_seq, np.random.SeedSequence):
        raise ConfigurationError(
            "deterministic fan-out needs a generator with a SeedSequence-backed "
            f"bit generator; got {type(seed_seq)!r}"
        )
    return seed_seq.spawn(n_children), type(parent.bit_generator)


def _rep_seed_sequences(
    parent: np.random.Generator, n_reps: int
) -> tuple[list[np.random.SeedSequence], type]:
    """Spawn one child :class:`~numpy.random.SeedSequence` per repetition."""
    return spawn_seed_sequences(parent, n_reps)


def run_rep_chunk(
    task: CellTask,
    rep_seeds: Sequence[np.random.SeedSequence],
    bit_generator_cls: type,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one contiguous chunk of repetitions; returns (estimates, truths).

    This is the single place repetition semantics live: both executors (and
    every worker process) call it, so serial and parallel paths cannot drift
    apart.
    """
    n = len(rep_seeds)
    estimates = np.empty(n)
    truths = np.empty(n)
    for i, seed in enumerate(rep_seeds):
        gen = np.random.Generator(bit_generator_cls(seed))
        data_rng, est_rng = gen.spawn(2)
        values = task.make_data(data_rng)
        truths[i] = task.truth_fn(values)
        estimates[i] = float(task.run_estimator(values, est_rng))
    return estimates, truths


def _record_cell_metrics(n_reps: int, workers: int, elapsed_s: float) -> None:
    metrics = get_metrics()
    if not metrics.enabled:
        return
    metrics.counter("trials_executed_total").inc(n_reps)
    metrics.gauge("executor_workers").set(workers)
    metrics.histogram("trial_cell_duration_s").observe(elapsed_s)


class TrialExecutor:
    """Strategy interface: run the repetitions of one experimental cell."""

    #: Worker processes this executor distributes over (1 = in-process).
    workers: int = 1

    def run_cell(
        self,
        task: CellTask,
        n_reps: int,
        parent: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Execute ``n_reps`` repetitions of ``task``; returns (estimates, truths)."""
        raise NotImplementedError


class SerialExecutor(TrialExecutor):
    """In-process execution, one chunk, historical rep order (the default)."""

    workers = 1

    def run_cell(
        self,
        task: CellTask,
        n_reps: int,
        parent: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        rep_seeds, bitgen_cls = _rep_seed_sequences(parent, n_reps)
        start = time.perf_counter()
        with get_tracer().span(
            "executor.chunk", {"backend": "serial", "chunk": 0, "reps": n_reps}
        ):
            estimates, truths = run_rep_chunk(task, rep_seeds, bitgen_cls)
        _record_cell_metrics(n_reps, self.workers, time.perf_counter() - start)
        return estimates, truths


# Payload handed to forked workers by memory inheritance (closures cannot be
# pickled).  Written immediately before the pool forks, cleared after; the
# engine is orchestrated from a single thread, like the rest of the harness.
_FORK_PAYLOAD: tuple[CellTask, type] | None = None


def _forked_chunk(
    chunk_index: int, rep_seeds: Sequence[np.random.SeedSequence]
) -> tuple[int, np.ndarray, np.ndarray, float, float, dict | None]:
    """Worker entry point: run one chunk from the fork-inherited payload.

    Returns the chunk's wall and CPU cost alongside its results: workers run
    with tracing disabled, so the parent folds their cost into its own
    profiler (:meth:`PhaseProfiler.merge_external`) after the fact.  If the
    parent had metrics enabled at fork time, the worker records into a fresh
    private registry and ships the closing snapshot back, so counters and
    histograms incremented inside trial code survive the fork (the parent
    folds them via :meth:`MetricsRegistry.merge_snapshot`).
    """
    from repro import observability
    from repro.observability import MetricsRegistry

    # A forked worker inherits the parent's exporters (shared file
    # descriptors); drop to no-op instrumentation so traces stay coherent,
    # then re-enable metrics alone into a worker-private registry.
    parent_metrics_enabled = observability.get_metrics().enabled
    observability.disable()
    worker_metrics: MetricsRegistry | None = None
    if parent_metrics_enabled:
        worker_metrics = MetricsRegistry()
        observability.configure(metrics=worker_metrics)
    assert _FORK_PAYLOAD is not None, "worker forked without a cell payload"
    task, bitgen_cls = _FORK_PAYLOAD
    start = time.perf_counter()
    cpu_start = time.process_time()
    estimates, truths = run_rep_chunk(task, rep_seeds, bitgen_cls)
    return (
        chunk_index,
        estimates,
        truths,
        time.perf_counter() - start,
        time.process_time() - cpu_start,
        worker_metrics.snapshot() if worker_metrics is not None else None,
    )


class ParallelExecutor(TrialExecutor):
    """Distribute repetition chunks over forked worker processes.

    Repetitions are split into ``min(workers, n_reps)`` contiguous chunks
    (one per worker) and stitched back by position, so results are
    bit-identical to :class:`SerialExecutor` for any worker count.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ConfigurationError(
                f"ParallelExecutor needs >= 2 workers, got {workers}; "
                "use SerialExecutor for single-process execution"
            )
        self.workers = int(workers)
        if not _FORK_AVAILABLE:  # pragma: no cover - platform dependent
            warnings.warn(
                "fork start method unavailable; ParallelExecutor will run "
                "serially (cell tasks are closures and cannot be pickled)",
                RuntimeWarning,
                stacklevel=2,
            )

    def run_cell(
        self,
        task: CellTask,
        n_reps: int,
        parent: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        global _FORK_PAYLOAD
        rep_seeds, bitgen_cls = _rep_seed_sequences(parent, n_reps)
        n_chunks = min(self.workers, n_reps)
        if not _FORK_AVAILABLE or n_chunks < 2:  # pragma: no cover - trivial
            start = time.perf_counter()
            with get_tracer().span(
                "executor.chunk", {"backend": "serial-fallback", "chunk": 0, "reps": n_reps}
            ):
                estimates, truths = run_rep_chunk(task, rep_seeds, bitgen_cls)
            _record_cell_metrics(n_reps, 1, time.perf_counter() - start)
            return estimates, truths

        bounds = np.linspace(0, n_reps, n_chunks + 1).astype(int)
        chunks = [rep_seeds[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        estimates = np.empty(n_reps)
        truths = np.empty(n_reps)
        tracer = get_tracer()
        start = time.perf_counter()
        _FORK_PAYLOAD = (task, bitgen_cls)
        try:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=n_chunks, mp_context=context) as pool:
                futures = [
                    pool.submit(_forked_chunk, index, chunk)
                    for index, chunk in enumerate(chunks)
                ]
                profiler = getattr(tracer, "profiler", None)
                metrics = get_metrics()
                # Futures resolve in submit (= chunk) order, so worker
                # snapshots merge deterministically regardless of which
                # worker finished first.
                for future in futures:
                    with tracer.span("executor.chunk", {"backend": "process-pool"}) as span:
                        (
                            index,
                            chunk_estimates,
                            chunk_truths,
                            duration,
                            cpu,
                            worker_snapshot,
                        ) = future.result()
                        lo, hi = bounds[index], bounds[index + 1]
                        estimates[lo:hi] = chunk_estimates
                        truths[lo:hi] = chunk_truths
                        span.set_attribute("chunk", index)
                        span.set_attribute("reps", int(hi - lo))
                        span.set_attribute("worker_duration_s", duration)
                        span.set_attribute("worker_cpu_s", cpu)
                        if profiler is not None:
                            profiler.merge_external("executor.worker", duration, cpu)
                        if worker_snapshot is not None and metrics.enabled:
                            metrics.merge_snapshot(worker_snapshot)
        finally:
            _FORK_PAYLOAD = None
        _record_cell_metrics(n_reps, n_chunks, time.perf_counter() - start)
        return estimates, truths


# ----------------------------------------------------------------------
# Default-executor plumbing (``--workers`` flags / REPRO_WORKERS env var)
# ----------------------------------------------------------------------

def resolve_workers(workers: int | None = None) -> int:
    """Resolve an explicit worker count, falling back to ``REPRO_WORKERS``.

    ``None`` reads the environment (absent/empty means 1); anything below 1,
    or a non-integer environment value, raises :class:`ConfigurationError`.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {workers}")
    return workers


def executor_for(workers: int | None = None) -> TrialExecutor:
    """Build the executor for a worker count (``None`` = ``REPRO_WORKERS``)."""
    count = resolve_workers(workers)
    return SerialExecutor() if count == 1 else ParallelExecutor(count)


# The process-wide default, used whenever run_trials/sweep are not handed an
# executor explicitly.  Lazily built from REPRO_WORKERS on first use, like
# the observability globals (and for the same hot-path reason).
_default_executor: TrialExecutor | None = None


def get_executor() -> TrialExecutor:
    """The process-wide default executor (built from ``REPRO_WORKERS`` once)."""
    global _default_executor
    if _default_executor is None:
        _default_executor = executor_for(None)
    return _default_executor


def configure_executor(executor: TrialExecutor | None) -> None:
    """Install a process-wide default executor.

    ``None`` resets to the lazy default, re-reading ``REPRO_WORKERS`` on the
    next :func:`get_executor` call (useful in tests).
    """
    global _default_executor
    _default_executor = executor


@contextmanager
def use_executor(executor: TrialExecutor) -> Iterator[TrialExecutor]:
    """Temporarily install a default executor, restoring the previous one."""
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    try:
        yield executor
    finally:
        _default_executor = previous
