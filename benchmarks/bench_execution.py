"""End-to-end figure-cell benchmarks: the trial-execution engine's speedup.

One *figure cell* -- fresh population per repetition, one estimator run per
population, truth comparison -- is the unit every figure sweep repeats
hundreds of times.  These benches time the same cell three ways:

* ``loop``     -- the historical per-repetition path (a plain closure, no
  batch kernel, :class:`~repro.metrics.execution.SerialExecutor`);
* ``batch``    -- the same estimator dispatched through
  :meth:`~repro.core.basic.BasicBitPushing.estimate_batch`;
* ``parallel`` -- the batch-dispatched cell under a 2-worker
  :class:`~repro.metrics.execution.ParallelExecutor`.

All three produce bit-identical estimates (asserted here and in
``tests/test_execution.py``); only the wall-clock differs.  The batch
kernel's win lives in the small-population regime (see
``docs/performance.md`` for the measured crossover).
"""

import numpy as np
import pytest

from repro.core import BasicBitPushing, FixedPointEncoder
from repro.metrics.execution import ParallelExecutor, SerialExecutor
from repro.metrics.experiment import run_trials

#: A small-cohort figure cell (figure-2a style) at full-scale rep count:
#: the regime where per-repetition overhead dominates and batching pays.
N_CLIENTS = 500
N_REPS = 200
BITS = 10


@pytest.fixture(scope="module")
def estimator():
    return BasicBitPushing(FixedPointEncoder.for_integers(BITS))


def _make_data(rng):
    return np.clip(rng.normal(600.0, 100.0, N_CLIENTS), 0.0, None)


def _cell(estimator, dispatch_batch, executor):
    def run_estimator(values, rng):
        return estimator.estimate(values, rng).value

    if dispatch_batch:
        run_estimator.estimate_batch = estimator.estimate_batch
    return run_trials(
        _make_data, run_estimator, n_reps=N_REPS, seed=42, executor=executor
    )


@pytest.fixture(scope="module")
def reference(estimator):
    """The loop path's estimates: every variant must reproduce these bits."""
    return _cell(estimator, dispatch_batch=False, executor=SerialExecutor()).estimates


def test_figure_cell_loop(benchmark, estimator, reference):
    stats = benchmark(_cell, estimator, False, SerialExecutor())
    np.testing.assert_array_equal(stats.estimates, reference)


def test_figure_cell_batch(benchmark, estimator, reference):
    stats = benchmark(_cell, estimator, True, SerialExecutor())
    np.testing.assert_array_equal(stats.estimates, reference)


def test_figure_cell_parallel(benchmark, estimator, reference):
    stats = benchmark(_cell, estimator, True, ParallelExecutor(2))
    np.testing.assert_array_equal(stats.estimates, reference)
