"""End-to-end figure-cell benchmarks: the trial-execution engine's speedup.

One *figure cell* -- fresh population per repetition, one estimator run per
population, truth comparison -- is the unit every figure sweep repeats
hundreds of times.  These benches time the same cell two ways:

* ``loop``     -- the per-repetition path under
  :class:`~repro.metrics.execution.SerialExecutor`;
* ``parallel`` -- the same cell under a 2-worker
  :class:`~repro.metrics.execution.ParallelExecutor`.

Both produce bit-identical estimates (asserted here and in
``tests/test_execution.py``); only the wall-clock differs.
"""

import numpy as np
import pytest

from repro.core import BasicBitPushing, FixedPointEncoder
from repro.metrics.execution import ParallelExecutor, SerialExecutor
from repro.metrics.experiment import run_trials

#: A small-cohort figure cell (figure-2a style) at full-scale rep count:
#: the regime where per-repetition overhead weighs most.
N_CLIENTS = 500
N_REPS = 200
BITS = 10


@pytest.fixture(scope="module")
def estimator():
    return BasicBitPushing(FixedPointEncoder.for_integers(BITS))


def _make_data(rng):
    return np.clip(rng.normal(600.0, 100.0, N_CLIENTS), 0.0, None)


def _cell(estimator, executor):
    def run_estimator(values, rng):
        return estimator.estimate(values, rng).value

    return run_trials(
        _make_data, run_estimator, n_reps=N_REPS, seed=42, executor=executor
    )


@pytest.fixture(scope="module")
def reference(estimator):
    """The serial loop's estimates: the parallel cell must reproduce these bits."""
    return _cell(estimator, executor=SerialExecutor()).estimates


def test_figure_cell_loop(benchmark, estimator, reference):
    stats = benchmark(_cell, estimator, SerialExecutor())
    np.testing.assert_array_equal(stats.estimates, reference)


def test_figure_cell_parallel(benchmark, estimator, reference):
    stats = benchmark(_cell, estimator, ParallelExecutor(2))
    np.testing.assert_array_equal(stats.estimates, reference)
