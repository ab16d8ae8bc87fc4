"""Repetition and sweep harness for the accuracy experiments.

One experimental *cell* in the paper is: draw a fresh population, run one
estimator on it, compare to that population's empirical statistic; repeat
100 times; report NRMSE (or RMSE) with a standard-error bar.  A *figure
series* sweeps one parameter (mean, n, bit depth, epsilon, ...) across
cells for one method.

:func:`run_trials` implements the cell, :func:`sweep` the series.  Both are
fully deterministic given a seed: repetitions use spawned child generators,
so adding methods or sweep points never perturbs other cells' randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.metrics.errors import bias, nrmse, nrmse_standard_error, rmse, standard_error
from repro.metrics.execution import CellTask, TrialExecutor, get_executor
from repro.rng import ensure_rng

__all__ = ["TrialStats", "SeriesResult", "run_trials", "sweep"]

#: Makes one fresh population: (rng) -> values array.
MakeData = Callable[[np.random.Generator], np.ndarray]
#: Runs one estimator: (values, rng) -> scalar estimate.
RunEstimator = Callable[[np.ndarray, np.random.Generator], float]
#: Ground truth for one population: (values) -> scalar.
TruthFn = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class TrialStats:
    """Aggregated accuracy of one (method, parameter) cell."""

    estimates: np.ndarray
    truths: np.ndarray
    n_reps: int

    @property
    def rmse(self) -> float:
        return rmse(self.estimates, self.truths)

    @property
    def nrmse(self) -> float:
        return nrmse(self.estimates, self.truths)

    @property
    def nrmse_stderr(self) -> float:
        return nrmse_standard_error(self.estimates, self.truths)

    @property
    def bias(self) -> float:
        return bias(self.estimates, self.truths)

    @property
    def estimate_stderr(self) -> float:
        return standard_error(self.estimates)

    @property
    def mean_truth(self) -> float:
        return float(np.mean(self.truths))


@dataclass
class SeriesResult:
    """One labelled line of a figure: x-values plus per-cell statistics."""

    label: str
    x: list[float] = field(default_factory=list)
    stats: list[TrialStats] = field(default_factory=list)

    def append(self, x_value: float, cell: TrialStats) -> None:
        self.x.append(float(x_value))
        self.stats.append(cell)

    @property
    def nrmse(self) -> list[float]:
        return [cell.nrmse for cell in self.stats]

    @property
    def rmse(self) -> list[float]:
        return [cell.rmse for cell in self.stats]

    @property
    def nrmse_stderr(self) -> list[float]:
        return [cell.nrmse_stderr for cell in self.stats]

    def rows(self, metric: str = "nrmse") -> list[tuple[float, float, float]]:
        """(x, value, stderr) triples, ready for printing or plotting."""
        if metric == "nrmse":
            return list(zip(self.x, self.nrmse, self.nrmse_stderr))
        if metric == "rmse":
            return list(zip(self.x, self.rmse, [cell.estimate_stderr for cell in self.stats]))
        raise ValueError(f"unknown metric {metric!r}")


def run_trials(
    make_data: MakeData,
    run_estimator: RunEstimator,
    n_reps: int = 100,
    seed: int | np.random.Generator | None = 0,
    truth_fn: TruthFn | None = None,
    executor: TrialExecutor | None = None,
) -> TrialStats:
    """Run ``n_reps`` independent repetitions of one experimental cell.

    Each repetition gets two independent child generators -- one for the
    population draw, one for the estimator -- so methods sharing a seed see
    identical populations (paired comparison, as in the paper's plots).

    Execution is delegated to a :class:`~repro.metrics.execution.TrialExecutor`
    (the process default from :func:`~repro.metrics.execution.get_executor`
    when ``executor`` is None).  Every executor honours the same spawned-seed
    discipline, so results are bit-identical across backends and worker
    counts.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    parent = ensure_rng(seed)
    truth = truth_fn if truth_fn is not None else lambda values: float(np.mean(values))
    task = CellTask(make_data=make_data, run_estimator=run_estimator, truth_fn=truth)
    runner = executor if executor is not None else get_executor()
    estimates, truths = runner.run_cell(task, n_reps, parent)
    return TrialStats(estimates=estimates, truths=truths, n_reps=n_reps)


def sweep(
    label: str,
    x_values: Sequence[float],
    cell_factory: Callable[[Any], tuple[MakeData, RunEstimator]],
    n_reps: int = 100,
    seed: int = 0,
    truth_fn: TruthFn | None = None,
    executor: TrialExecutor | None = None,
) -> SeriesResult:
    """Sweep one parameter for one method, producing a figure series.

    ``cell_factory(x)`` returns the ``(make_data, run_estimator)`` pair for
    parameter value ``x``.  Each sweep point derives its seed from ``seed``
    and its position, so series are reproducible point-by-point (and across
    executors -- see :mod:`repro.metrics.execution`).
    """
    series = SeriesResult(label=label)
    children = np.random.SeedSequence(seed).spawn(len(x_values))
    for x_value, child in zip(x_values, children):
        make_data, run_estimator = cell_factory(x_value)
        cell = run_trials(
            make_data,
            run_estimator,
            n_reps=n_reps,
            seed=np.random.default_rng(child),
            truth_fn=truth_fn,
            executor=executor,
        )
        series.append(x_value, cell)
    return series
