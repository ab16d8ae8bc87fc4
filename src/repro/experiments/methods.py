"""Method registry shared by every figure.

Each figure compares the same handful of estimators, so they are built in
one place: given a bit depth (which also fixes the ``[0, 2**b - 1]`` range
the baselines assume) and an optional epsilon, return a mapping of
method label -> ``(values, rng) -> float`` callables ready for
:func:`repro.metrics.run_trials`.

Labels follow the paper's legends: ``dithering``, ``weighted a=0.5``,
``weighted a=1.0``, ``adaptive``, ``piecewise``, plus the off-plot extras
``duchi``, ``randomized-rounding`` and ``laplace``.  The ``a=X`` exponent is
the paper's ``p_j \\propto 2**(alpha j)`` family: ``a=1.0`` is the Eq. 7
worst-case optimum (and the randomized-response optimum), ``a=0.5`` the
flatter allocation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.baselines import (
    DuchiMechanism,
    HybridMechanism,
    LaplaceMean,
    PiecewiseMechanism,
    RandomizedRounding,
    SubtractiveDithering,
)
from repro.core import (
    AdaptiveBitPushing,
    BasicBitPushing,
    BitSamplingSchedule,
    FixedPointEncoder,
    VarianceEstimator,
    accumulate_bit_reports,
    central_assignment,
)
from repro.exceptions import ConfigurationError
from repro.privacy import RandomizedResponse
from repro.privacy.distributed import BernoulliNoiseAggregator, SampleAndThreshold

__all__ = [
    "MeanMethod",
    "mean_methods",
    "variance_methods",
    "distributed_mean_estimate",
    "PAPER_MEAN_METHODS",
]

#: An estimator callable: (values, rng) -> point estimate.
MeanMethod = Callable[[np.ndarray, np.random.Generator], float]

#: The methods plotted in the paper's accuracy figures, in legend order.
PAPER_MEAN_METHODS = ("dithering", "weighted a=0.5", "weighted a=1.0", "adaptive")


def _encoder(n_bits: int) -> FixedPointEncoder:
    return FixedPointEncoder.for_integers(n_bits)


def mean_methods(
    n_bits: int,
    epsilon: float | None = None,
    include: Sequence[str] = PAPER_MEAN_METHODS,
    adaptive_squash_multiple: float = 0.0,
) -> dict[str, MeanMethod]:
    """Build the labelled mean estimators for one figure cell.

    Parameters
    ----------
    n_bits:
        Bit depth; the baselines assume the matching range ``[0, 2**b - 1]``.
    epsilon:
        ``None`` for the accuracy experiments (Figures 1-2); a float applies
        randomized response / the native LDP mechanisms (Figures 3-4).
    include:
        Which labels to build (order preserved).
    adaptive_squash_multiple:
        Squash threshold (in DP-noise multiples) for the adaptive method;
        only valid with ``epsilon`` set.
    """
    high = float(2**n_bits - 1)
    rr = RandomizedResponse(epsilon=epsilon) if epsilon is not None else None
    methods: dict[str, MeanMethod] = {}
    for label in include:
        if label == "dithering":
            baseline = SubtractiveDithering(0.0, high, epsilon=epsilon)
            methods[label] = _wrap(baseline.estimate)
        elif label.startswith("weighted"):
            alpha = float(label.split("=")[1])
            est = BasicBitPushing(
                _encoder(n_bits),
                schedule=BitSamplingSchedule.weighted(n_bits, alpha=alpha),
                perturbation=rr,
            )
            methods[label] = _wrap(est.estimate)
        elif label == "adaptive":
            est = AdaptiveBitPushing(
                _encoder(n_bits),
                perturbation=rr,
                squash_multiple=adaptive_squash_multiple if rr is not None else 0.0,
            )
            methods[label] = _wrap(est.estimate)
        elif label == "piecewise":
            if epsilon is None:
                raise ConfigurationError("piecewise is an LDP mechanism; epsilon required")
            methods[label] = _wrap(PiecewiseMechanism(0.0, high, epsilon).estimate)
        elif label == "duchi":
            if epsilon is None:
                raise ConfigurationError("duchi is an LDP mechanism; epsilon required")
            methods[label] = _wrap(DuchiMechanism(0.0, high, epsilon).estimate)
        elif label == "hybrid":
            if epsilon is None:
                raise ConfigurationError("hybrid is an LDP mechanism; epsilon required")
            methods[label] = _wrap(HybridMechanism(0.0, high, epsilon).estimate)
        elif label == "randomized-rounding":
            methods[label] = _wrap(RandomizedRounding(0.0, high, epsilon=epsilon).estimate)
        elif label == "laplace":
            if epsilon is None:
                raise ConfigurationError("laplace is an LDP mechanism; epsilon required")
            methods[label] = _wrap(LaplaceMean(0.0, high, epsilon).estimate)
        else:
            raise ConfigurationError(f"unknown method label {label!r}")
    return methods


def _wrap(estimate: Callable) -> MeanMethod:
    def run(values: np.ndarray, rng: np.random.Generator) -> float:
        return float(estimate(values, rng).value)

    return run


def variance_methods(
    n_bits: int,
    include: Sequence[str] = PAPER_MEAN_METHODS,
) -> dict[str, MeanMethod]:
    """Variance estimators matching the paper's Figure 1b/2b legends.

    Bit-pushing variants use :class:`VarianceEstimator` (centered
    decomposition) with the matching inner engine; the dithering variant
    estimates ``E[X]`` and ``E[X^2]`` with two dithering runs over the
    squared range -- the only option for a method that cannot adapt.
    """
    high = float(2**n_bits - 1)
    methods: dict[str, MeanMethod] = {}
    for label in include:
        if label == "dithering":
            methods[label] = _dithering_variance(high)
        elif label.startswith("weighted"):
            alpha = float(label.split("=")[1])
            methods[label] = _weighted_variance(n_bits, alpha)
        elif label == "adaptive":
            est = VarianceEstimator(_encoder(n_bits), method="centered", inner="adaptive")
            methods[label] = _wrap(est.estimate)
        else:
            raise ConfigurationError(f"unknown variance method label {label!r}")
    return methods


def _weighted_variance(n_bits: int, alpha: float) -> MeanMethod:
    """Centered variance estimation with fixed-alpha basic bit-pushing.

    The inner basic estimator needs a schedule per phase (the squares phase
    has twice the bits), so the schedule is built inside the inner factory
    rather than passed as a constant.
    """

    class _AlphaBasicFactoryEstimator(VarianceEstimator):
        def _make_inner(self, encoder: FixedPointEncoder) -> BasicBitPushing:
            schedule = BitSamplingSchedule.weighted(encoder.n_bits, alpha=alpha)
            return BasicBitPushing(encoder, schedule=schedule)

    est = _AlphaBasicFactoryEstimator(_encoder(n_bits), method="centered", inner="basic")
    return _wrap(est.estimate)


def _dithering_variance(high: float) -> MeanMethod:
    """Variance via two subtractive-dithering mean estimates (moments form)."""

    def run(values: np.ndarray, rng: np.random.Generator) -> float:
        values = np.asarray(values, dtype=np.float64)
        half = values.size // 2
        order = rng.permutation(values.size)
        first, second = values[order[:half]], values[order[half:]]
        mean_est = SubtractiveDithering(0.0, high).estimate(first, rng).value
        sq_est = SubtractiveDithering(0.0, high**2).estimate(second**2, rng).value
        return sq_est - mean_est**2

    return run


def distributed_mean_estimate(
    values: np.ndarray,
    n_bits: int,
    mechanism: BernoulliNoiseAggregator | SampleAndThreshold,
    rng: np.random.Generator,
    alpha: float = 1.0,
) -> float:
    """Mean estimation with distributed DP applied to the bit histograms.

    Runs one noise-free bit-pushing round (the reports are protected by the
    secure-aggregation boundary), then privatizes the per-bit counters with
    the given distributed mechanism before reconstruction (Section 3.3
    "Distributed privacy guarantees").
    """
    encoder = _encoder(n_bits)
    schedule = BitSamplingSchedule.weighted(n_bits, alpha=alpha)
    encoded = encoder.encode(np.asarray(values, dtype=np.float64))
    assignment = central_assignment(encoded.size, schedule, rng)
    sums, counts = accumulate_bit_reports(encoded, n_bits, assignment)
    noisy_means = mechanism.privatize_bit_means(sums, counts, rng)
    noisy_means = np.clip(noisy_means, 0.0, 1.0)
    return encoder.mean_from_bit_means(noisy_means)
