"""Figure 4: bit squashing under differential privacy -- Section 4.2/3.3.

Three panels on synthetic/census data with a deliberately loose 16-bit
encoding under epsilon = 2 randomized response:

* **4a** RMSE as the squash threshold sweeps (expressed, as in the paper,
  in multiples of the expected DP noise): thresholds in the sweet spot cut
  error by orders of magnitude by silencing the noisy empty high bits.
* **4b** the diagnostic histogram behind the heuristic: estimated (debiased)
  bit means for one run -- a dense low-bit region carrying the signal, noise
  fluctuations above it, some estimates escaping [0, 1].
* **4c** RMSE vs bit depth at a fixed threshold: squashing keeps the
  adaptive method flat while every non-squashing method grows with the
  vacuous range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import (
    AdaptiveBitPushing,
    BitSamplingSchedule,
    FixedPointEncoder,
    accumulate_bit_reports,
    bit_means_from_stats,
    central_assignment,
)
from repro.core.squashing import threshold_from_noise_multiple
from repro.data.census import sample_ages
from repro.experiments.methods import mean_methods
from repro.metrics.execution import TrialExecutor
from repro.metrics.experiment import SeriesResult, sweep
from repro.privacy import RandomizedResponse
from repro.rng import ensure_rng

__all__ = [
    "figure_4a",
    "figure_4b",
    "figure_4c",
    "BitMeansSnapshot",
    "DEFAULT_SQUASH_MULTIPLES",
    "DP_BIT_DEPTHS",
]

DEFAULT_SQUASH_MULTIPLES = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0)
DP_BIT_DEPTHS = (8, 10, 12, 14, 16, 18, 20)
_EPSILON = 2.0
_LOOSE_BITS = 16


def figure_4a(
    multiples: tuple[float, ...] = DEFAULT_SQUASH_MULTIPLES,
    epsilon: float = _EPSILON,
    n_bits: int = _LOOSE_BITS,
    n_clients: int = 10_000,
    n_reps: int = 100,
    seed: int = 401,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """RMSE vs squash threshold (in expected-DP-noise multiples), census data.

    Two series: the adaptive method with the swept threshold, and the
    unsquashed ``weighted alpha = 1.0`` reference (the strongest one-round
    method under RR) whose (flat) error shows the improvement factor.
    """
    encoder = FixedPointEncoder.for_integers(n_bits)
    results: dict[str, SeriesResult] = {}

    def adaptive_cell(multiple: float):
        est = AdaptiveBitPushing(
            encoder,
            perturbation=RandomizedResponse(epsilon=epsilon),
            squash_multiple=multiple,
        )
        def make(rng: np.random.Generator) -> np.ndarray:
            return sample_ages(n_clients, rng)
        def run(values: np.ndarray, rng: np.random.Generator) -> float:
            return float(est.estimate(values, rng).value)
        return make, run

    results["adaptive+squash"] = sweep(
        "adaptive+squash", multiples, adaptive_cell, n_reps=n_reps, seed=seed, executor=executor
    )

    def reference_cell(_multiple: float):
        method = mean_methods(n_bits, epsilon=epsilon, include=["weighted a=1.0"])[
            "weighted a=1.0"
        ]
        def make(rng: np.random.Generator) -> np.ndarray:
            return sample_ages(n_clients, rng)
        return make, method

    results["weighted a=1.0 (no squash)"] = sweep(
        "weighted a=1.0 (no squash)", multiples, reference_cell, n_reps=n_reps, seed=seed, executor=executor
    )
    return results


@dataclass(frozen=True)
class BitMeansSnapshot:
    """One noisy run's estimated bit means, for the Figure 4b histogram."""

    bit_means: np.ndarray
    true_bit_means: np.ndarray
    counts: np.ndarray
    threshold: float
    epsilon: float

    @property
    def noisy_bits(self) -> np.ndarray:
        """Indices whose estimate falls below the threshold (squash targets)."""
        return np.flatnonzero(self.bit_means < self.threshold)

    @property
    def out_of_unit_bits(self) -> np.ndarray:
        """Indices whose debiased estimate escaped [0, 1] (pure DP noise)."""
        return np.flatnonzero((self.bit_means < 0.0) | (self.bit_means > 1.0))


def figure_4b(
    epsilon: float = _EPSILON,
    n_bits: int = _LOOSE_BITS,
    n_clients: int = 10_000,
    threshold: float = 0.05,
    seed: int = 402,
) -> BitMeansSnapshot:
    """Estimated bit means for one noisy run (Figure 4b's histogram).

    Uses a uniform schedule so every bit index gets equal evidence -- the
    clearest view of where signal ends and DP noise begins.
    """
    gen = ensure_rng(seed)
    values = sample_ages(n_clients, gen)
    encoder = FixedPointEncoder.for_integers(n_bits)
    rr = RandomizedResponse(epsilon=epsilon)
    schedule = BitSamplingSchedule.uniform(n_bits)
    encoded = encoder.encode(values)
    assignment = central_assignment(n_clients, schedule, gen)
    sums, counts = accumulate_bit_reports(encoded, n_bits, assignment, rr, gen)
    means = bit_means_from_stats(sums, counts, rr)
    return BitMeansSnapshot(
        bit_means=means,
        true_bit_means=encoder.true_bit_means(values),
        counts=counts,
        threshold=threshold,
        epsilon=epsilon,
    )


def figure_4c(
    bit_depths: tuple[int, ...] = DP_BIT_DEPTHS,
    epsilon: float = _EPSILON,
    n_clients: int = 10_000,
    squash_multiple: float = 2.0,
    n_reps: int = 100,
    seed: int = 403,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """RMSE vs bit depth under epsilon = 2 (Figure 4c).

    The adaptive-with-squashing series should stay level while the
    non-squashing methods grow roughly with ``2**b``.
    """
    labels = ("dithering", "weighted a=0.5", "weighted a=1.0", "piecewise")
    results: dict[str, SeriesResult] = {}
    for label in labels:
        def cell(n_bits: float, label: str = label):
            method = mean_methods(int(n_bits), epsilon=epsilon, include=[label])[label]
            def make(rng: np.random.Generator) -> np.ndarray:
                return sample_ages(n_clients, rng)
            return make, method

        results[label] = sweep(label, bit_depths, cell, n_reps=n_reps, seed=seed, executor=executor)

    def squash_cell(n_bits: float):
        est = AdaptiveBitPushing(
            FixedPointEncoder.for_integers(int(n_bits)),
            perturbation=RandomizedResponse(epsilon=epsilon),
            squash_multiple=squash_multiple,
        )
        def make(rng: np.random.Generator) -> np.ndarray:
            return sample_ages(n_clients, rng)
        def run(values: np.ndarray, rng: np.random.Generator) -> float:
            return float(est.estimate(values, rng).value)
        return make, run

    results["adaptive+squash"] = sweep(
        "adaptive+squash", bit_depths, squash_cell, n_reps=n_reps, seed=seed, executor=executor
    )
    return results


def squash_threshold_for(multiple: float, epsilon: float, n_clients: int, n_bits: int) -> float:
    """Absolute squash threshold implied by a noise multiple (for reporting).

    Approximates per-bit counts by the uniform share ``n / b``.
    """
    counts = np.full(n_bits, n_clients / n_bits)
    return threshold_from_noise_multiple(multiple, epsilon, counts)
