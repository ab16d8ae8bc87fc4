"""Ablations over the design choices DESIGN.md calls out.

These go beyond the paper's printed figures to check the claims made in its
prose: the delta = 1/3 round split (Section 3.2), the gamma/alpha schedule
exponents, the value of caching, the Corollary 3.2 ``b_send`` scaling, the
Lemma 3.5 variance-decomposition preference, central-vs-local randomness
under poisoning (Section 5), distributed DP's better n-dependence
(Section 3.3), and the dropout auto-adjustment of sampling probabilities
(Section 4.3).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.poisoning import poisoned_estimate
from repro.core import (
    AdaptiveBitPushing,
    BasicBitPushing,
    BitSamplingSchedule,
    FixedPointEncoder,
    VarianceEstimator,
)
from repro.data.census import sample_ages
from repro.data.synthetic import normal
from repro.experiments.methods import distributed_mean_estimate, mean_methods
from repro.federated import ClientBatch, DropoutModel, FederatedMeanQuery
from repro.metrics.execution import TrialExecutor
from repro.metrics.experiment import SeriesResult, sweep
from repro.privacy.distributed import BernoulliNoiseAggregator, SampleAndThreshold

__all__ = [
    "delta_sweep",
    "gamma_sweep",
    "alpha_sweep",
    "caching_ablation",
    "b_send_sweep",
    "variance_decomposition",
    "poisoning_sweep",
    "distributed_dp_comparison",
    "dropout_adjustment",
    "schedule_sensitivity",
]

_MU, _SIGMA = 1000.0, 100.0
_BITS = 14  # deliberately loose so adaptivity matters


def _normal_make(n_clients: int):
    def make(rng: np.random.Generator) -> np.ndarray:
        return normal(n_clients, _MU, _SIGMA, rng)
    return make


def delta_sweep(
    deltas: tuple[float, ...] = (0.1, 0.2, 1.0 / 3.0, 0.5, 0.7),
    n_clients: int = 10_000,
    n_reps: int = 100,
    seed: int = 501,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Adaptive NRMSE vs the round-1 cohort fraction delta (paper picks 1/3)."""
    encoder = FixedPointEncoder.for_integers(_BITS)

    def cell(delta: float):
        est = AdaptiveBitPushing(encoder, delta=delta)
        return _normal_make(n_clients), lambda values, rng: float(est.estimate(values, rng).value)

    return {"adaptive": sweep("adaptive", deltas, cell, n_reps=n_reps, seed=seed, executor=executor)}


def gamma_sweep(
    gammas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    n_clients: int = 10_000,
    n_reps: int = 100,
    seed: int = 502,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Adaptive NRMSE vs the round-1 schedule exponent gamma (default 0.5)."""
    encoder = FixedPointEncoder.for_integers(_BITS)

    def cell(gamma: float):
        est = AdaptiveBitPushing(encoder, gamma=gamma)
        return _normal_make(n_clients), lambda values, rng: float(est.estimate(values, rng).value)

    return {"adaptive": sweep("adaptive", gammas, cell, n_reps=n_reps, seed=seed, executor=executor)}


def alpha_sweep(
    alphas: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    n_clients: int = 10_000,
    n_reps: int = 100,
    seed: int = 503,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Adaptive NRMSE vs the round-2 exponent alpha (Lemma 3.3 optimum: 0.5)."""
    encoder = FixedPointEncoder.for_integers(_BITS)

    def cell(alpha: float):
        est = AdaptiveBitPushing(encoder, alpha=alpha)
        return _normal_make(n_clients), lambda values, rng: float(est.estimate(values, rng).value)

    return {"adaptive": sweep("adaptive", alphas, cell, n_reps=n_reps, seed=seed, executor=executor)}


def caching_ablation(
    cohorts: tuple[int, ...] = (1_000, 5_000, 10_000, 50_000),
    n_reps: int = 100,
    seed: int = 504,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Caching (pool both rounds) vs round-2-only, across cohort sizes."""
    encoder = FixedPointEncoder.for_integers(_BITS)
    results: dict[str, SeriesResult] = {}
    for label, caching in (("caching", True), ("round-2 only", False)):
        def cell(n_clients: float, caching: bool = caching):
            est = AdaptiveBitPushing(encoder, caching=caching)
            return (
                _normal_make(int(n_clients)),
                lambda values, rng: float(est.estimate(values, rng).value),
            )

        results[label] = sweep(label, cohorts, cell, n_reps=n_reps, seed=seed, executor=executor)
    return results


def b_send_sweep(
    b_sends: tuple[int, ...] = (1, 2, 4, 8),
    n_clients: int = 10_000,
    n_reps: int = 100,
    seed: int = 505,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Basic NRMSE vs bits sent per client (Corollary 3.2: ~1/sqrt(b_send))."""
    encoder = FixedPointEncoder.for_integers(_BITS)

    def cell(b_send: float):
        est = BasicBitPushing(encoder, b_send=int(b_send))
        return _normal_make(n_clients), lambda values, rng: float(est.estimate(values, rng).value)

    return {"basic": sweep("basic", b_sends, cell, n_reps=n_reps, seed=seed, executor=executor)}


def variance_decomposition(
    cohorts: tuple[int, ...] = (10_000, 50_000, 100_000),
    n_reps: int = 100,
    seed: int = 506,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Lemma 3.5: centered vs moments variance estimation, across n."""
    encoder = FixedPointEncoder.for_integers(11)
    results: dict[str, SeriesResult] = {}
    for method in ("centered", "moments"):
        def cell(n_clients: float, method: str = method):
            est = VarianceEstimator(encoder, method=method, inner="adaptive")
            def make(rng: np.random.Generator) -> np.ndarray:
                return normal(int(n_clients), _MU, _SIGMA, rng)
            return make, lambda values, rng: float(est.estimate(values, rng).value)

        results[method] = sweep(
            method, cohorts, cell, n_reps=n_reps, seed=seed, executor=executor,
            truth_fn=lambda values: float(np.var(values)),
        )
    return results


def poisoning_sweep(
    fractions: tuple[float, ...] = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05),
    n_clients: int = 10_000,
    n_reps: int = 50,
    seed: int = 507,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Attack-induced relative shift, local vs central randomness (Section 5).

    The estimator output here is the attacked estimate re-centred on the
    honest same-run estimate, so NRMSE isolates what the adversary injected
    (sampling noise cancels).

    The sweep uses a *uniform* schedule: the local-randomness amplification
    is the factor by which an adversary can concentrate its reports on the
    top bit relative to the schedule's own allocation (about ``1/(b p_top)``).
    Under the ``2**j``-weighted schedule the top bit already holds ~half the
    sampling mass, so the gap nearly vanishes -- itself an interesting
    finding -- whereas under uniform sampling central randomness cuts the
    attack's leverage by roughly the bit depth.
    """
    encoder = FixedPointEncoder.for_integers(_BITS)
    schedule = BitSamplingSchedule.uniform(_BITS)
    results: dict[str, SeriesResult] = {}
    for randomness in ("local", "central"):
        def cell(fraction: float, randomness: str = randomness):
            def run(values: np.ndarray, rng: np.random.Generator) -> float:
                outcome = poisoned_estimate(
                    values, encoder, fraction, randomness=randomness,
                    schedule=schedule, rng=rng,
                )
                # Report the shift around the honest estimate, re-centred on
                # the truth so NRMSE measures attack-injected error only.
                return outcome.true_mean + outcome.attack_shift
            return _normal_make(n_clients), run

        results[randomness] = sweep(randomness, fractions, cell, n_reps=n_reps, seed=seed, executor=executor)
    return results


def distributed_dp_comparison(
    epsilons: tuple[float, ...] = (0.5, 1.0, 2.0),
    n_clients: int = 100_000,
    n_bits: int = 8,
    delta: float = 1e-6,
    n_reps: int = 100,
    seed: int = 508,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Local RR vs distributed mechanisms on census data (Section 3.3).

    Distributed DP adds aggregate-level noise, so its error should sit far
    below local randomized response at equal epsilon and shrink faster in n.
    """
    results: dict[str, SeriesResult] = {}

    def ldp_cell(epsilon: float):
        method = mean_methods(n_bits, epsilon=epsilon, include=["weighted a=0.5"])[
            "weighted a=0.5"
        ]
        def make(rng: np.random.Generator) -> np.ndarray:
            return sample_ages(n_clients, rng)
        return make, method

    results["local RR"] = sweep("local RR", epsilons, ldp_cell, n_reps=n_reps, seed=seed, executor=executor)

    for label, factory in (
        ("bernoulli noise", lambda eps: BernoulliNoiseAggregator(eps, delta)),
        ("sample+threshold", lambda eps: SampleAndThreshold(eps, delta)),
    ):
        def cell(epsilon: float, factory=factory):
            mechanism = factory(epsilon)
            def make(rng: np.random.Generator) -> np.ndarray:
                return sample_ages(n_clients, rng)
            def run(values: np.ndarray, rng: np.random.Generator) -> float:
                return distributed_mean_estimate(values, n_bits, mechanism, rng)
            return make, run

        results[label] = sweep(label, epsilons, cell, n_reps=n_reps, seed=seed, executor=executor)
    return results


def schedule_sensitivity(
    mix_fractions: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0),
    n_clients: int = 10_000,
    n_reps: int = 100,
    seed: int = 510,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """NRMSE as the schedule is blended away from the Eq. 7 optimum.

    ``p(t) = (1 - t) * p_opt + t * uniform`` sweeps from the worst-case
    optimal allocation to uniform.  The deployment found the protocol "not
    overly sensitive to the bit-sampling probability" (Section 4.3) -- the
    curve should rise gently rather than cliff.
    """
    encoder = FixedPointEncoder.for_integers(_BITS)
    optimum = BitSamplingSchedule.weighted(_BITS, alpha=1.0).probabilities
    uniform = BitSamplingSchedule.uniform(_BITS).probabilities

    def cell(mix: float):
        schedule = BitSamplingSchedule((1.0 - mix) * optimum + mix * uniform)
        est = BasicBitPushing(encoder, schedule=schedule)
        return _normal_make(n_clients), lambda values, rng: float(est.estimate(values, rng).value)

    return {"basic": sweep("basic", mix_fractions, cell, n_reps=n_reps, seed=seed, executor=executor)}


def dropout_adjustment(
    dropout_rates: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6),
    n_clients: int = 5_000,
    n_bits: int = 10,
    n_reps: int = 30,
    seed: int = 509,
    executor: TrialExecutor | None = None,
) -> dict[str, SeriesResult]:
    """Federated adaptive query under dropout, with and without the
    min-reports-per-bit schedule adjustment (Section 4.3)."""
    encoder = FixedPointEncoder.for_integers(n_bits)
    results: dict[str, SeriesResult] = {}
    for label, min_reports in (("adjusted", 20), ("unadjusted", 0)):
        def cell(rate: float, min_reports: int = min_reports):
            def make(rng: np.random.Generator) -> np.ndarray:
                return sample_ages(n_clients, rng)
            def run(values: np.ndarray, rng: np.random.Generator) -> float:
                population = ClientBatch.from_values(values)
                query = FederatedMeanQuery(
                    encoder,
                    mode="adaptive",
                    dropout=DropoutModel(rate=rate, jitter=min(0.05, rate / 2) if rate else 0.0),
                    min_reports_per_bit=min_reports,
                )
                return float(query.run(population, rng).value)
            return make, run

        results[label] = sweep(label, dropout_rates, cell, n_reps=n_reps, seed=seed, executor=executor)
    return results
