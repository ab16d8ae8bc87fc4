"""Seeded Monte-Carlo differential oracles for every estimator family.

Each oracle runs a fixed, seeded experiment and compares the outcome to a
*ground truth the implementation cannot influence*: a closed-form
expectation (unbiasedness, the Lemma 3.1 variance bound, the randomized-
response debias identity), an exact twin (secure aggregation against its
plaintext sum, parallel against serial trial execution, columnar against
object rounds), or a tolerance against the population statistic.

All oracles consume randomness exclusively through spawned children of the
caller's seed, so a given ``(oracle, seed)`` pair is fully deterministic --
the statistical machinery in :mod:`repro.verification.statcheck` governs
what happens when somebody *changes* the seed.

Oracles accept the object under test where injection is useful (e.g.
``rr_debias_oracle(perturbation=...)``), which is how the test suite proves
the oracle catches deliberately broken implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines import RangeMeanEstimator
from repro.core.adaptive import AdaptiveBitPushing
from repro.core.basic import BasicBitPushing
from repro.core.client_plane import ClientBatch
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import BitPerturbation, theoretical_variance
from repro.core.sampling import BitSamplingSchedule
from repro.core.variance import VarianceEstimator
from repro.federated.client import ClientDevice
from repro.federated.cohort import attribute_equals
from repro.federated.dropout import DropoutModel
from repro.federated.network import NetworkModel
from repro.federated.secure_agg.protocol import SecureAggregationSession, default_threshold
from repro.federated.server import FederatedMeanQuery
from repro.metrics.execution import ParallelExecutor, SerialExecutor, TrialExecutor
from repro.metrics.experiment import run_trials
from repro.privacy.randomized_response import RandomizedResponse
from repro.rng import ensure_rng
from repro.verification.invariants import check_estimate, check_secure_sum
from repro.verification.statcheck import TestResult, variance_upper_tail, z_test

__all__ = [
    "OracleResult",
    "adaptive_unbiasedness_oracle",
    "baseline_unbiasedness_oracle",
    "basic_unbiasedness_oracle",
    "basic_variance_bound_oracle",
    "columnar_twin_oracle",
    "executor_twin_oracle",
    "rr_debias_oracle",
    "secure_agg_oracle",
    "variance_estimator_oracle",
]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one oracle run.

    ``p_value`` is ``None`` for exact (differential / tolerance) oracles;
    statistical oracles report the p-value the family-wise gate consumes.
    """

    name: str
    passed: bool
    detail: str
    statistic: float | None = None
    p_value: float | None = None
    n_reps: int = 0


def _from_test(name: str, test: TestResult, alpha: float, n_reps: int) -> OracleResult:
    return OracleResult(
        name=name,
        passed=test.p_value >= alpha,
        detail=test.detail,
        statistic=test.statistic,
        p_value=test.p_value,
        n_reps=n_reps,
    )


def _fixed_population(seed_child: np.random.Generator, n_clients: int, n_bits: int) -> np.ndarray:
    """A fixed integer population on the ``n_bits`` grid (uniform draw)."""
    return seed_child.integers(0, 2**n_bits, size=n_clients).astype(np.float64)


def _true_bit_means(values: np.ndarray, n_bits: int) -> np.ndarray:
    encoded = values.astype(np.uint64)
    return np.array(
        [float(np.mean((encoded >> np.uint64(j)) & np.uint64(1))) for j in range(n_bits)]
    )


# ----------------------------------------------------------------------
# Closed-form oracles
# ----------------------------------------------------------------------

def basic_unbiasedness_oracle(
    seed: int = 0,
    n_reps: int = 300,
    n_clients: int = 4096,
    n_bits: int = 8,
    alpha_schedule: float = 1.0,
    randomness: str = "central",
    b_send: int = 1,
    perturbation: BitPerturbation | None = None,
    squash_threshold: float = 0.0,
    alpha: float = 1e-9,
) -> OracleResult:
    """``E[estimate] = population mean`` for the basic estimator.

    Self-normalized z-test: the mean of ``n_reps`` seeded estimates against
    the fixed population's exact mean, studentized by the empirical standard
    error.  Valid with or without a perturbation, for both randomness modes
    and any ``b_send`` (squashing, if enabled, is a *biased* post-process --
    callers testing it should expect failure and invert the assertion).
    """
    parent = ensure_rng(seed)
    pop_gen, *rep_gens = parent.spawn(n_reps + 1)
    values = _fixed_population(pop_gen, n_clients, n_bits)
    truth = float(values.mean())
    encoder = FixedPointEncoder.for_integers(n_bits)
    estimator = BasicBitPushing(
        encoder,
        schedule=BitSamplingSchedule.weighted(n_bits, alpha=alpha_schedule),
        b_send=b_send,
        randomness=randomness,
        perturbation=perturbation,
        squash_threshold=squash_threshold,
    )
    estimates = np.empty(n_reps)
    for r, gen in enumerate(rep_gens):
        result = estimator.estimate(values, rng=gen)
        check_estimate(result)
        estimates[r] = result.value
    stderr = float(np.std(estimates, ddof=1)) / math.sqrt(n_reps)
    name = f"basic-unbiased[{randomness},b={b_send},ldp={perturbation is not None}]"
    test = z_test(float(estimates.mean()), truth, stderr, name=name)
    return _from_test(name, test, alpha, n_reps)


def basic_variance_bound_oracle(
    seed: int = 0,
    n_reps: int = 300,
    n_clients: int = 4096,
    n_bits: int = 8,
    alpha_schedule: float = 1.0,
    alpha: float = 1e-9,
) -> OracleResult:
    """Empirical estimator variance never exceeds the Lemma 3.1 bound.

    One-sided chi-square upper-tail test: the central (quasi-Monte-Carlo)
    assignment may *beat* the bound thanks to its finite-population
    correction, but exceeding it means a broken schedule, weight, or
    debiasing step.
    """
    parent = ensure_rng(seed)
    pop_gen, *rep_gens = parent.spawn(n_reps + 1)
    values = _fixed_population(pop_gen, n_clients, n_bits)
    encoder = FixedPointEncoder.for_integers(n_bits)
    schedule = BitSamplingSchedule.weighted(n_bits, alpha=alpha_schedule)
    estimator = BasicBitPushing(encoder, schedule=schedule)
    estimates = np.array([estimator.estimate(values, rng=g).value for g in rep_gens])
    bound = theoretical_variance(_true_bit_means(values, n_bits), schedule, n_clients)
    name = "basic-variance<=lemma3.1"
    test = variance_upper_tail(float(np.var(estimates, ddof=1)), bound, n_reps, name=name)
    return _from_test(name, test, alpha, n_reps)


def rr_debias_oracle(
    seed: int = 0,
    n_bits_reports: int = 200_000,
    epsilon: float = 1.0,
    true_mean: float = 0.3,
    perturbation: BitPerturbation | None = None,
    alpha: float = 1e-9,
) -> OracleResult:
    """The randomized-response debias map inverts the perturbation exactly.

    Perturb a bit vector with *known* mean, debias the reported mean, and
    z-test against the known mean using the exact reported-domain standard
    error.  Pass a custom ``perturbation`` to test an injected mechanism --
    a wrong debias constant shifts the estimate by O(1) against an O(1/sqrt
    (N)) standard error and fails at any threshold.
    """
    rr = perturbation if perturbation is not None else RandomizedResponse(epsilon=epsilon)
    parent = ensure_rng(seed)
    n_ones = int(round(true_mean * n_bits_reports))
    bits = np.zeros(n_bits_reports, dtype=np.uint8)
    bits[:n_ones] = 1
    exact_mean = n_ones / n_bits_reports
    reported = np.asarray(rr.perturb_bits(bits, parent), dtype=np.float64)
    estimate = float(np.asarray(rr.unbias_bit_means(np.array([reported.mean()])))[0])
    # Reported-domain distribution under an honest eps-RR mechanism.
    p = math.exp(epsilon) / (1.0 + math.exp(epsilon))
    reported_mean = (1.0 - p) + (2.0 * p - 1.0) * exact_mean
    std_of_mean = math.sqrt(reported_mean * (1.0 - reported_mean) / n_bits_reports) / (
        2.0 * p - 1.0
    )
    name = f"rr-debias[eps={epsilon:g}]"
    test = z_test(estimate, exact_mean, std_of_mean, name=name)
    return _from_test(name, test, alpha, n_reps=1)


def adaptive_unbiasedness_oracle(
    seed: int = 0,
    n_reps: int = 300,
    n_clients: int = 4096,
    n_bits: int = 8,
    caching: bool = True,
    perturbation: BitPerturbation | None = None,
    alpha: float = 1e-9,
) -> OracleResult:
    """``E[estimate] = population mean`` for the two-round adaptive estimator."""
    parent = ensure_rng(seed)
    pop_gen, *rep_gens = parent.spawn(n_reps + 1)
    values = _fixed_population(pop_gen, n_clients, n_bits)
    truth = float(values.mean())
    encoder = FixedPointEncoder.for_integers(n_bits)
    estimator = AdaptiveBitPushing(encoder, caching=caching, perturbation=perturbation)
    estimates = np.empty(n_reps)
    for r, gen in enumerate(rep_gens):
        result = estimator.estimate(values, rng=gen)
        check_estimate(result)
        estimates[r] = result.value
    stderr = float(np.std(estimates, ddof=1)) / math.sqrt(n_reps)
    name = f"adaptive-unbiased[caching={caching},ldp={perturbation is not None}]"
    test = z_test(float(estimates.mean()), truth, stderr, name=name)
    return _from_test(name, test, alpha, n_reps)


def variance_estimator_oracle(
    seed: int = 0,
    n_reps: int = 60,
    n_clients: int = 20_000,
    n_bits: int = 8,
    method: str = "centered",
    tolerance: float = 0.05,
) -> OracleResult:
    """The Section 3.4 variance estimator tracks the population variance.

    Tolerance oracle rather than an exact z-test: both decompositions carry
    a small O(1/n) plug-in bias (``E[(x - m_hat)^2]`` inflates by
    ``Var[m_hat]``; ``E[m_hat^2]`` inflates ``m^2`` likewise), so the check
    asserts the relative error of the mean-of-estimates stays under
    ``tolerance`` instead of exactly zero.
    """
    parent = ensure_rng(seed)
    pop_gen, *rep_gens = parent.spawn(n_reps + 1)
    values = _fixed_population(pop_gen, n_clients, n_bits)
    truth = float(values.var())
    estimator = VarianceEstimator(FixedPointEncoder.for_integers(n_bits), method=method)
    estimates = np.array([estimator.estimate(values, rng=g).value for g in rep_gens])
    if np.any(~np.isfinite(estimates)) or np.any(estimates < 0):
        return OracleResult(
            name=f"variance-{method}",
            passed=False,
            detail="variance estimates must be finite and non-negative",
            n_reps=n_reps,
        )
    rel_err = abs(float(estimates.mean()) - truth) / truth
    return OracleResult(
        name=f"variance-{method}",
        passed=rel_err < tolerance,
        detail=f"relative error {rel_err:.4f} vs tolerance {tolerance} (truth {truth:.4g})",
        statistic=rel_err,
        n_reps=n_reps,
    )


def baseline_unbiasedness_oracle(
    baseline: RangeMeanEstimator,
    seed: int = 0,
    n_reps: int = 300,
    n_clients: int = 4096,
    alpha: float = 1e-9,
) -> OracleResult:
    """``E[estimate] = population mean`` for a prior-work baseline."""
    parent = ensure_rng(seed)
    pop_gen, *rep_gens = parent.spawn(n_reps + 1)
    width = baseline.high - baseline.low
    values = baseline.low + width * pop_gen.random(n_clients)
    truth = float(values.mean())
    estimates = np.array([baseline.estimate(values, rng=g).value for g in rep_gens])
    stderr = float(np.std(estimates, ddof=1)) / math.sqrt(n_reps)
    name = f"baseline-unbiased[{baseline.method}]"
    test = z_test(float(estimates.mean()), truth, stderr, name=name)
    return _from_test(name, test, alpha, n_reps)


# ----------------------------------------------------------------------
# Differential (exact-twin) oracles
# ----------------------------------------------------------------------

def executor_twin_oracle(
    seed: int = 0,
    n_reps: int = 24,
    n_clients: int = 512,
    n_bits: int = 8,
    executor: TrialExecutor | None = None,
) -> OracleResult:
    """Parallel trial execution is bit-identical to the serial executor.

    Runs one experimental cell under :class:`SerialExecutor` and under
    ``executor`` (default: a two-worker :class:`ParallelExecutor`) and
    requires exactly equal estimates *and* truths.  On platforms without
    ``fork`` the parallel backend degrades to serial with a warning, which
    still exercises the chunked code path.
    """
    encoder = FixedPointEncoder.for_integers(n_bits)
    estimator = BasicBitPushing(encoder)

    def make_data(gen: np.random.Generator) -> np.ndarray:
        return gen.integers(0, 2**n_bits, size=n_clients).astype(np.float64)

    def run_estimator(values: np.ndarray, gen: np.random.Generator) -> float:
        return estimator.estimate(values, rng=gen).value

    serial = run_trials(
        make_data, run_estimator, n_reps=n_reps, seed=seed, executor=SerialExecutor()
    )
    other = executor if executor is not None else ParallelExecutor(workers=2)
    parallel = run_trials(make_data, run_estimator, n_reps=n_reps, seed=seed, executor=other)
    identical = bool(
        np.array_equal(serial.estimates, parallel.estimates)
        and np.array_equal(serial.truths, parallel.truths)
    )
    max_diff = float(np.max(np.abs(serial.estimates - parallel.estimates)))
    return OracleResult(
        name=f"twin-executor[{type(other).__name__}]",
        passed=identical,
        detail=(
            "bit-identical across executors"
            if identical
            else f"executor max |diff| = {max_diff:.3e}"
        ),
        statistic=max_diff,
        n_reps=n_reps,
    )


def columnar_twin_oracle(
    seed: int = 0,
    n_clients: int = 600,
    n_bits: int = 8,
    mode: str = "adaptive",
    perturbation: BitPerturbation | None = None,
    chunk: int = 37,
) -> OracleResult:
    """A device-list round is bit-identical to the same round over its batch.

    Runs the same :class:`FederatedMeanQuery` configuration (dropout +
    lossy network + eligibility filter + subsampled cohort) three times
    from one seed: over a ``ClientDevice`` list at the default chunk (``run``
    converts it with :meth:`ClientBatch.from_devices`), over the equivalent
    pre-built :class:`ClientBatch` with a deliberately awkward chunk size,
    and over the batch again with ``chunk = 1`` (every chunk boundary
    exercised).  All three estimates, bit-mean vectors, and report counts
    must be exactly equal, which pins the device-list -> batch conversion
    and chunk invariance (chunk None/37/1).
    """
    parent = ensure_rng(seed)
    pop_gen, seed_gen = parent.spawn(2)
    sizes = pop_gen.integers(1, 4, size=n_clients)
    devices = [
        ClientDevice(
            i,
            pop_gen.integers(0, 2**n_bits, size=int(sizes[i])).astype(np.float64),
            {"geo": "us" if i % 2 else "eu"},
        )
        for i in range(n_clients)
    ]
    batch = ClientBatch.from_devices(devices)
    run_seed = int(seed_gen.integers(0, 2**31))

    def run(population, chunk_clients):
        # Fresh query per run: DropoutRateTracker state must not leak
        # between the twins.
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(n_bits),
            mode=mode,
            perturbation=perturbation,
            dropout=DropoutModel(rate=0.1),
            network=NetworkModel(loss_rate=0.05),
            chunk_clients=chunk_clients,
        )
        return query.run(
            population,
            rng=np.random.default_rng(run_seed),
            eligibility=attribute_equals("geo", "us"),
            cohort_size=max(2, n_clients // 3),
        )

    reference = run(devices, None)
    results = {
        f"chunk={chunk}": run(batch, chunk),
        "chunk=1": run(batch, 1),
    }
    for label, result in results.items():
        identical = (
            result.value == reference.value
            and np.array_equal(result.bit_means, reference.bit_means)
            and np.array_equal(result.counts, reference.counts)
        )
        if not identical:
            return OracleResult(
                name=f"twin-columnar-vs-object[{mode},ldp={perturbation is not None}]",
                passed=False,
                detail=(
                    f"batch round ({label}) diverged from the device-list round: "
                    f"|diff| = {abs(result.value - reference.value):.3e}"
                ),
                statistic=abs(result.value - reference.value),
                n_reps=1,
            )
    return OracleResult(
        name=f"twin-columnar-vs-object[{mode},ldp={perturbation is not None}]",
        passed=True,
        detail=(
            "bit-identical across the device-list -> batch conversion "
            f"(chunks: None, {chunk}, 1)"
        ),
        statistic=0.0,
        n_reps=1,
    )


def secure_agg_oracle(
    seed: int = 0,
    n_clients: int = 24,
    vector_length: int = 16,
    n_dropouts: int = 4,
    value_range: int = 1 << 20,
) -> OracleResult:
    """The masked secure sum equals the plaintext sum of submitted vectors.

    Random integer vectors, a random surviving subset above the Shamir
    threshold, exact equality -- the invariant the whole "server learns only
    the sum" argument rests on.
    """
    gen = ensure_rng(seed)
    threshold = default_threshold(n_clients)
    if n_clients - n_dropouts < threshold:
        raise ValueError(
            f"{n_dropouts} dropouts from {n_clients} clients breaks threshold {threshold}"
        )
    session = SecureAggregationSession(
        n_clients=n_clients,
        vector_length=vector_length,
        threshold=threshold,
        rng=gen,
    )
    vectors = gen.integers(0, value_range, size=(n_clients, vector_length))
    dropouts = set(gen.choice(n_clients, size=n_dropouts, replace=False).tolist())
    submitted = [cid for cid in range(n_clients) if cid not in dropouts]
    for cid in submitted:
        session.submit(cid, [int(v) for v in vectors[cid]])
    total = np.asarray(session.finalize(), dtype=np.int64)
    plaintext = vectors[submitted].sum(axis=0).astype(np.int64)
    try:
        check_secure_sum(total, plaintext, context="secure-agg oracle")
    except Exception as exc:  # InvariantViolation carries the first mismatch
        return OracleResult(
            name="secure-agg-exact-sum",
            passed=False,
            detail=str(exc),
            n_reps=1,
        )
    return OracleResult(
        name="secure-agg-exact-sum",
        passed=True,
        detail=(
            f"{len(submitted)}/{n_clients} clients, {n_dropouts} dropouts, "
            f"sum exact over {vector_length} components"
        ),
        statistic=0.0,
        n_reps=1,
    )
