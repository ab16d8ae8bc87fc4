"""Closed-form accuracy predictions and cohort-size planning.

The paper's deployment workflow leans on analysis: "offline simulations are
sufficient to set the parameters for online noise" (Section 4.3).  This
module provides the calculators behind that workflow:

* :func:`predicted_variance` -- Lemma 3.1 extended with the exact
  randomized-response term of Section 3.3, so predictions cover both the
  noise-free and the epsilon-LDP estimator;
* :func:`predicted_nrmse` -- the same, expressed as the paper's headline
  metric;
* :func:`plan_cohort_size` -- inverts the prediction: the smallest cohort
  whose predicted NRMSE meets a target, given (an estimate of) the bit
  means -- the "how many clients do we need?" question every rollout asks;
* :func:`dithering_variance` -- the subtractive-dithering comparison point,
  whose estimate variance is a constant fraction of the squared range.

Tests cross-check every formula against Monte-Carlo simulation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.sampling import BitSamplingSchedule
from repro.exceptions import ConfigurationError

__all__ = [
    "per_report_bit_variance",
    "predicted_variance",
    "predicted_nrmse",
    "plan_cohort_size",
    "dithering_variance",
]


def _truth_probability(epsilon: float) -> float:
    """Randomized response's ``p = e^eps / (1 + e^eps)`` for a finite ``epsilon > 0``.

    ``e^eps`` overflows past eps ~ 709.8, where the ratio has rounded to
    exactly 1.0 since eps ~ 37, so 1.0 is the formula's own value there.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ConfigurationError(f"epsilon must be a positive finite float, got {epsilon}")
    try:
        return math.exp(epsilon) / (1.0 + math.exp(epsilon))
    except OverflowError:
        return 1.0


def per_report_bit_variance(bit_mean: float, epsilon: float | None = None) -> float:
    """Variance of one (debiased) report of a bit with true mean ``bit_mean``.

    Without DP this is the Bernoulli variance ``m (1 - m)``.  Under
    randomized response with parameter ``epsilon``, the reported bit is
    Bernoulli(``q``) with ``q = m p + (1 - m)(1 - p)`` and the debiasing
    map divides by ``(2p - 1)``, so the variance is
    ``q (1 - q) / (2p - 1)**2`` -- which approaches the paper's
    mean-independent ``e^eps / (e^eps - 1)**2`` constant for small epsilon.
    """
    if not 0.0 <= bit_mean <= 1.0:
        raise ConfigurationError(f"bit_mean must be in [0, 1], got {bit_mean}")
    if epsilon is None:
        return bit_mean * (1.0 - bit_mean)
    p = _truth_probability(epsilon)
    q = bit_mean * p + (1.0 - bit_mean) * (1.0 - p)
    return q * (1.0 - q) / (2.0 * p - 1.0) ** 2


def predicted_variance(
    bit_means: np.ndarray,
    schedule: BitSamplingSchedule,
    n_clients: int,
    b_send: int = 1,
    epsilon: float | None = None,
) -> float:
    """Predicted estimator variance (encoded domain), Lemma 3.1 + Section 3.3.

    ``V = (1 / (n b_send)) * sum_j 4^j v_j / p_j`` with ``v_j`` the
    per-report variance from :func:`per_report_bit_variance`.  Bits with
    zero probability but non-zero per-report variance make the prediction
    infinite, exactly as in the lemma.
    """
    means = np.asarray(bit_means, dtype=np.float64)
    probs = schedule.probabilities
    if means.size != probs.size:
        raise ConfigurationError("bit_means and schedule lengths differ")
    if n_clients < 1 or b_send < 1:
        raise ConfigurationError("n_clients and b_send must be >= 1")
    total = 0.0
    for j, (mean, prob) in enumerate(zip(means, probs)):
        v = per_report_bit_variance(float(np.clip(mean, 0.0, 1.0)), epsilon)
        if v == 0.0:
            continue
        if prob == 0.0:
            return float("inf")
        total += 4.0**j * v / prob
    return total / (n_clients * b_send)


def predicted_nrmse(
    bit_means: np.ndarray,
    schedule: BitSamplingSchedule,
    n_clients: int,
    b_send: int = 1,
    epsilon: float | None = None,
) -> float:
    """Predicted NRMSE of the (unbiased) estimator: ``sqrt(V) / mean``."""
    means = np.asarray(bit_means, dtype=np.float64)
    true_mean = float(np.exp2(np.arange(means.size)) @ means)
    if true_mean <= 0:
        raise ConfigurationError("NRMSE undefined for a non-positive mean")
    variance = predicted_variance(bit_means, schedule, n_clients, b_send, epsilon)
    return math.sqrt(variance) / true_mean


def plan_cohort_size(
    target_nrmse: float,
    bit_means: np.ndarray,
    schedule: BitSamplingSchedule,
    b_send: int = 1,
    epsilon: float | None = None,
    max_clients: int = 100_000_000,
) -> int:
    """Smallest cohort whose *predicted* NRMSE meets ``target_nrmse``.

    The prediction scales as ``n**-1/2``, so the answer is closed-form:
    ``n = V_1 / (target * mean)**2`` with ``V_1`` the single-client
    variance.  Raises if the target is unreachable within ``max_clients``
    (e.g., a bit with zero sampling probability but real mass).

    Examples
    --------
    >>> means = np.array([0.5, 0.5, 0.5, 0.5])
    >>> sched = BitSamplingSchedule.weighted(4, alpha=1.0)
    >>> n = plan_cohort_size(0.01, means, sched)
    >>> predicted_nrmse(means, sched, n) <= 0.01
    True
    >>> predicted_nrmse(means, sched, n - max(n // 50, 1)) > 0.01
    True
    """
    if target_nrmse <= 0:
        raise ConfigurationError(f"target_nrmse must be positive, got {target_nrmse}")
    means = np.asarray(bit_means, dtype=np.float64)
    true_mean = float(np.exp2(np.arange(means.size)) @ means)
    if true_mean <= 0:
        raise ConfigurationError("cannot plan for a non-positive mean")
    single_client_variance = predicted_variance(means, schedule, 1, b_send, epsilon)
    if not math.isfinite(single_client_variance):
        raise ConfigurationError(
            "target unreachable: a bit with real mass has zero sampling probability"
        )
    needed = math.ceil(single_client_variance / (target_nrmse * true_mean) ** 2)
    needed = max(needed, 1)
    if needed > max_clients:
        raise ConfigurationError(
            f"target NRMSE {target_nrmse} needs ~{needed} clients "
            f"(> max_clients={max_clients})"
        )
    return needed


def dithering_variance(width: float, n_clients: int, epsilon: float | None = None) -> float:
    """Estimate variance of subtractive dithering over a range of ``width``.

    Per client the unit-domain estimate ``b + h - 1/2`` has variance at most
    1/4 (exactly 1/6 + m(1-m)-ish terms; we use the 1/4 bound the comparison
    in Section 2 relies on); randomized response multiplies the bit's
    contribution by ``1/(2p-1)**2``.  After rescaling, variance carries the
    ``width**2`` factor that makes loose bounds expensive.
    """
    if width <= 0 or n_clients < 1:
        raise ConfigurationError("width must be positive and n_clients >= 1")
    unit_variance = 0.25
    if epsilon is not None:
        p = _truth_probability(epsilon)
        unit_variance = 0.25 / (2.0 * p - 1.0) ** 2 + 1.0 / 12.0
    return width**2 * unit_variance / n_clients
