"""Privacy amplification calculators: subsampling and shuffling.

Two amplification effects matter for deploying bit-pushing:

* **Subsampling.**  Only a ``p_j`` fraction of clients report bit ``j`` (and
  deployments additionally subsample the eligible population), which
  amplifies any local guarantee: a mechanism that is ``eps``-DP on a
  participant is ``log(1 + s (e^eps - 1))``-DP against an observer who only
  knows the participant *might* have been sampled with probability ``s``.
  This is the standard, exact amplification-by-subsampling bound, and it is
  also the engine behind the paper's sample-and-threshold citation [5].
* **Shuffling.**  When reports reach the server through an anonymizing
  shuffler (or the secure-aggregation boundary), n clients' eps-LDP reports
  enjoy a much stronger central guarantee.  We implement the
  Feldman--McMillan--Talwar style closed-form bound
  ``eps_central = log(1 + (e^eps - 1) * (sqrt(32 log(4/delta) / n) + 8/n))``
  (valid for ``eps <= log(n / (16 log(2/delta)))``), which captures the
  ~``1/sqrt(n)`` improvement the distributed-DP section of the paper leans
  on.

These are calculators only -- they change no mechanism behaviour -- but the
accountant can record their outputs, and the tests pin the formulas'
monotonicity and inverses.
"""

from __future__ import annotations

import math
import sys

from repro.exceptions import ConfigurationError

__all__ = [
    "amplified_epsilon_by_sampling",
    "required_epsilon_for_sampling",
    "shuffle_amplified_epsilon",
    "shuffle_amplification_valid",
]


def amplified_epsilon_by_sampling(epsilon: float, sampling_rate: float) -> float:
    """Effective epsilon after Poisson subsampling at rate ``sampling_rate``.

    ``eps' = log(1 + s (e^eps - 1))`` -- exact, and always <= eps, with
    equality at s = 1.  Where ``e^eps`` passes the float range it is
    evaluated as ``eps + log(s + (1 - s) e^-eps)``.

    Examples
    --------
    >>> round(amplified_epsilon_by_sampling(1.0, 1.0), 6)
    1.0
    >>> amplified_epsilon_by_sampling(1.0, 0.1) < 0.2
    True
    """
    _check_epsilon(epsilon)
    if not 0.0 < sampling_rate <= 1.0:
        raise ConfigurationError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
    try:
        return math.log1p(sampling_rate * (math.exp(epsilon) - 1.0))
    except OverflowError:
        return epsilon + math.log(sampling_rate + (1.0 - sampling_rate) * math.exp(-epsilon))


def required_epsilon_for_sampling(target_epsilon: float, sampling_rate: float) -> float:
    """Base epsilon a sampled mechanism needs to deliver ``target_epsilon``.

    The inverse of :func:`amplified_epsilon_by_sampling`:
    ``eps = log(1 + (e^target - 1) / s)``.  Where ``(e^target - 1) / s``
    passes the float range it is evaluated as
    ``target - log(s) + log1p((s - 1) e^-target)``.

    Examples
    --------
    >>> base = required_epsilon_for_sampling(0.5, 0.2)
    >>> round(amplified_epsilon_by_sampling(base, 0.2), 10)
    0.5
    """
    _check_epsilon(target_epsilon)
    if not 0.0 < sampling_rate <= 1.0:
        raise ConfigurationError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
    try:
        grown = (math.exp(target_epsilon) - 1.0) / sampling_rate
    except OverflowError:
        grown = math.inf
    if math.isinf(grown):
        decay = math.exp(-target_epsilon)
        return target_epsilon - math.log(sampling_rate) + math.log1p((sampling_rate - 1.0) * decay)
    return math.log1p(grown)


def shuffle_amplification_valid(epsilon: float, n_clients: int, delta: float) -> bool:
    """Whether the closed-form shuffle bound applies to these parameters."""
    if not 2 <= n_clients <= sys.float_info.max or not 0.0 < delta < 1.0 or epsilon <= 0:
        return False
    limit = n_clients / (16.0 * math.log(2.0 / delta))
    return limit > 1.0 and epsilon <= math.log(limit)


def shuffle_amplified_epsilon(epsilon: float, n_clients: int, delta: float) -> float:
    """Central epsilon after shuffling n eps-LDP reports ((eps', delta)-DP).

    Uses the Feldman--McMillan--Talwar closed form; raises when the
    parameters are outside its validity region (use
    :func:`shuffle_amplification_valid` to pre-check).

    Examples
    --------
    >>> eps = shuffle_amplified_epsilon(1.0, 100_000, 1e-8)
    >>> eps < 0.2
    True
    """
    _check_epsilon(epsilon)
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    if not 2 <= n_clients <= sys.float_info.max:
        raise ConfigurationError(
            f"need 2 to {sys.float_info.max} clients to shuffle, got {n_clients}"
        )
    if not shuffle_amplification_valid(epsilon, n_clients, delta):
        raise ConfigurationError(
            f"shuffle bound invalid for eps={epsilon}, n={n_clients}, delta={delta}; "
            "epsilon must satisfy eps <= log(n / (16 log(2/delta)))"
        )
    factor = math.sqrt(32.0 * math.log(4.0 / delta) / n_clients) + 8.0 / n_clients
    return math.log1p((math.exp(epsilon) - 1.0) * factor)


def _check_epsilon(epsilon: float) -> None:
    if not math.isfinite(epsilon) or epsilon <= 0:
        raise ConfigurationError(f"epsilon must be a positive finite float, got {epsilon}")
