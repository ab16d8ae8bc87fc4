"""Bit-sampling schedules and client-to-bit assignment.

A *schedule* is the probability vector ``p`` over bit indices that controls
how many clients report each binary digit (paper Section 3.1).  This module
implements every schedule family the paper studies:

* **uniform** -- ``p_j = 1/b`` (shown suboptimal in Section 3.1);
* **weighted** -- ``p_j \\propto (2**j)**alpha``, the paper's
  ``p_j \\propto c**j = 2**(alpha j)`` family (Section 3.1): ``alpha = 1``
  is the worst-case-optimal ``p_j \\propto 2**j`` of Eq. 7 and the right
  choice under randomized response (Section 3.3); ``alpha = 0.5`` is the
  flatter allocation that empirically wins without DP when high-order bits
  are vacuous (Figures 1 and 2);
* **geometric** -- ``p_j \\propto (2**j)**gamma``, the same family under the
  round-1 name Algorithm 2 uses;
* **from_bit_means** -- the data-driven ``p_j \\propto (4**j m_j (1-m_j))**alpha``
  of Algorithm 2 round 2; with ``alpha = 0.5`` this is exactly the
  variance-optimal allocation of Lemma 3.3.

It also implements both assignment modes discussed in the paper:

* **central** randomness (the default): the server partitions the cohort so
  that exactly ``round(p_j * n)`` clients report bit ``j`` -- the
  quasi-Monte-Carlo choice that removes sampling noise in the per-bit counts
  and blunts poisoning attacks;
* **local** randomness: each client draws its own bit index i.i.d. from
  ``p`` (kept for the poisoning experiments of Section 5).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = [
    "BitSamplingSchedule",
    "apportion_counts",
    "central_assignment",
    "local_assignment",
    "multi_bit_assignment",
]

#: Schedules whose probabilities sum to less than this are rejected.
_MIN_TOTAL_MASS = 1e-12

#: Cohorts above this many clients shuffle their assignment in its compact
#: dtype.  ``gen.shuffle`` draws its swap partners from the generator alone,
#: whatever the element width, so both sides of the cutoff give identical
#: draws; only the speed differs.  NumPy specializes 8-byte swaps: while
#: the array fits in cache an int64 shuffle costs 19-23 ns per element
#: against 34 for 1-byte swaps.  The two cross near 2**19 elements (37 vs
#: 34 ns), past which the int64 array's random swaps miss a 2 MiB L2
#: (45-49 vs 33-38 ns at 10**6).
_COMPACT_SHUFFLE_CLIENTS = 1 << 19


@dataclass(frozen=True)
class BitSamplingSchedule:
    """A normalized probability vector over bit indices.

    Instances are immutable; all constructors normalize and validate.  The
    vector is indexed LSB-first, matching :mod:`repro.core.encoding`.
    """

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ConfigurationError("schedule must be a non-empty 1-D vector")
        if np.any(~np.isfinite(probs)) or np.any(probs < 0):
            raise ConfigurationError("schedule probabilities must be finite and non-negative")
        total = probs.sum()
        if total < _MIN_TOTAL_MASS:
            raise ConfigurationError("schedule has (near-)zero total mass")
        object.__setattr__(self, "probabilities", probs / total)
        self.probabilities.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors (one per schedule family in the paper)
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, n_bits: int) -> "BitSamplingSchedule":
        """Every bit equally likely: ``p_j = 1/n_bits``."""
        _check_bits(n_bits)
        return cls(np.full(n_bits, 1.0 / n_bits))

    @classmethod
    def weighted(cls, n_bits: int, alpha: float = 1.0) -> "BitSamplingSchedule":
        """Fixed allocation ``p_j \\propto (2**j)**alpha`` (paper Section 3.1).

        ``alpha=1.0`` recovers the worst-case-optimal ``p_j \\propto 2**j``
        of Eq. 7 (also optimal under randomized-response noise, Section
        3.3); ``alpha=0.5`` is the flatter variant the paper's Figures 1-2
        evaluate alongside it.
        """
        _check_bits(n_bits)
        if not np.isfinite(alpha):
            raise ConfigurationError(f"alpha must be finite, got {alpha}")
        return cls(_stable_exponential_weights(n_bits, alpha))

    @classmethod
    def geometric(cls, n_bits: int, gamma: float = 0.5) -> "BitSamplingSchedule":
        """Round-1 allocation of Algorithm 2: ``p_j \\propto (2**j)**gamma``.

        Mathematically the same family as :meth:`weighted`; kept as a named
        constructor because the paper's Algorithm 2 exposes it under the
        round-1 parameter ``gamma``.
        """
        _check_bits(n_bits)
        if not np.isfinite(gamma):
            raise ConfigurationError(f"gamma must be finite, got {gamma}")
        return cls(_stable_exponential_weights(n_bits, gamma))

    @classmethod
    def from_bit_means(
        cls,
        bit_means: np.ndarray,
        alpha: float = 0.5,
        floor: float = 0.0,
    ) -> "BitSamplingSchedule":
        """Data-driven allocation ``p_j \\propto (4**j m_j (1 - m_j))**alpha``.

        This is Algorithm 2's round-2 schedule.  With ``alpha = 0.5`` it is
        the variance-optimal ``p_j \\propto sqrt(beta_j)`` of Lemma 3.3, with
        ``beta_j = 4**j m_j (1 - m_j)``.

        Estimated bit means are clipped into ``[0, 1]`` first (DP noise can
        push them outside; see Figure 4b), and bits whose resulting weight is
        zero receive probability 0 -- "unused bits do not need to be sampled"
        (Section 1.1).  If *every* weight vanishes (e.g. all inputs constant)
        the schedule falls back to ``weighted(n_bits, alpha=0.5)`` so the
        second round still measures something.

        ``floor`` optionally guarantees every bit a minimum share of mass,
        which keeps rare bits observable when caching is off.
        """
        means = np.clip(np.asarray(bit_means, dtype=np.float64), 0.0, 1.0)
        if means.ndim != 1 or means.size == 0:
            raise ConfigurationError("bit_means must be a non-empty 1-D vector")
        if not np.isfinite(alpha) or alpha < 0:
            raise ConfigurationError(f"alpha must be finite and >= 0, got {alpha}")
        if not 0.0 <= floor < 1.0 / means.size:
            if floor != 0.0:
                raise ConfigurationError(f"floor must be in [0, 1/n_bits), got {floor}")
        beta = np.exp2(2.0 * np.arange(means.size)) * means * (1.0 - means)
        if beta.sum() < _MIN_TOTAL_MASS:
            return cls.weighted(means.size, alpha=0.5)
        weights = np.power(beta, alpha)
        probs = weights / weights.sum()
        if floor > 0.0:
            probs = probs * (1.0 - floor * means.size) + floor
        return cls(probs)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_bits(self) -> int:
        return int(self.probabilities.size)

    def support(self) -> np.ndarray:
        """Indices of bits with strictly positive sampling probability."""
        return np.flatnonzero(self.probabilities > 0.0)

    def expected_counts(self, n_clients: int) -> np.ndarray:
        """Expected number of reporters per bit for a cohort of ``n_clients``."""
        return self.probabilities * n_clients

    def __len__(self) -> int:  # pragma: no cover - trivial
        return self.n_bits


def _check_bits(n_bits: int) -> None:
    if n_bits <= 0:
        raise ConfigurationError(f"n_bits must be positive, got {n_bits}")


def _stable_exponential_weights(n_bits: int, log2_rate: float) -> np.ndarray:
    """Normalized ``2**(log2_rate * j)`` weights, computed without overflow.

    Subtracting the maximum exponent before exponentiating keeps the largest
    weight at 1, so even 60-bit schedules with ``alpha = 1`` stay finite.
    """
    exponents = log2_rate * np.arange(n_bits, dtype=np.float64)
    weights = np.exp2(exponents - exponents.max())
    return weights / weights.sum()


# ----------------------------------------------------------------------
# Client assignment
# ----------------------------------------------------------------------

def apportion_counts(n_clients: int, schedule: BitSamplingSchedule) -> np.ndarray:
    """Split ``n_clients`` into integer per-bit counts matching the schedule.

    Uses largest-remainder apportionment so the counts sum exactly to
    ``n_clients`` and each differs from ``p_j * n`` by less than 1.  Bits
    with zero probability always receive zero clients.
    """
    if n_clients < 0:
        raise ConfigurationError(f"n_clients must be >= 0, got {n_clients}")
    return _apportion(n_clients, schedule.probabilities.tobytes()).copy()


@functools.lru_cache(maxsize=64)
def _apportion(n_clients: int, probabilities: bytes) -> np.ndarray:
    """:func:`apportion_counts`, memoized on the schedule's bytes.

    Every repetition of a figure cell, and every query of a fixed-size
    cohort, apportions one schedule over one cohort size.
    """
    probs = np.frombuffer(probabilities)
    quotas = probs * n_clients
    counts = np.floor(quotas).astype(np.int64)
    shortfall = n_clients - int(counts.sum())
    if shortfall > 0:
        remainders = quotas - counts
        # Never hand leftover clients to zero-probability bits.
        remainders[probs == 0.0] = -1.0
        top_up = np.argsort(remainders)[::-1][:shortfall]
        counts[top_up] += 1
    return counts


def central_assignment(
    n_clients: int,
    schedule: BitSamplingSchedule,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Server-side (quasi-Monte-Carlo) assignment of clients to bits.

    Returns an array ``a`` of length ``n_clients`` where ``a[i]`` is the bit
    index client ``i`` must report.  Exactly ``apportion_counts(...)[j]``
    clients land on bit ``j``; *which* clients is a uniform random partition.
    This is the paper's preferred mode: deterministic per-bit counts and no
    client control over which bit is revealed.

    The array's dtype is the smallest unsigned type that holds
    ``n_bits - 1``: ``uint8`` for every encoder (at most 63 bits), ``uint16``
    for a histogram of more than 256 buckets.  Callers that do arithmetic
    on the indices widen them first.  The values and the generator's final
    state are those of shuffling the same array in int64.
    """
    gen = ensure_rng(rng)
    counts = apportion_counts(n_clients, schedule)
    dtype = np.min_scalar_type(schedule.n_bits - 1)
    if n_clients <= _COMPACT_SHUFFLE_CLIENTS:
        assignment = np.repeat(np.arange(schedule.n_bits, dtype=np.int64), counts)
        gen.shuffle(assignment)
        return assignment.astype(dtype)
    assignment = np.repeat(np.arange(schedule.n_bits, dtype=dtype), counts)
    gen.shuffle(assignment)
    return assignment


def local_assignment(
    n_clients: int,
    schedule: BitSamplingSchedule,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Client-side assignment: each client draws its bit i.i.d. from ``p``.

    Per-bit counts are then multinomial rather than fixed.  This mode is
    more exposed to poisoning (an adversarial client can pretend its draw
    landed on the most significant bit), which Section 5 of the paper -- and
    :mod:`repro.attacks.poisoning` here -- quantifies.
    """
    gen = ensure_rng(rng)
    if n_clients < 0:
        raise ConfigurationError(f"n_clients must be >= 0, got {n_clients}")
    return gen.choice(schedule.n_bits, size=n_clients, p=schedule.probabilities)


def multi_bit_assignment(
    n_clients: int,
    schedule: BitSamplingSchedule,
    b_send: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Assign each client ``b_send`` *distinct* bits to report.

    Returns an ``(n_clients, b_send)`` integer array.  Used for the
    Corollary 3.2 regime where clients reveal more than one bit per value.
    Sampling is without replacement per client, weighted by the schedule, so
    a client never reports the same bit twice.
    """
    gen = ensure_rng(rng)
    if b_send < 1:
        raise ConfigurationError(f"b_send must be >= 1, got {b_send}")
    support = schedule.support()
    if b_send > support.size:
        raise ConfigurationError(
            f"b_send={b_send} exceeds the {support.size} bits with positive probability"
        )
    if b_send == 1:
        return central_assignment(n_clients, schedule, gen).reshape(-1, 1)
    # Weighted sampling without replacement per client via the Gumbel
    # top-k trick: argmax of log(p) + Gumbel noise, taken b_send times.
    log_p = np.full(schedule.n_bits, -np.inf)
    log_p[support] = np.log(schedule.probabilities[support])
    gumbel = gen.gumbel(size=(n_clients, schedule.n_bits))
    keys = log_p[None, :] + gumbel
    picked = np.argsort(keys, axis=1)[:, ::-1][:, :b_send]
    return picked.astype(np.int64)
