"""Round mechanics shared by every bit-pushing variant.

This module implements "one round of Algorithm 1" as pure functions over
numpy arrays: take encoded client values and an assignment of clients to bit
indices, extract the assigned bits, optionally pass them through a local
privacy perturbation, and aggregate into per-bit sums and counts.
:func:`collect_bit_reports` is the single-pass reference for that step:
every round path reports through
:func:`repro.core.client_plane.report_bits` instead, and the chunked
collection is tested against this independent copy.  The steps every round
path shares live here exactly once: checking an assignment
(:func:`validated_assignment`), summarizing a round (:func:`round_summary`)
and decoding the final bit means (:func:`decode_estimate`).

Privacy perturbations are duck-typed via :class:`BitPerturbation` so the core
package does not depend on :mod:`repro.privacy` (the dependency points the
other way: privacy mechanisms *implement* this protocol).
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.core.results import MeanEstimate, RoundSummary
from repro.core.sampling import BitSamplingSchedule
from repro.core.squashing import squash_bit_means
from repro.exceptions import ProtocolError
from repro.rng import ensure_rng

__all__ = [
    "BitPerturbation",
    "collect_bit_reports",
    "bit_means_from_stats",
    "round_summary",
    "combine_round_stats",
    "decode_estimate",
    "theoretical_variance",
    "optimal_probabilities_bound",
    "validated_assignment",
]


@runtime_checkable
class BitPerturbation(Protocol):
    """Local perturbation applied to each bit before it leaves the client.

    Implementations (e.g. :class:`repro.privacy.RandomizedResponse`) must be
    *unbiasable*: ``unbias_bit_means`` applied to the mean of perturbed bits
    must be an unbiased estimate of the mean of the true bits.

    Implementations must also consume their randomness *element-sequentially
    in C order* (one draw per bit, row-major -- e.g. ``gen.random(bits.shape)``)
    so that perturbing a ``(n, b)`` array in row chunks yields the identical
    stream as one full-array call.  The chunk-streamed columnar kernels in
    :mod:`repro.core.client_plane` rely on this to stay bit-identical to the
    object path for any chunk size.
    """

    def perturb_bits(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the privatized 0/1 reports for true ``bits``."""
        ...

    def unbias_bit_means(self, means: np.ndarray) -> np.ndarray:
        """Map raw perturbed-report means back to unbiased bit-mean estimates."""
        ...


def validated_assignment(assignment: np.ndarray, n: int, n_bits: int) -> np.ndarray:
    """``assignment`` as an ``(n, b_send)`` array of bit indices, checked.

    A 1-D assignment becomes one column.  Integer dtypes pass through as
    they are (:func:`~repro.core.sampling.central_assignment` hands out one
    byte per client), so callers widen to ``np.intp`` before any index
    arithmetic.  Any other dtype raises :class:`ProtocolError`: a float
    index would truncate to a bit, and a bool one would read as bit 0 or 1.
    """
    assign = np.asarray(assignment)
    if assign.ndim == 1:
        assign = assign.reshape(-1, 1)
    if assign.ndim != 2 or assign.shape[0] != n:
        raise ProtocolError(f"assignment shape {assign.shape} incompatible with {n} clients")
    if assign.dtype.kind not in "iu":
        raise ProtocolError(f"assignment must hold integer bit indices, got {assign.dtype}")
    if assign.size and (assign.min() < 0 or assign.max() >= n_bits):
        raise ProtocolError(f"assignment indexes outside [0, {n_bits})")
    return assign


def collect_bit_reports(
    encoded: np.ndarray,
    n_bits: int,
    assignment: np.ndarray,
    perturbation: BitPerturbation | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one collection round and return raw per-bit ``(sums, counts)``.

    Parameters
    ----------
    encoded:
        uint64 array of encoded client values, length ``n``.
    n_bits:
        Bit depth; assignments must index into ``[0, n_bits)``.
    assignment:
        Integer bit indices, either shape ``(n,)`` (each client reports one
        bit) or ``(n, b_send)`` (each client reports several distinct bits).
    perturbation:
        Optional local privacy mechanism applied to the true bits.
    rng:
        Randomness for the perturbation (ignored if ``perturbation is None``).

    Returns
    -------
    sums, counts:
        ``sums[j]`` is the sum of (possibly perturbed) reported bits for bit
        ``j``; ``counts[j]`` is how many clients reported bit ``j``.  These
        are *raw* statistics -- unbiasing happens in
        :func:`bit_means_from_stats`.
    """
    enc = np.asarray(encoded, dtype=np.uint64)
    if enc.ndim != 1:
        raise ProtocolError(f"expected one value per client (1-D), got shape {enc.shape}")
    assign = validated_assignment(assignment, enc.shape[0], n_bits)

    # Each client extracts its assigned bit(s) from its own value.
    reported = ((enc[:, None] >> assign.astype(np.uint64)) & np.uint64(1)).astype(np.float64)
    if perturbation is not None:
        gen = ensure_rng(rng)
        reported = np.asarray(
            perturbation.perturb_bits(reported.astype(np.uint8), gen), dtype=np.float64
        )
        if reported.shape != assign.shape:
            raise ProtocolError(
                f"perturbation changed report shape from {assign.shape} to {reported.shape}"
            )

    flat_bits = assign.ravel().astype(np.intp, copy=False)
    flat_reports = reported.ravel()
    sums = np.bincount(flat_bits, weights=flat_reports, minlength=n_bits)
    counts = np.bincount(flat_bits, minlength=n_bits).astype(np.int64)
    return sums, counts


def bit_means_from_stats(
    sums: np.ndarray,
    counts: np.ndarray,
    perturbation: BitPerturbation | None = None,
) -> np.ndarray:
    """Turn raw ``(sums, counts)`` into unbiased per-bit mean estimates.

    Bits with zero reports get mean 0.0 -- the protocol's convention that an
    unsampled bit contributes nothing (its schedule weight was ~0 precisely
    because it was believed empty).  When a perturbation is supplied, its
    debiasing map is applied to the raw means of bits that *were* sampled.
    """
    sums = np.asarray(sums, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if sums.shape != counts.shape:
        raise ProtocolError(f"sums shape {sums.shape} != counts shape {counts.shape}")
    means = np.zeros_like(sums)
    sampled = counts > 0
    means[sampled] = sums[sampled] / counts[sampled]
    if perturbation is not None:
        means[sampled] = np.asarray(perturbation.unbias_bit_means(means[sampled]))
    return means


def round_summary(
    sums: np.ndarray, counts: np.ndarray, probabilities: np.ndarray, n_clients: int,
    perturbation: BitPerturbation | None = None,
) -> RoundSummary:
    """One round's raw ``(sums, counts)`` as its :class:`RoundSummary`.

    The bit means are :func:`bit_means_from_stats`'s and the sums are
    ``means * counts``.  Under randomized response both may leave their
    natural range: clipping is a decode step (:func:`decode_estimate`), so
    caching pools the unbiased evidence.
    """
    means = bit_means_from_stats(sums, counts, perturbation)
    return RoundSummary(
        probabilities=probabilities,
        counts=counts,
        sums=means * counts,
        bit_means=means,
        n_clients=n_clients,
    )


def combine_round_stats(
    unbiased_means: list[np.ndarray],
    counts: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Pool per-round bit means, weighting each round by its report counts.

    Implements the "caching" combination of Algorithm 2 line 9: the pooled
    mean for bit ``j`` is ``sum_r c_rj * m_rj / sum_r c_rj``.  Rounds with no
    reports on a bit contribute nothing to it; a bit unsampled in every round
    keeps mean 0.0.
    """
    if len(unbiased_means) != len(counts) or not unbiased_means:
        raise ProtocolError("need the same non-zero number of mean and count vectors")
    total_counts = np.sum(np.asarray(counts, dtype=np.float64), axis=0)
    weighted = np.sum(
        [m * c for m, c in zip(unbiased_means, counts)], axis=0, dtype=np.float64
    )
    pooled = np.zeros_like(weighted)
    sampled = total_counts > 0
    pooled[sampled] = weighted[sampled] / total_counts[sampled]
    return pooled, total_counts.astype(np.int64)


def decode_estimate(
    encoder: FixedPointEncoder, bit_means: np.ndarray, counts: np.ndarray, *,
    perturbation: BitPerturbation | None = None, threshold: float | np.ndarray = 0.0,
    n_clients: int, method: str, rounds: Sequence[RoundSummary], metadata: dict[str, Any],
) -> MeanEstimate:
    """Squash, clip and decode the final bit means into a :class:`MeanEstimate`.

    Means below ``threshold`` (scalar or per bit; 0 disables) become zero,
    and under a perturbation the rest are clipped into [0, 1]: a true bit
    mean is a proportion, and post-processing spends no privacy (Section
    3.3).  Then ``sum_j 2**j m_j`` is decoded into the real domain.
    """
    means, squashed = squash_bit_means(bit_means, threshold, clip_to_unit=perturbation is not None)
    encoded_mean = float(encoder.powers @ means)
    return MeanEstimate(
        value=encoder.decode_scalar(encoded_mean),
        encoded_value=encoded_mean,
        bit_means=means,
        counts=counts,
        n_clients=n_clients,
        n_bits=encoder.n_bits,
        method=method,
        rounds=tuple(rounds),
        squashed_bits=tuple(int(j) for j in squashed),
        metadata=metadata,
    )


# ----------------------------------------------------------------------
# Analytic companions (Lemma 3.1 / Eq. 7) -- used by tests and docs.
# ----------------------------------------------------------------------

def theoretical_variance(
    bit_means: np.ndarray,
    schedule: BitSamplingSchedule,
    n_clients: int,
    b_send: int = 1,
) -> float:
    """Lemma 3.1 variance of the basic estimator, in the encoded domain.

    ``V[X] = (1 / (n * b_send)) * sum_j 4**j m_j (1 - m_j) / p_j``; bits with
    ``p_j = 0`` must have ``m_j (1 - m_j) = 0`` or the variance is infinite.
    """
    means = np.asarray(bit_means, dtype=np.float64)
    probs = schedule.probabilities
    if means.size != probs.size:
        raise ValueError("bit_means and schedule lengths differ")
    beta = np.exp2(2.0 * np.arange(means.size)) * means * (1.0 - means)
    unsampled_active = (probs == 0.0) & (beta > 0.0)
    if np.any(unsampled_active):
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(beta > 0.0, beta / np.where(probs > 0.0, probs, 1.0), 0.0)
    return float(terms.sum() / (n_clients * b_send))


def optimal_probabilities_bound(n_bits: int) -> BitSamplingSchedule:
    """The worst-case-optimal schedule ``p_j = 2**j / (2**b - 1)`` (Eq. 7).

    Derived by bounding each ``m_j (1 - m_j)`` by 1/4 in Lemma 3.3's optimum.
    """
    return BitSamplingSchedule.weighted(n_bits, alpha=1.0)
