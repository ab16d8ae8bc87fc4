"""Shamir secret sharing over a prime field.

Secure aggregation survives client dropout by having every client
secret-share two things with its peers before submitting anything: the seed
of its self-mask and its pairwise key material.  When a client disappears
mid-round, any ``threshold`` surviving peers can reconstruct what the server
needs to cancel that client's masks (Segal et al. 2017).

This is a textbook ``(threshold, n)`` Shamir implementation: the secret is
the constant term of a random degree-``threshold - 1`` polynomial, shares
are evaluations at distinct non-zero points, reconstruction is Lagrange
interpolation at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SecureAggregationError
from repro.federated.secure_agg.field import PrimeField
from repro.rng import ensure_rng

__all__ = [
    "Share",
    "split_secret",
    "split_secrets",
    "split_secret_sets",
    "reconstruct_secret",
    "reconstruct_secrets",
    "reconstruct_secret_sets",
]


@dataclass(frozen=True)
class Share:
    """One Shamir share: the evaluation point ``x`` and value ``y``."""

    x: int
    y: int


def split_secret(
    secret: int,
    n_shares: int,
    threshold: int,
    field: PrimeField,
    rng: np.random.Generator | int | None = None,
) -> list[Share]:
    """Split ``secret`` into ``n_shares`` shares, any ``threshold`` of which reconstruct it.

    Examples
    --------
    >>> field = PrimeField(2**61 - 1)
    >>> shares = split_secret(12345, n_shares=5, threshold=3, field=field, rng=0)
    >>> reconstruct_secret(shares[1:4], field)
    12345
    """
    if not 1 <= threshold <= n_shares:
        raise ConfigurationError(
            f"need 1 <= threshold <= n_shares, got threshold={threshold}, n_shares={n_shares}"
        )
    if n_shares >= field.modulus:
        raise ConfigurationError("more shares requested than distinct field points")
    gen = ensure_rng(rng)
    secret = field.reduce(secret)
    # Random polynomial with constant term = secret.
    coefficients = [secret] + [field.random_element(gen) for _ in range(threshold - 1)]
    shares = []
    for x in range(1, n_shares + 1):
        # Horner evaluation at x.
        y = 0
        for coeff in reversed(coefficients):
            y = field.add(field.mul(y, x), coeff)
        shares.append(Share(x=x, y=y))
    return shares


@lru_cache(maxsize=64)
def _power_matrix(n_shares: int, threshold: int, modulus: int) -> np.ndarray:
    """``x**d mod p`` for ``x = 1..n_shares``, ``d = 0..threshold-1``."""
    return np.array(
        [
            [pow(x, d, modulus) for x in range(1, n_shares + 1)]
            for d in range(threshold)
        ],
        dtype=np.uint64,
    )


def split_secrets(
    secrets,
    n_shares: int,
    threshold: int,
    field: PrimeField,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Batched :func:`split_secret`: one polynomial per secret, vectorized.

    Returns a ``(len(secrets), n_shares)`` uint64 matrix whose row ``i``
    holds the share *values* of ``secrets[i]`` at the implicit evaluation
    points ``x = 1 .. n_shares``.  Value- and stream-identical to calling
    :func:`split_secret` once per secret on the same generator (the
    coefficient block is drawn row-major, exactly the order the scalar
    loop consumes), but every polynomial evaluation is one exact mod-p
    matrix product of the coefficient matrix with the power matrix
    ``x**d``, instead of ``len(secrets) * n_shares`` Horner loops.
    """
    (shares,) = split_secret_sets(
        np.reshape(secrets, (1, -1)), n_shares, threshold, field, [ensure_rng(rng)]
    )
    return shares


def split_secret_sets(
    secret_rows,
    n_shares: int,
    threshold: int,
    field: PrimeField,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """:func:`split_secrets` for several rows of secrets, each on its own generator.

    Row ``s`` of the ``(S, k)`` ``secret_rows`` draws its coefficients
    from ``rngs[s]``, stream-identical to ``split_secrets(secret_rows[s],
    ..., rngs[s])``; the ``(S, k, threshold)`` coefficient stack then meets
    the power matrix in one stacked product.  Returns the ``(S, k,
    n_shares)`` share values.
    """
    if not 1 <= threshold <= n_shares:
        raise ConfigurationError(
            f"need 1 <= threshold <= n_shares, got threshold={threshold}, n_shares={n_shares}"
        )
    if n_shares >= field.modulus:
        raise ConfigurationError("more shares requested than distinct field points")
    secret_rows = field.reduce_array(np.asarray(secret_rows))
    k = secret_rows.shape[1]
    coeffs = np.empty(secret_rows.shape + (threshold,), dtype=np.uint64)
    coeffs[..., 0] = secret_rows
    for row, gen in zip(coeffs, rngs):
        row[:, 1:] = gen.integers(0, field.modulus, size=(k, threshold - 1))
    return field.matmul_arrays(coeffs, _power_matrix(n_shares, threshold, field.modulus))


@lru_cache(maxsize=512)
def _lagrange_weights_at_zero(xs: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """Each point's Lagrange basis weight at zero, ``prod_{j != i} x_j / (x_j - x_i) mod p``.

    ``xs`` must be distinct mod p.  Rounds interpolate at a survivor set,
    most of ``{1 .. m}`` with ``m = max(xs)``: over all of it the weight of
    ``x`` is ``(-1)**(x - 1) C(m, x)``, and each excluded point ``e``
    divides out as a factor ``(e - x) / e`` -- one ``pow`` for all points.
    Sets with more excluded points than kept ones (or points outside
    ``1 .. m < p``) take each weight's exact numerator and denominator
    products instead, one ``pow`` inverting all denominators at once and a
    backward walk over their prefix products peeling off each one's inverse
    (Montgomery's batched inversion).
    """
    top = max(xs)
    if min(xs) >= 1 and top < modulus and top <= 2 * len(xs):
        excluded = sorted(set(range(1, top + 1)).difference(xs))
        if len(excluded) == top - len(xs):  # distinct points
            inverse = pow(math.prod(excluded) % modulus, -1, modulus)
            return tuple(
                (-1) ** (x - 1) * math.comb(top, x) * math.prod([e - x for e in excluded])
                % modulus * inverse % modulus
                for x in xs
            )
    numerators, denominators = [], []
    for i, x_i in enumerate(xs):
        others = xs[:i] + xs[i + 1 :]
        numerators.append(math.prod(others) % modulus)
        denominators.append(math.prod([x_j - x_i for x_j in others]) % modulus)
    prefix = [1]
    for denominator in denominators:
        prefix.append(prefix[-1] * denominator % modulus)
    inverse = pow(prefix[-1], -1, modulus)
    weights = [0] * len(xs)
    for i in reversed(range(len(xs))):
        weights[i] = numerators[i] * prefix[i] % modulus * inverse % modulus
        inverse = inverse * denominators[i] % modulus
    return tuple(weights)


def _check_points(xs: tuple[int, ...], field: PrimeField, expected_threshold: int | None) -> None:
    """Reject an empty, under-threshold or duplicate (mod p) share point set."""
    if not xs:
        raise SecureAggregationError("cannot reconstruct from zero shares")
    if expected_threshold is not None and len(xs) < expected_threshold:
        raise SecureAggregationError(
            f"reconstruction needs >= {expected_threshold} shares, got {len(xs)}; "
            "interpolating fewer would silently yield garbage"
        )
    # Points equal mod p are one point of the polynomial: interpolating
    # through both has no solution (a zero denominator).
    if len({x % field.modulus for x in xs}) != len(xs):
        raise SecureAggregationError(
            f"duplicate share points mod {field.modulus}: {sorted(xs)}"
        )


def reconstruct_secret_sets(
    point_sets: Sequence,
    share_blocks: Sequence[np.ndarray],
    field: PrimeField,
    expected_thresholds: Sequence[int | None] | None = None,
) -> list[np.ndarray]:
    """:func:`reconstruct_secrets` for several point sets, one product per set size.

    Block ``s`` of ``share_blocks`` is a ``(m_s, len(point_sets[s]))``
    uint64 matrix: row ``i`` holds one secret's share values at
    ``point_sets[s]``.  The blocks of the sets that hold ``t`` points are
    stacked into one ``(sum m_s, t)`` matrix and multiplied by the ``(t,
    sets)`` matrix of each set's Lagrange weights at zero, one exact mod-p
    product; each row keeps its own set's column.  ``expected_thresholds``
    gives each set's :func:`reconstruct_secrets` ``expected_threshold``.
    Raises like :func:`reconstruct_secrets` on any set.
    """
    if expected_thresholds is None:
        expected_thresholds = [None] * len(point_sets)
    point_sets = [tuple(int(x) for x in xs) for xs in point_sets]
    blocks = []
    for xs, ys, threshold in zip(point_sets, share_blocks, expected_thresholds):
        _check_points(xs, field, threshold)
        ys = np.atleast_2d(np.asarray(ys, dtype=np.uint64))
        if ys.shape[-1] != len(xs):
            raise ConfigurationError(
                f"share matrix has {ys.shape[-1]} columns for {len(xs)} points"
            )
        blocks.append(ys)
    by_size: dict[int, list[int]] = {}
    for s, xs in enumerate(point_sets):
        by_size.setdefault(len(xs), []).append(s)
    secrets: list = [None] * len(blocks)
    for members in by_size.values():
        weights = np.array(
            [_lagrange_weights_at_zero(point_sets[s], field.modulus) for s in members],
            dtype=np.uint64,
        )
        rows = [blocks[s].shape[0] for s in members]
        products = field.matmul_arrays(np.concatenate([blocks[s] for s in members]), weights.T)
        own = products[np.arange(products.shape[0]), np.repeat(np.arange(len(members)), rows)]
        for s, part in zip(members, np.split(own, np.cumsum(rows)[:-1])):
            secrets[s] = part
    return secrets


def reconstruct_secrets(
    xs,
    ys: np.ndarray,
    field: PrimeField,
    expected_threshold: int | None = None,
) -> np.ndarray:
    """Batched :func:`reconstruct_secret` for shares on *common* points.

    ``xs`` are the shared evaluation points and ``ys`` a ``(m, len(xs))``
    uint64 matrix -- row ``i`` holds one secret's share values at ``xs``.
    Every row reuses the same Lagrange weights at zero (computed, and
    inverted, once per point set instead of once per secret), so the batch
    is one exact mod-p matrix-vector product.  Raises exactly like the
    scalar twin on empty, under-``expected_threshold`` or duplicate (mod p)
    share points.
    """
    (secrets,) = reconstruct_secret_sets([xs], [ys], field, [expected_threshold])
    return secrets


def reconstruct_secret(
    shares: list[Share],
    field: PrimeField,
    expected_threshold: int | None = None,
) -> int:
    """Reconstruct the secret from at least ``threshold`` distinct shares.

    Lagrange interpolation at ``x = 0``.  Raises
    :class:`SecureAggregationError` on evaluation points equal mod p (a
    sign of protocol corruption).  Supplying fewer than ``threshold`` shares is
    mathematically undetectable -- interpolation happily returns a value
    that is *not* the secret -- so callers that know the split's threshold
    must pass it as ``expected_threshold``: an under-threshold share set
    then raises instead of silently corrupting whatever sum the "secret"
    feeds (the session layer always passes it).
    """
    _check_points(tuple(s.x for s in shares), field, expected_threshold)
    secret = 0
    for i, share_i in enumerate(shares):
        # Lagrange basis polynomial evaluated at 0.
        numerator, denominator = 1, 1
        for j, share_j in enumerate(shares):
            if i == j:
                continue
            numerator = field.mul(numerator, field.neg(share_j.x))
            denominator = field.mul(denominator, field.sub(share_i.x, share_j.x))
        basis = field.mul(numerator, field.inv(denominator))
        secret = field.add(secret, field.mul(share_i.y, basis))
    return secret
