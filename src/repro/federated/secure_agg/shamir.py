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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import ConfigurationError, SecureAggregationError
from repro.federated.secure_agg.field import PrimeField
from repro.rng import ensure_rng

__all__ = [
    "Share",
    "split_secret",
    "split_secrets",
    "reconstruct_secret",
    "reconstruct_secrets",
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
    if not 1 <= threshold <= n_shares:
        raise ConfigurationError(
            f"need 1 <= threshold <= n_shares, got threshold={threshold}, n_shares={n_shares}"
        )
    if n_shares >= field.modulus:
        raise ConfigurationError("more shares requested than distinct field points")
    gen = ensure_rng(rng)
    secrets = field.reduce_array(np.asarray(secrets)).reshape(-1)
    k = secrets.size
    if threshold > 1:
        coefficients = np.asarray(
            gen.integers(0, field.modulus, size=(k, threshold - 1)), dtype=np.uint64
        )
    else:
        coefficients = np.zeros((k, 0), dtype=np.uint64)
    coeffs = np.concatenate([secrets[:, None], coefficients], axis=1)
    return field.matmul_arrays(coeffs, _power_matrix(n_shares, threshold, field.modulus))


@lru_cache(maxsize=512)
def _lagrange_weights_at_zero(xs: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    field = PrimeField(modulus)
    weights = []
    for i, x_i in enumerate(xs):
        numerator, denominator = 1, 1
        for j, x_j in enumerate(xs):
            if i == j:
                continue
            numerator = field.mul(numerator, field.neg(x_j))
            denominator = field.mul(denominator, field.sub(x_i, x_j))
        weights.append(field.mul(numerator, field.inv(denominator)))
    return tuple(weights)


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
    scalar twin on empty/duplicate points or an under-``expected_threshold``
    share set.
    """
    xs = tuple(int(x) for x in xs)
    if not xs:
        raise SecureAggregationError("cannot reconstruct from zero shares")
    if expected_threshold is not None and len(xs) < expected_threshold:
        raise SecureAggregationError(
            f"reconstruction needs >= {expected_threshold} shares, got {len(xs)}; "
            "interpolating fewer would silently yield garbage"
        )
    if len(set(xs)) != len(xs):
        raise SecureAggregationError(f"duplicate share points: {sorted(xs)}")
    ys = np.atleast_2d(np.asarray(ys, dtype=np.uint64))
    if ys.shape[-1] != len(xs):
        raise ConfigurationError(
            f"share matrix has {ys.shape[-1]} columns for {len(xs)} points"
        )
    weights = np.array(
        _lagrange_weights_at_zero(xs, field.modulus), dtype=np.uint64
    )
    return field.matmul_arrays(ys, weights[:, None])[:, 0]


def reconstruct_secret(
    shares: list[Share],
    field: PrimeField,
    expected_threshold: int | None = None,
) -> int:
    """Reconstruct the secret from at least ``threshold`` distinct shares.

    Lagrange interpolation at ``x = 0``.  Raises
    :class:`SecureAggregationError` on duplicate evaluation points (a sign
    of protocol corruption).  Supplying fewer than ``threshold`` shares is
    mathematically undetectable -- interpolation happily returns a value
    that is *not* the secret -- so callers that know the split's threshold
    must pass it as ``expected_threshold``: an under-threshold share set
    then raises instead of silently corrupting whatever sum the "secret"
    feeds (the session layer always passes it).
    """
    if not shares:
        raise SecureAggregationError("cannot reconstruct from zero shares")
    if expected_threshold is not None and len(shares) < expected_threshold:
        raise SecureAggregationError(
            f"reconstruction needs >= {expected_threshold} shares, got {len(shares)}; "
            "interpolating fewer would silently yield garbage"
        )
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise SecureAggregationError(f"duplicate share points: {sorted(xs)}")
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
