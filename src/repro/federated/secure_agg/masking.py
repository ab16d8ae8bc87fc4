"""Mask generation for pairwise-masked secure aggregation.

Each client ``i`` submits ``x_i + b_i + sum_{j>i} m_ij - sum_{j<i} m_ji``
(mod p), where ``b_i`` is a self-mask expanded from a private seed and
``m_ij`` is a pairwise mask expanded from a seed shared by clients ``i`` and
``j``.  Summed over all clients, the pairwise masks cancel exactly; the
self-masks are removed by the server after share-based seed recovery.

Masks are expanded deterministically with Philox-4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3"), the same counter-based
generator numpy ships -- but evaluated here as a *batched* numpy kernel:
one call expands every seed a session phase needs (a shard's self-masks
and pairwise masks together), each seed keying its own counter stream,
with no per-seed ``Generator`` construction.  The kernel is
pinned bit-identical to ``np.random.Philox(key=seed).random_raw`` by a
test.  Uniform words are truncated into the field with a single modulo;
the residue bias is < 2**-56 for the default 61-bit prime and irrelevant
to correctness, which only needs both endpoints of a seed to derive the
*same* vector so masks cancel exactly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.federated.secure_agg.field import PrimeField

__all__ = [
    "expand_mask",
    "expand_masks",
    "philox4x64",
    "apply_masks",
    "pairwise_mask_sign",
]

# Philox-4x64 round multipliers and Weyl key increments (Random123).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_WEYL_0 = 0x9E3779B97F4A7C15
_WEYL_1 = 0xBB67AE8584CAA73B
_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Each multiplier as (full word, low half, high half) for _mulhilo.
_M0 = tuple(np.uint64(w) for w in (_PHILOX_M0, _PHILOX_M0 & 0xFFFFFFFF, _PHILOX_M0 >> 32))
_M1 = tuple(np.uint64(w) for w in (_PHILOX_M1, _PHILOX_M1 & 0xFFFFFFFF, _PHILOX_M1 >> 32))
# Per-round key increments: key word 0 advances by r * W0 from the seed,
# key word 1 starts at 0 for every seed, so its round keys are scalars.
_KEY0_STEP = tuple(np.uint64(r * _WEYL_0 % (1 << 64)) for r in range(_ROUNDS))
_KEY1 = tuple(np.uint64(r * _WEYL_1 % (1 << 64)) for r in range(_ROUNDS))


def _mulhilo(
    m: tuple[np.uint64, np.uint64, np.uint64], b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full 64x64 -> 128 bit product of multiplier ``m`` with array ``b``.

    uint64 multiplication wraps, so the high word is assembled from 32-bit
    half products (schoolbook); every partial sum provably fits in uint64.
    """
    full, m_lo, m_hi = m
    lo = full * b
    b_lo, b_hi = b & _MASK32, b >> _SHIFT32
    t1 = m_hi * b_lo + ((m_lo * b_lo) >> _SHIFT32)
    t2 = m_lo * b_hi + (t1 & _MASK32)
    hi = m_hi * b_hi + (t1 >> _SHIFT32) + (t2 >> _SHIFT32)
    return hi, lo


def philox4x64(
    key0: np.ndarray, counter0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox-4x64-10 blocks, vectorized over keys and counters.

    ``key0`` and ``counter0`` broadcast together; each element pair selects
    the block with key ``(key0, 0)`` and counter ``(counter0, 0, 0, 0)``
    and yields that block's four output words.  A test pins the kernel
    bit-identical to ``np.random.Philox(key=key0).random_raw`` (numpy
    pre-increments, so its ``i``-th raw block is counter ``i + 1``).

    Work common to every lane is done once: key word 1 is a scalar per
    round, key word 0 keeps the shape of ``key0`` (a seed column when
    called from :func:`expand_masks`), and round 1 skips the product of
    the all-zero counter word 2.
    """
    key0 = np.asarray(key0, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # Round 1 on counter (c0, 0, 0, 0): the M1 product of c2 = 0 is 0.
        hi0, lo0 = _mulhilo(_M0, np.asarray(counter0, dtype=np.uint64))
        c0, c1, c2, c3 = key0, np.uint64(0), hi0, lo0
        for r in range(1, _ROUNDS):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = (
                hi1 ^ c1 ^ (key0 + _KEY0_STEP[r]),
                lo1,
                hi0 ^ c3 ^ _KEY1[r],
                lo0,
            )
    # Rounds 2 and 3 mix the key- and counter-shaped words, so every word
    # has the broadcast shape from round 3 on.
    return c0, c1, c2, c3


def expand_masks(seeds, length: int, field: PrimeField) -> np.ndarray:
    """Expand each seed into one row of a ``(len(seeds), length)`` uint64 array.

    One vectorized Philox pass covers every seed: seed ``i`` keys its own
    counter stream (counters ``0, 1, ...`` per 4-word block), so rows depend
    only on their seed -- both endpoints of a pairwise seed, and any
    re-expansion during dropout recovery, derive exactly the same mask.
    """
    if length < 0:
        raise ConfigurationError(f"mask length must be >= 0, got {length}")
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    if length == 0 or seeds.size == 0:
        return np.zeros((seeds.size, length), dtype=np.uint64)
    blocks = -(-length // 4)
    lanes = philox4x64(
        seeds[:, None], np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    )
    words = np.stack(lanes, axis=-1).reshape(seeds.size, blocks * 4)
    return words[:, :length] % np.uint64(field.modulus)


def expand_mask(seed: int, length: int, field: PrimeField) -> list[int]:
    """Deterministically expand ``seed`` into a uniform field vector.

    Both endpoints of a pairwise seed must derive the *same* vector, so the
    expansion depends only on the seed value.
    """
    return [int(v) for v in expand_masks([seed], length, field)[0]]


def pairwise_mask_sign(my_id: int, other_id: int) -> int:
    """Sign convention making pairwise masks cancel: +1 if ``my_id < other_id``.

    Client ``i`` *adds* ``m_ij`` for peers with larger ids and *subtracts*
    it for peers with smaller ids, so each pair contributes ``+m - m = 0``
    to the total.
    """
    if my_id == other_id:
        raise ConfigurationError("a client has no pairwise mask with itself")
    return 1 if my_id < other_id else -1


def apply_masks(
    values: list[int],
    self_seed: int,
    pairwise_seeds: dict[int, int],
    my_id: int,
    field: PrimeField,
) -> list[int]:
    """Mask a client's value vector for submission.

    Parameters
    ----------
    values:
        The client's plaintext contribution (field elements).
    self_seed:
        Seed of the client's self-mask ``b_i``.
    pairwise_seeds:
        ``other_id -> shared seed`` for every *live* peer.
    my_id:
        This client's id (determines mask signs).
    field:
        The aggregation field.
    """
    masked = [field.reduce(v) for v in values]
    masked = field.add_vectors(masked, expand_mask(self_seed, len(values), field))
    for other_id, seed in pairwise_seeds.items():
        mask = expand_mask(seed, len(values), field)
        if pairwise_mask_sign(my_id, other_id) > 0:
            masked = field.add_vectors(masked, mask)
        else:
            masked = field.sub_vectors(masked, mask)
    return masked
