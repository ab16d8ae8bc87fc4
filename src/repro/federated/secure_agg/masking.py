"""Mask generation for pairwise-masked secure aggregation.

Each client ``i`` submits ``x_i + b_i + sum_{j>i} m_ij - sum_{j<i} m_ji``
in a ring of integers mod ``2**b``, where ``b_i`` is a self-mask expanded
from a private seed and ``m_ij`` is a pairwise mask expanded from a seed
shared by clients ``i`` and ``j``.  Summed over all clients, the pairwise
masks cancel exactly; the self-masks are removed by the server after
share-based seed recovery.

**The ring is sized to the sum** (Kairouz, Liu and Steinke size the
secure-sum modulus the same way): :func:`mask_ring` picks the smallest of
8, 16, 32 and 64 bits that holds every sum of the session's entries, so a
one-hot report bit over a shard of up to 255 clients masks in one byte.
Ring arithmetic is the lane's native wrap-around (``uint8`` ... ``uint64``
``+``, ``-`` and ``sum``), a mask drawn uniformly from the ring hides its
entry perfectly (a one-time pad), and a sum that fits comes back exactly.
Seeds and Shamir shares stay in the prime field of
:mod:`repro.federated.secure_agg.field`.

Masks are expanded deterministically with Philox-4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3"), the same counter-based
generator numpy ships -- but evaluated here as a *batched* numpy kernel:
one call expands every seed it is given, each seed keying its own counter
stream, with no per-seed ``Generator`` construction.  A mask row is the
little-endian bytes of its seed's stream read as lane words, so a 20-byte
row needs one 32-byte Philox block.  The kernel is pinned bit-identical to
``np.random.Philox(key=seed).random_raw`` by a test, and because Philox is
counter-based a row depends only on its seed, never on the other seeds in
its call -- both endpoints of a pairwise seed, any re-expansion during
dropout recovery, and any grouping of sessions into one call derive
exactly the same mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "Ring",
    "mask_ring",
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


#: Ring widths with a native unsigned lane, narrowest first.
_RING_BITS = (8, 16, 32, 64)
#: Per-entry magnitude bound numerator when no lane holds every sum.
_INT63 = (1 << 63) - 1


@dataclass(frozen=True)
class Ring:
    """The integers mod ``2**bits`` that one session's masks live in.

    Entries must lie in ``[low, high]``, which keeps every sum of the
    session's entries inside the ring; ``signed`` totals decode centered,
    through the signed lane.  Built by :func:`mask_ring`.
    """

    bits: int
    signed: bool
    low: int
    high: int

    @property
    def lane(self) -> np.dtype:
        """The ``bits``-wide unsigned dtype; its arithmetic wraps mod ``2**bits``."""
        return np.dtype(f"uint{self.bits}")

    def encode(self, rows) -> np.ndarray:
        """Check integer entries against the ring's bounds; return them as lane words.

        Negative entries become their two's complement, so lane sums of
        them wrap to the right residue.
        """
        rows = np.asarray(rows)
        if rows.dtype.kind not in "biu":
            raise ConfigurationError(
                f"secure-sum entries must be integers or bools, got {rows.dtype}"
            )
        dtype_low, dtype_high = _entry_range(rows.dtype)
        if rows.size and (dtype_low < self.low or dtype_high > self.high):
            low, high = int(rows.min()), int(rows.max())
            if low < self.low or high > self.high:
                bad = low if low < self.low else high
                raise ConfigurationError(
                    f"secure-sum entry {bad} is outside [{self.low}, {self.high}], "
                    f"the range whose sums stay exact in the {self.bits}-bit ring"
                )
        return rows.astype(self.lane)

    def decode(self, total: np.ndarray) -> list[int]:
        """A lane total as Python ints, centered for signed entries."""
        return (total.view(f"int{self.bits}") if self.signed else total).tolist()


def _entry_range(dtype: np.dtype) -> tuple[int, int]:
    if dtype.kind == "b":
        return 0, 1
    info = np.iinfo(dtype)
    return int(info.min), int(info.max)


def mask_ring(dtype, n_clients: int) -> Ring:
    """The smallest ring that holds every sum of ``n_clients`` entries of ``dtype``.

    Bool entries need ``n.bit_length()`` bits and unsigned entries
    ``(n * max).bit_length()``; signed entries need one bit more, and their
    totals decode centered.  The ring is the first of 8, 16, 32 and 64 bits
    that fits.  When none does (int64 entries, for example) it is 64 bits,
    and each entry's magnitude must stay within ``(2**63 - 1) // n`` so that
    no sum wraps.

    >>> mask_ring(bool, 255).bits, mask_ring(bool, 256).bits
    (8, 16)
    >>> mask_ring("int64", 2).high == (2**63 - 1) // 2
    True
    """
    dtype = np.dtype(dtype)
    if dtype.kind not in "biu":
        raise ConfigurationError(
            f"secure aggregation needs integer or bool entries, got dtype {dtype}"
        )
    low, high = _entry_range(dtype)
    signed = dtype.kind == "i"
    # Signed b bits hold [-2**(b-1), 2**(b-1) - 1]; n * low is the binding end.
    need = (-n_clients * low - 1).bit_length() + 1 if signed else (n_clients * high).bit_length()
    for bits in _RING_BITS:
        if need <= bits:
            return Ring(bits, signed, low, high)
    bound = _INT63 // n_clients
    return Ring(64, signed, max(low, -bound), min(high, bound))


def expand_masks(seeds, length: int, dtype) -> np.ndarray:
    """Expand each seed into one row of a ``(len(seeds), length)`` lane array.

    ``dtype`` is the ring's unsigned lane.  One vectorized Philox pass
    covers every seed: seed ``i`` keys its own counter stream (counters
    ``1, 2, ...`` per 32-byte block), and row ``i`` is that stream's
    little-endian bytes read as lane words -- ``Philox(key=seed).random_raw``
    viewed as ``<u1``/``<u2``/``<u4``/``<u8`` and cut to ``length``.
    """
    if length < 0:
        raise ConfigurationError(f"mask length must be >= 0, got {length}")
    lane = np.dtype(dtype)
    if lane.kind != "u":
        raise ConfigurationError(f"mask lanes are unsigned integers, got {lane}")
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    if length == 0 or seeds.size == 0:
        return np.zeros((seeds.size, length), dtype=lane)
    blocks = -(-length * lane.itemsize // 32)
    words = np.stack(
        philox4x64(seeds[:, None], np.arange(1, blocks + 1, dtype=np.uint64)[None, :]),
        axis=-1,
    ).reshape(seeds.size, blocks * 4)
    return words.astype("<u8", copy=False).view(f"<u{lane.itemsize}")[:, :length]


def expand_mask(seed: int, length: int, dtype) -> list[int]:
    """One seed's mask in lane ``dtype``, as Python ints (the scalar reference).

    Both endpoints of a pairwise seed must derive the *same* vector, so the
    expansion depends only on the seed value.
    """
    return expand_masks([seed], length, dtype)[0].tolist()


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
    dtype,
) -> list[int]:
    """Mask a client's value vector for submission (scalar ring reference).

    Parameters
    ----------
    values:
        The client's plaintext contribution (integers; negatives wrap to
        their residue mod ``2**b``).
    self_seed:
        Seed of the client's self-mask ``b_i``.
    pairwise_seeds:
        ``other_id -> shared seed`` for every *live* peer.
    my_id:
        This client's id (determines mask signs).
    dtype:
        The ring's unsigned lane; arithmetic is on Python ints mod ``2**b``.
    """
    modulus = 1 << (8 * np.dtype(dtype).itemsize)
    length = len(values)
    masked = [
        (int(v) + m) % modulus for v, m in zip(values, expand_mask(self_seed, length, dtype))
    ]
    for other_id, seed in pairwise_seeds.items():
        sign = pairwise_mask_sign(my_id, other_id)
        mask = expand_mask(seed, length, dtype)
        masked = [(v + sign * m) % modulus for v, m in zip(masked, mask)]
    return masked
