"""Fixed-point encoding and binary decomposition of client values.

Bit-pushing (paper Section 3.1) operates on *b*-bit non-negative integers.
Real-valued client data is first mapped onto a fixed-point grid

    q = round((x - offset) / scale),        q in [0, 2**n_bits - 1],

and the protocol then samples individual binary digits of ``q``.  This module
owns that mapping plus all bit-level helpers:

* :class:`FixedPointEncoder` -- encode/decode, clipping (winsorization, as
  recommended in Section 4.3 of the paper for heavy-tailed telemetry), bit
  extraction, and reconstruction of a mean from per-bit means;
* :func:`extract_bit`, :func:`bit_matrix`, :func:`bit_means` -- free functions
  over already-encoded integer arrays;
* :func:`required_bits` -- the smallest bit depth that represents a value.

The linear-decomposition identity the whole protocol rests on is

    mean(x) = sum_j 2**j * mean(bit_j(x)),

which holds exactly for non-negative integers (paper Eq. 1).  Signed data is
handled by offsetting into the non-negative range rather than by a sign bit,
because signed binary expansions are *not* linear in the sign bit (paper,
footnote 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, EncodingError

__all__ = [
    "FixedPointEncoder",
    "extract_bit",
    "bit_matrix",
    "bit_means",
    "mean_from_bit_means",
    "required_bits",
]

#: Largest bit depth supported.  uint64 arithmetic bounds us at 63 usable
#: bits (we avoid the sign ambiguity of the 64th bit entirely).
MAX_BITS = 63


def required_bits(max_value: int) -> int:
    """Return the smallest ``b`` with ``max_value < 2**b``.

    >>> required_bits(0), required_bits(1), required_bits(255), required_bits(256)
    (1, 1, 8, 9)
    """
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    return max(1, int(max_value).bit_length())


def extract_bit(encoded: np.ndarray, j: int) -> np.ndarray:
    """Return bit ``j`` (LSB = 0) of each value in ``encoded`` as a 0/1 array."""
    if j < 0 or j >= MAX_BITS:
        raise ValueError(f"bit index {j} outside [0, {MAX_BITS})")
    enc = np.asarray(encoded, dtype=np.uint64)
    return ((enc >> np.uint64(j)) & np.uint64(1)).astype(np.uint8)


def bit_matrix(encoded: np.ndarray, n_bits: int) -> np.ndarray:
    """Return an ``(n, n_bits)`` 0/1 matrix; column ``j`` is bit ``j``.

    Column order is LSB-first, matching the ``2**j`` weights used throughout.
    """
    if n_bits <= 0 or n_bits > MAX_BITS:
        raise ValueError(f"n_bits must be in [1, {MAX_BITS}], got {n_bits}")
    enc = np.asarray(encoded, dtype=np.uint64)
    shifts = np.arange(n_bits, dtype=np.uint64)
    return ((enc[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)


def bit_means(encoded: np.ndarray, n_bits: int) -> np.ndarray:
    """Return the exact per-bit means of ``encoded`` (length ``n_bits``).

    This is the ground-truth quantity the protocol estimates: entry ``j`` is
    the fraction of clients whose value has bit ``j`` set.
    """
    enc = np.asarray(encoded, dtype=np.uint64)
    if enc.size == 0:
        raise EncodingError("cannot compute bit means of an empty array")
    return bit_matrix(enc, n_bits).mean(axis=0)


def mean_from_bit_means(means: np.ndarray) -> float:
    """Reconstruct an (encoded-domain) mean from per-bit means.

    Implements the linear decomposition ``sum_j 2**j * m_j`` (paper Eq. 1).
    """
    means = np.asarray(means, dtype=np.float64)
    weights = np.exp2(np.arange(means.size))
    return float(weights @ means)


@dataclass(frozen=True)
class FixedPointEncoder:
    """Map real values onto a ``n_bits``-bit unsigned fixed-point grid.

    Parameters
    ----------
    n_bits:
        Bit depth ``b``; encoded values live in ``[0, 2**b - 1]``.
    scale:
        Grid resolution.  ``scale=1`` encodes integers directly; smaller
        scales give sub-integer resolution at the cost of dynamic range.
    offset:
        Value mapped to encoded 0.  Set ``offset=L`` to handle inputs from a
        signed or shifted range ``[L, H]``.
    clip:
        If true (the default), out-of-range inputs are winsorized to the
        representable range -- the deployment-recommended behaviour for
        heavy-tailed metrics (paper Section 4.3).  If false, out-of-range
        inputs raise :class:`EncodingError`.

    Examples
    --------
    >>> enc = FixedPointEncoder(n_bits=8)
    >>> enc.encode([3.2, 300.0])          # 300 clips to 255
    array([  3, 255], dtype=uint64)
    >>> enc.decode(enc.encode([42.0]))
    array([42.])
    """

    n_bits: int
    scale: float = 1.0
    offset: float = 0.0
    clip: bool = True
    # Derived, filled in __post_init__.
    max_encoded: int = field(init=False, repr=False)
    #: Reconstruction weights ``2**j`` (read-only view, LSB-first).  Cached
    #: here because every estimate ends with ``powers @ bit_means`` and the
    #: vector depends only on ``n_bits``.  Excluded from comparison/hashing
    #: (an ndarray field would break the generated ``__eq__``).
    powers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (1 <= self.n_bits <= MAX_BITS):
            raise ConfigurationError(f"n_bits must be in [1, {MAX_BITS}], got {self.n_bits}")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ConfigurationError(f"scale must be a positive finite float, got {self.scale}")
        if not np.isfinite(self.offset):
            raise ConfigurationError(f"offset must be finite, got {self.offset}")
        object.__setattr__(self, "max_encoded", (1 << self.n_bits) - 1)
        powers = np.exp2(np.arange(self.n_bits))
        powers.setflags(write=False)
        object.__setattr__(self, "powers", powers)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_range(cls, low: float, high: float, n_bits: int, clip: bool = True) -> "FixedPointEncoder":
        """Encoder spanning ``[low, high]`` with ``n_bits`` of resolution.

        ``low`` maps to encoded 0 and ``high`` to ``2**n_bits - 1``.
        """
        if not (np.isfinite(low) and np.isfinite(high)) or high <= low:
            raise ConfigurationError(f"need finite low < high, got [{low}, {high}]")
        scale = (high - low) / ((1 << n_bits) - 1)
        return cls(n_bits=n_bits, scale=scale, offset=low, clip=clip)

    @classmethod
    def for_integers(cls, n_bits: int, clip: bool = True) -> "FixedPointEncoder":
        """Unit-scale encoder for non-negative integers below ``2**n_bits``."""
        return cls(n_bits=n_bits, scale=1.0, offset=0.0, clip=clip)

    def widened(self, n_bits: int) -> "FixedPointEncoder":
        """Return a copy with a different bit depth but identical grid.

        Used by variance estimation, which squares values and therefore needs
        roughly twice the bit depth at the same resolution.
        """
        return FixedPointEncoder(n_bits=n_bits, scale=self.scale, offset=self.offset, clip=self.clip)

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------
    def encode(self, values: np.ndarray) -> np.ndarray:
        """Quantize ``values`` to the fixed-point grid (uint64 array).

        Quantizes in place in one float temporary, never in ``values``
        itself.  A finite sum proves every value finite, so only a
        non-finite sum (an inf, a NaN, or a total that overflows) pays for
        the exact element-wise scan.  The subtract is skipped at
        ``offset == 0`` and the divide at ``scale == 1``: in IEEE
        arithmetic ``x - 0.0`` and ``x / 1.0`` are ``x`` exactly.
        """
        vals = np.asarray(values, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(vals, axis=None)
        if not np.isfinite(total) and not np.all(np.isfinite(vals)):
            raise EncodingError("cannot encode non-finite values")
        quantized = np.empty(vals.shape)
        scaled = vals
        if self.offset != 0:
            scaled = np.subtract(scaled, self.offset, out=quantized)
        if self.scale != 1:
            scaled = np.divide(scaled, self.scale, out=quantized)
        np.rint(scaled, out=quantized)
        if self.clip:
            np.clip(quantized, 0, self.max_encoded, out=quantized)
        else:
            out_of_range = (quantized < 0) | (quantized > self.max_encoded)
            if np.any(out_of_range):
                bad = vals[out_of_range][:3]
                raise EncodingError(
                    f"{int(out_of_range.sum())} value(s) outside representable range "
                    f"[{self.offset}, {self.decode_scalar(self.max_encoded)}], e.g. {bad.tolist()}"
                )
        return quantized.astype(np.uint64)

    def decode(self, encoded: np.ndarray) -> np.ndarray:
        """Map encoded integers back to the real domain."""
        enc = np.asarray(encoded, dtype=np.float64)
        return enc * self.scale + self.offset

    def decode_scalar(self, encoded: float) -> float:
        """Decode one (possibly fractional) encoded-domain quantity.

        Fractional inputs arise naturally: the protocol's estimate of the
        encoded mean is a weighted sum of bit means and is rarely integral.
        """
        return float(encoded) * self.scale + self.offset

    # ------------------------------------------------------------------
    # Bit-level views
    # ------------------------------------------------------------------
    def bit(self, encoded: np.ndarray, j: int) -> np.ndarray:
        """Bit ``j`` of each encoded value (0/1 uint8 array)."""
        if j >= self.n_bits:
            raise ValueError(f"bit index {j} >= n_bits {self.n_bits}")
        return extract_bit(encoded, j)

    def bits(self, encoded: np.ndarray) -> np.ndarray:
        """Full ``(n, n_bits)`` bit matrix of the encoded values."""
        return bit_matrix(encoded, self.n_bits)

    def true_bit_means(self, values: np.ndarray) -> np.ndarray:
        """Ground-truth bit means of real ``values`` after encoding."""
        return bit_means(self.encode(values), self.n_bits)

    def mean_from_bit_means(self, means: np.ndarray) -> float:
        """Real-domain mean implied by estimated per-bit means."""
        means = np.asarray(means, dtype=np.float64)
        if means.size != self.n_bits:
            raise ValueError(f"expected {self.n_bits} bit means, got {means.size}")
        return self.decode_scalar(float(self.powers @ means))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def representable_max(self) -> float:
        """Largest real value representable without clipping."""
        return self.decode_scalar(self.max_encoded)

    @property
    def representable_min(self) -> float:
        """Smallest real value representable without clipping (= offset)."""
        return self.offset

    def quantization_error_bound(self) -> float:
        """Worst-case absolute rounding error per value (half a grid step)."""
        return self.scale / 2.0
