"""Prime-field arithmetic for secure aggregation's seeds and Shamir shares.

Shamir secret sharing (used for dropout recovery) needs field arithmetic
with invertible non-zero elements, and every mask seed is a field element:
a self-mask seed must come back unchanged from Shamir reconstruction.  The
masks themselves live in a power-of-two ring sized to the sum they carry
(:func:`repro.federated.secure_agg.masking.mask_ring`), not in this field.

We default to the Mersenne prime ``2**61 - 1``: seeds drawn from it are
uniform 61-bit keys, and its reduction is a shift-and-add fold that the
exact array product :meth:`PrimeField.matmul_arrays` builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["PrimeField", "DEFAULT_PRIME"]

#: Mersenne prime 2**61 - 1.
DEFAULT_PRIME = (1 << 61) - 1

# Deterministic Miller-Rabin witnesses valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=16)
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: Largest modulus for which two field elements can be added in uint64
#: without wrapping (the array kernels' overflow precondition).
_MAX_VECTORIZED_MODULUS = 1 << 63

_M61 = np.uint64(DEFAULT_PRIME)
_M61_BITS = np.uint64(61)
# matmul_arrays splits each reduced element into 21-bit limbs held in
# float64 -- the top limb below 2**19, as elements are below 2**61.  Each
# entry of the folded product (_fold_m61) sums three limb products per
# inner index, each below 2**42 (the factor 4 of a wrapped degree
# included), so an inner block of 682 keeps every sum below 2**53: exact
# in any order, FMA included.
_LIMB_SHIFTS = np.array([0, 21, 42], dtype=np.uint64)
_LIMB_MASK = np.uint64((1 << 21) - 1)
_MATMUL_BLOCK = 682
# Column block c of the folded right operand takes, in the rows of left
# limb i, right limb (c - i) mod 3; a product of degree i + j >= 3 enters
# it times 2**63 mod p = 4.
_FOLD_LIMB = (np.arange(3)[None, :] - np.arange(3)[:, None]) % 3
_FOLD_SCALE = np.where(np.arange(3)[:, None] + _FOLD_LIMB >= 3, 4.0, 1.0)[:, :, None, None]


def _reduce_m61(x: np.ndarray) -> np.ndarray:
    """Fold any uint64 ``x`` into ``[0, 2**61 - 1)``.

    For the Mersenne prime ``2**61 ≡ 1 (mod p)``, so one shift-and-add fold
    lands below ``2 p`` and a single conditional subtract finishes.
    """
    x = (x >> _M61_BITS) + (x & _M61)
    return np.where(x >= _M61, x - _M61, x)


def _rotl61(x: np.ndarray, shift: int) -> np.ndarray:
    """``x * 2**shift mod (2**61 - 1)`` for ``x < p``: a 61-bit rotation."""
    return ((x << np.uint64(shift)) & _M61) | (x >> np.uint64(61 - shift))


def _fold_m61(b: np.ndarray) -> np.ndarray:
    """The right operand's limbs folded by degree mod 3, as ``(3, k, 3, n)`` float64.

    Left limbs ``[a0 | a1 | a2]`` times the rows ``(i, k)`` give, in column
    block ``c``, the sum of the limb products of degree ``c`` and ``c + 3``.
    """
    limbs = ((b >> _LIMB_SHIFTS[:, None, None]) & _LIMB_MASK).astype(np.float64)
    return (limbs[_FOLD_LIMB] * _FOLD_SCALE).transpose(0, 2, 1, 3)


def _matmul_m61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(a @ b) mod (2**61 - 1)`` for reduced uint64 ``a (..., m, k)`` and ``b (k, n)``.

    Per inner block of 682, one float64 product of the left limbs with
    :func:`_fold_m61`'s rows yields the three degree sums ``c_0, c_1,
    c_2``; converted to uint64 (each below ``2**53``, so below ``p``),
    ``c_0 + c_1 * 2**21 + c_2 * 2**42`` is the block's product mod p, the
    scalings being 61-bit rotations.  A leading stack axis makes one small
    product per matrix (``np.matmul``'s loop), which stays on OpenBLAS's
    single-threaded path where one tall 2-D product would not.
    """
    k, n = b.shape
    lead = a.shape[:-1]
    left = ((a[..., None, :] >> _LIMB_SHIFTS[:, None]) & _LIMB_MASK).astype(np.float64)
    right = _fold_m61(b)
    total = np.zeros(lead + (n,), dtype=np.uint64)
    for start in range(0, k, _MATMUL_BLOCK):
        block = slice(start, start + _MATMUL_BLOCK)
        rows = 3 * (min(k, start + _MATMUL_BLOCK) - start)
        prod = np.matmul(
            left[..., block].reshape(lead + (rows,)), right[:, block].reshape(rows, 3 * n)
        ).astype(np.uint64)
        c0, c1, c2 = prod[..., :n], prod[..., n : 2 * n], prod[..., 2 * n :]
        total = _reduce_m61(total + c0 + _rotl61(c1, 21) + _rotl61(c2, 42))
    return total


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic modulo a prime ``modulus``.

    Scalar methods operate on exact Python ints (the scalar Shamir
    reference).  :meth:`random_vector`, :meth:`reduce_array` and
    :meth:`matmul_arrays` are the array kernels behind batched seeds and
    Shamir shares, over ``uint64`` numpy arrays -- exact for any modulus
    below ``2**63`` (so a single addition never wraps), which covers the
    default 61-bit Mersenne prime with headroom.

    Examples
    --------
    >>> f = PrimeField(97)
    >>> f.mul(50, 2)
    3
    >>> f.mul(f.inv(13), 13)
    1
    """

    modulus: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not _is_prime(self.modulus):
            raise ConfigurationError(f"field modulus must be prime, got {self.modulus}")

    # ------------------------------------------------------------------
    def reduce(self, x: int) -> int:
        return int(x) % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem."""
        a = a % self.modulus
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in a prime field")
        return pow(a, self.modulus - 2, self.modulus)

    # ------------------------------------------------------------------
    def random_element(self, rng: np.random.Generator | int | None = None) -> int:
        """Uniform field element."""
        gen = ensure_rng(rng)
        return int(gen.integers(0, self.modulus))

    def random_vector(
        self, length: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Uniform field vector as a ``uint64`` array (array-kernel input).

        Stream-identical to ``length`` sequential :meth:`random_element`
        calls on the same generator (numpy's bounded-integer sampler
        consumes the bit stream the same way for scalar and sized draws),
        which lets callers batch seed generation without changing results.
        """
        gen = ensure_rng(rng)
        return gen.integers(0, self.modulus, size=length).astype(np.uint64)

    # ------------------------------------------------------------------
    # Array kernels: exact uint64 arithmetic for batched seeds and Shamir
    # shares.  They assume (and _require_vectorizable checks) that the
    # modulus leaves one bit of uint64 headroom, so `a + b` with a, b < p
    # cannot wrap.
    # ------------------------------------------------------------------
    def _require_vectorizable(self) -> None:
        if self.modulus >= _MAX_VECTORIZED_MODULUS:
            raise ConfigurationError(
                f"array field ops need modulus < 2**63, got {self.modulus}"
            )

    def reduce_array(self, values: np.ndarray) -> np.ndarray:
        """Reduce an integer array into ``[0, p)`` as ``uint64``.

        Negative inputs are accepted (numpy's remainder is non-negative for
        a positive modulus), so callers can feed raw signed contributions.
        """
        self._require_vectorizable()
        arr = np.asarray(values)
        if arr.dtype == np.uint64:
            return arr % np.uint64(self.modulus)
        return (np.asarray(arr, dtype=np.int64) % np.int64(self.modulus)).astype(np.uint64)

    def matmul_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact ``(a @ b) mod p`` over reduced ``uint64`` arrays.

        ``b`` is 2-D and ``a`` is 2-D or a stack ``(..., m, k)`` of left
        operands, each multiplied by ``b``.  The default Mersenne prime runs
        as blocked float64 limb products (exact -- pinned against Python-int
        products, near-modulus operands and inner dimensions across the
        block edge included); other moduli fall back to an object-dtype
        Python-int product.
        """
        self._require_vectorizable()
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        if self.modulus == DEFAULT_PRIME:
            return _matmul_m61(a, b)
        out = (a.astype(object) @ b.astype(object)) % self.modulus
        return np.asarray(out, dtype=np.uint64)
