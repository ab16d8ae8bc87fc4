"""Randomized response (Warner 1965) over single bits.

This is the paper's local-DP workhorse (Section 3.3): report the true bit
with probability ``p = e^eps / (1 + e^eps)``, else its complement.  The
mechanism is epsilon-LDP, and the server debiases a reported mean ``r`` as
``(r - (1 - p)) / (2p - 1)``.

:class:`RandomizedResponse` implements the
:class:`repro.core.protocol.BitPerturbation` interface, so it can be plugged
into any bit-pushing estimator.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["RandomizedResponse"]


class RandomizedResponse:
    """Binary randomized response with an epsilon-LDP guarantee.

    Parameters
    ----------
    epsilon:
        The local differential privacy parameter (> 0).  The truth
        probability is derived as ``p = e^eps / (1 + e^eps)``.
    p:
        Alternatively, give the truth probability directly (0.5 < p < 1);
        exactly one of ``epsilon``/``p`` may be supplied.

    Examples
    --------
    >>> rr = RandomizedResponse(epsilon=1.0)
    >>> round(rr.p, 4)
    0.7311
    >>> import numpy as np
    >>> bits = np.ones(200_000, dtype=np.uint8)
    >>> reported = rr.perturb_bits(bits, np.random.default_rng(0))
    >>> est = rr.unbias_bit_means(np.array([reported.mean()]))
    >>> bool(abs(est[0] - 1.0) < 0.01)
    True
    """

    def __init__(self, epsilon: float | None = None, p: float | None = None) -> None:
        if (epsilon is None) == (p is None):
            raise ConfigurationError("provide exactly one of epsilon or p")
        if epsilon is not None:
            if not np.isfinite(epsilon) or epsilon <= 0:
                raise ConfigurationError(f"epsilon must be a positive finite float, got {epsilon}")
            try:
                p = math.exp(epsilon) / (1.0 + math.exp(epsilon))
            except OverflowError:
                raise ConfigurationError(
                    f"epsilon {epsilon} is too large: e^epsilon overflows"
                ) from None
        else:
            assert p is not None
            if not 0.5 < p < 1.0:
                raise ConfigurationError(f"p must be in (0.5, 1), got {p}")
            epsilon = math.log(p / (1.0 - p))
        self.p = float(p)
        self.epsilon = float(epsilon)

    # ------------------------------------------------------------------
    # BitPerturbation interface
    # ------------------------------------------------------------------
    def perturb_bits(
        self, bits: np.ndarray, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Report each bit truthfully with probability ``p``, else flipped.

        Every input value must be exactly 0 or 1, whatever its dtype; the
        reports come back as a new uint8 array.  Client ``i`` flips when
        its uniform draw is at least ``p``, with the draws in C order.
        """
        gen = ensure_rng(rng)
        bits = np.asarray(bits)
        # One pass checks uint8 (the round's reports); bool needs none.
        if bits.dtype == np.uint8:
            valid = not bits.size or bits.max() <= 1
        else:
            valid = bits.dtype == np.bool_ or bool(np.all((bits == 0) | (bits == 1)))
        if not valid:
            raise ConfigurationError("randomized response expects 0/1 bits")
        return bits.astype(np.uint8, copy=False) ^ (gen.random(bits.shape) >= self.p)

    def unbias_bit_means(self, means: np.ndarray) -> np.ndarray:
        """Map raw reported-bit means to unbiased true-bit-mean estimates.

        The output may fall outside ``[0, 1]``; downstream bit squashing
        and clipping (Section 3.3, Figure 4b) handle that.
        """
        means = np.asarray(means, dtype=np.float64)
        return (means - (1.0 - self.p)) / (2.0 * self.p - 1.0)

    # ------------------------------------------------------------------
    # Analytic companions
    # ------------------------------------------------------------------
    def per_report_variance(self) -> float:
        """Worst-case variance of one debiased report: ``e^eps / (e^eps - 1)^2``.

        This is the epsilon-dependent constant of Section 3.3; note it does
        not depend on the true bit mean, which is why adaptivity loses its
        edge under LDP (Figure 3 discussion).  Past epsilon ~ 355 the
        square overflows, but there ``e - 1 == e`` in floats, so the
        constant is ``1 / e``.
        """
        e = math.exp(self.epsilon)
        try:
            return e / (e - 1.0) ** 2
        except OverflowError:
            return 1.0 / e

    def estimator_variance_bound(self, count: float) -> float:
        """Variance bound for the debiased mean of ``count`` reports."""
        if count <= 0:
            return float("inf")
        return self.per_report_variance() / count

    def flip_probability(self) -> float:
        """Probability of reporting the complement bit (= ``1 - p``)."""
        return 1.0 - self.p

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomizedResponse(epsilon={self.epsilon:.4g}, p={self.p:.4g})"
