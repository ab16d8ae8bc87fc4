"""Basic (single-round) bit-pushing mean estimation -- paper Algorithm 1.

Each client reveals (at most) one bit of its encoded value; the server
assigns bits according to a :class:`~repro.core.sampling.BitSamplingSchedule`
and reconstructs the mean from the per-bit report means via the linear
decomposition ``mean = sum_j 2**j * m_j``.

The estimator is unbiased, with variance given by Lemma 3.1 (see
:func:`repro.core.protocol.theoretical_variance`).  An optional local privacy
perturbation (randomized response) and an optional bit-squashing threshold
turn the same machinery into the paper's epsilon-LDP variant.
"""

from __future__ import annotations

import numpy as np

from repro.core.client_plane import (
    ClientBatch,
    accumulate_bit_reports,
    elicit_values,
)
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import BitPerturbation, decode_estimate, round_summary
from repro.core.results import MeanEstimate
from repro.core.sampling import (
    BitSamplingSchedule,
    central_assignment,
    local_assignment,
    multi_bit_assignment,
)
from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["BasicBitPushing", "estimate_mean"]

_RANDOMNESS_MODES = ("central", "local")


class BasicBitPushing:
    """Single-round bit-pushing estimator (Algorithm 1).

    Parameters
    ----------
    encoder:
        Fixed-point encoding of the client values.
    schedule:
        Bit-sampling schedule.  Defaults to the worst-case-optimal
        ``p_j \\propto 2**j`` of Eq. 7 (i.e. ``weighted(alpha=1.0)``).
    b_send:
        Bits revealed per client (Corollary 3.2).  The paper's deployed
        default -- and the worst-case privacy promise -- is 1.
    randomness:
        ``"central"`` (server partitions the cohort; quasi-Monte-Carlo,
        poisoning-resistant, the paper's default) or ``"local"`` (each
        client samples its own bit index).
    perturbation:
        Optional :class:`~repro.core.protocol.BitPerturbation` (e.g.
        randomized response) applied to every bit before it leaves the
        client; the estimator debiases automatically.
    squash_threshold:
        If > 0, estimated bit means below this absolute value are zeroed
        before reconstruction (Section 3.3's noise filter).

    Examples
    --------
    >>> import numpy as np
    >>> enc = FixedPointEncoder.for_integers(n_bits=8)
    >>> est = BasicBitPushing(enc)
    >>> values = np.full(10_000, 42.0)
    >>> round(est.estimate(values, rng=0).value)
    42
    """

    method = "basic"

    def __init__(
        self,
        encoder: FixedPointEncoder,
        schedule: BitSamplingSchedule | None = None,
        b_send: int = 1,
        randomness: str = "central",
        perturbation: BitPerturbation | None = None,
        squash_threshold: float = 0.0,
    ) -> None:
        if schedule is None:
            schedule = BitSamplingSchedule.weighted(encoder.n_bits, alpha=1.0)
        if schedule.n_bits != encoder.n_bits:
            raise ConfigurationError(
                f"schedule covers {schedule.n_bits} bits but encoder has {encoder.n_bits}"
            )
        if randomness not in _RANDOMNESS_MODES:
            raise ConfigurationError(f"randomness must be one of {_RANDOMNESS_MODES}")
        if b_send < 1:
            raise ConfigurationError(f"b_send must be >= 1, got {b_send}")
        if squash_threshold < 0:
            raise ConfigurationError(f"squash_threshold must be >= 0, got {squash_threshold}")
        self.encoder = encoder
        self.schedule = schedule
        self.b_send = b_send
        self.randomness = randomness
        self.perturbation = perturbation
        self.squash_threshold = squash_threshold

    # ------------------------------------------------------------------
    def estimate(
        self,
        values: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> MeanEstimate:
        """Estimate the mean of real-valued ``values`` from one-bit reports."""
        gen = ensure_rng(rng)
        encoded = self.encoder.encode(np.asarray(values, dtype=np.float64))
        return self.estimate_encoded(encoded, gen)

    def estimate_encoded(
        self,
        encoded: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> MeanEstimate:
        """Estimate from already-encoded uint64 values (one per client)."""
        gen = ensure_rng(rng)
        encoded = np.asarray(encoded, dtype=np.uint64)
        n_clients = int(encoded.size)
        if n_clients == 0:
            raise ConfigurationError("cannot estimate a mean from zero clients")

        assignment = self._draw_assignment(n_clients, gen)
        # Chunk-streamed collection (bounded memory for million-client
        # cohorts); bit-identical to collect_bit_reports for any chunk size.
        sums, counts = accumulate_bit_reports(
            encoded, self.encoder.n_bits, assignment, self.perturbation, gen
        )
        summary = round_summary(
            sums, counts, self.schedule.probabilities, n_clients, self.perturbation
        )
        return decode_estimate(
            self.encoder,
            summary.bit_means,
            counts,
            perturbation=self.perturbation,
            threshold=self.squash_threshold,
            n_clients=n_clients,
            method=self.method,
            rounds=(summary,),
            metadata={
                "b_send": self.b_send,
                "randomness": self.randomness,
                "ldp": self.perturbation is not None,
            },
        )

    def estimate_clients(
        self,
        batch: ClientBatch,
        strategy: str = "sample",
        rng: np.random.Generator | int | None = None,
        chunk: int | None = None,
    ) -> MeanEstimate:
        """Estimate straight from a columnar :class:`ClientBatch`.

        Elicits one value per client with the chunk-streamed columnar
        kernels, then runs the standard protocol.  Bit-identical to
        ``estimate(elicit_batch([c.values for c in devices], strategy, gen),
        gen)`` for ``"sample"``/``"max"``/``"latest"`` elicitation (see
        :mod:`repro.core.client_plane` for the ``"mean"`` ulp caveat).
        """
        gen = ensure_rng(rng)
        values = elicit_values(batch, strategy, gen, chunk=chunk)
        return self.estimate(values, gen)

    # ------------------------------------------------------------------
    def _draw_assignment(self, n_clients: int, gen: np.random.Generator) -> np.ndarray:
        if self.b_send > 1:
            return multi_bit_assignment(n_clients, self.schedule, self.b_send, gen)
        if self.randomness == "central":
            return central_assignment(n_clients, self.schedule, gen)
        return local_assignment(n_clients, self.schedule, gen)


def estimate_mean(
    values: np.ndarray,
    n_bits: int,
    alpha: float = 1.0,
    scale: float = 1.0,
    offset: float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> MeanEstimate:
    """One-call convenience wrapper around :class:`BasicBitPushing`.

    Encodes ``values`` with a ``FixedPointEncoder(n_bits, scale, offset)``
    and a weighted schedule with exponent ``alpha``.
    """
    encoder = FixedPointEncoder(n_bits=n_bits, scale=scale, offset=offset)
    schedule = BitSamplingSchedule.weighted(n_bits, alpha=alpha)
    return BasicBitPushing(encoder, schedule).estimate(values, rng)
