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

from typing import Sequence

import numpy as np

from repro.core.client_plane import (
    ClientBatch,
    accumulate_bit_reports,
    elicit_values,
)
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import (
    BitPerturbation,
    bit_means_from_stats,
    decode_estimate,
    round_summary,
)
from repro.core.results import MeanEstimate
from repro.core.sampling import (
    BitSamplingSchedule,
    central_assignment,
    local_assignment,
    multi_bit_assignment,
)
from repro.core.squashing import squash_bit_means
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
        # cohorts); bit-identical to collect_bit_reports for any chunk size,
        # and a cohort that fits in one REPRO_BATCH_CHUNK takes exactly the
        # legacy single-pass path.
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
    def estimate_batch(
        self,
        values: np.ndarray,
        rngs: "Sequence[np.random.Generator | int | None]",
    ) -> np.ndarray:
        """Estimate R independent repetitions at once from an ``(R, n)`` array.

        Row ``r`` is one repetition's population and consumes randomness
        only from ``rngs[r]``, in exactly the order :meth:`estimate` would
        (assignment draw, then perturbation) -- so the result is
        *bit-identical* to ``[estimate(values[r], rngs[r]).value for r]``
        for any perturbation, randomness mode, ``b_send`` and squashing
        configuration (asserted in ``tests/test_execution.py``).

        The speedup comes from hoisting the shape-dependent work out of the
        repetition loop: one 2-D encode, one batched shift-and-mask bit
        extraction, and a single flattened-offset ``np.bincount`` for all
        ``R * n_bits`` report sums and counts.
        Returns the R decoded mean estimates as a float64 array.
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 2:
            raise ConfigurationError(f"estimate_batch needs an (R, n) array, got shape {vals.shape}")
        n_reps, n_clients = vals.shape
        if n_clients == 0:
            raise ConfigurationError("cannot estimate a mean from zero clients")
        if len(rngs) != n_reps:
            raise ConfigurationError(f"got {n_reps} repetitions but {len(rngs)} generators")
        n_bits = self.encoder.n_bits
        encoded = self.encoder.encode(vals)

        # Per-rep randomness must replay estimate()'s stream, so the draws
        # stay in a loop.
        gens = [ensure_rng(rng) for rng in rngs]
        b_send = self.b_send if self.b_send > 1 else 1
        assignments = np.empty((n_reps, n_clients, b_send), dtype=np.int64)
        for r, gen in enumerate(gens):
            assignments[r] = self._draw_assignment(n_clients, gen).reshape(n_clients, b_send)

        reported = (
            (encoded[:, :, None] >> assignments.astype(np.uint64)) & np.uint64(1)
        ).astype(np.uint8)
        if self.perturbation is not None:
            for r, gen in enumerate(gens):
                reported[r] = np.asarray(
                    self.perturbation.perturb_bits(reported[r], gen), dtype=np.uint8
                )

        # One bincount over all repetitions: offsetting rep r's bit indices
        # by r * n_bits keeps every (rep, bit) accumulator separate.  Bits
        # are 0/1, so the per-bit sum is the *count* of set bits -- an exact
        # integer in float64, hence bit-identical to estimate()'s serial
        # float accumulation regardless of summation order.
        offsets = (
            np.arange(n_reps, dtype=np.int64)[:, None] * n_bits
            + assignments.reshape(n_reps, -1)
        )
        flat_offsets = offsets.ravel()
        ones = flat_offsets[reported.reshape(n_reps, -1).ravel() == 1]
        sums = (
            np.bincount(ones, minlength=n_reps * n_bits)
            .reshape(n_reps, n_bits)
            .astype(np.float64)
        )
        report_counts = (
            np.bincount(flat_offsets, minlength=n_reps * n_bits)
            .reshape(n_reps, n_bits)
            .astype(np.int64)
        )

        means = bit_means_from_stats(sums, report_counts, self.perturbation)
        final_means, _ = squash_bit_means(
            means, self.squash_threshold, clip_to_unit=self.perturbation is not None
        )
        # Per-row dots (not one (R, b) @ (b,) matmul): BLAS may reorder the
        # 2-D reduction, and the contract is bit-identity with estimate().
        powers = self.encoder.powers
        estimates = np.empty(n_reps)
        for r in range(n_reps):
            estimates[r] = self.encoder.decode_scalar(float(powers @ final_means[r]))
        return estimates

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
