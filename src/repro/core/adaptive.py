"""Adaptive (two-round) bit-pushing -- paper Algorithm 2.

Round 1 spends a ``delta`` fraction of the cohort measuring the per-bit
means with an input-independent schedule ``p_j \\propto (2**j)**gamma``.
Round 2 re-allocates the remaining clients with the data-driven schedule
``p_j \\propto (4**j m_j (1 - m_j))**alpha`` (Lemma 3.3's optimum at
``alpha = 0.5``), which automatically discards bits that round 1 found to be
empty -- the mechanism behind the flat bit-depth curves in Figures 1c/2c/4c.

"Caching" (Section 3.2) pools the reports of both rounds per bit, weighting
by report counts, instead of discarding round 1 after it has served its
scheduling purpose.  The paper's analysis suggests ``delta = 1/3`` and
``gamma = 0.5`` as defaults, evaluated empirically in our ablation benches.

Under local DP, round-1 estimates are noisy even on empty bits, so the
schedule would keep wasting clients there; the ``squash_multiple`` knob
applies Section 3.3's bit squashing to the round-1 means (threshold expressed
in multiples of the expected randomized-response noise) before the round-2
schedule is computed, and to the final pooled means before reconstruction.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.client_plane import (
    ClientBatch,
    accumulate_bit_reports,
    elicit_values,
)
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import (
    BitPerturbation,
    combine_round_stats,
    decode_estimate,
    round_summary,
)
from repro.core.results import MeanEstimate, RoundSummary
from repro.core.sampling import (
    BitSamplingSchedule,
    central_assignment,
    local_assignment,
)
from repro.core.squashing import per_bit_squash_thresholds, squash_bit_means
from repro.exceptions import ConfigurationError
from repro.observability import get_metrics, get_tracer
from repro.rng import ensure_rng

__all__ = ["AdaptiveBitPushing"]

_RANDOMNESS_MODES = ("central", "local")

#: ``run_round(indices, schedule, round_index) -> RoundSummary``; see run_rounds.
RunRound = Callable[[np.ndarray, BitSamplingSchedule, int], RoundSummary]


class AdaptiveBitPushing:
    """Two-round adaptive bit-pushing estimator (Algorithm 2).

    The plan is :meth:`run_rounds`, over any kind of round:
    :meth:`estimate_encoded` collects each round from an encoded array, and
    :class:`~repro.federated.server.FederatedMeanQuery` through its attempt
    loop and transport.

    Parameters
    ----------
    encoder:
        Fixed-point encoding of the client values.
    gamma:
        Round-1 schedule exponent: ``p1_j \\propto (2**j)**gamma``.  Default
        (``None``): 0.5 without a perturbation, 0.0 (uniform) with one --
        randomized response makes every bit's report equally noisy
        regardless of level (Section 3.3), so the exploratory round must
        give low bits enough evidence to survive squashing.
    alpha:
        Round-2 schedule exponent: ``p2_j \\propto (4**j m_j (1-m_j))**alpha``.
    delta:
        Fraction of the cohort spent in round 1 (paper default 1/3).
    caching:
        Pool round-1 and round-2 reports for the final estimate (default
        True; Section 3.2 "Caching").
    randomness:
        ``"central"`` or ``"local"`` client-to-bit assignment.
    perturbation:
        Optional local DP mechanism applied to every transmitted bit.
    squash_multiple:
        Bit-squash threshold in multiples of the expected DP noise level
        (0 disables squashing; only meaningful with a perturbation that
        exposes its ``epsilon``).

    Examples
    --------
    >>> import numpy as np
    >>> enc = FixedPointEncoder.for_integers(n_bits=16)
    >>> est = AdaptiveBitPushing(enc)
    >>> rng = np.random.default_rng(7)
    >>> values = rng.normal(1000.0, 100.0, size=20_000)
    >>> bool(abs(est.estimate(values, rng=rng).value - values.mean()) < 25)
    True
    """

    method = "adaptive"

    def __init__(
        self,
        encoder: FixedPointEncoder,
        gamma: float | None = None,
        alpha: float = 0.5,
        delta: float = 1.0 / 3.0,
        caching: bool = True,
        randomness: str = "central",
        perturbation: BitPerturbation | None = None,
        squash_multiple: float = 0.0,
    ) -> None:
        # Checked before any round spends epsilon; NaN fails every check.
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if randomness not in _RANDOMNESS_MODES:
            raise ConfigurationError(f"randomness must be one of {_RANDOMNESS_MODES}")
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ConfigurationError(f"alpha must be finite and >= 0, got {alpha}")
        if gamma is not None and not math.isfinite(gamma):
            raise ConfigurationError(f"gamma must be finite, got {gamma}")
        if not (math.isfinite(squash_multiple) and squash_multiple >= 0):
            raise ConfigurationError(
                f"squash_multiple must be finite and >= 0, got {squash_multiple}"
            )
        if squash_multiple > 0 and getattr(perturbation, "epsilon", None) is None:
            # Squashing filters DP noise, in multiples of epsilon's noise level.
            raise ConfigurationError("squash_multiple needs a perturbation with an `epsilon`")
        self.encoder = encoder
        self.gamma = gamma if gamma is not None else (0.0 if perturbation is not None else 0.5)
        self.alpha = alpha
        self.delta = delta
        self.caching = caching
        self.randomness = randomness
        self.perturbation = perturbation
        self.squash_multiple = squash_multiple

    # ------------------------------------------------------------------
    def estimate(
        self,
        values: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> MeanEstimate:
        """Estimate the mean of real-valued ``values`` in two rounds."""
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
        assign = central_assignment if self.randomness == "central" else local_assignment

        def run_round(indices, schedule, round_index):
            assignment = assign(indices.size, schedule, gen)
            # Chunk-streamed collection; bit-identical to collect_bit_reports
            # for any chunk size (see repro.core.client_plane).
            sums, counts = accumulate_bit_reports(
                encoded[indices], self.encoder.n_bits, assignment, self.perturbation, gen
            )
            return round_summary(
                sums, counts, schedule.probabilities, indices.size, self.perturbation
            )

        rounds, (means, counts) = self.run_rounds(n_clients, gen, run_round)
        return decode_estimate(
            self.encoder,
            means,
            counts,
            perturbation=self.perturbation,
            threshold=self.squash_thresholds(counts),
            n_clients=n_clients,
            method=self.method,
            rounds=rounds,
            metadata={
                "gamma": self.gamma,
                "alpha": self.alpha,
                "delta": self.delta,
                "caching": self.caching,
                "randomness": self.randomness,
                "ldp": self.perturbation is not None,
                "squash_multiple": self.squash_multiple,
            },
        )

    def run_rounds(
        self, n_clients: int, gen: np.random.Generator, run_round: RunRound
    ) -> tuple[tuple[RoundSummary, RoundSummary], tuple[np.ndarray, np.ndarray]]:
        """Run Algorithm 2's two rounds over a cohort of ``n_clients``.

        Draws the cohort split from ``gen``, then calls ``run_round`` once
        per round with that round's cohort positions and schedule.  Returns
        both rounds' summaries and the pooled ``(bit_means, counts)``, still
        unsquashed: the caller decodes them with
        :func:`~repro.core.protocol.decode_estimate` under
        :meth:`squash_thresholds`.
        """
        if n_clients < 2:
            raise ConfigurationError(f"adaptive mode needs at least 2 clients, got {n_clients}")
        tracer = get_tracer()
        metrics = get_metrics()

        # Split the cohort: a random delta-fraction participates in round 1.
        n_round1 = min(max(int(round(self.delta * n_clients)), 1), n_clients - 1)
        order = gen.permutation(n_clients)

        # --- Round 1: input-independent geometric schedule. ---
        with tracer.span("adaptive.round1", {"n_clients": n_round1, "gamma": self.gamma}):
            schedule1 = BitSamplingSchedule.geometric(self.encoder.n_bits, gamma=self.gamma)
            summary1 = run_round(order[:n_round1], schedule1, 1)
        round1_means = summary1.bit_means
        if self.squash_multiple > 0:
            threshold = self.squash_thresholds(summary1.counts)
            round1_means, _ = squash_bit_means(round1_means, threshold)

        # --- Round 2: data-driven schedule from round-1 bit means. ---
        n_round2 = n_clients - n_round1
        with tracer.span("adaptive.round2", {"n_clients": n_round2, "alpha": self.alpha}):
            schedule2 = BitSamplingSchedule.from_bit_means(round1_means, alpha=self.alpha)
            summary2 = run_round(order[n_round1:], schedule2, 2)

        # --- Final aggregation (Algorithm 2 lines 9-11). ---
        with tracer.span("adaptive.combine", {"caching": self.caching}) as combine_span:
            if self.caching:
                pooled_means, pooled_counts = combine_round_stats(
                    [summary1.bit_means, summary2.bit_means],
                    [summary1.counts, summary2.counts],
                )
                # Cache hits: bits whose round-1 evidence is pooled into the
                # final estimate rather than discarded.
                cache_hits = int(np.count_nonzero(summary1.counts > 0))
                combine_span.set_attribute("cache_hits", cache_hits)
                if metrics.enabled:
                    metrics.counter("adaptive_cache_hits_total").inc(cache_hits)
            else:
                # Round 2 only, but bits it never sampled fall back to round 1
                # (they carried ~0 weight; dropping them entirely biases the
                # estimate whenever round 1 mis-scored a bit).
                have2 = summary2.counts > 0
                pooled_means = np.where(have2, summary2.bit_means, summary1.bit_means)
                pooled_counts = np.where(have2, summary2.counts, summary1.counts)
        if metrics.enabled:
            metrics.counter("adaptive_estimates_total").inc()
        return (summary1, summary2), (pooled_means, pooled_counts)

    def squash_thresholds(self, counts: np.ndarray) -> float | np.ndarray:
        """Per-bit squash thresholds for bits with ``counts`` reports.

        ``squash_multiple`` times each bit's expected randomized-response
        noise (Section 3.3); 0 when squashing is off.
        """
        if self.squash_multiple == 0:
            return 0.0
        epsilon = float(self.perturbation.epsilon)  # checked at construction
        return per_bit_squash_thresholds(self.squash_multiple, epsilon, counts)

    def estimate_clients(
        self,
        batch: ClientBatch,
        strategy: str = "sample",
        rng: np.random.Generator | int | None = None,
        chunk: int | None = None,
    ) -> MeanEstimate:
        """Estimate straight from a columnar :class:`ClientBatch`.

        Columnar chunk-streamed elicitation followed by the standard
        two-round protocol; bit-identical to the object path for
        ``"sample"``/``"max"``/``"latest"`` elicitation.
        """
        gen = ensure_rng(rng)
        values = elicit_values(batch, strategy, gen, chunk=chunk)
        return self.estimate(values, gen)
