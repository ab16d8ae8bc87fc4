"""Poisoning adversaries against bit-pushing (paper Sections 3.1 and 5).

An LDP aggregate averages over all client reports, so no single client can
move it much -- *unless* clients choose which bit to report.  Under local
randomness an adversary can claim its draw landed on the most significant
bit and deterministically send 1, gaining leverage ``2**b_max / p_top``
per corrupted client.  Under central randomness the server fixes each
client's bit index, so the worst a liar can do is flip its one assigned
bit.  This module implements both adversaries so the ablation bench can
quantify the gap, which is the paper's argument for central randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.client_plane import report_bits
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import bit_means_from_stats
from repro.core.sampling import BitSamplingSchedule, central_assignment, local_assignment
from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["PoisoningOutcome", "poisoned_estimate"]

_STRATEGIES = ("msb_ones", "assigned_ones", "assigned_zeros")
_RANDOMNESS = ("central", "local")


@dataclass(frozen=True)
class PoisoningOutcome:
    """Result of one poisoned aggregation run."""

    estimate: float
    honest_estimate: float
    true_mean: float
    n_adversaries: int
    randomness: str
    strategy: str

    @property
    def attack_shift(self) -> float:
        """How far the attack moved the estimate vs the same-randomness honest run."""
        return self.estimate - self.honest_estimate


def poisoned_estimate(
    values: np.ndarray,
    encoder: FixedPointEncoder,
    adversary_fraction: float,
    randomness: str = "local",
    strategy: str = "msb_ones",
    schedule: BitSamplingSchedule | None = None,
    rng: np.random.Generator | int | None = None,
) -> PoisoningOutcome:
    """Run basic bit-pushing with a fraction of adversarial clients.

    Parameters
    ----------
    values:
        Honest clients' true values (adversaries ignore theirs).
    encoder:
        Fixed-point encoding.
    adversary_fraction:
        Fraction of the cohort controlled by the attacker.
    randomness:
        ``"local"`` -- clients pick their own bit, so adversaries claim the
        top bit; ``"central"`` -- the server assigns bits, so adversaries
        can only lie about their assigned bit's value.
    strategy:
        * ``"msb_ones"``: report 1, on the most significant schedulable bit
          if the adversary controls the choice (the paper's example);
        * ``"assigned_ones"`` / ``"assigned_zeros"``: always report 1 / 0 on
          whatever bit applies.
    schedule:
        Sampling schedule (default: the Eq. 7 ``p_j \\propto 2**j``).
    rng:
        Randomness for assignment and honest reporting.

    Returns both the attacked and an honest same-randomness estimate, so
    callers can isolate the attack-induced shift from sampling noise.
    """
    if not 0.0 <= adversary_fraction < 1.0:
        raise ConfigurationError(
            f"adversary_fraction must be in [0, 1), got {adversary_fraction}"
        )
    if randomness not in _RANDOMNESS:
        raise ConfigurationError(f"randomness must be one of {_RANDOMNESS}")
    if strategy not in _STRATEGIES:
        raise ConfigurationError(f"strategy must be one of {_STRATEGIES}")
    gen = ensure_rng(rng)
    values = np.asarray(values, dtype=np.float64)
    n = int(values.size)
    if n == 0:
        raise ConfigurationError("need at least one client")
    schedule = schedule or BitSamplingSchedule.weighted(encoder.n_bits, alpha=1.0)
    if schedule.n_bits != encoder.n_bits:
        raise ConfigurationError("schedule width must match the encoder")

    encoded = encoder.encode(values)
    if randomness == "central":
        assignment = central_assignment(n, schedule, gen)
    else:
        assignment = local_assignment(n, schedule, gen)
    honest_bits = report_bits(encoded, assignment).astype(np.float64)

    n_adv = int(round(adversary_fraction * n))
    adversaries = gen.permutation(n)[:n_adv]

    attacked_assignment = assignment.copy()
    attacked_bits = honest_bits.copy()
    top_bit = int(schedule.support()[-1])
    if strategy == "msb_ones":
        if randomness == "local":
            # Only local randomness lets the adversary pick its bit index.
            attacked_assignment[adversaries] = top_bit
        attacked_bits[adversaries] = 1.0
    elif strategy == "assigned_ones":
        attacked_bits[adversaries] = 1.0
    else:  # assigned_zeros
        attacked_bits[adversaries] = 0.0

    def reconstruct(assign: np.ndarray, bits: np.ndarray) -> float:
        sums = np.bincount(assign, weights=bits, minlength=encoder.n_bits)
        counts = np.bincount(assign, minlength=encoder.n_bits)
        means = bit_means_from_stats(sums, counts)
        return encoder.decode_scalar(float(encoder.powers @ means))

    return PoisoningOutcome(
        estimate=reconstruct(attacked_assignment, attacked_bits),
        honest_estimate=reconstruct(assignment, honest_bits),
        true_mean=float(values.mean()),
        n_adversaries=n_adv,
        randomness=randomness,
        strategy=strategy,
    )
