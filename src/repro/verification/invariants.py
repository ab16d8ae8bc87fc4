"""Cheap always-on runtime invariants.

Every function here is O(state size) or better and raises
:class:`~repro.exceptions.InvariantViolation` with a precise message when the
checked structure breaks a guarantee the library's analysis relies on.  They
are called from three places:

* hot paths that can afford them (the federated server asserts
  :func:`check_secure_sum` on every secure-aggregation shard -- O(n) next to
  the O(shard**2) masking work it audits);
* ``repro.cli selfcheck``, which sweeps them over synthetic configurations;
* the property-test suite, which hammers them under hypothesis.

None of these checks consumes randomness, so wiring them into a code path
never perturbs a seeded experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.sampling import BitSamplingSchedule, apportion_counts
from repro.exceptions import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.results import MeanEstimate
    from repro.privacy.accountant import BitMeter, PrivacyAccountant

__all__ = [
    "check_apportionment",
    "check_bit_meter",
    "check_estimate",
    "check_ledger_conservation",
    "check_schedule_normalized",
    "check_secure_sum",
]

#: Tolerance for float accumulations (schedule mass, ledger totals).
_ATOL = 1e-9


def check_schedule_normalized(schedule: BitSamplingSchedule) -> None:
    """A schedule is a probability vector: finite, non-negative, sums to 1."""
    probs = schedule.probabilities
    if np.any(~np.isfinite(probs)):
        raise InvariantViolation("schedule contains non-finite probabilities")
    if np.any(probs < 0.0):
        raise InvariantViolation(f"schedule contains negative probability {probs.min()}")
    total = float(probs.sum())
    if abs(total - 1.0) > _ATOL:
        raise InvariantViolation(f"schedule mass is {total!r}, not 1 (drift {total - 1.0:.3e})")


def check_apportionment(n_clients: int, schedule: BitSamplingSchedule) -> np.ndarray:
    """Largest-remainder apportionment exactness (paper Section 3.1 note).

    The returned counts must (a) sum to exactly ``n_clients``, (b) give zero
    clients to zero-probability bits, and (c) each sit strictly within 1 of
    the real-valued quota ``p_j * n``.  Returns the counts so callers can
    reuse them.
    """
    counts = apportion_counts(n_clients, schedule)
    total = int(counts.sum())
    if total != n_clients:
        raise InvariantViolation(
            f"apportionment leaks clients: counts sum to {total}, expected {n_clients}"
        )
    if np.any(counts < 0):
        raise InvariantViolation("apportionment produced a negative count")
    zero_prob = schedule.probabilities == 0.0
    if np.any(counts[zero_prob] != 0):
        raise InvariantViolation("apportionment assigned clients to zero-probability bits")
    quotas = schedule.probabilities * n_clients
    drift = np.abs(counts - quotas)
    if np.any(drift >= 1.0):
        j = int(np.argmax(drift))
        raise InvariantViolation(
            f"apportionment drift |{counts[j]} - {quotas[j]:.6f}| >= 1 at bit {j}"
        )
    return counts


def check_secure_sum(
    secure_sums: np.ndarray,
    plaintext_sums: np.ndarray,
    context: str = "secure aggregation",
) -> None:
    """The masked protocol must reproduce the plaintext sum *exactly*.

    Secure aggregation is exact integer arithmetic in a prime field -- any
    deviation at all means mask cancellation or share reconstruction broke.
    """
    secure = np.asarray(secure_sums)
    plain = np.asarray(plaintext_sums)
    if secure.shape != plain.shape:
        raise InvariantViolation(
            f"{context}: sum shape {secure.shape} != plaintext shape {plain.shape}"
        )
    if not np.array_equal(secure, plain):
        bad = np.flatnonzero(secure != plain)
        j = int(bad[0])
        raise InvariantViolation(
            f"{context}: {bad.size} component(s) disagree with the plaintext sum "
            f"(first at index {j}: secure {secure[j]!r} != plaintext {plain[j]!r})"
        )


def check_ledger_conservation(accountant: "PrivacyAccountant") -> None:
    """The cached running totals must equal the ledger's entry sums.

    Also asserts the spent totals never exceed a configured budget (beyond
    float tolerance) -- the accountant's entire reason to exist.
    """
    eps_from_entries = sum(entry.epsilon for entry in accountant.entries)
    delta_from_entries = sum(entry.delta for entry in accountant.entries)
    if abs(eps_from_entries - accountant.spent_epsilon) > _ATOL:
        raise InvariantViolation(
            f"ledger epsilon drift: cached {accountant.spent_epsilon!r} != "
            f"entry sum {eps_from_entries!r}"
        )
    if abs(delta_from_entries - accountant.spent_delta) > _ATOL:
        raise InvariantViolation(
            f"ledger delta drift: cached {accountant.spent_delta!r} != "
            f"entry sum {delta_from_entries!r}"
        )
    if (
        accountant.epsilon_budget is not None
        and accountant.spent_epsilon > accountant.epsilon_budget + 1e-9
    ):
        raise InvariantViolation(
            f"ledger overspent epsilon: {accountant.spent_epsilon} > "
            f"budget {accountant.epsilon_budget}"
        )
    if (
        accountant.delta_budget is not None
        and accountant.spent_delta > accountant.delta_budget + 1e-12
    ):
        raise InvariantViolation(
            f"ledger overspent delta: {accountant.spent_delta} > "
            f"budget {accountant.delta_budget}"
        )


def check_bit_meter(meter: "BitMeter") -> None:
    """Every metered counter respects its cap and the books balance.

    Checks: every book holds sorted, distinct ids with one count each, no
    ghost (zero) entries, per-value totals within ``max_bits_per_value``,
    per-client totals within ``max_bits_per_client``, per-client totals
    equal to the sum of that client's per-value totals, and ``total_bits``
    equal to the population-wide sum.
    """
    values = [(repr(value_id), book) for value_id, book in meter._per_value.items()]
    caps = [meter.max_bits_per_value] * len(values) + [meter.max_bits_per_client or np.inf]
    for (name, (ids, bits)), cap in zip(values + [("every value", meter._per_client)], caps):
        if ids.shape != bits.shape or (ids[1:] <= ids[:-1]).any():
            raise InvariantViolation(f"meter book of {name} is not sorted distinct ids")
        if ((bits <= 0) | (bits > cap)).any():
            i = int(np.argmax((bits <= 0) | (bits > cap)))
            fault = "holds a ghost entry" if bits[i] <= 0 else f"is over cap {cap}"
            raise InvariantViolation(
                f"meter {fault}: {ids[i].item()!r} at {bits[i]} bits of {name}"
            )
    ids, bits = meter._per_client
    value_ids = np.concatenate([ids[:0]] + [book[0] for _, book in values])
    summed_ids, where = np.unique(value_ids, return_inverse=True)
    summed = np.bincount(where, np.concatenate([bits[:0]] + [book[1] for _, book in values]))
    if not np.array_equal(summed_ids, ids):
        raise InvariantViolation("meter per-value and per-client key sets disagree")
    if (summed != bits).any():
        i = int(np.argmax(summed != bits))
        raise InvariantViolation(
            f"meter books do not balance for {ids[i].item()!r}: per-client {bits[i]} != "
            f"per-value sum {int(summed[i])}"
        )
    if meter.total_bits != int(summed.sum()):
        raise InvariantViolation(f"meter total_bits {meter.total_bits} != {int(summed.sum())}")


def check_estimate(estimate: "MeanEstimate") -> None:
    """Structural sanity of a mean estimate: finite value, books that add up.

    Per-round report counts must sum to that round's client count times the
    bits each client sends (every survivor reports), and the decoded value
    must be finite.
    """
    if not np.isfinite(estimate.value):
        raise InvariantViolation(f"estimate value is not finite: {estimate.value!r}")
    if np.any(~np.isfinite(estimate.bit_means)):
        raise InvariantViolation("estimate bit means contain non-finite entries")
    for i, round_summary in enumerate(estimate.rounds):
        total_reports = int(np.sum(round_summary.counts))
        if round_summary.n_clients and total_reports % round_summary.n_clients != 0:
            raise InvariantViolation(
                f"round {i}: {total_reports} reports is not a whole number of "
                f"reports per client for {round_summary.n_clients} clients"
            )
        if np.any(round_summary.counts < 0):
            raise InvariantViolation(f"round {i}: negative report count")
