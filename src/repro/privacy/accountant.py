"""Privacy accounting: a formal epsilon ledger and a worst-case bit meter.

The paper argues (Sections 1, 1.1) that two complementary controls are
needed in practice:

* a **formal** guarantee -- differential privacy, tracked here by
  :class:`PrivacyAccountant` as a simple sequential-composition epsilon
  ledger with an optional (epsilon, delta) budget; and
* an **intuitive, worst-case** guarantee -- data minimization at the bit
  level: at most one bit is transmitted per private value, and a bounded
  number of private bits per client overall.  :class:`BitMeter` enforces
  exactly that promise and raises :class:`PrivacyBudgetExceeded` when any
  component tries to elicit more.

Deployed privacy metering (surfacing these counters to end users) is beyond
the paper's scope, but the enforcement layer is the substrate it would sit
on, and the federated simulator routes every elicited bit through it.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, PrivacyBudgetExceeded
from repro.observability import get_metrics

__all__ = ["LedgerEntry", "PrivacyAccountant", "BitMeter"]


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded privacy expenditure."""

    epsilon: float
    delta: float
    note: str


class PrivacyAccountant:
    """Sequential-composition (epsilon, delta) ledger.

    Parameters
    ----------
    epsilon_budget:
        Total epsilon that may be spent; ``None`` means unlimited (the
        accountant still records spending for audit).
    delta_budget:
        Total delta that may be spent; ``None`` means unlimited.

    Examples
    --------
    >>> acct = PrivacyAccountant(epsilon_budget=2.0)
    >>> acct.spend(0.5, note="round 1")
    >>> acct.spend(0.5, note="round 2")
    >>> acct.remaining_epsilon
    1.0
    >>> acct.spend(1.5, note="round 3")
    Traceback (most recent call last):
        ...
    repro.exceptions.PrivacyBudgetExceeded: spending eps=1.5 would exceed budget 2.0 (already spent 1.0)
    """

    def __init__(
        self,
        epsilon_budget: float | None = None,
        delta_budget: float | None = None,
    ) -> None:
        if epsilon_budget is not None and epsilon_budget <= 0:
            raise ConfigurationError(f"epsilon_budget must be positive, got {epsilon_budget}")
        if delta_budget is not None and not 0 < delta_budget < 1:
            raise ConfigurationError(f"delta_budget must be in (0, 1), got {delta_budget}")
        self.epsilon_budget = epsilon_budget
        self.delta_budget = delta_budget
        self._entries: list[LedgerEntry] = []
        # Running totals, maintained by spend(): recomputing them by summing
        # the ledger would make a long-lived accountant O(n) per spend
        # (O(n**2) over its life).
        self._spent_epsilon = 0.0
        self._spent_delta = 0.0

    # ------------------------------------------------------------------
    def spend(self, epsilon: float, delta: float = 0.0, note: str = "") -> None:
        """Record an expenditure, raising if it would exceed the budget."""
        if epsilon < 0 or delta < 0:
            raise ConfigurationError("cannot spend negative privacy")
        metrics = get_metrics()
        if self.epsilon_budget is not None and self.spent_epsilon + epsilon > self.epsilon_budget + 1e-12:
            metrics.counter("privacy_budget_denials_total").inc()
            raise PrivacyBudgetExceeded(
                f"spending eps={epsilon} would exceed budget {self.epsilon_budget} "
                f"(already spent {self.spent_epsilon})"
            )
        if self.delta_budget is not None and self.spent_delta + delta > self.delta_budget + 1e-15:
            metrics.counter("privacy_budget_denials_total").inc()
            raise PrivacyBudgetExceeded(
                f"spending delta={delta} would exceed budget {self.delta_budget} "
                f"(already spent {self.spent_delta})"
            )
        self._entries.append(LedgerEntry(epsilon=float(epsilon), delta=float(delta), note=note))
        self._spent_epsilon += float(epsilon)
        self._spent_delta += float(delta)
        if metrics.enabled:
            metrics.counter("privacy_epsilon_spent_total").inc(float(epsilon))
            metrics.counter("privacy_delta_spent_total").inc(float(delta))
            if self.epsilon_budget is not None:
                metrics.gauge("privacy_epsilon_remaining").set(self.remaining_epsilon)

    # ------------------------------------------------------------------
    @property
    def spent_epsilon(self) -> float:
        return self._spent_epsilon

    @property
    def spent_delta(self) -> float:
        return self._spent_delta

    @property
    def remaining_epsilon(self) -> float:
        if self.epsilon_budget is None:
            return float("inf")
        return self.epsilon_budget - self.spent_epsilon

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def can_spend(self, epsilon: float, delta: float = 0.0) -> bool:
        """Check without recording."""
        eps_ok = self.epsilon_budget is None or self.spent_epsilon + epsilon <= self.epsilon_budget + 1e-12
        delta_ok = self.delta_budget is None or self.spent_delta + delta <= self.delta_budget + 1e-15
        return eps_ok and delta_ok


#: A book no client has disclosed into: no ids, no bit counts.
_EMPTY_BOOK = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


@dataclass(eq=False)
class BitMeter:
    """Enforce the worst-case promise: bounded private bits per value/client.

    Parameters
    ----------
    max_bits_per_value:
        Bits that may ever be disclosed about one ``(client, value)`` pair.
        The paper's headline promise is 1.
    max_bits_per_client:
        Optional cap on total private bits disclosed by one client across
        all values and rounds (``None`` = uncapped).

    The books are sorted arrays of client ids paired with bit counts: one
    per value id in ``_per_value``, and the clients' totals in
    ``_per_client``.  A meter books int ids or string ids, never both.

    Examples
    --------
    >>> meter = BitMeter(max_bits_per_value=1)
    >>> meter.record("device-7", "latency@t0")
    >>> meter.record("device-7", "latency@t0")
    Traceback (most recent call last):
        ...
    repro.exceptions.PrivacyBudgetExceeded: client 'device-7' would disclose 2 bits of value 'latency@t0' (cap 1)
    """

    max_bits_per_value: int = 1
    max_bits_per_client: int | None = None
    _per_value: dict[Hashable, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    _per_client: tuple[np.ndarray, np.ndarray] = _EMPTY_BOOK

    def __post_init__(self) -> None:
        if self.max_bits_per_value < 1:
            raise ConfigurationError(
                f"max_bits_per_value must be >= 1, got {self.max_bits_per_value}"
            )
        if self.max_bits_per_client is not None and self.max_bits_per_client < 1:
            raise ConfigurationError(
                f"max_bits_per_client must be >= 1, got {self.max_bits_per_client}"
            )

    # ------------------------------------------------------------------
    def record(self, client_id: Hashable, value_id: Hashable, n_bits: int = 1) -> None:
        """Record disclosure of ``n_bits`` of ``value_id`` by ``client_id``: a one-id batch,
        whose merge copies the books -- book many ids with one :meth:`record_batch`."""
        self.record_batch([client_id], value_id, n_bits)

    def record_batch(
        self, client_ids: Sequence[Hashable] | np.ndarray, value_id: Hashable, n_bits: int = 1
    ) -> None:
        """Record one ``n_bits`` disclosure of ``value_id`` per client, atomically.

        The whole batch -- duplicate ids within it included -- is checked
        before any count moves, so a rejected batch leaves the meter
        unchanged.  :class:`PrivacyBudgetExceeded` names the batch's first
        offender, its value cap checked before its client cap.
        """
        if n_bits < 1:
            raise ConfigurationError(f"n_bits must be >= 1, got {n_bits}")
        if len(client_ids) == 0:
            return
        ids = _client_id_array(client_ids)
        if self._per_client[0].size and self._per_client[0].dtype.kind != ids.dtype.kind:
            held, got = ("string", "int") if ids.dtype.kind == "i" else ("int", "string")
            raise ConfigurationError(f"this meter books {held} client ids, not {got}")
        batch, repeats = np.unique(ids, return_counts=True)
        value_book = self._per_value.get(value_id, _EMPTY_BOOK)
        value_book, value_totals = _add(value_book, batch, repeats * n_bits)
        client_book, client_totals = _add(self._per_client, batch, repeats * n_bits)
        over_value = value_totals > self.max_bits_per_value
        client_cap = np.inf if self.max_bits_per_client is None else self.max_bits_per_client
        metrics = get_metrics()
        if (over := over_value | (client_totals > client_cap)).any():
            metrics.counter("meter_denials_total").inc()
            first = ids[np.isin(ids, batch[over])][0]
            j, client = np.searchsorted(batch, first), first.item()
            if over_value[j]:
                raise PrivacyBudgetExceeded(
                    f"client {client!r} would disclose {value_totals[j]} bits of value "
                    f"{value_id!r} (cap {self.max_bits_per_value})"
                )
            raise PrivacyBudgetExceeded(
                f"client {client!r} would disclose {client_totals[j]} private bits in "
                f"total (cap {self.max_bits_per_client})"
            )
        self._per_value[value_id], self._per_client = value_book, client_book
        metrics.counter("metered_bits_total").inc(n_bits * ids.size)

    # ------------------------------------------------------------------
    def bits_disclosed_by(self, client_id: Hashable) -> int:
        """Total private bits disclosed by ``client_id`` so far."""
        return _bits_of(self._per_client, client_id)

    def bits_disclosed_for(self, client_id: Hashable, value_id: Hashable) -> int:
        """Private bits disclosed about a specific value so far."""
        return _bits_of(self._per_value.get(value_id, _EMPTY_BOOK), client_id)

    @property
    def total_bits(self) -> int:
        """Private bits disclosed across the whole population."""
        return int(self._per_client[1].sum())


def _client_id_array(client_ids: Sequence[Hashable] | np.ndarray) -> np.ndarray:
    """``client_ids`` as a 1-D int64 or string array, or one ConfigurationError line."""
    try:
        ids = np.asarray(client_ids)
    except ValueError:  # a ragged sequence, such as tuples of different lengths
        ids = np.asarray(None)
    if ids.ndim == 1 and np.can_cast(ids.dtype, np.int64):
        return ids.astype(np.int64, copy=False)
    # NumPy reads [7, "7"] as two strings, which would book two clients as one.
    if ids.ndim == 1 and ids.dtype.kind == "U" and (
        isinstance(client_ids, np.ndarray)
        or all(issubclass(kind, str) for kind in set(map(type, client_ids)))
    ):
        return ids
    shown = " ".join(reprlib.repr(client_ids).split())
    raise ConfigurationError(f"client ids must be all 64-bit ints or all strings, got {shown}")


def _add(
    book: tuple[np.ndarray, np.ndarray], keys: np.ndarray, added: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """A copy of ``book`` with ``added`` more bits for each of the sorted,
    distinct ``keys``, and those keys' new totals."""
    ids, bits = book
    if ids.size == 0:
        return (keys, added), added
    at = np.searchsorted(ids, keys)
    new = ids[np.minimum(at, ids.size - 1)] != keys
    at += np.cumsum(new) - new  # each key's place in the merged book
    old = np.ones(ids.size + np.count_nonzero(new), dtype=bool)
    old[at[new]] = False
    merged_ids = np.empty(old.size, np.result_type(ids, keys))
    merged_ids[old], merged_ids[at[new]] = ids, keys[new]
    merged_bits = np.zeros(old.size, dtype=np.int64)
    merged_bits[old] = bits
    merged_bits[at] += added
    return (merged_ids, merged_bits), merged_bits[at]


def _bits_of(book: tuple[np.ndarray, np.ndarray], client_id: Hashable) -> int:
    """``client_id``'s bits in ``book``: 0 for a client it never booked."""
    ids, bits = book
    key = np.asarray(client_id)
    if key.ndim or key.dtype.kind != ids.dtype.kind:
        return 0
    i = np.searchsorted(ids, key)
    return int(bits[i]) if i < ids.size and ids[i] == key else 0
