"""Cohort selection: eligibility filtering and minimum-size enforcement.

Selective queries ("restricting eligibility to clients in a particular
geography", Section 4.3) filter the device population by attribute
predicates, and privacy policy requires "a minimum cohort size": a query
whose eligible population is too small must not run.
:class:`CohortSelector` implements both, plus uniform sub-sampling when a
target cohort size is requested.

Selection is columnar and index-based: :meth:`CohortSelector.select_indices`
draws *positions* into a :class:`~repro.core.client_plane.ClientBatch`, so a
million-client draw touches only the chosen rows -- no eligible-list copy
when no predicate is set, and O(cohort) instead of O(population)
materialization when subsampling.  A device list (``Sequence[ClientDevice]``)
is converted once by :func:`as_batch`; eligibility predicates such as
:func:`attribute_equals` evaluate as a single mask over an attribute column.
"""

from __future__ import annotations

from typing import Protocol, Sequence, Union

import numpy as np

from repro.core.client_plane import ClientBatch
from repro.exceptions import CohortTooSmallError, ConfigurationError
from repro.federated.client import ClientDevice
from repro.rng import ensure_rng

__all__ = ["CohortSelector", "attribute_equals"]


class Eligibility(Protocol):
    """Eligibility predicate: ``mask(batch)`` is one bool per client."""

    def mask(self, batch: ClientBatch) -> np.ndarray: ...


#: Populations a cohort can be drawn from.
Population = Union[Sequence[ClientDevice], ClientBatch]


def as_batch(population: Population) -> ClientBatch:
    """``population`` as a batch: a device list is converted, a batch passes through.

    The conversion is O(n) Python (:meth:`ClientBatch.from_devices`); build
    large populations columnar directly.
    """
    if isinstance(population, ClientBatch):
        return population
    return ClientBatch.from_devices(population)


class _AttributeEquals:
    """Equality predicate over a batch's attribute column.

    Missing attributes make a client ineligible rather than erroring -- a
    fleet always contains devices that never reported the attribute.
    """

    def __init__(self, key: str, value: object) -> None:
        self.key = key
        self.value = value

    def mask(self, batch: ClientBatch) -> np.ndarray:
        """Boolean eligibility column for every client in the batch."""
        column = batch.attributes.get(self.key)
        if column is None:
            return np.zeros(len(batch), dtype=bool)
        if column.dtype == object:
            # Element by element: ``column == value`` would broadcast a
            # sequence value across its items.
            return np.fromiter(
                (item == self.value for item in column), dtype=bool, count=len(column)
            )
        return np.asarray(column == self.value, dtype=bool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"attribute_equals({self.key!r}, {self.value!r})"


def attribute_equals(key: str, value: object) -> _AttributeEquals:
    """Predicate factory: ``attributes[key] == value``, evaluated by ``mask(batch)``."""
    return _AttributeEquals(key, value)


class CohortSelector:
    """Select a query cohort from the device population.

    Parameters
    ----------
    min_cohort_size:
        Queries whose *eligible* population (or requested cohort) is below
        this bound raise :class:`CohortTooSmallError`.

    Examples
    --------
    >>> pop = [ClientDevice(i, [float(i)], {"geo": "us" if i % 2 else "eu"}) for i in range(10)]
    >>> selector = CohortSelector(min_cohort_size=3)
    >>> cohort = selector.select(pop, eligibility=attribute_equals("geo", "us"))
    >>> len(cohort)
    5
    """

    def __init__(self, min_cohort_size: int = 1) -> None:
        if min_cohort_size < 1:
            raise ConfigurationError(f"min_cohort_size must be >= 1, got {min_cohort_size}")
        self.min_cohort_size = min_cohort_size

    def select_indices(
        self,
        population: Population,
        eligibility: Eligibility | None = None,
        cohort_size: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw cohort *positions* into ``population`` (int64 array).

        Consumes randomness exactly as the historical object-returning
        ``select`` did (one ``gen.choice`` over the eligible count, only
        when subsampling), so selections are bit-identical for the same
        seed.  With no eligibility predicate the eligible set is the whole
        population and no per-client pass or copy happens at all.
        """
        batch = as_batch(population)
        picked = self._draw(batch, eligibility, cohort_size, rng)
        return np.arange(len(batch), dtype=np.int64) if picked is None else picked

    def select(
        self,
        population: Population,
        eligibility: Eligibility | None = None,
        cohort_size: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> ClientBatch:
        """Filter by eligibility, enforce the minimum, optionally subsample.

        Returns the eligible clients (all of them, or a uniform sample of
        ``cohort_size``) as a :class:`ClientBatch`; the unfiltered
        full-population case returns the batch itself, copy-free and
        without an index array.  Raises :class:`CohortTooSmallError` if
        either the eligible population or the requested cohort would
        violate the minimum size.
        """
        batch = as_batch(population)
        picked = self._draw(batch, eligibility, cohort_size, rng)
        return batch if picked is None else batch.take(picked)

    def _draw(
        self,
        batch: ClientBatch,
        eligibility: Eligibility | None,
        cohort_size: int | None,
        rng: np.random.Generator | int | None,
    ) -> np.ndarray | None:
        """Cohort positions, or ``None`` for the whole unfiltered population."""
        eligible_idx: np.ndarray | None = None  # None == all of population
        n_eligible = len(batch)
        if eligibility is not None:
            mask = getattr(eligibility, "mask", None)
            if mask is None:
                raise ConfigurationError(
                    "eligibility predicates must expose a vectorized .mask(batch) "
                    "(see attribute_equals); got a plain per-device callable"
                )
            eligible_idx = np.flatnonzero(np.asarray(mask(batch), dtype=bool))
            n_eligible = int(eligible_idx.size)
        if n_eligible < self.min_cohort_size:
            raise CohortTooSmallError(
                f"only {n_eligible} eligible clients; minimum cohort size is "
                f"{self.min_cohort_size}"
            )
        if cohort_size is not None and cohort_size < self.min_cohort_size:
            raise CohortTooSmallError(
                f"requested cohort of {cohort_size} is below the minimum "
                f"{self.min_cohort_size}"
            )
        if cohort_size is None or cohort_size >= n_eligible:
            return eligible_idx
        gen = ensure_rng(rng)
        picked = gen.choice(n_eligible, size=cohort_size, replace=False)
        if eligible_idx is None:
            return np.asarray(picked, dtype=np.int64)
        return eligible_idx[picked]
