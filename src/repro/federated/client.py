"""Client-side device records for the federated simulator.

A :class:`ClientDevice` is the validated input record for one device: one
or more private values per metric (the paper's deployment observes "most
clients hold several values ... while a small subset may hold up to
millions", Section 4.3) plus free-form eligibility attributes.  A query
converts a device list once into a columnar
:class:`~repro.core.client_plane.ClientBatch`, whose kernels run the client
half of the protocol: elicit a single value, extract the requested bit, and
optionally perturb it with randomized response.  :class:`BitReport` is the
one-bit message a device sends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["ClientDevice", "BitReport"]


@dataclass(frozen=True)
class BitReport:
    """One client's wire message: which bit index, and its (noisy) value.

    This is the *entire* private payload the protocol ever sends per value
    -- a single binary digit plus its position.
    """

    client_id: int
    bit_index: int
    bit: int


@dataclass
class ClientDevice:
    """One edge device participating in federated aggregation.

    Parameters
    ----------
    client_id:
        Stable integer identity.
    values:
        The device's local observations for the queried metric (>= 1).
    attributes:
        Free-form eligibility attributes (region, OS version, ...), matched
        by cohort predicates.
    """

    client_id: int
    values: np.ndarray
    attributes: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if values.size == 0:
            raise ConfigurationError(f"client {self.client_id} has no local values")
        self.values = values
