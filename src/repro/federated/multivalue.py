"""Multi-value elicitation semantics (paper Section 4.3).

Most federated-analytics formalism assumes one value per client, but real
devices hold many observations per metric.  The paper resolves this by
eliciting a *single* value per client -- by sampling or by local
aggregation -- and defining the ground truth consistently with the chosen
elicitation ("we define the ground truth for data collection via
sampling").  This module provides both halves: per-client elicitation and
the matching population ground truth.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.core.client_plane import ClientBatch, elicit_values
from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["ELICITATION_STRATEGIES", "elicit_single_value", "elicit_batch", "ground_truth_mean"]

#: Supported strategies for reducing a device's multiset to one value.
ELICITATION_STRATEGIES = ("sample", "mean", "max", "latest")


def elicit_single_value(
    values: np.ndarray,
    strategy: str = "sample",
    rng: np.random.Generator | int | None = None,
) -> float:
    """Reduce one client's local values to the single value it will report on.

    * ``"sample"`` -- uniform random local observation (the paper's choice);
    * ``"mean"`` -- device-local aggregation;
    * ``"max"`` -- worst observation (useful for health ceilings);
    * ``"latest"`` -- the most recent observation (last element).
    """
    vals = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        raise ConfigurationError("cannot elicit from an empty value set")
    if strategy == "sample":
        gen = ensure_rng(rng)
        return float(vals[gen.integers(vals.size)])
    if strategy == "mean":
        return float(vals.mean())
    if strategy == "max":
        return float(vals.max())
    if strategy == "latest":
        return float(vals[-1])
    raise ConfigurationError(
        f"unknown elicitation strategy {strategy!r}; expected one of {ELICITATION_STRATEGIES}"
    )


def elicit_batch(
    value_sets: Sequence[np.ndarray],
    strategy: str = "sample",
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Elicit one value from each client's multiset in a single call.

    Semantically (and, for ``"sample"``, *stream*-) identical to calling
    :func:`elicit_single_value` once per client in order with the same
    generator: the sampling path draws all local indices with one
    ``gen.integers(sizes)`` call, which consumes the underlying bit stream
    exactly as the per-client scalar draws would.  This is the federated
    server's per-round hot loop (one elicitation per surviving client).
    """
    arrays = [np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in value_sets]
    if any(a.size == 0 for a in arrays):
        raise ConfigurationError("cannot elicit from an empty value set")
    if not arrays:
        return np.empty(0)
    if strategy == "sample":
        gen = ensure_rng(rng)
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        picks = np.atleast_1d(gen.integers(sizes))
        return np.array([a[k] for a, k in zip(arrays, picks)], dtype=np.float64)
    if strategy == "mean":
        return np.array([a.mean() for a in arrays], dtype=np.float64)
    if strategy == "max":
        return np.array([a.max() for a in arrays], dtype=np.float64)
    if strategy == "latest":
        return np.array([a[-1] for a in arrays], dtype=np.float64)
    raise ConfigurationError(
        f"unknown elicitation strategy {strategy!r}; expected one of {ELICITATION_STRATEGIES}"
    )


def ground_truth_mean(
    per_client_values: Union[Sequence[np.ndarray], ClientBatch],
    strategy: str = "sample",
) -> float:
    """Population mean consistent with the elicitation strategy.

    For ``"sample"`` the expected elicited value of a client is its local
    mean, so the ground truth is the mean of per-client local means --
    *not* the mean over all raw observations, which over-weights chatty
    clients (the discrepancy the paper calls out).  For deterministic
    strategies the ground truth is the mean of the per-client reductions.

    Accepts either a sequence of per-client arrays or a columnar
    :class:`~repro.core.client_plane.ClientBatch` (reduced with vectorized
    ``reduceat`` kernels -- last-ulp summation-order differences from the
    per-array object path are possible for long multisets).
    """
    if isinstance(per_client_values, ClientBatch):
        batch = per_client_values
        if strategy in ("sample", "mean"):
            reductions = batch.local_means()
        elif strategy in ("max", "latest"):
            reductions = elicit_values(batch, strategy)
        else:
            raise ConfigurationError(
                f"unknown elicitation strategy {strategy!r}; expected one of "
                f"{ELICITATION_STRATEGIES}"
            )
        return float(np.mean(reductions))
    if not per_client_values:
        raise ConfigurationError("need at least one client")
    if strategy == "sample":
        reductions = [float(np.mean(v)) for v in per_client_values]
    elif strategy in ("mean", "max", "latest"):
        reductions = [elicit_single_value(v, strategy) for v in per_client_values]
    else:
        raise ConfigurationError(
            f"unknown elicitation strategy {strategy!r}; expected one of {ELICITATION_STRATEGIES}"
        )
    return float(np.mean(reductions))
