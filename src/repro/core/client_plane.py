"""Columnar client plane: struct-of-arrays client state + chunked kernels.

A federated round over N clients historically materialized N Python objects
(:class:`~repro.federated.client.ClientDevice`), N-element cohort lists, and
per-report temporaries -- fatal past ~10**5 clients.  This module replaces
that representation with one :class:`ClientBatch` (contiguous arrays for
values, multiset offsets, ids, and attribute columns) and implements the
client half of the protocol -- value elicitation, fixed-point encoding, bit
extraction, randomized response, and per-bit aggregation -- as vectorized
NumPy kernels processed in bounded-memory chunks of ``REPRO_BATCH_CHUNK``
clients (default 64k), so 10M-client rounds stream without blowup.

**Bit-identity contract.**  Every kernel here consumes randomness exactly as
its object-path twin, for *any* chunk size (including 1 and > n):

* NumPy ``Generator`` draws are element-sequential in C order, so splitting
  one ``gen.integers(sizes)`` / ``gen.random(shape)`` call into consecutive
  per-chunk calls yields the identical stream (pinned by
  ``tests/test_client_plane.py``).  Chunked elicitation and chunked
  randomized response are therefore *stream-identical* to the full-array
  pass.  (:class:`~repro.core.protocol.BitPerturbation` implementations must
  consume per-element randomness in C order -- true of randomized response.)
* Reported bits are 0/1, so per-chunk ``np.bincount`` partial sums
  accumulated in int64 equal the single full-array bincount exactly,
  regardless of chunk boundaries.

The one documented exception is ``"mean"`` elicitation: the columnar path
reduces each client's multiset with ``np.add.reduceat`` (sequential
accumulation) while the object path calls ``ndarray.mean`` (pairwise), which
can differ in the last ulp for multisets longer than a few elements.  The
``"sample"`` (default), ``"max"``, and ``"latest"`` strategies are exact.

Chunked stages emit ``client_plane.*`` tracer spans so flight-recorder
artifacts capture columnar runs phase by phase (see ``docs/performance.md``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import BitPerturbation
from repro.exceptions import ConfigurationError, ProtocolError
from repro.observability import get_tracer
from repro.rng import ensure_rng

__all__ = [
    "DEFAULT_CHUNK_CLIENTS",
    "ClientBatch",
    "batch_chunk_size",
    "elicit_values",
    "accumulate_bit_reports",
    "collect_client_reports",
]

#: Default clients per chunk.  Wide per-chunk temporaries (encoded uint64,
#: extracted bits, perturbation draws) stay a few MB -- cache-friendly and
#: memory-bounded -- while per-chunk call overhead is amortized over tens of
#: thousands of rows.
DEFAULT_CHUNK_CLIENTS = 65_536


def batch_chunk_size(chunk: int | None = None) -> int:
    """Resolve the chunk size (clients per vectorized kernel invocation).

    An explicit ``chunk`` wins; otherwise the ``REPRO_BATCH_CHUNK``
    environment variable (absent/empty means :data:`DEFAULT_CHUNK_CLIENTS`).
    Chunk size is a pure performance/memory knob: results are bit-identical
    for every value >= 1.
    """
    if chunk is None:
        raw = os.environ.get("REPRO_BATCH_CHUNK", "").strip()
        if not raw:
            return DEFAULT_CHUNK_CLIENTS
        try:
            chunk = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_BATCH_CHUNK must be an integer, got {raw!r}"
            ) from None
    chunk = int(chunk)
    if chunk < 1:
        raise ConfigurationError(f"chunk size must be >= 1, got {chunk}")
    return chunk


def _chunk_bounds(n: int, chunk: int) -> Iterator[tuple[int, int]]:
    for lo in range(0, n, chunk):
        yield lo, min(lo + chunk, n)


@dataclass
class ClientBatch:
    """A population of clients as a struct-of-arrays (columnar) batch.

    Client ``i`` holds the multiset ``values[offsets[i]:offsets[i+1]]`` (at
    least one value each), identity ``client_ids[i]``, and one entry per
    attribute column.  This is the drop-in columnar replacement for a
    ``Sequence[ClientDevice]``: :class:`~repro.federated.server.
    FederatedMeanQuery` accepts either, and the two are bit-identical for
    the same seed.

    Parameters
    ----------
    values:
        Flat float64 array: every client's local observations, concatenated.
    offsets:
        int64 prefix array of length ``n + 1`` (``offsets[0] == 0``,
        ``offsets[-1] == values.size``, strictly increasing -- empty
        multisets are rejected, matching ``ClientDevice``).
    client_ids:
        int64 identity per client (default: ``arange(n)``).
    attributes:
        Columnar eligibility attributes: each key maps to a length-``n``
        array (see :func:`repro.federated.cohort.attribute_equals`).

    Examples
    --------
    >>> batch = ClientBatch.from_values([3.0, 5.0, 7.0])
    >>> len(batch), batch.sizes.tolist()
    (3, [1, 1, 1])
    >>> batch.take([2, 0]).values.tolist()
    [7.0, 3.0]
    """

    values: np.ndarray
    offsets: np.ndarray
    client_ids: np.ndarray | None = None
    attributes: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        self.offsets = np.ascontiguousarray(np.asarray(self.offsets, dtype=np.int64))
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ConfigurationError("offsets must be a 1-D prefix array of length n + 1")
        n = self.offsets.size - 1
        if self.offsets[0] != 0 or self.offsets[-1] != self.values.size:
            raise ConfigurationError(
                f"offsets must span [0, {self.values.size}], got "
                f"[{int(self.offsets[0])}, {int(self.offsets[-1])}]"
            )
        if np.any(np.diff(self.offsets) < 1):
            raise ConfigurationError("every client needs at least one local value")
        if self.client_ids is None:
            self.client_ids = np.arange(n, dtype=np.int64)
        else:
            self.client_ids = np.ascontiguousarray(
                np.asarray(self.client_ids, dtype=np.int64)
            )
        if self.client_ids.shape != (n,):
            raise ConfigurationError(
                f"client_ids shape {self.client_ids.shape} != ({n},)"
            )
        for key, column in self.attributes.items():
            column = np.asarray(column)
            if column.shape[:1] != (n,):
                raise ConfigurationError(
                    f"attribute column {key!r} has length {column.shape[:1]}, expected {n}"
                )
            self.attributes[key] = column

    # ------------------------------------------------------------------
    @property
    def n_clients(self) -> int:
        return int(self.offsets.size - 1)

    def __len__(self) -> int:
        return self.n_clients

    @property
    def sizes(self) -> np.ndarray:
        """Per-client multiset sizes (int64, length ``n``)."""
        return np.diff(self.offsets)

    @property
    def uniform(self) -> bool:
        """True when every client holds exactly one value (the fast path)."""
        return int(self.values.size) == self.n_clients

    def values_for(self, i: int) -> np.ndarray:
        """Client ``i``'s multiset (a view into the flat array)."""
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def local_means(self) -> np.ndarray:
        """Per-client local means (the ``"sample"`` ground-truth reduction).

        Sequential (``reduceat``) accumulation; can differ from per-client
        ``ndarray.mean`` in the last ulp for long multisets.
        """
        if self.uniform:
            return self.values.copy()
        return np.add.reduceat(self.values, self.offsets[:-1]) / self.sizes

    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        client_ids: np.ndarray | None = None,
        attributes: dict[str, np.ndarray] | None = None,
    ) -> "ClientBatch":
        """One value per client (the common large-scale shape)."""
        vals = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if vals.ndim != 1:
            raise ConfigurationError(f"expected a 1-D value array, got shape {vals.shape}")
        offsets = np.arange(vals.size + 1, dtype=np.int64)
        return cls(vals, offsets, client_ids, dict(attributes or {}))

    @classmethod
    def from_devices(cls, devices: Iterable[Any]) -> "ClientBatch":
        """Build a batch from device objects (duck-typed ``ClientDevice``).

        Each device must expose ``values`` (non-empty 1-D) and may expose
        ``client_id`` and an ``attributes`` mapping; attribute columns are
        the union of keys (missing entries become ``None``).  This is the
        compatibility constructor for tests and migrations -- it is O(n)
        Python, so large populations should be built columnar directly.
        """
        value_arrays: list[np.ndarray] = []
        ids: list[int] = []
        raw_attributes: list[dict] = []
        keys: list[str] = []
        for index, device in enumerate(devices):
            vals = np.atleast_1d(np.asarray(device.values, dtype=np.float64))
            if vals.size == 0:
                raise ConfigurationError(f"client at position {index} has no local values")
            value_arrays.append(vals)
            ids.append(int(getattr(device, "client_id", index)))
            attrs = dict(getattr(device, "attributes", None) or {})
            raw_attributes.append(attrs)
            for key in attrs:
                if key not in keys:
                    keys.append(key)
        if not value_arrays:
            raise ConfigurationError("need at least one client")
        sizes = np.array([a.size for a in value_arrays], dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        columns = {
            key: np.array([attrs.get(key) for attrs in raw_attributes], dtype=object)
            for key in keys
        }
        return cls(
            np.concatenate(value_arrays),
            offsets,
            np.array(ids, dtype=np.int64),
            columns,
        )

    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "ClientBatch":
        """Select clients by position (cohort draw / survivor filtering).

        O(selected) -- the columnar analogue of ``[population[i] for i in
        indices]`` without touching the unselected rows.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ConfigurationError(f"indices must be 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_clients):
            raise ConfigurationError(
                f"indices outside [0, {self.n_clients}) cannot be taken"
            )
        attributes = {key: column[idx] for key, column in self.attributes.items()}
        if self.uniform:
            return ClientBatch(
                self.values[idx],
                np.arange(idx.size + 1, dtype=np.int64),
                self.client_ids[idx],
                attributes,
            )
        sizes = self.sizes[idx]
        offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        # Ragged gather: element j of the output block for selected client k
        # reads self.values[starts[k] + j].
        flat = np.repeat(self.offsets[idx] - offsets[:-1], sizes) + np.arange(
            int(offsets[-1]), dtype=np.int64
        )
        return ClientBatch(self.values[flat], offsets, self.client_ids[idx], attributes)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

def elicit_values(
    batch: ClientBatch,
    strategy: str = "sample",
    rng: np.random.Generator | int | None = None,
    chunk: int | None = None,
) -> np.ndarray:
    """Elicit one value per client from a columnar batch.

    The vectorized twin of :func:`repro.federated.multivalue.elicit_batch`:
    ``"sample"`` draws the per-client local index with chunked
    ``gen.integers(sizes)`` calls -- stream-identical to the object path for
    any chunk size -- and ``"max"``/``"latest"`` are exact reductions.
    ``"mean"`` uses sequential ``reduceat`` accumulation (see the module
    docstring for the ulp caveat).

    ``"sample"`` over a one-value-per-client batch returns a read-only view
    of ``batch.values`` under a single ``client_plane.elicit`` span:
    ``gen.integers(1)`` can only pick index 0 and draws nothing from the
    generator, so skipping the call leaves the stream untouched.
    """
    n = len(batch)
    if n == 0:
        return np.empty(0)
    if strategy == "sample":
        tracer = get_tracer()
        if batch.uniform:
            with tracer.span(
                "client_plane.elicit",
                {"chunk": 0, "lo": 0, "hi": n, "strategy": strategy},
            ):
                view = batch.values.view()
                view.flags.writeable = False
                return view
        gen = ensure_rng(rng)
        size = batch_chunk_size(chunk)
        out = np.empty(n)
        sizes = batch.sizes
        starts = batch.offsets[:-1]
        for index, (lo, hi) in enumerate(_chunk_bounds(n, size)):
            with tracer.span(
                "client_plane.elicit",
                {"chunk": index, "lo": lo, "hi": hi, "strategy": strategy},
            ):
                picks = gen.integers(sizes[lo:hi])
                out[lo:hi] = batch.values[starts[lo:hi] + picks]
        return out
    if strategy == "mean":
        return batch.local_means()
    if strategy == "max":
        if batch.uniform:
            return batch.values.copy()
        return np.maximum.reduceat(batch.values, batch.offsets[:-1])
    if strategy == "latest":
        return batch.values[batch.offsets[1:] - 1]
    # Defer to the object-path module for the canonical error message.
    from repro.federated.multivalue import ELICITATION_STRATEGIES

    raise ConfigurationError(
        f"unknown elicitation strategy {strategy!r}; expected one of {ELICITATION_STRATEGIES}"
    )


def _validated_assignment(assignment: np.ndarray, n: int, n_bits: int) -> np.ndarray:
    assign = np.asarray(assignment, dtype=np.int64)
    if assign.ndim == 1:
        assign = assign.reshape(-1, 1)
    if assign.ndim != 2 or assign.shape[0] != n:
        raise ProtocolError(
            f"assignment shape {assign.shape} incompatible with {n} clients"
        )
    if assign.size and (assign.min() < 0 or assign.max() >= n_bits):
        raise ProtocolError(f"assignment indexes outside [0, {n_bits})")
    return assign


def _collect_chunk(
    encoded_chunk: np.ndarray,
    assign_chunk: np.ndarray,
    n_bits: int,
    perturbation: BitPerturbation | None,
    gen: np.random.Generator | None,
    sums: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Extract, perturb, and fold one chunk into the int64 accumulators.

    One joint ``bincount`` over ``2 * bit_index + (report == 1)`` counts
    both halves at once: odd slots are reports equal to 1 (the sums), and
    each even/odd pair adds up to the bit's report count.
    """
    bits = (
        (encoded_chunk[:, None] >> assign_chunk.astype(np.uint64)) & np.uint64(1)
    ).astype(np.uint8)
    if perturbation is not None:
        bits = np.asarray(perturbation.perturb_bits(bits, gen), dtype=np.uint8)
        if bits.shape != assign_chunk.shape:
            raise ProtocolError(
                f"perturbation changed report shape from {assign_chunk.shape} to {bits.shape}"
            )
    joint = np.bincount(
        2 * assign_chunk.ravel() + (bits.ravel() == 1), minlength=2 * n_bits
    )
    sums += joint[1::2]
    counts += joint[0::2]
    counts += joint[1::2]


def accumulate_bit_reports(
    encoded: np.ndarray,
    n_bits: int,
    assignment: np.ndarray,
    perturbation: BitPerturbation | None = None,
    rng: np.random.Generator | int | None = None,
    chunk: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunk-streamed twin of :func:`repro.core.protocol.collect_bit_reports`.

    Identical signature and bit-identical ``(sums, counts)`` for every chunk
    size; the wide intermediates (extracted bits, perturbation draws) are
    chunk-sized instead of cohort-sized.  A cohort that fits in one chunk
    takes exactly the legacy single-pass code path (one ``perturb_bits``
    call on the full array, no extra spans), so the hot small-``n`` loops of
    the figure harness are unaffected.
    """
    enc = np.asarray(encoded, dtype=np.uint64)
    n = int(enc.shape[0]) if enc.ndim else int(enc.size)
    assign = _validated_assignment(assignment, n, n_bits)
    size = batch_chunk_size(chunk)
    gen = ensure_rng(rng) if perturbation is not None else None
    sums = np.zeros(n_bits, dtype=np.int64)
    counts = np.zeros(n_bits, dtype=np.int64)
    if n <= size:
        _collect_chunk(enc, assign, n_bits, perturbation, gen, sums, counts)
        return sums.astype(np.float64), counts
    tracer = get_tracer()
    for index, (lo, hi) in enumerate(_chunk_bounds(n, size)):
        with tracer.span(
            "client_plane.collect", {"chunk": index, "lo": lo, "hi": hi}
        ):
            _collect_chunk(
                enc[lo:hi], assign[lo:hi], n_bits, perturbation, gen, sums, counts
            )
    return sums.astype(np.float64), counts


def collect_client_reports(
    values: np.ndarray,
    encoder: FixedPointEncoder,
    assignment: np.ndarray,
    perturbation: BitPerturbation | None = None,
    rng: np.random.Generator | int | None = None,
    chunk: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode + extract + perturb + aggregate elicited values, chunk by chunk.

    The federated server's columnar collection stage: fuses fixed-point
    encoding into the chunk loop so the cohort-sized uint64 array is never
    materialized (per-chunk peak: ``chunk * (8B encoded + b_send bits +
    perturbation draw)``).  Bit-identical to ``encoder.encode(values)``
    followed by ``collect_bit_reports(...)`` for any chunk size.  Always
    emits one ``client_plane.collect`` span per chunk so recorded artifacts
    show the streaming structure.
    """
    vals = np.asarray(values, dtype=np.float64)
    n = int(vals.size)
    assign = _validated_assignment(assignment, n, encoder.n_bits)
    size = batch_chunk_size(chunk)
    gen = ensure_rng(rng) if perturbation is not None else None
    sums = np.zeros(encoder.n_bits, dtype=np.int64)
    counts = np.zeros(encoder.n_bits, dtype=np.int64)
    tracer = get_tracer()
    for index, (lo, hi) in enumerate(_chunk_bounds(n, size)):
        with tracer.span(
            "client_plane.collect",
            {"chunk": index, "lo": lo, "hi": hi, "n_bits": encoder.n_bits},
        ):
            encoded_chunk = encoder.encode(vals[lo:hi])
            _collect_chunk(
                encoded_chunk, assign[lo:hi], encoder.n_bits, perturbation, gen, sums, counts
            )
    return sums.astype(np.float64), counts
