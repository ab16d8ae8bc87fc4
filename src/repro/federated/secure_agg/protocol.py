"""Pairwise-masked secure aggregation with dropout recovery.

A functional, laptop-scale implementation of the Segal/Bonawitz et al.
protocol shape the paper relies on (Section 3.3 "Secure aggregation"):

1. **Setup.**  Every pair of clients shares a pairwise mask seed (in a real
   deployment via Diffie--Hellman; here the trusted setup hands both ends
   the same seed).  Every client also draws a private self-mask seed and
   Shamir-shares it among all clients with a reconstruction threshold.
2. **Submission.**  Each client submits its vector plus its self-mask plus
   signed pairwise masks (see :mod:`.masking`).  Summed over everyone, the
   pairwise masks cancel.
3. **Recovery.**  Clients that never submit are *dropouts*.  Their pairwise
   masks linger inside survivors' submissions, so each survivor reveals the
   seed it shared with each dropout and the server subtracts those masks.
   Survivors' self-masks are removed by reconstructing their seeds from any
   ``threshold`` surviving shareholders.

The server learns exactly the sum of the submitted vectors -- bit-pushing's
per-bit counts -- and nothing about individual contributions (each
submission is uniformly distributed given the others).

All session work is whole-array.  Pairwise seeds live in one uint64
vector in ``np.triu_indices`` order.  Each phase is two private steps --
gather the seeds it needs, then apply their expanded rows -- joined by one
:func:`~repro.federated.secure_agg.masking.expand_masks` pass that covers
self-masks and pairwise masks alike.  Unmasking first checks the threshold
and reconstructs the survivors' self-mask seeds with
:func:`_recover_self_seeds`, one Shamir product per threshold present;
:mod:`repro.federated.secure_agg.hierarchy` runs the same steps with one
pass, and one product per threshold, for a whole group of shard sessions.
Masks live in the ring of
:func:`~repro.federated.secure_agg.masking.mask_ring`, sized by the
session's entry ``dtype`` (8 bits for report bits over up to 255 clients),
and combine through the lane's native wrap-around;
:meth:`SecureAggregationSession.submit_batch` masks a whole shard's
submissions in one call (each intra-batch pairwise mask is expanded once,
not once per endpoint).  The batched path is bit-identical to per-client
:meth:`~SecureAggregationSession.submit` calls and to the scalar
:func:`~repro.federated.secure_agg.masking.apply_masks` reference -- ring
sums are exact and order-free.

**Scope note:** this is a protocol-faithful simulation for experiments, not
hardened cryptography: seeds stand in for DH key agreement, and all parties
live in one process.  What it preserves -- and what the tests check -- is the
protocol's *behaviour*: exact sums, tolerance of up to ``n - threshold``
dropouts, and hard failure below the threshold.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SecureAggregationError
from repro.federated.secure_agg.field import PrimeField
from repro.federated.secure_agg.masking import expand_masks, mask_ring
from repro.federated.secure_agg.shamir import reconstruct_secret_sets, split_secrets
from repro.observability import get_metrics, get_tracer
from repro.rng import ensure_rng

__all__ = ["SecureAggregationSession", "default_threshold", "secure_sum"]


def default_threshold(n_clients: int) -> int:
    """The canonical 2/3-majority Shamir/survivor threshold for ``n_clients``.

    ``max(2, ceil(2 n / 3))`` -- the single source of truth shared by
    :func:`secure_sum`, the hierarchical aggregator, and the server's shard
    loop (two hand-rolled copies of this formula used to live apart; a test
    pins their equality on this helper now).
    """
    if n_clients < 1:
        raise ConfigurationError(f"n_clients must be >= 1, got {n_clients}")
    return max(2, -(-2 * n_clients // 3))


def _pair_index(a, b, n_clients: int):
    """Position of the pair ``{a, b}`` in ``np.triu_indices(n_clients, k=1)`` order.

    With ``i = min(a, b) < j = max(a, b)``, row ``i`` of the upper triangle
    starts after the ``i * (2n - i - 1) / 2`` pairs of the rows above it.
    Works elementwise on integer arrays; ``a == b`` yields a meaningless
    index that callers mask out.
    """
    i, j = np.minimum(a, b), np.maximum(a, b)
    return i * (2 * n_clients - i - 1) // 2 + j - i - 1


@lru_cache(maxsize=16)
def _pair_layout(n_clients: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, n)`` upper-triangle mask and every ``(a, b)``'s pair position.

    The mask's true entries, read row-major, are the pairs in
    ``np.triu_indices(n_clients, k=1)`` order; the position matrix is
    :func:`_pair_index` of every id pair (its diagonal is meaningless).
    Built once per session size and shared, so both are read-only.
    """
    ids = np.arange(n_clients)
    upper = ids[:, None] < ids
    position = _pair_index(ids[:, None], ids, n_clients)
    upper.setflags(write=False)
    position.setflags(write=False)
    return upper, position


def _recover_self_seeds(sessions: Sequence["SecureAggregationSession"]) -> list[np.ndarray]:
    """Every session's survivor self-mask seeds, by Shamir reconstruction.

    Each session interpolates at its first ``threshold`` surviving
    shareholders, so all sessions of one threshold share one exact mod-p
    product (:func:`~repro.federated.secure_agg.shamir.reconstruct_secret_sets`).
    :meth:`SecureAggregationSession.finalize` runs it on a group of one, and
    :mod:`repro.federated.secure_agg.hierarchy` on every session of a shard
    group that passed its threshold check.
    """
    if not sessions:
        return []
    point_sets, blocks = [], []
    for session in sessions:
        survivors = sorted(session._submissions)
        holders = survivors[: session.threshold]
        point_sets.append([holder + 1 for holder in holders])
        blocks.append(session._self_seed_shares[np.ix_(survivors, holders)])
    return reconstruct_secret_sets(
        point_sets,
        blocks,
        sessions[0].field,
        expected_thresholds=[session.threshold for session in sessions],
    )


class SecureAggregationSession:
    """One secure-aggregation round over a fixed set of clients.

    Parameters
    ----------
    n_clients:
        Number of participants, with ids ``0 .. n_clients - 1``.
    vector_length:
        Length of each client's contribution vector.
    threshold:
        Minimum number of submitting clients for the round to complete
        (also the Shamir reconstruction threshold).
    dtype:
        Type of each submitted entry.  It sizes the mask ring
        (:func:`~repro.federated.secure_agg.masking.mask_ring`): ``bool``
        report bits over up to 255 clients mask in 8 bits, ``int64``
        entries in 64 bits with a per-entry bound.
    rng:
        Setup randomness (seed generation and share polynomials).

    Examples
    --------
    >>> session = SecureAggregationSession(n_clients=4, vector_length=3, threshold=3, rng=0)
    >>> for cid in [0, 1, 3]:                      # client 2 drops out
    ...     _ = session.submit(cid, [cid, 10 + cid, 1])
    >>> session.finalize()
    [4, 34, 3]
    """

    def __init__(
        self,
        n_clients: int,
        vector_length: int,
        threshold: int,
        dtype=np.int64,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_clients < 2:
            raise ConfigurationError(f"secure aggregation needs >= 2 clients, got {n_clients}")
        if vector_length < 1:
            raise ConfigurationError(f"vector_length must be >= 1, got {vector_length}")
        if not 2 <= threshold <= n_clients:
            raise ConfigurationError(
                f"need 2 <= threshold <= n_clients, got threshold={threshold}, n={n_clients}"
            )
        self.ring = mask_ring(dtype, n_clients)
        gen = ensure_rng(rng)
        self.n_clients = n_clients
        self.vector_length = vector_length
        self.threshold = threshold
        #: The prime field of seeds and Shamir shares (masks use :attr:`ring`).
        self.field = PrimeField()

        # -- Setup phase (simulated trusted key agreement). --------------
        # All seeds are field elements: self-mask seeds travel through
        # Shamir shares (field arithmetic), so anything >= the modulus
        # would reconstruct to a different value than was expanded.
        # Pairwise seeds: one per unordered pair, known to both endpoints,
        # drawn as one field vector in np.triu_indices order (the order the
        # nested per-pair loop would draw them) and looked up by _pair_index.
        self._pair_seeds = self.field.random_vector(n_clients * (n_clients - 1) // 2, gen)
        # Self-mask seeds, Shamir-shared among all clients: row i of the
        # share matrix holds seed i's share values, column h the share
        # client h keeps (evaluation point x = h + 1).
        self._self_seeds = self.field.random_vector(n_clients, gen)
        self._self_seed_shares: np.ndarray = split_secrets(
            self._self_seeds, n_clients, threshold, self.field, gen
        )

        self._submissions: dict[int, np.ndarray] = {}
        self._finalized = False
        self._failed = False

    # ------------------------------------------------------------------
    def client_pairwise_seeds(self, client_id: int) -> dict[int, int]:
        """The pairwise seeds client ``client_id`` holds (one per peer)."""
        peers = np.delete(np.arange(self.n_clients), client_id)
        index = _pair_index(peers, client_id, self.n_clients)
        return dict(zip(peers.tolist(), self._pair_seeds[index].tolist()))

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._finalized or self._failed:
            raise SecureAggregationError("session already finalized")

    def _validate_ids(self, client_ids: Sequence[int]) -> None:
        seen = set()
        for cid in client_ids:
            if not 0 <= cid < self.n_clients:
                raise ConfigurationError(f"unknown client id {cid}")
            if cid in self._submissions or cid in seen:
                raise SecureAggregationError(f"client {cid} already submitted")
            seen.add(cid)

    def _mask_phase(
        self, client_ids: Sequence[int], vectors
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """Check one batch; return the seeds its masks need and the step applying them.

        The seeds are the batch's self-mask seeds and every pairwise seed it
        touches, each pair once: an intra-batch mask is applied with
        opposite signs to both endpoints' rows.  Nothing is recorded until
        the returned step runs on the seeds' expanded rows.
        """
        self._check_open()
        client_ids = [int(c) for c in client_ids]
        vectors = np.atleast_2d(np.asarray(vectors))
        if vectors.shape != (len(client_ids), self.vector_length):
            raise ConfigurationError(
                f"expected a ({len(client_ids)}, {self.vector_length}) vector batch, "
                f"got {vectors.shape}"
            )
        self._validate_ids(client_ids)
        rows = self.ring.encode(vectors)
        ids = np.asarray(client_ids, dtype=np.intp)
        upper, position = _pair_layout(self.n_clients)
        # The pairs with an endpoint in the batch, in triu order, and each
        # one's slot among them: the running count of the touched pairs.
        member = np.zeros(self.n_clients, dtype=bool)
        member[ids] = True
        touched = (member[:, None] | member)[upper]
        pairs = np.flatnonzero(touched)
        slot = np.cumsum(touched) - 1
        # (k, n) rows of every (client, peer); + toward larger ids, -
        # toward smaller (the pairwise_mask_sign convention).
        plus = upper[ids]
        minus = upper.T[ids]
        seeds = np.concatenate([self._self_seeds[ids], self._pair_seeds[pairs]])

        def apply(masks: np.ndarray) -> np.ndarray:
            lane = self.ring.lane
            # Signed application in two gathered sums over the pair masks and
            # an appended all-zero row, which fills each sign's other slots
            # (the diagonal included).
            pair_masks = np.vstack([masks[ids.size :], np.zeros((1, self.vector_length), lane)])
            slots = slot[position[ids]]
            masked = (
                rows
                + masks[: ids.size]
                + pair_masks[np.where(plus, slots, pairs.size)].sum(axis=1, dtype=lane)
                - pair_masks[np.where(minus, slots, pairs.size)].sum(axis=1, dtype=lane)
            )
            for row, cid in enumerate(client_ids):
                self._submissions[cid] = masked[row]
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("secure_agg_masked_bytes_total").inc(masked.nbytes)
            return masked

        return seeds, apply

    def submit(self, client_id: int, values: list[int]) -> list[int]:
        """Mask and record one client's contribution; returns the masked vector.

        The returned vector is what crosses the wire: uniformly random to
        any observer who lacks the seeds.
        """
        return self.submit_batch([client_id], [values])[0].tolist()

    def submit_batch(self, client_ids: Sequence[int], vectors: np.ndarray) -> np.ndarray:
        """Mask and record many clients' contributions in one vectorized call.

        ``vectors`` is a ``(len(client_ids), vector_length)`` integer or bool
        array whose entries fit the session's ``dtype``.  Returns the masked
        ``(k, length)`` matrix in the ring's lane.  Bit-identical to ``k``
        sequential :meth:`submit` calls -- masks depend only on setup seeds,
        and ring addition is exact -- just without the per-client Python
        loops.
        """
        seeds, apply = self._mask_phase(client_ids, vectors)
        return apply(expand_masks(seeds, self.vector_length, self.ring.lane))

    # ------------------------------------------------------------------
    def _check_threshold(self) -> None:
        """Open the unmask phase: raise unless at least ``threshold`` clients submitted.

        Below the threshold this raises :class:`SecureAggregationError` and
        closes the session, counting the failure once.
        """
        submitted = len(self._submissions)
        if submitted < self.threshold:
            first_failure = not self._failed
            self._failed = True
            metrics = get_metrics()
            if metrics.enabled and first_failure:
                metrics.counter("secure_agg_failures_total").inc()
            raise SecureAggregationError(
                f"only {submitted} of {self.n_clients} clients submitted; "
                f"threshold is {self.threshold}"
            )

    def _unmask_phase(
        self, self_seeds: np.ndarray
    ) -> tuple[np.ndarray, Callable[[np.ndarray], list[int]]]:
        """Return the seeds unmasking needs and the step applying them.

        ``self_seeds`` are the survivors' self-mask seeds, which
        :func:`_recover_self_seeds` reconstructs once the session has passed
        :meth:`_check_threshold`; each survivor also reveals the seed it
        shared with each dropout.
        """
        survivors = sorted(self._submissions)
        dropped = [c for c in range(self.n_clients) if c not in self._submissions]
        # Survivor-dropout pairwise masks linger in the total with the
        # survivor's sign, so masks it added (dropout id larger) are
        # subtracted along with the self-masks, and the others added back.
        upper, position = _pair_layout(self.n_clients)
        block = np.ix_(survivors, dropped)
        index = position[block]
        added = upper[block]
        subtract = np.concatenate([self_seeds, self._pair_seeds[index[added]]])
        seeds = np.concatenate([subtract, self._pair_seeds[index[~added]]])

        def apply(masks: np.ndarray) -> list[int]:
            lane = self.ring.lane
            total = (
                np.stack([self._submissions[cid] for cid in survivors]).sum(axis=0, dtype=lane)
                - masks[: subtract.size].sum(axis=0, dtype=lane)
                + masks[subtract.size :].sum(axis=0, dtype=lane)
            )
            self._finalized = True
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("secure_agg_sessions_total").inc()
                metrics.counter("secure_agg_dropouts_total").inc(len(dropped))
                metrics.counter("secure_agg_self_masks_removed_total").inc(len(survivors))
                metrics.counter("secure_agg_masks_recovered_total").inc(
                    len(survivors) * len(dropped)
                )
            return self.ring.decode(total)

        return seeds, apply

    def finalize(self) -> list[int]:
        """Unmask and return the exact sum over all *submitting* clients.

        Raises :class:`SecureAggregationError` if fewer than ``threshold``
        clients submitted (mask recovery would be impossible -- and, in the
        real protocol, privacy would be at risk).  A failed finalize leaves
        the session closed: calling it again re-raises without re-counting
        the failure metric.  The threshold check is the session's
        ``secure_agg.finalize`` span.  (The shard tree checks its sessions'
        thresholds without it and reports each verdict in its
        ``shard.session`` span.)
        """
        if self._finalized:
            raise SecureAggregationError("session already finalized")
        submitted = len(self._submissions)
        with get_tracer().span(
            "secure_agg.finalize",
            {
                "n_clients": self.n_clients,
                "submitted": submitted,
                "dropouts": self.n_clients - submitted,
                "threshold": self.threshold,
            },
        ):
            self._check_threshold()
        (self_seeds,) = _recover_self_seeds([self])
        seeds, apply = self._unmask_phase(self_seeds)
        return apply(expand_masks(seeds, self.vector_length, self.ring.lane))

    # ------------------------------------------------------------------
    @property
    def submitted_clients(self) -> tuple[int, ...]:
        return tuple(sorted(self._submissions))

    @property
    def dropout_count(self) -> int:
        return self.n_clients - len(self._submissions)

    @property
    def failed(self) -> bool:
        """True once a below-threshold finalize has closed the session."""
        return self._failed


def secure_sum(
    vectors: np.ndarray,
    submitted: np.ndarray | None = None,
    threshold: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Securely sum integer row-vectors, one per client (one flat session).

    Convenience wrapper: builds a session whose entry ``dtype`` is the
    rows' (so it sizes the mask ring), batch-submits rows where
    ``submitted`` is true (all, by default), and finalizes.  ``threshold``
    defaults to the 2/3 majority of :func:`default_threshold`.  This is the
    *flat* reference the hierarchical aggregator's twin tests compare
    against; for sharded multi-worker aggregation use
    :func:`repro.federated.secure_agg.hierarchy.hierarchical_secure_sum`.

    Examples
    --------
    >>> import numpy as np
    >>> vecs = np.arange(12).reshape(4, 3)
    >>> secure_sum(vecs, rng=0).tolist()
    [18, 22, 26]
    """
    vecs = np.asarray(vectors)
    if vecs.ndim != 2:
        raise ConfigurationError(f"expected a 2-D (clients x length) array, got {vecs.shape}")
    n_clients, length = vecs.shape
    if submitted is None:
        submitted = np.ones(n_clients, dtype=bool)
    submitted = np.asarray(submitted, dtype=bool)
    if submitted.shape != (n_clients,):
        raise ConfigurationError("submitted mask must have one entry per client")
    if threshold is None:
        threshold = default_threshold(n_clients)
    session = SecureAggregationSession(n_clients, length, threshold, dtype=vecs.dtype, rng=rng)
    ids = np.flatnonzero(submitted)
    session.submit_batch(ids, vecs[ids])
    return np.array(session.finalize(), dtype=np.int64)
