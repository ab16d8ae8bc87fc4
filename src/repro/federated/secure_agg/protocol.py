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

All session work is whole-array, over a :class:`SessionBatch`: sessions of
one shape ``(n_clients, threshold, ring)`` stacked along a leading session
axis.  Pairwise seeds live in one uint64 row per session in
``np.triu_indices`` order.  Each phase (:func:`mask_batches`,
:func:`unmask_batches`) gathers the seeds it needs with one pass per
shape, expands them with one
:func:`~repro.federated.secure_agg.masking.expand_masks` call per ring
width -- self-masks and pairwise masks alike -- and applies them with one
more pass per shape.  Unmasking takes every session's threshold verdict,
then reconstructs the survivors' self-mask seeds with one Shamir product
per threshold present.  A :class:`SecureAggregationSession` is a batch of
one; :mod:`repro.federated.secure_agg.hierarchy` runs a whole group of
shard sessions through the same calls.  Masks live in the ring of
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
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SecureAggregationError
from repro.federated.secure_agg.field import PrimeField
from repro.federated.secure_agg.masking import Ring, expand_masks, mask_ring
from repro.federated.secure_agg.shamir import reconstruct_secret_sets, split_secret_sets
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
    """Both endpoints of every pair, in ``np.triu_indices(n_clients, k=1)`` order.

    Built once per session size and shared, so both are read-only.
    """
    low, high = np.triu_indices(n_clients, k=1)
    low.setflags(write=False)
    high.setflags(write=False)
    return low, high


def _segment_sums(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of ``rows``, of the given lengths, in the rows' lane.

    Each is a difference of one running sum, which wraps like the lane, so
    an empty run sums to zero.
    """
    running = np.zeros((rows.shape[0] + 1, rows.shape[1]), dtype=rows.dtype)
    np.cumsum(rows, axis=0, dtype=rows.dtype, out=running[1:])
    ends = np.cumsum(counts)
    return running[ends] - running[ends - counts]


class SessionBatch:
    """Secure-aggregation sessions of one shape, as arrays with a leading session axis.

    ``S`` sessions of one ``(n_clients, threshold, ring)`` hold their
    pairwise seeds ``(S, n (n - 1) / 2)`` in ``np.triu_indices`` order,
    their self-mask seeds ``(S, n)``, the self seeds' Shamir shares ``(S,
    n, n)`` -- row ``i`` of a session's matrix holds seed ``i``'s share
    values, column ``h`` the share client ``h`` keeps (evaluation point
    ``x = h + 1``) -- and their masked rows ``(S, n, vector_length)``.
    Session ``s`` draws its pairwise seeds, its self seeds and its share
    polynomials from ``rngs[s]``, in that order, so a session's arrays do
    not depend on the batch it sits in.  :func:`mask_batches` and
    :func:`unmask_batches` run the protocol's phases over batches.
    """

    def __init__(
        self,
        n_clients: int,
        vector_length: int,
        threshold: int,
        ring: Ring,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        self.n_clients = n_clients
        self.vector_length = vector_length
        self.threshold = threshold
        self.ring = ring
        self.field = PrimeField()
        # -- Setup phase (simulated trusted key agreement). --------------
        # All seeds are field elements: self-mask seeds travel through
        # Shamir shares (field arithmetic), so anything >= the modulus
        # would reconstruct to a different value than was expanded.
        size = len(rngs)
        self.pair_seeds = np.empty((size, n_clients * (n_clients - 1) // 2), dtype=np.uint64)
        self.self_seeds = np.empty((size, n_clients), dtype=np.uint64)
        for s, gen in enumerate(rngs):
            self.pair_seeds[s] = self.field.random_vector(self.pair_seeds.shape[1], gen)
            self.self_seeds[s] = self.field.random_vector(n_clients, gen)
        self.shares = split_secret_sets(self.self_seeds, n_clients, threshold, self.field, rngs)
        self.masked = np.zeros((size, n_clients, vector_length), dtype=ring.lane)
        self.submitted = np.zeros((size, n_clients), dtype=bool)
        self.finalized = np.zeros(size, dtype=bool)
        self.failed = np.zeros(size, dtype=bool)
        #: Seeds each session's masking and unmasking have expanded so far.
        self.expanded = np.zeros(size, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.submitted.shape[0]

    # ------------------------------------------------------------------
    def _check_ids(self, sessions: np.ndarray, clients: np.ndarray) -> None:
        """Raise on the first unknown id or repeated submission, in batch order."""
        unknown = (clients < 0) | (clients >= self.n_clients)
        key = np.where(unknown, -1, sessions * self.n_clients + clients)
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(key.size, dtype=bool)
        repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
        repeated |= self.submitted.reshape(-1)[np.maximum(key, 0)] & ~unknown
        bad = np.flatnonzero(unknown | repeated)
        if bad.size:
            cid = int(clients[bad[0]])
            if unknown[bad[0]]:
                raise ConfigurationError(f"unknown client id {cid}")
            raise SecureAggregationError(f"client {cid} already submitted")

    def _mask_seeds(self, client_ids: Sequence, vectors: Sequence) -> tuple[np.ndarray, tuple]:
        """Check one batch per session; return the seeds its masks need and what the apply reads.

        The seeds are the batches' self-mask seeds and every pairwise seed
        they touch, each pair once: an intra-batch mask is applied with
        opposite signs to both endpoints' rows.  Nothing is recorded until
        :meth:`_apply_masks` runs on the seeds' expanded rows.
        """
        if (self.finalized | self.failed).any():
            raise SecureAggregationError("session already finalized")
        ids = [np.asarray(cids, dtype=np.int64).reshape(-1) for cids in client_ids]
        rows = [np.atleast_2d(np.asarray(batch)) for batch in vectors]
        for cids, batch in zip(ids, rows):
            if batch.shape != (cids.size, self.vector_length):
                raise ConfigurationError(
                    f"expected a ({cids.size}, {self.vector_length}) vector batch, "
                    f"got {batch.shape}"
                )
        sessions = np.repeat(np.arange(len(ids)), [cids.size for cids in ids])
        clients = np.concatenate(ids)
        self._check_ids(sessions, clients)
        encoded = self.ring.encode(np.concatenate(rows))
        member = np.zeros_like(self.submitted)
        member[sessions, clients] = True
        low, high = _pair_layout(self.n_clients)
        touched = member[:, low] | member[:, high]
        seeds = np.concatenate([self.self_seeds[sessions, clients], self.pair_seeds[touched]])
        return seeds, (sessions, clients, encoded, touched)

    def _apply_masks(self, plan: tuple, masks: np.ndarray) -> np.ndarray:
        """Mask and record the checked batches; return their masked rows, in batch order."""
        sessions, clients, encoded, touched = plan
        n, k = self.n_clients, sessions.size
        low, high = _pair_layout(n)
        pair_session, pair = np.nonzero(touched)
        pair_masks = masks[k:]
        # A client adds the masks of the touched pairs it is the low end of
        # -- a run in triu order -- and subtracts those it is the high end
        # of, a run once sorted by high end (the pairwise_mask_sign
        # convention).
        cells = self.size * n
        low_end = pair_session * n + low[pair]
        high_end = pair_session * n + high[pair]
        added = _segment_sums(pair_masks, np.bincount(low_end, minlength=cells))
        taken = _segment_sums(
            pair_masks[np.argsort(high_end)], np.bincount(high_end, minlength=cells)
        )
        row = sessions * n + clients
        masked = encoded + masks[:k] + added[row] - taken[row]
        self.masked[sessions, clients] = masked
        self.submitted[sessions, clients] = True
        self.expanded += np.bincount(sessions, minlength=self.size) + touched.sum(axis=1)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("secure_agg_masked_bytes_total").inc(masked.nbytes)
        return masked

    # ------------------------------------------------------------------
    def check_thresholds(self) -> np.ndarray:
        """Each session's threshold verdict: did at least ``threshold`` clients submit?

        A session below it closes as failed, counted once in
        ``secure_agg_failures_total``.
        """
        passed = self.submitted.sum(axis=1) >= self.threshold
        failing = ~passed & ~self.failed
        self.failed |= ~passed
        metrics = get_metrics()
        if metrics.enabled and failing.any():
            metrics.counter("secure_agg_failures_total").inc(int(failing.sum()))
        return passed

    def _holder_shares(self, ready: np.ndarray) -> tuple[list, list]:
        """Each ready session's Shamir points and the survivors' share block at them.

        A session interpolates at its first ``threshold`` surviving
        shareholders (``x = holder + 1``).
        """
        survivors = self.submitted[ready]
        if not survivors.size:
            return [], []
        holds = survivors & (np.cumsum(survivors, axis=1) <= self.threshold)
        holders = np.nonzero(holds)[1].reshape(-1, self.threshold)
        session, client = np.nonzero(survivors)
        block = self.shares[np.flatnonzero(ready)[session, None], client[:, None], holders[session]]
        blocks = np.split(block, np.cumsum(survivors.sum(axis=1))[:-1])
        return (holders + 1).tolist(), blocks

    def _unmask_seeds(self, ready: np.ndarray, self_seeds: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The seeds unmasking the ready sessions needs, and what the apply reads.

        ``self_seeds`` are the survivors' reconstructed self-mask seeds,
        session by session; each survivor also reveals the seed it shared
        with each dropout.  Survivor-dropout pairwise masks linger in the
        total with the survivor's sign, so masks it added (dropout id
        larger) are subtracted along with the self-masks, and the others
        added back.
        """
        survivors = self.submitted[ready]
        low, high = _pair_layout(self.n_clients)
        added = survivors[:, low] & ~survivors[:, high]
        taken = ~survivors[:, low] & survivors[:, high]
        pair_seeds = self.pair_seeds[ready]
        seeds = np.concatenate([self_seeds, pair_seeds[added], pair_seeds[taken]])
        counts = (survivors.sum(axis=1), added.sum(axis=1), taken.sum(axis=1))
        return seeds, (ready, counts)

    def _apply_unmasks(self, plan: tuple, masks: np.ndarray) -> np.ndarray:
        """Close the ready sessions; return their ``(ready, vector_length)`` lane totals."""
        ready, counts = plan
        # The seeds run self seeds, then added pairs, then taken pairs, each
        # session by session: one run per (part, session).
        kept, added, taken = _segment_sums(masks, np.concatenate(counts)).reshape(
            3, -1, self.vector_length
        )
        totals = self.masked[ready].sum(axis=1, dtype=self.ring.lane) - kept - added + taken
        self.finalized[ready] = True
        self.expanded[ready] += sum(counts)
        metrics = get_metrics()
        if metrics.enabled:
            survivors, recovered = int(counts[0].sum()), int(counts[1].sum() + counts[2].sum())
            metrics.counter("secure_agg_sessions_total").inc(int(ready.sum()))
            metrics.counter("secure_agg_dropouts_total").inc(
                int(ready.sum()) * self.n_clients - survivors
            )
            metrics.counter("secure_agg_self_masks_removed_total").inc(survivors)
            metrics.counter("secure_agg_masks_recovered_total").inc(recovered)
        return totals


def _lane_masks(batches: Sequence[SessionBatch], seeds: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each batch's mask rows for its seeds, from one ``expand_masks`` call per ring width."""
    lanes: dict[np.dtype, list[int]] = {}
    for b, batch in enumerate(batches):
        lanes.setdefault(batch.ring.lane, []).append(b)
    masks: list = [None] * len(batches)
    for lane, members in lanes.items():
        rows = expand_masks(
            np.concatenate([seeds[b] for b in members]), batches[members[0]].vector_length, lane
        )
        bounds = np.cumsum([seeds[b].size for b in members])[:-1]
        for b, part in zip(members, np.split(rows, bounds)):
            masks[b] = part
    return masks


def mask_batches(
    batches: Sequence[SessionBatch], client_ids: Sequence[Sequence], vectors: Sequence[Sequence]
) -> list[np.ndarray]:
    """Mask and record one batch of submissions per session, for every batch.

    ``client_ids[b][s]`` and ``vectors[b][s]`` are the ids and the
    ``(len(ids), vector_length)`` rows that session ``s`` of ``batches[b]``
    receives.  Every batch is checked before any mask is expanded: ids
    in range and not yet submitted, rows of the right shape inside the
    ring's bounds.  One seed gather per batch, one ``expand_masks`` call
    per ring width and one signed apply per batch follow.  Returns each
    batch's masked rows in the ring's lane, session by session in
    submission order.
    """
    steps = [batch._mask_seeds(i, v) for batch, i, v in zip(batches, client_ids, vectors)]
    masks = _lane_masks(batches, [seeds for seeds, _ in steps])
    return [batch._apply_masks(plan, m) for batch, (_, plan), m in zip(batches, steps, masks)]


def unmask_batches(
    batches: Sequence[SessionBatch], ready: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Unmask the sessions ``ready[b]`` marks in each batch; return their lane totals.

    The ready sessions must have passed :meth:`SessionBatch.check_thresholds`.
    Each interpolates at its first ``threshold`` surviving shareholders, so
    all ready sessions of one threshold share one exact mod-p product
    (:func:`~repro.federated.secure_agg.shamir.reconstruct_secret_sets`);
    their unmask seeds then take one ``expand_masks`` call per ring width,
    and each batch's totals one pass of segment sums.  Returns each batch's
    ``(ready sessions, vector_length)`` totals.
    """
    if not batches:
        return []
    point_sets, blocks, thresholds = [], [], []
    for batch, passed in zip(batches, ready):
        xs, ys = batch._holder_shares(passed)
        point_sets += xs
        blocks += ys
        thresholds += [batch.threshold] * len(xs)
    recovered = iter(reconstruct_secret_sets(point_sets, blocks, batches[0].field, thresholds))
    steps = []
    for batch, passed in zip(batches, ready):
        own = [np.empty(0, dtype=np.uint64)] + [next(recovered) for _ in range(passed.sum())]
        steps.append(batch._unmask_seeds(passed, np.concatenate(own)))
    masks = _lane_masks(batches, [seeds for seeds, _ in steps])
    return [batch._apply_unmasks(plan, m) for batch, (_, plan), m in zip(batches, steps, masks)]


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

    The session is a :class:`SessionBatch` of one.

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
        self.n_clients = n_clients
        self.vector_length = vector_length
        self.threshold = threshold
        self._batch = SessionBatch(
            n_clients, vector_length, threshold, self.ring, [ensure_rng(rng)]
        )
        #: The prime field of seeds and Shamir shares (masks use :attr:`ring`).
        self.field = self._batch.field

    # ------------------------------------------------------------------
    def client_pairwise_seeds(self, client_id: int) -> dict[int, int]:
        """The pairwise seeds client ``client_id`` holds (one per peer)."""
        peers = np.delete(np.arange(self.n_clients), client_id)
        index = _pair_index(peers, client_id, self.n_clients)
        return dict(zip(peers.tolist(), self._batch.pair_seeds[0, index].tolist()))

    # ------------------------------------------------------------------
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
        (masked,) = mask_batches([self._batch], [[client_ids]], [[vectors]])
        return masked

    # ------------------------------------------------------------------
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
        if self._batch.finalized[0]:
            raise SecureAggregationError("session already finalized")
        submitted = self.n_clients - self.dropout_count
        with get_tracer().span(
            "secure_agg.finalize",
            {
                "n_clients": self.n_clients,
                "submitted": submitted,
                "dropouts": self.n_clients - submitted,
                "threshold": self.threshold,
            },
        ):
            if not self._batch.check_thresholds()[0]:
                raise SecureAggregationError(
                    f"only {submitted} of {self.n_clients} clients submitted; "
                    f"threshold is {self.threshold}"
                )
        (totals,) = unmask_batches([self._batch], [np.ones(1, dtype=bool)])
        return self.ring.decode(totals[0])

    # ------------------------------------------------------------------
    @property
    def submitted_clients(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._batch.submitted[0]).tolist())

    @property
    def dropout_count(self) -> int:
        return self.n_clients - int(self._batch.submitted[0].sum())

    @property
    def failed(self) -> bool:
        """True once a below-threshold finalize has closed the session."""
        return bool(self._batch.failed[0])


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
