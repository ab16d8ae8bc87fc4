"""Asyncio round server: federated rounds over real wire-protocol sockets.

This is the step that turns "simulation" into "system": the same round
state machine :class:`~repro.federated.server.FederatedMeanQuery` drives
in-process -- cohort announcement, report collection under a deadline,
quorum/degradation with retry -- executed against a TCP client fleet speaking
:mod:`repro.federated.wire` frames inside length-prefixed control messages.

Protocol, per connection.  A connection speaks for a contiguous range of
``k`` client ids ``[lo, lo + k)``; ``k = 1`` is one device per socket, and
its messages are the same bytes with ``"clients"`` left out::

    client  -> HELLO    {"client_id": lo, "clients": k, "clock_s": t}
    server  -> ANNOUNCE {"attempt", "bit_index", "n_bits", "scale", "offset",
                         "epsilon", "deadline_s", "trace"}  (seq = attempt)
                         bit_index: an int for k = 1, else the range's k indices
    client  -> REPORTS  <1 to k 16-byte report frames>      (seq = attempt)
    server  -> RESULT   {"estimate", "attempt", "survivors"}  | ABORT
    client  -> TELEMETRY {"v", "client_id": lo, "spans", "metrics"}  (best effort)

A connection speaks for every id it registered: a frame claiming another id
inside its range is that client's report.  Every malformed or late uplink is
rejected *at the uplink* with :class:`~repro.exceptions.ProtocolError`
accounting (``wire_rejects_total`` per frame; ``uplink.reject`` spans, one
per message and reason, and ``uplink.late`` spans, each carrying the peer
host and session id of its connection) and never folded into the per-bit
counters.  Each drained batch of frames is decoded and validated as arrays,
through the :func:`~repro.federated.wire.decode_batch_array` kernels, and
accepted reports live in arrays indexed by client id.

Distributed tracing: each ANNOUNCE carries the round's trace context (a
seed-derived ``trace_id`` plus the attempt's ``federated.round`` span id), the
fleet records ``fleet.*`` child spans against it, and after RESULT/ABORT each
connection ships them back in one TELEMETRY message.  The server remaps the span
ids, aligns client clocks using the HELLO handshake offset, stamps the spans
``remote``, and exports them through its own tracer -- one merged, causally
linked timeline per round, strictly off the uplink hot path.

Determinism: the server consumes its seeded generator exactly as the
in-process basic-mode round does -- one ``round.assign`` draw per attempt
and nothing else -- so a lossless served round is bit-identical to
``FederatedMeanQuery(mode="basic").run(population, rng=seed)`` on the same
values, and :func:`in_process_estimate` replays lossy/LDP rounds exactly.

Only transports live here: the server's announce and collect, and the twin's
fleet client code over in-memory reports.  :meth:`ServeConfig.query`'s basic
:class:`~repro.federated.server.FederatedMeanQuery` drives each round (spans,
assignment, retries, fold, privacy metering, reconstruction), so a served
round records and meters exactly like an in-process one.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Coroutine, Iterable, Sequence, TypeVar

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.core.results import MeanEstimate
from repro.core.sampling import BitSamplingSchedule
from repro.exceptions import ConfigurationError, ProtocolError, RoundFailedError
from repro.federated.fleet import (
    MAX_RANGE,
    ClientFleet,
    EmulationProfile,
    FleetResult,
    client_generator,
    range_bits,
    read_message,
)
from repro.federated.retry import RetryPolicy
from repro.federated.rounds import Answer, Attempt, Transport, run_to_completion
from repro.federated.server import FederatedMeanQuery
from repro.federated.wire import (
    FLAG_RANDOMIZED_RESPONSE,
    MSG_ABORT,
    MSG_ANNOUNCE,
    MSG_HELLO,
    MSG_REPORTS,
    MSG_RESULT,
    MSG_TELEMETRY,
    REPORT_SIZE,
    TraceContext,
    _frame_fields,
    _frame_validity,
    decode_report,
    decode_telemetry,
    encode_announce,
    encode_message,
    finite_number,
)
from repro.observability import DEFAULT_PHASE_BUCKETS, get_metrics, get_tracer
from repro.observability.tracing import SpanRecord
from repro.privacy.accountant import BitMeter, PrivacyAccountant
from repro.privacy.randomized_response import RandomizedResponse
from repro.rng import ensure_rng

__all__ = [
    "RoundServer",
    "ServeConfig",
    "ServeResult",
    "in_process_estimate",
    "round_trace_id",
    "run_coroutine",
    "run_loopback",
    "twin_transport",
]

_T = TypeVar("_T")

#: How long the server waits for the fleet's telemetry after broadcasting the
#: round outcome before sealing the artifact without it.
TELEMETRY_TIMEOUT_S = 5.0

#: ``uplink.reject`` reasons of the per-frame checks, indexed by reason code
#: (0 accepts); a frame gets the first that applies.
_FRAME_REASONS = (
    "", "frame", "spoofed-id", "assignment-mismatch", "flag-mismatch", "duplicate",
)


def round_trace_id(seed: int) -> str:
    """The round's deterministic trace id: a pure function of the seed.

    Sixteen hex characters derived from the server seed, so a re-run of the
    same configuration produces the same merged-trace identity (and sim-clock
    artifacts stay reproducible).  Every span on both sides of the wire for
    one served round shares this id.
    """
    return hashlib.sha256(f"bitpush-round-{int(seed)}".encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ServeConfig:
    """Everything one served round needs, JSON-able for manifests/announcements.

    Parameters
    ----------
    n_clients:
        Planned cohort size; wire client ids must fall in ``[0, n_clients)``.
    n_bits, scale, offset:
        The fixed-point encoding, shipped to clients in every ANNOUNCE so the
        fleet self-configures.
    epsilon:
        Client-side randomized response (``None`` disables; the server then
        rejects frames carrying the RR flag, and vice versa).
    seed:
        Server RNG seed (bit-assignment draws only).
    deadline_s:
        Wall-clock collection deadline per attempt; ``None`` waits until
        every registered client reported (only safe with a lossless fleet).
    registration_timeout_s:
        How long to wait for the full fleet to register before planning the
        round anyway (unregistered clients become dropouts).  When the
        window ends, every connection that has not sent HELLO is closed
        with a ``hello-timeout`` reject.
    min_quorum, retry:
        Round-failure semantics, exactly as on
        :class:`~repro.federated.server.FederatedMeanQuery`; retry backoff is
        simulated time (recorded, never slept).  A served retry re-contacts
        the registered fleet, so ``retry.redraw_cohort`` must be false.
    host, port:
        Bind address; port ``0`` picks an ephemeral port.

    Telemetry is always on: every ANNOUNCE carries the trace context.
    """

    n_clients: int
    n_bits: int = 10
    scale: float = 1.0
    offset: float = 0.0
    epsilon: float | None = None
    seed: int = 0
    deadline_s: float | None = 30.0
    registration_timeout_s: float = 30.0
    min_quorum: int = 1
    retry: RetryPolicy | None = None
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigurationError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.registration_timeout_s <= 0:
            raise ConfigurationError(
                f"registration_timeout_s must be positive, got {self.registration_timeout_s}"
            )
        if self.epsilon is not None:
            RandomizedResponse(self.epsilon)  # validates: positive and finite
        if self.retry is not None and self.retry.redraw_cohort:
            raise ConfigurationError(
                "a served retry re-contacts the registered fleet; "
                "use RetryPolicy(redraw_cohort=False)"
            )
        if self.min_quorum < 1:
            raise ConfigurationError(f"min_quorum must be >= 1, got {self.min_quorum}")
        FixedPointEncoder(n_bits=self.n_bits, scale=self.scale, offset=self.offset)  # validates

    @property
    def encoder(self) -> FixedPointEncoder:
        """The round's fixed-point encoder."""
        return FixedPointEncoder(n_bits=self.n_bits, scale=self.scale, offset=self.offset)

    @property
    def schedule(self) -> BitSamplingSchedule:
        """The Eq. 7 weighted schedule, matching the in-process basic default."""
        return BitSamplingSchedule.weighted(self.n_bits, alpha=1.0)

    def query(self) -> FederatedMeanQuery:
        """The basic query driving this round (built once per round): :attr:`schedule`,
        randomized response at ``epsilon``, this quorum and retry policy, a
        one-bit-per-value meter and a fresh accountant."""
        return FederatedMeanQuery(
            self.encoder, mode="basic",
            perturbation=None if self.epsilon is None else RandomizedResponse(self.epsilon),
            min_quorum=self.min_quorum, retry=self.retry,
            meter=BitMeter(max_bits_per_value=1), accountant=PrivacyAccountant(),
        )

    def to_manifest(self) -> dict:
        """JSON-ready projection for flight-recorder manifests."""
        return {
            "n_clients": self.n_clients,
            "n_bits": self.n_bits,
            "scale": self.scale,
            "offset": self.offset,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "deadline_s": self.deadline_s,
            "registration_timeout_s": self.registration_timeout_s,
            "min_quorum": self.min_quorum,
            "max_attempts": self.retry.max_attempts if self.retry else 1,
            "host": self.host,
            "port": self.port,
            "trace_id": round_trace_id(self.seed),
        }


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one served round (mirrors the in-process ``RoundOutcome``).

    ``accountant``/``meter``: one ledger entry per completed LDP attempt,
    one metered bit per accepted report.  ``registered_clients`` and
    ``telemetry_clients`` count clients; ``connections`` counts the fleet
    connections (client ranges) that registered them.
    """

    estimate: MeanEstimate
    planned_clients: int
    surviving_clients: int
    registered_clients: int
    connections: int
    attempts: int
    degraded: bool
    backoff_s: float
    wire_rejects: int
    late_reports: int
    duration_s: float
    port: int
    accountant: PrivacyAccountant
    meter: BitMeter
    telemetry_clients: int = 0
    remote_spans: int = 0

    @property
    def dropout_rate(self) -> float:
        if self.planned_clients == 0:
            return 0.0
        return 1.0 - self.surviving_clients / self.planned_clients


@dataclass(frozen=True)
class _Reports:
    """One attempt's accepted reports, as arrays indexed by client id."""

    accepted: np.ndarray
    bit_index: np.ndarray
    bit: np.ndarray

    @classmethod
    def empty(cls, n_clients: int) -> "_Reports":
        return cls(
            np.zeros(n_clients, dtype=bool),
            np.zeros(n_clients, dtype=np.int64),
            np.zeros(n_clients, dtype=np.uint8),
        )

    def accept(self, clients: Any, bit_index: Any, bit: Any) -> None:
        self.accepted[clients] = True
        self.bit_index[clients] = bit_index
        self.bit[clients] = bit


def _tally(
    attempt: Attempt, clients: np.ndarray, bit_index: np.ndarray, bits: np.ndarray,
    duration_s: float,
) -> Answer:
    """A served attempt's quorum verdict and per-bit tally (client ``clients[j]``
    reported bit ``bits[j]`` of index ``bit_index[j]``)."""
    attempt.check_quorum(clients.size)
    n_bits = attempt.query.encoder.n_bits
    counts = np.bincount(bit_index, minlength=n_bits)
    sums = np.bincount(bit_index, weights=bits, minlength=n_bits)
    return Answer(sums, counts, duration_s, clients.tolist())


class RoundServer:
    """One asyncio TCP server running one federated round over the fleet.

    Lifecycle: :meth:`start` binds (returning the port for a ``--port-file``
    rendezvous), :meth:`serve_round` registers the fleet and has the
    config's query drive the round over this server's TCP transport to a
    :class:`ServeResult` (or raises :class:`RoundFailedError` past the retry
    budget, after broadcasting ABORT), :meth:`close` closes every accepted
    connection and the listener.  Instrumentation flows through the
    process-wide tracer/metrics pair, so wrapping the round in
    ``instrumented(...)`` (or the ``serve`` CLI's flight recorder) captures
    the driver's ``federated.round``/``round.*``/``federated.reconstruct``
    spans, the ``serve.*``/``uplink.*`` spans and the reject/report counters.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.port: int | None = None
        self.trace_id = round_trace_id(config.seed)
        #: the attempt announced last (an ABORT names it).
        self._attempt = 0
        self._server: asyncio.AbstractServer | None = None
        #: every open accepted connection, registered or not (close() shuts all).
        self._connections: set[asyncio.StreamWriter] = set()
        #: session id -> (writer, peer) of connections yet to send HELLO.
        self._greeting: dict[int, tuple[asyncio.StreamWriter, str]] = {}
        #: False once the registration window closed: later connections are rejected.
        self._registering = True
        #: range's first id -> (clients in the range, writer).
        self._ranges: dict[int, tuple[int, asyncio.StreamWriter]] = {}
        #: client id -> first id of the range that registered it (-1: none).
        self._owner = np.full(config.n_clients, -1, dtype=np.int64)
        self._registered = 0
        #: (range's first id, seq, payload, the tracer's arrival wall time) per REPORTS.
        self._uplinks: asyncio.Queue[tuple[int, int, bytes, float]] = asyncio.Queue()
        self._telemetry_queue: asyncio.Queue[tuple[int, bytes]] = asyncio.Queue()
        self._all_registered = asyncio.Event()
        self._rejects = 0
        self._late = 0
        self._telemetry_rejects = 0
        self._telemetry_clients = 0
        self._remote_spans = 0
        #: range's first id -> (session id, peer host) for attribution.
        self._sessions: dict[int, tuple[int, str]] = {}
        self._session_counter = 0
        #: ranges whose connection handler is still alive (telemetry drain
        #: stops early once every surviving connection has hung up).
        self._live: set[int] = set()
        #: range's first id -> server_wall_at_HELLO - fleet_clock_in_HELLO;
        #: added to every remote span start so fleet timelines align with ours.
        self._clock_offsets: dict[int, float] = {}
        #: attempt -> that attempt's ``federated.round`` span id (remote
        #: ``fleet.round`` roots re-parent here on ingestion).
        self._attempt_spans: dict[int, int] = {}
        self._session_span_id: int | None = None

    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind the listener; returns the (possibly ephemeral) port."""
        # Backlog must cover the whole cohort: fleets connect simultaneously,
        # and a dropped SYN costs a full TCP retransmission timeout (~1 s).
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            backlog=max(128, self.config.n_clients),
        )
        self.port = int(self._server.sockets[0].getsockname()[1])
        return self.port

    async def close(self) -> None:
        """Close every accepted connection, registered or not, and the listener.

        Since Python 3.12.1 ``Server.wait_closed()`` waits for every open
        connection, so one silent peer left open would hang shutdown.
        """
        if self._server is not None:
            self._server.close()  # stop accepting before closing what was accepted
        while self._connections:  # one accepted just before the listener closed may land late
            writers, self._connections = self._connections, set()
            for writer in writers:
                writer.close()
            for writer in writers:
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):  # pragma: no cover - teardown race
                    pass
        self._ranges.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    def _attribution(self, client: int | None) -> dict[str, Any]:
        """Peer host + session id of the connection that registered ``client``."""
        if client is None or not 0 <= client < self.config.n_clients:
            return {}
        session = self._sessions.get(int(self._owner[client]))
        if session is None:
            return {}
        return {"session": session[0], "peer": session[1]}

    def _reject(
        self,
        client: int | None,
        reason: str,
        attempt: int,
        detail: str = "",
        peer: str | None = None,
        session: int | None = None,
        frames: int = 1,
    ) -> None:
        """Account ``frames`` rejected uplinks of one reason: counter + one ``uplink.reject`` span.

        Rejected frames never touch the per-bit counters -- the accounting
        here is the only trace they leave, so the span carries the peer
        host and session id that make the reject attributable in merged
        traces even when the claimed client id is spoofed or absent.
        """
        self._rejects += frames
        get_metrics().counter("wire_rejects_total").inc(frames)
        attributes: dict[str, Any] = {"reason": reason, "attempt": attempt, "frames": frames}
        if client is not None:
            attributes["client"] = client
        if detail:
            attributes["detail"] = detail
        attributes.update(self._attribution(client))
        if peer is not None:
            attributes["peer"] = peer
        if session is not None:
            attributes["session"] = session
        with get_tracer().span("uplink.reject", attributes):
            pass

    def _late_report(self, client: int, seq: int, attempt: int, frames: int) -> None:
        """Account one stale-attempt REPORTS message: one late report per frame."""
        self._late += frames
        get_metrics().counter("serve_late_reports_total").inc(frames)
        attributes: dict[str, Any] = {
            "client": client, "seq": seq, "attempt": attempt, "frames": frames,
        }
        attributes.update(self._attribution(client))
        with get_tracer().span("uplink.late", attributes):
            pass

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Register one connection's client range, then pump its uplinks into the queue."""
        get_metrics().counter("serve_connections_total").inc()
        self._session_counter += 1
        session = self._session_counter
        peername = writer.get_extra_info("peername")
        # The host only: the OS-assigned port would make records irreproducible.
        peer = str(peername[0] if isinstance(peername, (tuple, list)) else peername)
        self._connections.add(writer)
        lo: int | None = None
        try:
            if not self._registering:
                self._reject(None, "hello-timeout", 0, peer=peer, session=session)
                return
            self._greeting[session] = (writer, peer)
            try:
                kind, _seq, payload = await read_message(reader)
                if self._greeting.pop(session, None) is None:
                    return  # the registration window closed this connection
                if kind != MSG_HELLO:
                    raise ProtocolError(f"expected HELLO, got message kind {kind}")
                hello = json.loads(payload)
                client_id, k = hello["client_id"], hello.get("clients", 1)
                if not isinstance(client_id, int) or isinstance(client_id, bool):
                    raise ValueError(f"HELLO client_id must be an int, got {client_id!r}")
                if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_RANGE:
                    raise ValueError(f"HELLO clients must be an int in [1, {MAX_RANGE}], got {k!r}")
            except (ProtocolError, KeyError, TypeError, ValueError) as exc:
                self._reject(None, "hello", 0, str(exc), peer=peer, session=session)
                return
            if not 0 <= client_id <= self.config.n_clients - k:
                self._reject(client_id, "hello-id-range", 0, peer=peer, session=session)
                return
            if (self._owner[client_id:client_id + k] >= 0).any():
                self._reject(client_id, "hello-duplicate", 0, peer=peer, session=session)
                return
            lo = client_id
            self._owner[lo:lo + k] = lo
            self._ranges[lo] = (k, writer)
            self._sessions[lo] = (session, peer)
            self._registered += k
            self._live.add(lo)
            # Clock-skew anchor: the HELLO carries the fleet's wall clock;
            # paired with our receive time it aligns every remote span this
            # connection later uplinks.  A clock that is not a finite number
            # leaves the connection unanchored.
            clock_s = hello.get("clock_s")
            if finite_number(clock_s):
                self._clock_offsets[lo] = get_tracer().wall_time() - float(clock_s)
            if self._registered == self.config.n_clients:
                self._all_registered.set()
            while True:
                try:
                    kind, seq, payload = await read_message(reader)
                except ProtocolError as exc:
                    # Garbage at the message layer desynchronizes the stream:
                    # account it and drop the connection.
                    self._reject(lo, "message", 0, str(exc))
                    return
                if kind == MSG_TELEMETRY:
                    await self._telemetry_queue.put((lo, payload))
                    continue
                if kind != MSG_REPORTS:
                    self._reject(lo, "unexpected-kind", seq, f"kind {kind}")
                    continue
                await self._uplinks.put((lo, seq, payload, get_tracer().wall_time()))
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        finally:
            self._greeting.pop(session, None)
            if lo is not None:
                self._live.discard(lo)
            if lo is None or self._ranges.get(lo, (0, None))[1] is not writer:
                writer.close()
                self._connections.discard(writer)

    # ------------------------------------------------------------------
    async def _broadcast_announce(
        self, assignment: np.ndarray, attempt: int, parent_span_id: int = 0
    ) -> None:
        """Send each registered range its slice of this attempt's bit assignment."""
        cfg = self.config
        base = {
            "attempt": attempt,
            "n_bits": cfg.n_bits,
            "scale": cfg.scale,
            "offset": cfg.offset,
            "epsilon": cfg.epsilon,
            "deadline_s": cfg.deadline_s,
        }
        context = TraceContext(
            trace_id=self.trace_id,
            parent_span_id=parent_span_id,
            clock_s=get_tracer().wall_time(),
        )
        for lo, (k, writer) in list(self._ranges.items()):
            indices = int(assignment[lo]) if k == 1 else assignment[lo:lo + k].tolist()
            payload = dict(base, bit_index=indices)
            try:
                writer.write(
                    encode_message(MSG_ANNOUNCE, encode_announce(payload, context), seq=attempt)
                )
                await writer.drain()
            except (ConnectionError, OSError):  # client vanished mid-round
                continue

    async def _broadcast_control(self, kind: int, payload: dict, attempt: int) -> None:
        message = encode_message(kind, json.dumps(payload).encode(), seq=attempt)
        for _k, writer in list(self._ranges.values()):
            try:
                writer.write(message)
                await writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                continue

    # ------------------------------------------------------------------
    def _process_uplinks(
        self,
        batch: Sequence[tuple[int, int, bytes, float]],
        attempt: int,
        assignment: np.ndarray,
        reports: _Reports,
        accept_log: list[tuple[np.ndarray, float]],
    ) -> int:
        """Validate one drained batch of uplinks; accept survivors into ``reports``.

        Each REPORTS message first passes the per-message checks: a stale
        attempt counts its frames late, and a payload that is not 1 to ``k``
        whole frames (``k`` = its connection's range) is one ``frame-size``
        reject.  The frames of every other message then go through one
        structured ``frombuffer`` (the
        :func:`~repro.federated.wire.decode_batch_array` kernels) and get one
        reason code each, in the order of :data:`_FRAME_REASONS`: ``frame``,
        ``spoofed-id`` (the claimed id lies outside the connection's range),
        ``assignment-mismatch``, ``flag-mismatch``, ``duplicate`` (already
        accepted, or repeated within the batch).  The rejected frames of one
        message and reason are one ``uplink.reject`` span counting their
        ``frames``, with the first one's client and its scalar
        :func:`decode_report` message as the detail.  Returns the number of
        reports accepted.

        ``accept_log`` collects ``(arrival_wall_s, drained_wall_s)`` per
        batch when tracing is live: the accepted reports' arrival times and
        one wall read per *batch*.
        """
        owners: list[int] = []
        sizes: list[int] = []
        counts: list[int] = []
        payloads: list[bytes] = []
        arrivals: list[float] = []
        for lo, seq, payload, arrival_s in batch:
            k = self._ranges[lo][0]
            frames, partial = divmod(len(payload), REPORT_SIZE)
            well_sized = not partial and 1 <= frames <= k
            if seq != attempt:
                self._late_report(lo, seq, attempt, frames if well_sized else 1)
                continue
            if not well_sized:
                shape = (
                    f"one {REPORT_SIZE}-byte frame"
                    if k == 1
                    else f"1 to {k} whole {REPORT_SIZE}-byte frames"
                )
                self._reject(
                    lo, "frame-size", attempt, f"uplink of {len(payload)} bytes is not {shape}"
                )
                continue
            owners.append(lo)
            sizes.append(k)
            counts.append(frames)
            payloads.append(payload)
            arrivals.append(arrival_s)
        if not payloads:
            return 0
        tracer = get_tracer()
        drained_s = tracer.wall_time()
        with tracer.span(
            "uplink.drain",
            {"uplinks": len(payloads), "frames": sum(counts), "attempt": attempt},
        ):
            data = b"".join(payloads)
            fields = _frame_fields(data)
            lo = np.repeat(np.asarray(owners, dtype=np.uint64), counts)
            hi = lo + np.repeat(np.asarray(sizes, dtype=np.uint64), counts)
            claimed = fields["client_id"]
            in_range = (claimed >= lo) & (claimed < hi)
            clients = np.where(in_range, claimed, lo).astype(np.int64)
            bit_index = fields["bit_index"].astype(np.int64)
            randomized = (fields["flags"] & FLAG_RANDOMIZED_RESPONSE) != 0
            rr_expected = self.config.epsilon is not None
            code = np.select(
                [
                    ~_frame_validity(fields),
                    ~in_range,
                    bit_index != assignment[clients],
                    randomized != rr_expected,
                ],
                [1, 2, 3, 4],
                0,
            )
            candidates = np.flatnonzero(code == 0)
            _unique, first = np.unique(clients[candidates], return_index=True)
            repeated = np.ones(candidates.size, dtype=bool)
            repeated[first] = False
            code[candidates[repeated | reports.accepted[clients[candidates]]]] = 5
            accept = np.flatnonzero(code == 0)
            reports.accept(clients[accept], bit_index[accept], fields["bit"][accept])
            if tracer.enabled and accept.size:
                arrival_s = np.repeat(np.asarray(arrivals, dtype=np.float64), counts)
                accept_log.append((arrival_s[accept], drained_s))
            rejected = np.flatnonzero(code)
            if rejected.size:
                message = np.repeat(np.arange(len(counts)), counts)[rejected]
                group = message * len(_FRAME_REASONS) + code[rejected]
                _groups, head, size = np.unique(group, return_index=True, return_counts=True)
                for i, frames in zip(rejected[head].tolist(), size.tolist()):
                    reason = _FRAME_REASONS[code[i]]
                    client = int(clients[i])
                    if reason == "frame":
                        try:
                            decode_report(data[i * REPORT_SIZE:(i + 1) * REPORT_SIZE])
                            detail = "invalid frame"  # pragma: no cover - decode raises
                        except ProtocolError as exc:
                            detail = str(exc)
                    elif reason == "spoofed-id":
                        detail = f"frame claims client {int(claimed[i])}"
                    elif reason == "assignment-mismatch":
                        detail = f"reported bit {bit_index[i]}, assigned {int(assignment[client])}"
                    elif reason == "flag-mismatch":
                        detail = f"randomized_response={randomized[i]}, expected {rr_expected}"
                    else:
                        detail = ""
                    self._reject(client, reason, attempt, detail, frames=frames)
        return int(accept.size)

    async def _collect(
        self, attempt: int, assignment: np.ndarray
    ) -> tuple[_Reports, float, list[tuple[np.ndarray, float]]]:
        """Collect uplinks until every registered client reported or the deadline.

        The deadline reads the event loop's clock, the recorded duration the tracer's.
        """
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        reports = _Reports.empty(self.config.n_clients)
        accepted = 0
        accept_log: list[tuple[np.ndarray, float]] = []
        expected = self._registered
        start = tracer.now()
        deadline = None if self.config.deadline_s is None else loop.time() + self.config.deadline_s
        with tracer.span(
            "serve.collect",
            {"attempt": attempt, "expected": expected, "deadline_s": self.config.deadline_s},
        ) as span:
            while accepted < expected:
                timeout = None if deadline is None else deadline - loop.time()
                if timeout is not None and timeout <= 0:
                    break
                try:
                    first = await asyncio.wait_for(self._uplinks.get(), timeout)
                except asyncio.TimeoutError:
                    break
                batch = [first]
                while not self._uplinks.empty():
                    batch.append(self._uplinks.get_nowait())
                accepted += self._process_uplinks(batch, attempt, assignment, reports, accept_log)
            duration = tracer.now() - start
            span.set_attribute("accepted", accepted)
            span.set_attribute("duration_s", duration)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("serve_reports_total").inc(accepted)
            metrics.histogram("serve_collect_duration_s").observe(duration)
            if duration > 0:
                metrics.gauge("serve_reports_per_s").set(accepted / duration)
        return reports, duration, accept_log

    # ------------------------------------------------------------------
    @staticmethod
    def _record_uplink_timings(
        attempt: Attempt, announce_wall: float, accept_log: list[tuple[np.ndarray, float]]
    ) -> None:
        """One attempt's per-report wire timings: two histograms + straggler stats.

        Each accepted report's RTT (ANNOUNCE to the arrival of its REPORTS
        message) and queue delay (arrival to the drain that decoded it) go
        into the ``serve_uplink_rtt_s`` and ``serve_uplink_queue_delay_s``
        histograms on :data:`DEFAULT_PHASE_BUCKETS`, so the record does not
        grow with the cohort.  The attempt's ``federated.round`` span gains
        the exact median / slowest-decile RTT that the ``straggler-skew``
        health rule reads.
        """
        if not accept_log:
            return
        arrival_s = np.concatenate([arrival for arrival, _drained in accept_log])
        queue_delay_s = np.concatenate([drained - arrival for arrival, drained in accept_log])
        latencies = arrival_s - announce_wall
        metrics = get_metrics()
        metrics.histogram("serve_uplink_rtt_s", DEFAULT_PHASE_BUCKETS).observe_array(latencies)
        metrics.histogram("serve_uplink_queue_delay_s", DEFAULT_PHASE_BUCKETS).observe_array(
            queue_delay_s
        )
        latencies.sort()
        slowest = latencies[-max(1, latencies.size // 10):]
        attempt.span.set_attribute("uplink_median_s", float(np.median(latencies)))
        attempt.span.set_attribute("uplink_slow_decile_s", float(slowest.mean()))

    # ------------------------------------------------------------------
    async def _drain_telemetry(self, attempt: int) -> None:
        """Ingest the fleet's TELEMETRY messages after the round outcome.

        Strictly off the uplink hot path: runs once, after RESULT/ABORT has
        been broadcast.  Waits up to :data:`TELEMETRY_TIMEOUT_S` for one message
        per registered connection, but gives up early once every surviving
        connection has hung up -- an old (pre-tracing) fleet costs one poll
        interval, not the full timeout.
        """
        expected = len(self._ranges)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + TELEMETRY_TIMEOUT_S
        with get_tracer().span(
            "serve.telemetry", {"attempt": attempt, "expected": expected}
        ) as span:
            received = 0
            while received < expected:
                try:
                    lo, payload = self._telemetry_queue.get_nowait()
                except asyncio.QueueEmpty:
                    if loop.time() >= deadline:
                        break
                    if not self._live:
                        break  # every connection hung up; nothing more is coming
                    try:
                        lo, payload = await asyncio.wait_for(self._telemetry_queue.get(), 0.05)
                    except asyncio.TimeoutError:
                        continue
                received += 1
                self._ingest_telemetry(lo, payload)
            span.set_attribute("received", received)
            span.set_attribute("ingested_clients", self._telemetry_clients)
            span.set_attribute("remote_spans", self._remote_spans)
            span.set_attribute("rejects", self._telemetry_rejects)

    def _reject_telemetry(self, client_id: int, detail: str) -> None:
        self._telemetry_rejects += 1
        get_metrics().counter("telemetry_rejects_total").inc()
        attributes: dict[str, Any] = {"client": client_id, "detail": detail}
        attributes.update(self._attribution(client_id))
        with get_tracer().span("telemetry.reject", attributes):
            pass

    def _ingest_telemetry(self, client_id: int, payload: bytes) -> None:
        """Fold one connection's telemetry into the tracer and metrics registry.

        ``client_id`` is the first id of the connection's range, and the
        message covers the range's ``k`` clients.  Remote spans are remapped
        into the server tracer's id space, clock-aligned with the
        connection's HELLO-derived offset, re-parented under the attempt's
        ``federated.round`` span (roots) and stamped ``remote`` with the range's
        ``client`` and ``clients`` -- then exported through the normal
        fan-out, so the flight recorder captures the whole fleet.  Any defect
        rejects the payload without touching the round.
        """
        try:
            telemetry = decode_telemetry(payload)
        except ProtocolError as exc:
            self._reject_telemetry(client_id, str(exc))
            return
        if telemetry.client_id != client_id:
            self._reject_telemetry(
                client_id,
                f"telemetry claims client {telemetry.client_id}, sent by {client_id}",
            )
            return
        offset = self._clock_offsets.get(client_id, 0.0)
        starts = [float(span["start_time_s"]) + offset for span in telemetry.spans]
        if not all(map(math.isfinite, starts)):
            self._reject_telemetry(client_id, "a span start is not finite on the server clock")
            return
        metrics = get_metrics()
        if telemetry.metrics and metrics.enabled:
            try:
                metrics.merge_snapshot(telemetry.metrics)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                self._reject_telemetry(client_id, f"unmergeable metrics: {exc}")
                return
        k = self._ranges.get(client_id, (1, None))[0]
        tracer = get_tracer()
        if tracer.enabled and telemetry.spans:
            id_map = {
                span["span_id"]: tracer.next_span_id() for span in telemetry.spans
            }
            attribution = self._attribution(client_id)
            for span, start in zip(telemetry.spans, starts):
                local_parent = span.get("parent_id")
                if local_parent is None:
                    attempt = span.get("attributes", {}).get("attempt")
                    parent = self._attempt_spans.get(attempt, self._session_span_id)
                else:
                    parent = id_map.get(local_parent, self._session_span_id)
                attributes = dict(span.get("attributes", {}))
                attributes.update(attribution)
                attributes.update(
                    {"remote": True, "client": client_id, "clients": k, "trace_id": self.trace_id}
                )
                tracer.ingest(
                    SpanRecord(
                        name=str(span["name"]),
                        span_id=id_map[span["span_id"]],
                        parent_id=parent,
                        start_time_s=start,
                        duration_s=float(span["duration_s"]),
                        status=str(span.get("status", "ok")),
                        attributes=attributes,
                    )
                )
            self._remote_spans += len(telemetry.spans)
            if metrics.enabled:
                metrics.counter("serve_telemetry_spans_total").inc(len(telemetry.spans))
        self._telemetry_clients += k
        if metrics.enabled:
            metrics.counter("serve_telemetry_clients_total").inc(k)

    # ------------------------------------------------------------------
    async def serve_round(self) -> ServeResult:
        """Register the fleet, then have the config's query drive the round over TCP."""
        cfg = self.config
        tracer = get_tracer()
        n = cfg.n_clients
        with tracer.span(
            "serve.session",
            {
                "n_clients": n,
                "n_bits": cfg.n_bits,
                "epsilon": cfg.epsilon,
                "trace_id": self.trace_id,
            },
        ) as session_span:
            self._session_span_id = getattr(session_span, "span_id", None)
            with tracer.span(
                "serve.registration",
                {"expected": n, "timeout_s": cfg.registration_timeout_s},
            ) as reg_span:
                try:
                    await asyncio.wait_for(
                        self._all_registered.wait(), cfg.registration_timeout_s
                    )
                except asyncio.TimeoutError:
                    pass
                # The window is over: a connection still silent never joins,
                # and neither does one opened from now on.
                self._registering = False
                for session, (writer, peer) in self._greeting.items():
                    self._reject(None, "hello-timeout", 0, peer=peer, session=session)
                    writer.close()
                self._greeting.clear()
                registered, connections = self._registered, len(self._ranges)
                reg_span.set_attribute("registered", registered)
                reg_span.set_attribute("connections", connections)
            session_span.set_attribute("registered", registered)

            query = cfg.query()
            tcp = Transport(self._run_attempt, "federated-served", lambda: {
                "secure_aggregation": False, "elicitation": "single", "served": True,
                "transport": "tcp", "wire_rejects": self._rejects, "late_reports": self._late,
                "trace_id": self.trace_id,
            })
            try:
                estimate, (outcome,) = await query.drive(np.arange(n), ensure_rng(cfg.seed), tcp)
            except RoundFailedError as exc:
                await self._broadcast_control(
                    MSG_ABORT, {"reason": str(exc), "attempt": self._attempt}, self._attempt
                )
                # Best-effort: an aborted round's artifact still deserves
                # the fleet's side of the story.
                await self._drain_telemetry(self._attempt)
                raise
            await self._broadcast_control(
                MSG_RESULT,
                {
                    "estimate": float(estimate.value),
                    "attempt": outcome.attempts,
                    "survivors": outcome.surviving_clients,
                },
                outcome.attempts,
            )
            await self._drain_telemetry(outcome.attempts)
            session_span.set_attribute("estimate", float(estimate.value))
            session_span.set_attribute("attempts", outcome.attempts)
            session_span.set_attribute("wire_rejects", self._rejects)
            session_span.set_attribute("telemetry_clients", self._telemetry_clients)
            session_span.set_attribute("remote_spans", self._remote_spans)
            return ServeResult(
                estimate=estimate,
                planned_clients=n,
                surviving_clients=outcome.surviving_clients,
                registered_clients=registered,
                connections=connections,
                attempts=outcome.attempts,
                degraded=outcome.degraded,
                backoff_s=outcome.backoff_s,
                wire_rejects=self._rejects,
                late_reports=self._late,
                duration_s=outcome.round_duration_s,
                port=self.port or 0,
                accountant=query.accountant,
                meter=query.meter,
                telemetry_clients=self._telemetry_clients,
                remote_spans=self._remote_spans,
            )

    async def _run_attempt(
        self, attempt: Attempt, clients: np.ndarray, assignment: np.ndarray
    ) -> Answer:
        """The TCP transport: announce, collect, tally.

        Every registered range gets its slice of the assignment, so
        ``clients`` is the whole cohort, ``arange(n_clients)``.
        """
        tracer, number = get_tracer(), attempt.number
        self._attempt = number
        span_id = getattr(attempt.span, "span_id", None)
        if span_id is not None:
            self._attempt_spans[number] = span_id
        with tracer.span(
            "serve.announce",
            {"clients": self._registered, "connections": len(self._ranges), "attempt": number},
        ):
            announce_wall = tracer.wall_time()
            await self._broadcast_announce(assignment, number, parent_span_id=span_id or 0)
        reports, duration, accept_log = await self._collect(number, assignment)
        self._record_uplink_timings(attempt, announce_wall, accept_log)
        accepted = np.flatnonzero(reports.accepted)
        return _tally(
            attempt, accepted, reports.bit_index[accepted], reports.bit[accepted], duration
        )


# ----------------------------------------------------------------------
def in_process_estimate(
    values: Sequence[float],
    config: ServeConfig,
    profile: EmulationProfile | None = None,
    fleet_seed: int = 0,
    corrupted: Iterable[int] = (),
) -> MeanEstimate:
    """The served round's deterministic in-process twin: :class:`RoundServer`'s round
    over :func:`twin_transport` instead of TCP.

    The config's query draws, folds, retries and records the same, and
    raises :class:`RoundFailedError` when no attempt reaches quorum.  With
    no profile, no corruption and no ``epsilon`` the estimate also equals
    the in-memory ``FederatedMeanQuery(encoder, mode="basic").run`` over
    single-valued clients at ``rng=config.seed``.
    """
    twin = twin_transport(values, config, profile, fleet_seed, corrupted)
    cohort = np.arange(config.n_clients)
    return run_to_completion(config.query().drive(cohort, ensure_rng(config.seed), twin))[0]


def twin_transport(
    values: Sequence[float], config: ServeConfig, profile: EmulationProfile | None = None,
    fleet_seed: int = 0, corrupted: Iterable[int] = (),
) -> Transport:
    """The served round's clients as an in-memory transport, for any driver.

    Each attempt runs the fleet's client code for the client ids it is
    handed: :func:`~repro.federated.fleet.range_bits` at ``config.epsilon``,
    then each client's uplink fate from ``profile``, both drawn from client
    ``i``'s own ``client_generator(fleet_seed, i)`` (built once, and only
    when the round draws).  ``corrupted`` names clients whose uplinks the
    server always rejects (their draws still advance); ids outside
    ``[0, n_clients)`` name no client.
    """
    vals = np.asarray(values, dtype=np.float64)
    n = config.n_clients
    if vals.size != n:
        raise ConfigurationError(f"{vals.size} values for a {n}-client round")
    encoder = config.encoder
    draws = config.epsilon is not None or profile is not None
    client_gens = [client_generator(fleet_seed, i) for i in range(n)] if draws else []
    rejected = np.isin(np.arange(n), [int(c) for c in corrupted])

    async def answer(attempt: Attempt, clients: np.ndarray, assignment: np.ndarray) -> Answer:
        gens = [client_gens[i] for i in clients.tolist()] if draws else []
        bits = range_bits(vals[clients], assignment, encoder, config.epsilon, gens)
        delivered = ~rejected[clients]
        if profile is not None:
            delivered &= np.fromiter((profile.draw(g)[0] for g in gens), bool, clients.size)
        return _tally(attempt, clients[delivered], assignment[delivered], bits[delivered], 0.0)

    return Transport(answer, "federated-served-twin", lambda: {"served": False})


# ----------------------------------------------------------------------
async def _loopback(
    config: ServeConfig,
    values: Sequence[float],
    profile: EmulationProfile | None,
    fleet_seed: int,
    mutate,
    clock_factory=None,
) -> tuple[ServeResult, FleetResult]:
    server = RoundServer(config)
    port = await server.start()
    fleet = ClientFleet(
        values,
        seed=fleet_seed,
        profile=profile,
        mutate=mutate,
        clock_factory=clock_factory,
    )
    fleet_task = asyncio.create_task(fleet.run(config.host, port))
    try:
        serve_result = await server.serve_round()
    except BaseException:
        fleet_task.cancel()
        try:
            await fleet_task
        except (asyncio.CancelledError, Exception):
            pass
        await server.close()
        raise
    fleet_result = await fleet_task
    await server.close()
    return serve_result, fleet_result


def run_loopback(
    config: ServeConfig,
    values: Sequence[float],
    profile: EmulationProfile | None = None,
    fleet_seed: int = 0,
    mutate=None,
    clock_factory=None,
) -> tuple[ServeResult, FleetResult]:
    """Run server + fleet in one event loop on the loopback interface.

    The workhorse for tests, the demo script, and the served-throughput
    benchmarks: every report still crosses a real TCP socket and the full
    wire protocol, but setup/teardown is a single call.  ``clock_factory``
    is forwarded to the fleet (deterministic client-side telemetry clocks).
    """
    return run_coroutine(_loopback(config, values, profile, fleet_seed, mutate, clock_factory))


def run_coroutine(coro: Coroutine[Any, Any, _T]) -> _T:
    """``asyncio.run(coro)``, with the result passed back through a local.

    On Python 3.11 and 3.12, ``asyncio.run`` restores the SIGINT handler
    through ``signal.getsignal``, which fails an enum lookup on the runner's
    ``functools.partial`` and builds a ``ValueError`` message holding the
    finished main task's repr -- and with it ``reprlib.repr`` of the task's
    result, which calls a dataclass ``__repr__`` in full before truncating.
    A main task that returns ``None`` keeps that message cheap.
    """
    box: list[_T] = []

    async def main() -> None:
        box.append(await coro)

    asyncio.run(main())
    return box[0]
