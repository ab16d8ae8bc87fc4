"""Asyncio round server: federated rounds over real wire-protocol sockets.

This is the step that turns "simulation" into "system" (ROADMAP item 3): the
same round state machine :class:`~repro.federated.server.FederatedMeanQuery`
drives in-process -- cohort announcement, report collection under a deadline,
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
accounting (``wire_rejects_total``, ``uplink.reject``/``uplink.late`` spans,
each carrying the peer address and session id of its connection) and never
folded into the per-bit counters.  Each drained batch of frames is decoded
and validated as arrays, through the
:func:`~repro.federated.wire.decode_batch_array` kernels, and accepted
reports live in arrays indexed by client id.

Distributed tracing: each ANNOUNCE carries the round's trace context (a
seed-derived ``trace_id`` plus the attempt's ``serve.round`` span id), the
fleet records ``fleet.*`` child spans against it, and after RESULT/ABORT each
connection ships them back in one TELEMETRY message.  The server remaps the span
ids, aligns client clocks using the HELLO handshake offset, stamps the spans
``remote``, and exports them through its own tracer -- one merged, causally
linked timeline per round, strictly off the uplink hot path.

Determinism: the server consumes its seeded generator exactly as the
in-process basic-mode round does -- one :func:`central_assignment` draw per
attempt and nothing else -- so a lossless served round is bit-identical to
``FederatedMeanQuery(mode="basic").run(population, rng=seed)`` on the same
values, and :func:`in_process_estimate` replays lossy/LDP rounds exactly.

Only announce and collect live here; retries, quorum, fold, privacy
metering and reconstruction are the round core
(:mod:`repro.federated.rounds`), which the twin runs over in-memory reports.
So a served round meters exactly like an in-process one.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Coroutine, Iterable, Sequence, TypeVar

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.core.results import MeanEstimate
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.exceptions import ConfigurationError, ProtocolError, RoundFailedError
from repro.federated.fleet import (
    MAX_RANGE,
    ClientFleet,
    EmulationProfile,
    FleetResult,
    read_message,
    report_bit,
)
from repro.federated.retry import RetryPolicy
from repro.federated.rounds import AttemptLoop, RoundCore, RoundOutcome
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
)
from repro.observability import get_metrics, get_tracer
from repro.observability.tracing import NullSpan, SpanRecord
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
    min_quorum, degraded_fraction, retry:
        Round-failure semantics, exactly as on
        :class:`~repro.federated.server.FederatedMeanQuery`; retry backoff is
        simulated time (recorded, never slept).
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
    degraded_fraction: float = 0.5
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
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        _served_core(self)  # validates the encoding and the round policy eagerly

    @property
    def encoder(self) -> FixedPointEncoder:
        """The round's fixed-point encoder."""
        return FixedPointEncoder(n_bits=self.n_bits, scale=self.scale, offset=self.offset)

    @property
    def schedule(self) -> BitSamplingSchedule:
        """The Eq. 7 weighted schedule, matching the in-process basic default."""
        return BitSamplingSchedule.weighted(self.n_bits, alpha=1.0)

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
            "degraded_fraction": self.degraded_fraction,
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


def _zero_clock() -> float:
    return 0.0


def _served_core(config: ServeConfig) -> RoundCore:
    """A served round's core: always metered, one bit per client and value."""
    return RoundCore(
        config.encoder,
        perturbation=None if config.epsilon is None else RandomizedResponse(config.epsilon),
        min_quorum=config.min_quorum, degraded_fraction=config.degraded_fraction,
        retry=config.retry, meter=BitMeter(max_bits_per_value=1), accountant=PrivacyAccountant(),
    )


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


def _fold_reports(
    core: RoundCore, span: Any, config: ServeConfig, attempt: int,
    reports: _Reports, duration_s: float,
) -> RoundOutcome:
    """One served attempt's quorum verdict and fold over its accepted reports."""
    n = config.n_clients
    clients = np.flatnonzero(reports.accepted)
    core.check_quorum(span, n, clients.size, 1, attempt)
    bit_index = reports.bit_index[clients]
    counts = np.bincount(bit_index, minlength=config.n_bits)
    sums = np.bincount(bit_index, weights=reports.bit[clients], minlength=config.n_bits)
    return core.fold(
        span, sums, counts, config.schedule.probabilities, n, duration_s, 1, attempt,
        client_ids=clients.tolist(),
    )


class RoundServer:
    """One asyncio TCP server running one federated round over the fleet.

    Lifecycle: :meth:`start` binds (returning the port for a ``--port-file``
    rendezvous), :meth:`serve_round` registers the fleet and drives the
    attempt loop to a :class:`ServeResult` (or raises
    :class:`RoundFailedError` past the retry budget, after broadcasting
    ABORT), :meth:`close` closes every accepted connection and the listener.
    ``core`` is the round's :class:`~repro.federated.rounds.RoundCore`, with
    its own accountant and one-bit-per-value meter.  Instrumentation flows
    through the process-wide tracer/metrics pair, so wrapping the round in
    ``instrumented(...)`` (or the ``serve`` CLI's flight recorder) captures
    ``serve.*``/``uplink.*`` spans and the reject/report counters.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.port: int | None = None
        self.trace_id = round_trace_id(config.seed)
        self.core = _served_core(config)
        self._server: asyncio.AbstractServer | None = None
        #: every open accepted connection, registered or not (close() shuts all).
        self._connections: set[asyncio.StreamWriter] = set()
        #: session id -> (writer, peer) of connections yet to send HELLO.
        self._greeting: dict[int, tuple[asyncio.StreamWriter, str]] = {}
        #: range's first id -> (clients in the range, writer).
        self._ranges: dict[int, tuple[int, asyncio.StreamWriter]] = {}
        #: client id -> first id of the range that registered it (-1: none).
        self._owner = np.full(config.n_clients, -1, dtype=np.int64)
        self._registered = 0
        #: (range's first id, seq, payload, arrival wall time) per REPORTS.
        self._uplinks: asyncio.Queue[tuple[int, int, bytes, float]] = asyncio.Queue()
        self._telemetry_queue: asyncio.Queue[tuple[int, bytes]] = asyncio.Queue()
        self._all_registered = asyncio.Event()
        self._rejects = 0
        self._late = 0
        self._telemetry_rejects = 0
        self._telemetry_clients = 0
        self._remote_spans = 0
        #: range's first id -> (session id, "host:port" peer) for attribution.
        self._sessions: dict[int, tuple[int, str]] = {}
        self._session_counter = 0
        #: ranges whose connection handler is still alive (telemetry drain
        #: stops early once every surviving connection has hung up).
        self._live: set[int] = set()
        #: range's first id -> server_wall_at_HELLO - fleet_clock_in_HELLO;
        #: added to every remote span start so fleet timelines align with ours.
        self._clock_offsets: dict[int, float] = {}
        #: attempt -> that attempt's ``serve.round`` span id (remote
        #: ``fleet.round`` roots re-parent here on ingestion).
        self._attempt_spans: dict[int, int] = {}
        self._session_span_id: int | None = None
        # Wall clock stamped on each queued uplink; a bound tracer clock when
        # tracing is live, else a constant -- the hot path never pays a
        # syscall for timing nobody will read.
        self._arrival_clock: Any = _zero_clock

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
    def _wall_now(self) -> float:
        """One wall-clock reading consistent with recorded span timestamps."""
        tracer = get_tracer()
        return tracer.wall_time() if tracer.enabled else time.time()

    def _attribution(self, client: int | None) -> dict[str, Any]:
        """Peer address + session id of the connection that registered ``client``."""
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
    ) -> None:
        """Account one rejected uplink: counter + an ``uplink.reject`` span.

        Rejected frames never touch the per-bit counters -- the accounting
        here is the only trace they leave, so the span carries the peer
        address and session id that make the reject attributable in merged
        traces even when the claimed client id is spoofed or absent.
        """
        self._rejects += 1
        get_metrics().counter("wire_rejects_total").inc()
        attributes: dict[str, Any] = {"reason": reason, "attempt": attempt}
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
        peer = (
            f"{peername[0]}:{peername[1]}"
            if isinstance(peername, (tuple, list)) and len(peername) >= 2
            else str(peername)
        )
        self._connections.add(writer)
        self._greeting[session] = (writer, peer)
        lo: int | None = None
        try:
            try:
                kind, _seq, payload = await read_message(reader)
                if self._greeting.pop(session, None) is None:
                    return  # the registration window closed this connection
                if kind != MSG_HELLO:
                    raise ProtocolError(f"expected HELLO, got message kind {kind}")
                hello = json.loads(payload)
                client_id = int(hello["client_id"])
                k = hello.get("clients", 1)
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
            # connection later uplinks.  Only read the clock when someone will
            # consume the offset (a live tracer).
            tracer = get_tracer()
            if tracer.enabled:
                clock_s = hello.get("clock_s")
                if isinstance(clock_s, (int, float)) and not isinstance(clock_s, bool):
                    self._clock_offsets[lo] = tracer.wall_time() - float(clock_s)
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
                await self._uplinks.put((lo, seq, payload, self._arrival_clock()))
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
            clock_s=self._wall_now(),
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
        accept_log: list[tuple[np.ndarray, np.ndarray, float]],
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
        accepted, or repeated within the batch).  Only rejected frames pay a
        Python loop, for their spans and their scalar :func:`decode_report`
        messages.  Returns the number of reports accepted.

        ``accept_log`` collects ``(clients, arrival_wall_s, drained_wall_s)``
        arrays per batch when tracing is live -- one wall read per *batch*;
        the timing spans are emitted once per attempt, never per uplink.
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
        drained_s = tracer.wall_time() if tracer.enabled else 0.0
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
                accept_log.append((clients[accept], arrival_s[accept], drained_s))
            for i in np.flatnonzero(code).tolist():
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
                    detail = f"randomized_response={bool(randomized[i])}, expected {rr_expected}"
                else:
                    detail = ""
                self._reject(client, reason, attempt, detail)
        return int(accept.size)

    async def _collect(
        self, attempt: int, assignment: np.ndarray
    ) -> tuple[_Reports, float, list[tuple[np.ndarray, np.ndarray, float]]]:
        """Collect uplinks until every registered client reported or the deadline."""
        loop = asyncio.get_running_loop()
        reports = _Reports.empty(self.config.n_clients)
        accepted = 0
        accept_log: list[tuple[np.ndarray, np.ndarray, float]] = []
        expected = self._registered
        start = loop.time()
        deadline = None if self.config.deadline_s is None else start + self.config.deadline_s
        with get_tracer().span(
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
            duration = loop.time() - start
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
    def _record_uplink_timings(
        self,
        attempt: int,
        announce_wall: float,
        accept_log: list[tuple[np.ndarray, np.ndarray, float]],
        round_span: Any,
    ) -> None:
        """One ``serve.uplink_timings`` span per attempt + straggler stats.

        The per-report arrival and queue-delay samples ride as index-aligned
        arrays on a single span (never a span per uplink), and the attempt's
        ``serve.round`` span gains the median / slowest-decile uplink latency
        attributes the ``straggler-skew`` health rule and the report's
        wire-latency section read.
        """
        tracer = get_tracer()
        if not tracer.enabled or not accept_log:
            return
        clients = np.concatenate([ids for ids, _a, _d in accept_log])
        arrival_s = np.concatenate([arrival for _i, arrival, _d in accept_log])
        queue_delay_s = np.concatenate([drained - arrival for _i, arrival, drained in accept_log])
        with tracer.span(
            "serve.uplink_timings",
            {
                "attempt": attempt,
                "announce_s": announce_wall,
                "clients": clients.tolist(),
                "arrival_s": arrival_s.tolist(),
                "queue_delay_s": queue_delay_s.tolist(),
            },
        ):
            pass
        latencies = arrival_s - announce_wall
        latencies.sort()
        slowest = latencies[-max(1, latencies.size // 10):]
        round_span.set_attribute("uplink_median_s", float(np.median(latencies)))
        round_span.set_attribute("uplink_slow_decile_s", float(slowest.mean()))

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
        ``serve.round`` span (roots) and stamped ``remote`` with the range's
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
            offset = self._clock_offsets.get(client_id, 0.0)
            id_map = {
                span["span_id"]: tracer.next_span_id() for span in telemetry.spans
            }
            attribution = self._attribution(client_id)
            for span in telemetry.spans:
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
                        start_time_s=float(span["start_time_s"]) + offset,
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
        """Run the full round state machine against the connected fleet."""
        cfg = self.config
        tracer = get_tracer()
        gen = ensure_rng(cfg.seed)
        n = cfg.n_clients
        if tracer.enabled:
            self._arrival_clock = tracer.wall_time
        with tracer.span(
            "serve.session",
            {
                "n_clients": n,
                "n_bits": cfg.n_bits,
                "epsilon": cfg.epsilon,
                "port": self.port,
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
                # The window is over: a connection still silent never joins.
                for session, (writer, peer) in self._greeting.items():
                    self._reject(None, "hello-timeout", 0, peer=peer, session=session)
                    writer.close()
                self._greeting.clear()
                registered, connections = self._registered, len(self._ranges)
                reg_span.set_attribute("registered", registered)
                reg_span.set_attribute("connections", connections)
            session_span.set_attribute("registered", registered)

            attempts = AttemptLoop(self.core)
            while True:
                try:
                    outcome = await self._run_attempt(gen, attempts.attempt)
                except RoundFailedError as exc:
                    if attempts.retry_after(exc):
                        continue
                    await self._broadcast_control(
                        MSG_ABORT,
                        {"reason": str(exc), "attempt": attempts.attempt},
                        attempts.attempt,
                    )
                    # Best-effort: an aborted round's artifact still
                    # deserves the fleet's side of the story.
                    await self._drain_telemetry(attempts.attempt)
                    raise
                break
            outcome = attempts.complete(outcome)
            estimate = self.core.reconstruct(
                "serve.reconstruct", [outcome], n, "federated-served",
                {
                    "secure_aggregation": False,
                    "elicitation": "single",
                    "served": True,
                    "transport": "tcp",
                    "port": self.port,
                    "wire_rejects": self._rejects,
                    "late_reports": self._late,
                    "trace_id": self.trace_id,
                },
            )
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
                accountant=self.core.accountant,
                meter=self.core.meter,
                telemetry_clients=self._telemetry_clients,
                remote_spans=self._remote_spans,
            )

    async def _run_attempt(self, gen: np.random.Generator, attempt: int) -> RoundOutcome:
        """One attempt: assign, announce, collect; the core judges and folds."""
        cfg = self.config
        tracer = get_tracer()
        n = cfg.n_clients
        with tracer.span(
            "serve.round",
            {"round_index": 1, "planned_clients": n, "attempt": attempt},
        ) as round_span:
            round_span_id = getattr(round_span, "span_id", None)
            if round_span_id is not None:
                self._attempt_spans[attempt] = round_span_id
            get_metrics().counter("round_attempts_total").inc()
            with tracer.span("round.assign", {"n_bits": cfg.n_bits, "n_clients": n}):
                assignment = central_assignment(n, cfg.schedule, gen)
            with tracer.span(
                "serve.announce",
                {"clients": self._registered, "connections": len(self._ranges), "attempt": attempt},
            ):
                announce_wall = self._wall_now() if tracer.enabled else 0.0
                await self._broadcast_announce(
                    assignment, attempt, parent_span_id=round_span_id or 0
                )
            reports, duration, accept_log = await self._collect(attempt, assignment)
            self._record_uplink_timings(attempt, announce_wall, accept_log, round_span)
            return _fold_reports(self.core, round_span, cfg, attempt, reports, duration)


# ----------------------------------------------------------------------
def in_process_estimate(
    values: Sequence[float],
    config: ServeConfig,
    profile: EmulationProfile | None = None,
    fleet_seed: int = 0,
    corrupted: Iterable[int] = (),
) -> MeanEstimate:
    """The served round's deterministic in-process twin.

    The round core over an in-memory transport: the server generator draws
    one bit assignment per attempt; each client's spawned generator draws
    its bit through the fleet's :func:`report_bit`, then the profile's loss
    and latency; delivered reports fold, retry and reconstruct through the
    code :class:`RoundServer` runs.  ``corrupted`` names clients whose
    uplinks the server always rejects (the fuzzing twin: their client-side
    draws still advance, their reports never land).

    With no profile, no corruption, and no ``epsilon``, the result is also
    bit-identical to ``FederatedMeanQuery(encoder, mode="basic",
    schedule=config.schedule).run(population, rng=config.seed)`` over
    single-valued clients -- the acceptance-criterion equivalence.

    Raises :class:`RoundFailedError` when no attempt reaches quorum,
    exactly as the server does.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size != config.n_clients:
        raise ConfigurationError(f"{vals.size} values for a {config.n_clients}-client round")
    core = _served_core(config)
    gen = ensure_rng(config.seed)
    client_gens = ClientFleet(vals, seed=fleet_seed).spawn_generators()
    excluded = frozenset(int(c) for c in corrupted)
    attempts = AttemptLoop(core)
    while True:
        assignment = central_assignment(config.n_clients, config.schedule, gen)
        reports = _Reports.empty(config.n_clients)
        for i, client_gen in enumerate(client_gens):
            bit_index = int(assignment[i])
            bit = report_bit(vals[i], bit_index, core.encoder, config.epsilon, client_gen)
            delivered = profile is None or profile.draw(client_gen)[0]
            if delivered and i not in excluded:
                reports.accept(i, bit_index, bit)
        try:
            outcome = _fold_reports(core, NullSpan(), config, attempts.attempt, reports, 0.0)
        except RoundFailedError as exc:
            if attempts.retry_after(exc):
                continue
            raise
        return core.reconstruct(
            "serve.reconstruct", [attempts.complete(outcome)], config.n_clients,
            "federated-served-twin", {"served": False},
        )


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
