"""Simulated client fleet: devices speaking the wire protocol over TCP.

The fleet opens ``min(n, FLEET_CONNECTIONS)`` connections to a
:class:`~repro.federated.serve.RoundServer`.  Each connection speaks for a
contiguous range of client ids (:func:`fleet_ranges`): it registers the range
in one HELLO, receives the range's slice of the bit assignment in one
ANNOUNCE, and answers the way the range's devices would -- fixed-point
encode each local value, extract its assigned bit, optionally pass it through
client-side randomized response, frame it, and uplink every client's 16-byte
frame in one REPORTS message.  A range of one client speaks the protocol's
original one-device-per-socket bytes.  A pluggable :class:`EmulationProfile`
reuses :class:`~repro.federated.network.NetworkModel`'s loss/latency
distributions per client uplink, so the served path exercises the same
failure statistics the in-process simulator does -- a lost uplink is simply
never sent, and latency optionally maps to real ``asyncio.sleep`` time via
``time_scale``.

Determinism: client ``i`` owns the generator ``SeedSequence(seed).spawn(n)[i]``
(built lazily, by :func:`client_generator`, and only when a round draws
anything), and per announcement draws in a fixed order -- randomized
response first (:func:`range_bits`), then the network emulation -- so the
served twin's transport (:func:`repro.federated.serve.twin_transport`),
which runs the same :func:`range_bits` over its clients at once, replays
the exact stream.  A lossless round draws nothing: one vectorized pass.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.client_plane import report_bits
from repro.core.encoding import FixedPointEncoder
from repro.exceptions import ConfigurationError, ProtocolError
from repro.federated.network import NetworkModel
from repro.federated.wire import (
    MAX_MESSAGE_SIZE,
    MESSAGE_HEADER_SIZE,
    MSG_ABORT,
    MSG_ANNOUNCE,
    MSG_HELLO,
    MSG_REPORTS,
    MSG_RESULT,
    MSG_TELEMETRY,
    REPORT_SIZE,
    decode_announce,
    decode_message_header,
    encode_frames,
    encode_message,
    encode_telemetry,
)
from repro.observability import get_tracer
from repro.observability.exporters import InMemoryExporter
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.privacy.randomized_response import RandomizedResponse

__all__ = [
    "EmulationProfile",
    "ClientFleet",
    "FleetResult",
    "FLEET_CONNECTIONS",
    "MAX_RANGE",
    "client_generator",
    "fleet_ranges",
    "fleet_values",
    "range_bits",
    "read_message",
]

#: Connections a fleet opens: ``min(n, FLEET_CONNECTIONS)``, so a fleet of
#: at most this many clients runs one client per connection.
FLEET_CONNECTIONS = 8
#: Most clients one connection speaks for: a range's REPORTS fits one message.
MAX_RANGE = MAX_MESSAGE_SIZE // REPORT_SIZE
#: Per-read timeout guarding a fleet against a hung server.
READ_TIMEOUT_S = 60.0


def fleet_values(n_clients: int, seed: int = 0) -> np.ndarray:
    """The CLI fleet's deterministic value population (one value per client).

    Same distribution as the trace CLI's population (clipped
    ``Normal(600, 100)``), derived from ``seed`` alone -- so an in-process
    twin (e.g. the serve smoke check) can regenerate exactly what a
    ``repro.cli fleet --seed <seed>`` run reported on.
    """
    if n_clients < 1:
        raise ConfigurationError(f"n_clients must be >= 1, got {n_clients}")
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(600.0, 100.0, n_clients), 0.0, None)


def fleet_ranges(n_clients: int) -> list[tuple[int, int]]:
    """The fleet's connections as near-equal contiguous ``[lo, hi)`` id blocks.

    ``min(n, FLEET_CONNECTIONS)`` blocks, or more when a block would exceed
    :data:`MAX_RANGE` clients.
    """
    count = max(min(n_clients, FLEET_CONNECTIONS), -(-n_clients // MAX_RANGE))
    bounds = np.linspace(0, n_clients, count + 1).round().astype(np.int64).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def client_generator(seed: int, client_id: int) -> np.random.Generator:
    """Client ``client_id``'s own stream: ``SeedSequence(seed).spawn(n)[client_id]``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(client_id,)))


def range_bits(
    values: np.ndarray, indices: np.ndarray, encoder: FixedPointEncoder,
    epsilon: float | None, gens: Sequence[np.random.Generator],
) -> np.ndarray:
    """Clients' report bits: each encodes its value and reveals its assigned bit.

    Client ``j`` reports bit ``indices[j]`` of its encoded ``values[j]``,
    all in one :func:`~repro.core.client_plane.report_bits` pass; under
    ``epsilon``, randomized response then draws each client's bit from the
    client's own generator ``gens[j]``.  A fleet range and the in-process
    twin both report through it.
    """
    bits = report_bits(encoder.encode(values), indices)
    if epsilon is not None:
        rr = RandomizedResponse(epsilon=float(epsilon))
        for j, gen in enumerate(gens):
            bits[j:j + 1] = rr.perturb_bits(bits[j:j + 1], gen)
    return bits


#: Mutator hook: ``(client_id, attempt, frame) -> frame | None``.  Returning
#: ``None`` drops the uplink (the device goes silent); returning different
#: bytes ships them verbatim -- the adversarial/fuzzing entry point.
FrameMutator = Callable[[int, int, bytes], Optional[bytes]]


async def read_message(reader: asyncio.StreamReader) -> tuple[int, int, bytes]:
    """Read one length-prefixed control message off a stream.

    Returns ``(kind, seq, payload)``.  Raises
    :class:`~repro.exceptions.ProtocolError` on a malformed header (the
    caller decides whether that kills the connection) and lets
    ``asyncio.IncompleteReadError`` propagate on EOF.
    """
    header = await reader.readexactly(MESSAGE_HEADER_SIZE)
    kind, seq, length = decode_message_header(header)
    payload = await reader.readexactly(length) if length else b""
    return kind, seq, payload


@dataclass(frozen=True)
class EmulationProfile:
    """Per-uplink network emulation reusing :class:`NetworkModel`'s draws.

    Parameters
    ----------
    loss_rate:
        Probability an uplink is silently dropped (never sent).
    latency_median_s, latency_sigma:
        Lognormal latency distribution, in *simulated* seconds (the same
        parameterization as :class:`NetworkModel`).
    time_scale:
        Real seconds slept per simulated latency second (``0.0``, the
        default, never sleeps -- loss statistics without wall-clock cost;
        ``0.001`` makes a 90 s median latency a 90 ms real delay).

    Parse a CLI spec with :meth:`parse`::

        EmulationProfile.parse("loss=0.2,latency=45,sigma=0.6,scale=0.001")
    """

    loss_rate: float = 0.0
    latency_median_s: float = 90.0
    latency_sigma: float = 0.6
    time_scale: float = 0.0
    #: The equivalent :class:`NetworkModel`, built once (no deadline: the server owns it).
    network: NetworkModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        network = NetworkModel(self.loss_rate, self.latency_median_s, self.latency_sigma)
        object.__setattr__(self, "network", network)
        if self.time_scale < 0:
            raise ConfigurationError(f"time_scale must be >= 0, got {self.time_scale}")

    @classmethod
    def parse(cls, spec: str) -> "EmulationProfile":
        """Build a profile from a compact ``key=value`` CLI spec.

        Keys: ``loss`` (loss_rate), ``latency`` (median seconds), ``sigma``
        (lognormal shape), ``scale`` (time_scale).  Unknown keys raise
        :class:`ConfigurationError`.
        """
        mapping = {
            "loss": "loss_rate",
            "latency": "latency_median_s",
            "sigma": "latency_sigma",
            "scale": "time_scale",
        }
        kwargs: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or key.strip() not in mapping:
                raise ConfigurationError(
                    f"bad emulation spec element {part!r}; expected "
                    f"one of {sorted(mapping)} as key=value"
                )
            try:
                kwargs[mapping[key.strip()]] = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"bad emulation value in {part!r}: not a number"
                ) from None
        return cls(**kwargs)

    def draw(self, rng: np.random.Generator) -> tuple[bool, float]:
        """Draw one uplink's fate: ``(delivered, latency_s)``.

        Consumes the generator exactly as ``NetworkModel.transmit(1, rng)``
        does (one lognormal draw, one uniform draw), so the in-process twin
        can replay the stream, but through :meth:`NetworkModel.draw`: a
        client's uplink opens no span and counts in no server metric.
        """
        outcome = self.network.draw(1, rng)
        return bool(outcome.delivered[0]), float(outcome.latencies_s[0])


@dataclass(frozen=True)
class FleetResult:
    """What the fleet saw: per-client outcomes of one served round."""

    n_clients: int
    uplinks_sent: int
    uplinks_dropped: int
    results: dict[int, float] = field(default_factory=dict)
    aborted: bool = False
    telemetry_sent: int = 0

    @property
    def estimate(self) -> float | None:
        """The server's announced estimate (``None`` if the round aborted)."""
        if not self.results:
            return None
        return next(iter(self.results.values()))


def _range_assignment(announce: dict[str, Any], k: int) -> np.ndarray:
    """A range's assigned bit indices: an int for one client, else a list of ``k``."""
    indices = announce.get("bit_index")
    try:
        assigned = np.asarray([indices] if k == 1 else indices, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"ANNOUNCE bit_index: {exc}") from None
    if assigned.shape != (k,):
        raise ProtocolError(f"ANNOUNCE bit_index is not {k} assigned indices")
    return assigned


class ClientFleet:
    """A population of simulated devices served over a few real sockets.

    Parameters
    ----------
    values:
        One local value per client (client ``i`` reports on ``values[i]``).
    seed:
        Fleet seed; client ``i`` draws from the ``i``-th spawned child
        stream.
    profile:
        Optional :class:`EmulationProfile` applied per client uplink.
    mutate:
        Optional :data:`FrameMutator` applied to each client's encoded frame
        before emulation -- the hook adversarial and fuzzing tests use.  A
        returned frame of exactly 16 bytes joins its range's REPORTS
        message; one of any other length goes alone in its own message.
    clock_factory:
        Optional zero-argument callable returning the clock of each
        connection's private tracer.  Pass ``lambda: SimClock(...)`` to make
        fleet telemetry timestamps deterministic; the default is real time.

    Each connection records ``fleet.round`` / ``fleet.encode`` /
    ``fleet.uplink`` spans into a private tracer and, if the server's
    ANNOUNCE carried trace context, ships them (plus a metrics snapshot) back
    in one TELEMETRY message after RESULT/ABORT.
    """

    def __init__(
        self,
        values: Sequence[float],
        seed: int = 0,
        profile: EmulationProfile | None = None,
        mutate: FrameMutator | None = None,
        clock_factory: Callable[[], Any] | None = None,
    ) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ConfigurationError("fleet needs a non-empty 1-D value array")
        self.seed = int(seed)
        self.profile = profile
        self.mutate = mutate
        self.clock_factory = clock_factory

    async def run(self, host: str, port: int) -> FleetResult:
        """Connect every range and play rounds until RESULT/ABORT/EOF."""
        n = int(self.values.size)
        ranges = fleet_ranges(n)
        with get_tracer().span(
            "fleet.session",
            {"clients": n, "connections": len(ranges), "host": host},
        ):
            outcomes = await asyncio.gather(
                *(self._run_range(host, port, lo, hi) for lo, hi in ranges)
            )
        results: dict[int, float] = {}
        sent = dropped = telemetry_sent = 0
        aborted = False
        for (lo, hi), (range_sent, range_dropped, estimate, range_aborted, shipped) in zip(
            ranges, outcomes
        ):
            sent += range_sent
            dropped += range_dropped
            if estimate is not None:
                results.update(dict.fromkeys(range(lo, hi), estimate))
            aborted = aborted or range_aborted
            telemetry_sent += (hi - lo) if shipped else 0
        return FleetResult(
            n_clients=n,
            uplinks_sent=sent,
            uplinks_dropped=dropped,
            results=results,
            aborted=aborted,
            telemetry_sent=telemetry_sent,
        )

    def _deliveries(
        self, lo: int, seq: int, frames: bytes, gens: list[np.random.Generator]
    ) -> list[tuple[float, bytes]]:
        """Each client's ``(latency_s, frame)`` after the mutator and emulation."""
        out: list[tuple[float, bytes]] = []
        for j in range(len(frames) // REPORT_SIZE):
            frame: bytes | None = frames[j * REPORT_SIZE:(j + 1) * REPORT_SIZE]
            if self.mutate is not None:
                frame = self.mutate(lo + j, seq, frame)
                if frame is None:
                    continue
            latency_s = 0.0
            if self.profile is not None:
                delivered, latency_s = self.profile.draw(gens[j])
                if not delivered:
                    continue
            out.append((latency_s, frame))
        return out

    async def _uplink(
        self, writer: asyncio.StreamWriter, seq: int, deliveries: list[tuple[float, bytes]]
    ) -> int:
        """Write the delivered frames as REPORTS messages; returns the bytes sent.

        Without emulated sleep the 16-byte frames go in one message and any
        other payload in its own.  With ``time_scale > 0`` each frame goes
        alone after its own latency, in latency order, as concurrent devices'
        uplinks would arrive.
        """
        scale = self.profile.time_scale if self.profile is not None else 0.0
        if scale > 0:
            messages = sorted(((lat * scale, f) for lat, f in deliveries), key=lambda m: m[0])
        else:
            whole = b"".join(f for _, f in deliveries if len(f) == REPORT_SIZE)
            messages = [(0.0, f) for f in [whole] if f]
            messages += [(0.0, f) for _, f in deliveries if len(f) != REPORT_SIZE]
        loop = asyncio.get_running_loop()
        start = loop.time()
        for delay_s, payload in messages:
            if start + delay_s > loop.time():
                await asyncio.sleep(start + delay_s - loop.time())
            writer.write(encode_message(MSG_REPORTS, payload, seq=seq))
            await writer.drain()
        return sum(len(payload) for _, payload in messages)

    async def _run_range(
        self, host: str, port: int, lo: int, hi: int
    ) -> tuple[int, int, float | None, bool, bool]:
        """One connection's life: HELLO for ``[lo, hi)``, then answer announcements."""
        k = hi - lo
        ids = np.arange(lo, hi, dtype=np.uint64)
        gens: list[np.random.Generator] = []  # built on first need
        sent = dropped = 0
        estimate: float | None = None
        aborted = telemetry_shipped = saw_trace = False
        last_seq = 0
        # Telemetry lives on a *private* per-connection tracer, never the
        # process-wide one: spans leave the fleet only through the TELEMETRY
        # message, exactly as they would across real machines.
        exporter = InMemoryExporter()
        clock = self.clock_factory() if self.clock_factory is not None else None
        tracer = Tracer([exporter], clock=clock)
        registry = MetricsRegistry()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            hello: dict[str, Any] = {"client_id": lo}
            if k > 1:  # a range of one speaks the one-device HELLO
                hello["clients"] = k
            hello["clock_s"] = tracer.wall_time()
            writer.write(encode_message(MSG_HELLO, json.dumps(hello).encode()))
            await writer.drain()
            while True:
                try:
                    kind, seq, payload = await asyncio.wait_for(
                        read_message(reader), READ_TIMEOUT_S
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionError,
                    ProtocolError,
                ):
                    break
                last_seq = seq
                if kind == MSG_RESULT:
                    estimate = float(json.loads(payload)["estimate"])
                    break
                if kind == MSG_ABORT:
                    aborted = True
                    break
                if kind != MSG_ANNOUNCE:
                    continue
                try:
                    announce, context = decode_announce(payload)
                    indices = _range_assignment(announce, k)
                except ProtocolError:
                    break
                saw_trace = saw_trace or context is not None
                attrs: dict[str, Any] = {"client": lo, "clients": k}
                round_attrs = dict(attrs, attempt=seq)
                if context is not None:
                    round_attrs["trace_id"] = context.trace_id
                with tracer.span("fleet.round", round_attrs) as round_span:
                    with tracer.span("fleet.encode", dict(attrs, n_bits=int(announce["n_bits"]))):
                        encoder = FixedPointEncoder(
                            n_bits=int(announce["n_bits"]),
                            scale=float(announce["scale"]),
                            offset=float(announce["offset"]),
                        )
                        epsilon = announce.get("epsilon")
                        if not gens and (epsilon is not None or self.profile is not None):
                            gens = [client_generator(self.seed, i) for i in range(lo, hi)]
                        bits = range_bits(self.values[lo:hi], indices, encoder, epsilon, gens)
                        frames = encode_frames(ids, indices, bits, epsilon is not None)
                    if self.mutate is None and self.profile is None:
                        deliveries = [(0.0, frames)]  # the range's frames, one message
                        delivered = k
                    else:
                        deliveries = self._deliveries(lo, seq, frames, gens)
                        delivered = len(deliveries)
                    if delivered < k:
                        dropped += k - delivered
                        round_span.set_attribute("dropped", k - delivered)
                        registry.counter("fleet_uplinks_dropped_total").inc(k - delivered)
                    if not deliveries:
                        continue
                    with tracer.span("fleet.uplink", dict(attrs, attempt=seq)) as uplink_span:
                        uplink_span.set_attribute(
                            "bytes", await self._uplink(writer, seq, deliveries)
                        )
                    sent += delivered
                    registry.counter("fleet_uplinks_sent_total").inc(delivered)
            # Telemetry is best-effort and strictly after the round outcome:
            # it must never delay an uplink or keep a dead round's socket open.
            if saw_trace and (estimate is not None or aborted):
                try:
                    spans = [record.to_dict() for record in exporter.records]
                    writer.write(
                        encode_message(
                            MSG_TELEMETRY,
                            encode_telemetry(lo, spans, registry.snapshot()),
                            seq=last_seq,
                        )
                    )
                    await writer.drain()
                    telemetry_shipped = True
                except (ConnectionError, OSError, ProtocolError):
                    pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
        return sent, dropped, estimate, aborted, telemetry_shipped
