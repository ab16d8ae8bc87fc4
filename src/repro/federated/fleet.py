"""Simulated client fleet: devices speaking the wire protocol over TCP.

One coroutine per device connects to a :class:`~repro.federated.serve.RoundServer`,
registers with a HELLO message, and then answers every cohort announcement the
way a real device would: elicit the local value, fixed-point encode it, extract
the assigned bit, optionally pass it through client-side randomized response,
frame it with :func:`~repro.federated.wire.encode_batch`, and uplink it as one
REPORTS message.  A pluggable :class:`EmulationProfile` reuses
:class:`~repro.federated.network.NetworkModel`'s loss/latency distributions
per-connection, so the served path exercises the same failure statistics the
in-process simulator does -- a lost uplink is simply never sent, and latency
optionally maps to real ``asyncio.sleep`` time via ``time_scale``.

Determinism: each client owns an independent generator spawned from the fleet
seed (``SeedSequence(seed).spawn(n)``), and per announcement draws in a fixed
order -- randomized response first (:func:`report_bit`), then the network
emulation -- so :func:`repro.federated.serve.in_process_estimate` can replay
the exact stream.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.exceptions import ConfigurationError, ProtocolError
from repro.federated.client import BitReport
from repro.federated.network import NetworkModel
from repro.federated.wire import (
    MESSAGE_HEADER_SIZE,
    MSG_ABORT,
    MSG_ANNOUNCE,
    MSG_HELLO,
    MSG_REPORTS,
    MSG_RESULT,
    MSG_TELEMETRY,
    decode_announce,
    decode_message_header,
    encode_batch,
    encode_message,
    encode_telemetry,
)
from repro.observability import get_tracer
from repro.observability.exporters import InMemoryExporter
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.privacy.randomized_response import RandomizedResponse

__all__ = [
    "EmulationProfile",
    "ClientFleet",
    "FleetResult",
    "fleet_values",
    "read_message",
    "report_bit",
]


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


def report_bit(
    value: float, bit_index: int, encoder: FixedPointEncoder, epsilon: float | None,
    rng: np.random.Generator,
) -> int:
    """One device's bit: encode, take ``bit_index``, randomize at ``epsilon``.

    Fleet clients and the served round's in-process twin both draw through
    this, so the twin replays each client's stream exactly.
    """
    encoded = encoder.encode(np.asarray([value]))
    bit = int((encoded[0] >> np.uint64(bit_index)) & np.uint64(1))
    if epsilon is None:
        return bit
    rr = RandomizedResponse(epsilon=float(epsilon))
    return int(rr.perturb_bits(np.asarray([bit], dtype=np.uint8), rng)[0])


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
    """Per-connection network emulation reusing :class:`NetworkModel`'s draws.

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

    def __post_init__(self) -> None:
        # NetworkModel validates loss/latency/sigma; do it eagerly.
        self.network  # noqa: B018 -- validation side effect
        if self.time_scale < 0:
            raise ConfigurationError(f"time_scale must be >= 0, got {self.time_scale}")

    @property
    def network(self) -> NetworkModel:
        """The equivalent :class:`NetworkModel` (no deadline: the server owns it)."""
        return NetworkModel(
            loss_rate=self.loss_rate,
            latency_median_s=self.latency_median_s,
            latency_sigma=self.latency_sigma,
        )

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
        can replay the stream.
        """
        outcome = self.network.transmit(1, rng)
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


class ClientFleet:
    """A population of simulated devices served over real sockets.

    Parameters
    ----------
    values:
        One local value per client (client ``i`` reports on ``values[i]``).
    seed:
        Fleet seed; client ``i`` draws from the ``i``-th spawned child
        stream.
    profile:
        Optional :class:`EmulationProfile` applied per uplink.
    client_ids:
        Wire identities (default ``0..n-1``).
    mutate:
        Optional :data:`FrameMutator` applied to each encoded frame before
        emulation -- the hook adversarial and fuzzing tests use.
    read_timeout_s:
        Per-message read timeout guarding tests against a hung server.
    telemetry:
        When ``True`` (the default) each client records ``fleet.round`` /
        ``fleet.encode`` / ``fleet.uplink`` spans into a private tracer and,
        if the server's ANNOUNCE carried trace context, ships them (plus a
        per-client metrics snapshot) back in one TELEMETRY message after
        RESULT/ABORT.  Disable to emulate a pre-tracing fleet.
    clock_factory:
        Optional zero-argument callable returning a clock for each client's
        private tracer (both span and wall clock).  Pass
        ``lambda: SimClock(...)`` to make client-side telemetry timestamps
        deterministic; the default is real time.
    """

    def __init__(
        self,
        values: Sequence[float],
        seed: int = 0,
        profile: EmulationProfile | None = None,
        client_ids: Sequence[int] | None = None,
        mutate: FrameMutator | None = None,
        read_timeout_s: float = 60.0,
        telemetry: bool = True,
        clock_factory: Callable[[], Any] | None = None,
    ) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ConfigurationError("fleet needs a non-empty 1-D value array")
        n = int(self.values.size)
        self.client_ids = (
            list(range(n)) if client_ids is None else [int(c) for c in client_ids]
        )
        if len(self.client_ids) != n:
            raise ConfigurationError(
                f"{len(self.client_ids)} client ids for {n} values"
            )
        self.seed = int(seed)
        self.profile = profile
        self.mutate = mutate
        self.read_timeout_s = float(read_timeout_s)
        self.telemetry = bool(telemetry)
        self.clock_factory = clock_factory

    def spawn_generators(self) -> list[np.random.Generator]:
        """One independent child generator per client (replayable by the twin)."""
        return [
            np.random.default_rng(s)
            for s in np.random.SeedSequence(self.seed).spawn(len(self.client_ids))
        ]

    async def run(self, host: str, port: int) -> FleetResult:
        """Connect every client and play rounds until RESULT/ABORT/EOF."""
        gens = self.spawn_generators()
        with get_tracer().span(
            "fleet.session", {"clients": len(self.client_ids), "host": host, "port": port}
        ):
            outcomes = await asyncio.gather(
                *(
                    self._run_client(host, port, cid, float(value), gen)
                    for cid, value, gen in zip(self.client_ids, self.values, gens)
                )
            )
        results: dict[int, float] = {}
        sent = dropped = telemetry_sent = 0
        aborted = False
        for cid, client_sent, client_dropped, estimate, client_aborted, shipped in outcomes:
            sent += client_sent
            dropped += client_dropped
            if estimate is not None:
                results[cid] = estimate
            aborted = aborted or client_aborted
            telemetry_sent += int(shipped)
        return FleetResult(
            n_clients=len(self.client_ids),
            uplinks_sent=sent,
            uplinks_dropped=dropped,
            results=results,
            aborted=aborted,
            telemetry_sent=telemetry_sent,
        )

    async def _run_client(
        self,
        host: str,
        port: int,
        client_id: int,
        value: float,
        gen: np.random.Generator,
    ) -> tuple[int, int, int, float | None, bool, bool]:
        """One device's life: HELLO, then answer announcements until done."""
        sent = dropped = 0
        estimate: float | None = None
        aborted = False
        telemetry_shipped = False
        # Telemetry lives on a *private* per-client tracer, never the
        # process-wide one: a device's spans leave the device only through
        # the TELEMETRY message, exactly as they would across real machines.
        exporter: InMemoryExporter | None = None
        registry: MetricsRegistry | None = None
        if self.telemetry:
            exporter = InMemoryExporter()
            clock = self.clock_factory() if self.clock_factory is not None else None
            tracer: Any = Tracer([exporter], clock=clock, wall_clock=clock)
        else:
            tracer = NULL_TRACER
        if self.telemetry:
            registry = MetricsRegistry()
        saw_trace = False
        last_seq = 0
        reader, writer = await asyncio.open_connection(host, port)
        try:
            clock_s = tracer.wall_time() if self.telemetry else time.time()
            writer.write(
                encode_message(
                    MSG_HELLO,
                    json.dumps({"client_id": client_id, "clock_s": clock_s}).encode(),
                )
            )
            await writer.drain()
            while True:
                try:
                    kind, seq, payload = await asyncio.wait_for(
                        read_message(reader), self.read_timeout_s
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
                except ProtocolError:
                    break
                if context is not None:
                    saw_trace = True
                round_attrs: dict[str, Any] = {
                    "client": client_id,
                    "attempt": seq,
                    "bit_index": int(announce["bit_index"]),
                }
                if context is not None:
                    round_attrs["trace_id"] = context.trace_id
                with tracer.span("fleet.round", round_attrs) as round_span:
                    with tracer.span(
                        "fleet.encode",
                        {"n_bits": int(announce["n_bits"]), "client": client_id},
                    ):
                        encoder = FixedPointEncoder(
                            n_bits=int(announce["n_bits"]),
                            scale=float(announce["scale"]),
                            offset=float(announce["offset"]),
                        )
                        bit_index = int(announce["bit_index"])
                        epsilon = announce.get("epsilon")
                        bit = report_bit(value, bit_index, encoder, epsilon, gen)
                        frame = encode_batch(
                            [
                                BitReport(
                                    client_id=client_id, bit_index=bit_index, bit=bit
                                )
                            ],
                            randomized_response=epsilon is not None,
                        )
                    if self.mutate is not None:
                        mutated = self.mutate(client_id, seq, frame)
                        if mutated is None:
                            dropped += 1
                            round_span.set_attribute("dropped", True)
                            if registry is not None:
                                registry.counter("fleet_uplinks_dropped_total").inc()
                            continue
                        frame = mutated
                    if self.profile is not None:
                        delivered, latency_s = self.profile.draw(gen)
                        if self.profile.time_scale > 0:
                            await asyncio.sleep(latency_s * self.profile.time_scale)
                        if not delivered:
                            dropped += 1
                            round_span.set_attribute("dropped", True)
                            if registry is not None:
                                registry.counter("fleet_uplinks_dropped_total").inc()
                            continue
                    with tracer.span(
                        "fleet.uplink",
                        {"client": client_id, "attempt": seq, "bytes": len(frame)},
                    ):
                        writer.write(encode_message(MSG_REPORTS, frame, seq=seq))
                        await writer.drain()
                    sent += 1
                    if registry is not None:
                        registry.counter("fleet_uplinks_sent_total").inc()
            # Telemetry is best-effort and strictly after the round outcome:
            # it must never delay an uplink or keep a dead round's socket open.
            if (
                self.telemetry
                and saw_trace
                and exporter is not None
                and (estimate is not None or aborted)
            ):
                try:
                    spans = [record.to_dict() for record in exporter.records]
                    snapshot = registry.snapshot() if registry is not None else {}
                    writer.write(
                        encode_message(
                            MSG_TELEMETRY,
                            encode_telemetry(client_id, spans, snapshot),
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
        return client_id, sent, dropped, estimate, aborted, telemetry_shipped
