"""Wire format for one-bit reports.

The paper's communication-cost discussion (Section 5) notes that while only
a single *private* bit is disclosed, the message also carries
non-private protocol fields -- "header information, and list which bit was
sampled" -- so a report still occupies one small network packet.  This
module pins that down concretely: a fixed 16-byte frame

    magic (4) | version (1) | bit_index (1) | bit (1) | flags (1) | client_id (8)

with strict, mirror-image validation on both encode and decode (bad magic,
truncation, non-binary bit, out-of-range index, or non-integer fields all
raise :class:`~repro.exceptions.ProtocolError`), plus
the batching helpers a real uplink would use.  The ``flags`` byte records
whether randomized response was applied -- public metadata the server needs
for debiasing.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence, Union

import numpy as np

from repro.exceptions import ProtocolError
from repro.federated.client import BitReport

__all__ = [
    "MAGIC",
    "MESSAGE_MAGIC",
    "MESSAGE_HEADER_SIZE",
    "MAX_MESSAGE_SIZE",
    "MSG_HELLO",
    "MSG_ANNOUNCE",
    "MSG_REPORTS",
    "MSG_RESULT",
    "MSG_ABORT",
    "MSG_TELEMETRY",
    "REPORT_SIZE",
    "TRACE_CONTEXT_VERSION",
    "TELEMETRY_VERSION",
    "ClientTelemetry",
    "ReportBatch",
    "TraceContext",
    "encode_report",
    "decode_report",
    "encode_batch",
    "decode_batch",
    "decode_batch_array",
    "encode_frames",
    "encode_announce",
    "decode_announce",
    "encode_telemetry",
    "decode_telemetry",
    "finite_number",
    "encode_message",
    "decode_message_header",
    "payload_efficiency",
]

#: Frame magic -- "bit-push".
MAGIC = b"BPSH"
#: Protocol version this module speaks.
VERSION = 1
#: Flag bit: the report's value bit passed through randomized response.
FLAG_RANDOMIZED_RESPONSE = 0x01

_STRUCT = struct.Struct(">4sBBBBQ")
#: Size of one encoded report in bytes.
REPORT_SIZE = _STRUCT.size

#: Control-message magic -- "bit-push message" -- distinct from the report
#: frame magic so a stray report can never masquerade as a control header.
MESSAGE_MAGIC = b"BPMS"

#: Length-prefixed control-message header wrapped around report frames and
#: JSON control payloads: magic (4) | version (1) | kind (1) | seq (2) |
#: payload length (4).  ``seq`` carries the round attempt number so the
#: server can recognize late reports from an abandoned attempt.
_MESSAGE_HEADER = struct.Struct(">4sBBHI")
#: Size of one control-message header in bytes.
MESSAGE_HEADER_SIZE = _MESSAGE_HEADER.size

#: Upper bound on a control-message payload; a header advertising more is
#: rejected before any buffering so a corrupt length cannot balloon memory.
MAX_MESSAGE_SIZE = 16 * 1024 * 1024

#: Client -> server: registration carrying the client id.
MSG_HELLO = 1
#: Server -> client: cohort announcement with bit assignment + round params.
MSG_ANNOUNCE = 2
#: Client -> server: concatenated 16-byte report frames.
MSG_REPORTS = 3
#: Server -> client: final round result.
MSG_RESULT = 4
#: Server -> client: round abandoned (quorum failure past retry budget).
MSG_ABORT = 5
#: Client -> server: serialized spans + metrics snapshot after RESULT/ABORT.
MSG_TELEMETRY = 6

_MESSAGE_KINDS = frozenset(
    {MSG_HELLO, MSG_ANNOUNCE, MSG_REPORTS, MSG_RESULT, MSG_ABORT, MSG_TELEMETRY}
)

#: Structured view of one report frame, for vectorized batch decoding.
_FRAME_DTYPE = np.dtype(
    [
        ("magic", "S4"),
        ("version", "u1"),
        ("bit_index", "u1"),
        ("bit", "u1"),
        ("flags", "u1"),
        ("client_id", ">u8"),
    ]
)


def encode_report(report: BitReport, randomized_response: bool = False) -> bytes:
    """Serialize one report into its 16-byte frame.

    Validation is the exact mirror image of :func:`decode_report`: any frame
    this function emits will decode, and any report it rejects would have
    been rejected on decode.  Every failure raises :class:`ProtocolError` --
    a malformed report must be caught at the uplink, not when the server
    unpacks it.  Non-integer field types (a float ``bit_index``, a string
    ``client_id``) are rejected here too, where ``struct`` would otherwise
    raise its own opaque error.

    ``np.bool_`` bits are accepted and coerced: the columnar client plane's
    vectorized bit extraction yields exactly those, and a bool *is* a
    well-defined bit.
    """
    bit = report.bit
    if isinstance(bit, np.bool_):
        bit = int(bit)
    for name, value in (
        ("client_id", report.client_id),
        ("bit_index", report.bit_index),
        ("bit", bit),
    ):
        if not isinstance(value, (int, np.integer)):
            raise ProtocolError(f"report {name} must be an integer, got {value!r}")
    if bit not in (0, 1):
        raise ProtocolError(f"report bit must be 0 or 1, got {bit}")
    if not 0 <= report.bit_index < 64:
        raise ProtocolError(f"bit index {report.bit_index} outside [0, 64)")
    if not 0 <= report.client_id < 2**64:
        raise ProtocolError(f"client id {report.client_id} does not fit in 64 bits")
    flags = FLAG_RANDOMIZED_RESPONSE if randomized_response else 0
    return _STRUCT.pack(
        MAGIC, VERSION, int(report.bit_index), int(bit), flags, int(report.client_id)
    )


def decode_report(frame: bytes) -> tuple[BitReport, bool]:
    """Parse one frame; returns ``(report, randomized_response_flag)``.

    Every validation failure raises :class:`ProtocolError` -- a server must
    never fold a malformed report into its counters.
    """
    if len(frame) != REPORT_SIZE:
        raise ProtocolError(
            f"report frame must be exactly {REPORT_SIZE} bytes, got {len(frame)}"
        )
    magic, version, bit_index, bit, flags, client_id = _STRUCT.unpack(frame)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if bit not in (0, 1):
        raise ProtocolError(f"non-binary report bit {bit}")
    if bit_index >= 64:
        raise ProtocolError(f"bit index {bit_index} outside [0, 64)")
    if flags & ~FLAG_RANDOMIZED_RESPONSE:
        raise ProtocolError(f"unknown flag bits 0x{flags:02x}")
    return (
        BitReport(client_id=client_id, bit_index=bit_index, bit=bit),
        bool(flags & FLAG_RANDOMIZED_RESPONSE),
    )


def encode_batch(
    reports: Iterable[BitReport],
    randomized_response: Union[bool, Sequence[bool]] = False,
) -> bytes:
    """Concatenate report frames (a device uplinking several features).

    ``randomized_response`` is either a single flag applied to every report
    or a per-report sequence -- a device whose uplink mixes RR-perturbed and
    exact bits (e.g. different features under different privacy budgets)
    needs the latter.  A sequence whose length disagrees with the report
    count raises :class:`ProtocolError`.
    """
    reports = list(reports)
    if isinstance(randomized_response, (bool, np.bool_)):
        flags: Sequence[bool] = [bool(randomized_response)] * len(reports)
    else:
        flags = list(randomized_response)
        if len(flags) != len(reports):
            raise ProtocolError(
                f"randomized_response sequence has {len(flags)} entries "
                f"for {len(reports)} reports"
            )
    return b"".join(encode_report(r, bool(f)) for r, f in zip(reports, flags))


def decode_batch(data: bytes) -> list[tuple[BitReport, bool]]:
    """Split and parse a concatenation of frames."""
    if len(data) % REPORT_SIZE != 0:
        raise ProtocolError(
            f"batch of {len(data)} bytes is not a whole number of "
            f"{REPORT_SIZE}-byte frames"
        )
    return [
        decode_report(data[offset:offset + REPORT_SIZE])
        for offset in range(0, len(data), REPORT_SIZE)
    ]


@dataclass(frozen=True)
class ReportBatch:
    """Columnar result of :func:`decode_batch_array`.

    Arrays are index-aligned: row ``i`` describes the ``i``-th frame in the
    batch.  ``to_reports`` rebuilds the scalar-path representation (used by
    the twin tests pinning the vectorized decoder to :func:`decode_batch`).
    """

    client_ids: np.ndarray
    bit_indices: np.ndarray
    bits: np.ndarray
    randomized_response: np.ndarray

    def __len__(self) -> int:
        return int(self.client_ids.shape[0])

    def to_reports(self) -> list[tuple[BitReport, bool]]:
        """Expand back into the ``decode_batch`` representation."""
        return [
            (
                BitReport(client_id=int(c), bit_index=int(j), bit=int(b)),
                bool(rr),
            )
            for c, j, b, rr in zip(
                self.client_ids, self.bit_indices, self.bits, self.randomized_response
            )
        ]


def _frame_fields(data: bytes) -> np.ndarray:
    """View a frame concatenation through the structured frame dtype."""
    if len(data) % REPORT_SIZE != 0:
        raise ProtocolError(
            f"batch of {len(data)} bytes is not a whole number of "
            f"{REPORT_SIZE}-byte frames"
        )
    return np.frombuffer(data, dtype=_FRAME_DTYPE)


def _frame_validity(fields: np.ndarray) -> np.ndarray:
    """Vectorized mirror of ``decode_report``'s per-frame checks."""
    return (
        (fields["magic"] == MAGIC)
        & (fields["version"] == VERSION)
        & (fields["bit"] <= 1)
        & (fields["bit_index"] < 64)
        & ((fields["flags"] & ~np.uint8(FLAG_RANDOMIZED_RESPONSE)) == 0)
    )


def encode_frames(
    client_ids: np.ndarray,
    bit_indices: np.ndarray,
    bits: np.ndarray,
    randomized_response: bool = False,
) -> bytes:
    """Vectorized :func:`encode_batch`: the frames of index-aligned arrays.

    One structured array through the frame dtype, so the bytes are exactly
    ``encode_batch`` over the same reports -- the uplink of a fleet
    connection that speaks for a range of clients.  Out-of-range fields
    raise :class:`ProtocolError`, as :func:`encode_report` does.
    """
    ids = np.asarray(client_ids)
    indices = np.asarray(bit_indices)
    values = np.asarray(bits)
    if ids.size and (
        ids.min() < 0 or indices.min() < 0 or indices.max() >= 64 or values.max() > 1
    ):
        raise ProtocolError("frame fields out of range: id >= 0, bit index in [0, 64), bit 0/1")
    frames = np.empty(ids.shape[0], dtype=_FRAME_DTYPE)
    frames["magic"] = MAGIC
    frames["version"] = VERSION
    frames["bit_index"] = indices
    frames["bit"] = values
    frames["flags"] = FLAG_RANDOMIZED_RESPONSE if randomized_response else 0
    frames["client_id"] = ids
    return frames.tobytes()


def decode_batch_array(data: bytes) -> ReportBatch:
    """Vectorized :func:`decode_batch`: one ``np.frombuffer`` + masked checks.

    Bit-for-bit equivalent to the scalar path -- any batch this function
    accepts decodes to the same reports via :func:`decode_batch`, and any
    batch it rejects raises the *same* :class:`ProtocolError` message the
    scalar path would have raised at its first bad frame (re-raised through
    :func:`decode_report` on that frame).  This is the fleet-scale uplink
    path: a million 16-byte frames decode in one pass instead of a million
    ``struct.unpack`` calls.
    """
    fields = _frame_fields(data)
    valid = _frame_validity(fields)
    if not valid.all():
        first_bad = int(np.flatnonzero(~valid)[0])
        offset = first_bad * REPORT_SIZE
        decode_report(data[offset:offset + REPORT_SIZE])
        raise ProtocolError(  # pragma: no cover - decode_report raises first
            f"frame {first_bad} failed vectorized validation"
        )
    return ReportBatch(
        client_ids=fields["client_id"].astype(np.uint64),
        bit_indices=fields["bit_index"].astype(np.int64),
        bits=fields["bit"].astype(np.uint8),
        randomized_response=(fields["flags"] & FLAG_RANDOMIZED_RESPONSE).astype(bool),
    )


def encode_message(kind: int, payload: bytes, seq: int = 0) -> bytes:
    """Wrap a payload in a length-prefixed control-message header.

    ``kind`` must be one of the ``MSG_*`` constants and ``seq`` (the round
    attempt number) must fit in 16 bits; oversized payloads are rejected
    with :class:`ProtocolError` so the cap is enforced symmetrically with
    :func:`decode_message_header`.
    """
    if kind not in _MESSAGE_KINDS:
        raise ProtocolError(f"unknown message kind {kind}")
    if not 0 <= seq < 2**16:
        raise ProtocolError(f"message seq {seq} does not fit in 16 bits")
    if len(payload) > MAX_MESSAGE_SIZE:
        raise ProtocolError(
            f"message payload of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_SIZE}-byte cap"
        )
    return _MESSAGE_HEADER.pack(MESSAGE_MAGIC, VERSION, kind, seq, len(payload)) + payload


def decode_message_header(header: bytes) -> tuple[int, int, int]:
    """Parse a control-message header; returns ``(kind, seq, payload_length)``.

    The caller then reads exactly ``payload_length`` bytes off the stream.
    Validation failures raise :class:`ProtocolError` before any payload is
    buffered -- bad magic, wrong version, unknown kind, or a length past
    :data:`MAX_MESSAGE_SIZE` all reject the message at the header.
    """
    if len(header) != MESSAGE_HEADER_SIZE:
        raise ProtocolError(
            f"message header must be exactly {MESSAGE_HEADER_SIZE} bytes, "
            f"got {len(header)}"
        )
    magic, version, kind, seq, length = _MESSAGE_HEADER.unpack(header)
    if magic != MESSAGE_MAGIC:
        raise ProtocolError(f"bad message magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if kind not in _MESSAGE_KINDS:
        raise ProtocolError(f"unknown message kind {kind}")
    if length > MAX_MESSAGE_SIZE:
        raise ProtocolError(
            f"message payload of {length} bytes exceeds the "
            f"{MAX_MESSAGE_SIZE}-byte cap"
        )
    return kind, seq, length


# ----------------------------------------------------------------------
# Trace-context and telemetry payloads (distributed tracing over the wire)
# ----------------------------------------------------------------------

#: Version of the ``"trace"`` sub-object carried inside ANNOUNCE payloads.
#: Decoders ignore (treat as absent) any version they do not speak, so a
#: newer server never breaks an older fleet and vice versa.
TRACE_CONTEXT_VERSION = 1

#: Version of the TELEMETRY payload.  Unlike trace context -- which is
#: advisory -- telemetry of an unknown version is rejected outright with
#: :class:`ProtocolError`: the server must never ingest spans it cannot
#: interpret.
TELEMETRY_VERSION = 1

#: Keys every serialized span must carry, with their accepted types.
_SPAN_FIELDS: tuple[tuple[str, tuple[type, ...]], ...] = (
    ("name", (str,)),
    ("span_id", (int,)),
    ("start_time_s", (int, float)),
    ("duration_s", (int, float)),
)


@dataclass(frozen=True)
class TraceContext:
    """The round's trace identity, propagated server -> client in ANNOUNCE.

    ``trace_id`` names the whole round (one id per served round, shared by
    every span on both sides of the wire); ``parent_span_id`` is the server
    span the client's ``fleet.round`` spans are re-parented under on
    ingestion; ``clock_s`` is the server tracer's wall time at announce (0
    when the server records nothing), the second anchor (after HELLO) for
    clock-skew alignment.
    """

    trace_id: str
    parent_span_id: int
    clock_s: float

    def to_wire(self) -> dict[str, Any]:
        """The versioned ``"trace"`` sub-object shipped inside ANNOUNCE."""
        return {
            "v": TRACE_CONTEXT_VERSION,
            "id": self.trace_id,
            "span": int(self.parent_span_id),
            "clock_s": float(self.clock_s),
        }


def encode_announce(
    fields: Mapping[str, Any], context: TraceContext | None = None
) -> bytes:
    """Serialize one ANNOUNCE payload, optionally carrying trace context.

    The context rides as a versioned ``"trace"`` sub-object next to the
    round parameters, so pre-tracing decoders (which only read the keys
    they know) parse new announcements unchanged -- the framing is
    backward-compatible in both directions.
    """
    payload = dict(fields)
    if context is not None:
        payload["trace"] = context.to_wire()
    return json.dumps(payload).encode()


def decode_announce(payload: bytes) -> tuple[dict[str, Any], TraceContext | None]:
    """Parse an ANNOUNCE payload into ``(fields, trace_context_or_None)``.

    A missing ``"trace"`` key (an old server) or one of an unknown version
    (a newer server) yields ``context=None`` -- the client simply runs
    untraced.  A structurally malformed trace object in a *known* version
    raises :class:`ProtocolError`, as does non-JSON input.
    """
    try:
        fields = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"ANNOUNCE payload is not valid JSON: {exc}") from None
    if not isinstance(fields, dict):
        raise ProtocolError(
            f"ANNOUNCE payload must be a JSON object, got {type(fields).__name__}"
        )
    trace = fields.pop("trace", None)
    if trace is None:
        return fields, None
    if not isinstance(trace, dict):
        raise ProtocolError(f"ANNOUNCE trace context must be an object, got {trace!r}")
    if trace.get("v") != TRACE_CONTEXT_VERSION:
        return fields, None  # an unknown future version: run untraced
    trace_id = trace.get("id")
    span = trace.get("span")
    clock_s = trace.get("clock_s")
    if not isinstance(trace_id, str) or not trace_id:
        raise ProtocolError(f"trace context id must be a non-empty string, got {trace_id!r}")
    if not isinstance(span, int) or isinstance(span, bool) or span < 0:
        raise ProtocolError(f"trace context span must be a non-negative int, got {span!r}")
    if not finite_number(clock_s):
        raise ProtocolError(f"trace context clock_s must be a finite number, got {clock_s!r}")
    return fields, TraceContext(
        trace_id=trace_id, parent_span_id=int(span), clock_s=float(clock_s)
    )


@dataclass(frozen=True)
class ClientTelemetry:
    """One client's decoded TELEMETRY message: spans + a metrics snapshot.

    ``spans`` are serialized
    :class:`~repro.observability.tracing.SpanRecord` dicts with *client-local*
    span ids; the ingesting server remaps them into its own id space.
    """

    client_id: int
    spans: tuple[dict[str, Any], ...]
    metrics: dict[str, Any]


def finite_number(value: Any) -> bool:
    """Whether a decoded JSON value is a finite float-sized number (never a bool).

    ``json.loads`` accepts ``NaN``, ``Infinity`` and ints past the float range.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _validate_span_dict(span: Any, index: int) -> dict[str, Any]:
    """Check one serialized span; raises :class:`ProtocolError` on any defect."""
    if not isinstance(span, dict):
        raise ProtocolError(f"telemetry span {index} must be an object, got {span!r}")
    for key, types in _SPAN_FIELDS:
        value = span.get(key)
        if not isinstance(value, types) or isinstance(value, bool):
            raise ProtocolError(
                f"telemetry span {index} field {key!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, got {value!r}"
            )
    start, duration = span["start_time_s"], span["duration_s"]
    if not (finite_number(start) and finite_number(duration) and duration >= 0):
        raise ProtocolError(
            f"telemetry span {index} needs a finite start and a finite, non-negative "
            f"duration, got start_time_s={start!r}, duration_s={duration!r}"
        )
    parent = span.get("parent_id")
    if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
        raise ProtocolError(
            f"telemetry span {index} parent_id must be int or null, got {parent!r}"
        )
    attributes = span.get("attributes", {})
    if not isinstance(attributes, dict):
        raise ProtocolError(
            f"telemetry span {index} attributes must be an object, got {attributes!r}"
        )
    return span


def encode_telemetry(
    client_id: int,
    spans: Sequence[Mapping[str, Any]],
    metrics: Mapping[str, Any] | None = None,
) -> bytes:
    """Serialize one client's telemetry payload (spans + metrics snapshot)."""
    if not isinstance(client_id, (int, np.integer)) or isinstance(client_id, bool):
        raise ProtocolError(f"telemetry client_id must be an integer, got {client_id!r}")
    payload = {
        "v": TELEMETRY_VERSION,
        "client_id": int(client_id),
        "spans": [dict(span) for span in spans],
        "metrics": dict(metrics) if metrics else {},
    }
    return json.dumps(payload).encode()


def decode_telemetry(payload: bytes) -> ClientTelemetry:
    """Parse a TELEMETRY payload with strict, ingestion-safe validation.

    Every defect -- truncated or non-JSON bytes, a wrong version, missing or
    mistyped fields, malformed span entries -- raises
    :class:`ProtocolError`, so a server can account the reject and keep the
    round's artifact clean: telemetry is best-effort by design and a corrupt
    payload must never crash ingestion or smuggle junk into the trace.
    """
    try:
        data = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"telemetry payload is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(
            f"telemetry payload must be a JSON object, got {type(data).__name__}"
        )
    if data.get("v") != TELEMETRY_VERSION:
        raise ProtocolError(f"unsupported telemetry version {data.get('v')!r}")
    client_id = data.get("client_id")
    if not isinstance(client_id, int) or isinstance(client_id, bool) or client_id < 0:
        raise ProtocolError(
            f"telemetry client_id must be a non-negative int, got {client_id!r}"
        )
    spans = data.get("spans")
    if not isinstance(spans, list):
        raise ProtocolError(f"telemetry spans must be a list, got {spans!r}")
    metrics = data.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ProtocolError(f"telemetry metrics must be an object, got {metrics!r}")
    validated = tuple(_validate_span_dict(span, i) for i, span in enumerate(spans))
    return ClientTelemetry(client_id=client_id, spans=validated, metrics=metrics)


def payload_efficiency() -> float:
    """Private payload bits per transmitted bit (the Section 5 observation).

    One private bit inside a 16-byte frame: the overhead is why "the
    distinction between sending a single bit versus a few numeric values is
    not so meaningful" for a single feature -- and why multi-feature batches
    amortize it.
    """
    return 1.0 / (REPORT_SIZE * 8)
