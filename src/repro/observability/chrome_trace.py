"""Chrome trace-event export: merged round timelines for Perfetto / about:tracing.

A served round's flight-recorder artifact holds two kinds of spans: the
server's own phases (the round core's ``federated.round`` attempt,
``serve.announce``, ``serve.collect``, ...) and remote spans ingested from fleet telemetry (``fleet.round``,
``fleet.encode``, ``fleet.uplink``, stamped ``remote: True`` with the
``client`` (first id) and ``clients`` (size) of the fleet connection's client
range, and clock-skew-aligned timestamps).  This module lays them out as
Chrome trace-event JSON -- the ``{"traceEvents": [...]}`` format that
Perfetto and ``chrome://tracing`` render natively -- with the server's
phases on their own track and one track per fleet connection, labelled with
its range, so one timeline shows ANNOUNCE fan-out, every connection's
encode/uplink window, and the server-side collect/reconstruct tail end to
end.

Timestamps are emitted in microseconds relative to the earliest span in the
export (Chrome's viewers dislike epoch-sized ``ts`` values); durations are
clamped to a minimum of one microsecond so zero-length ``SimClock`` spans
stay clickable.  The export is a pure function of the span stream: the same
artifact always produces the same JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.observability.tracing import SpanRecord

__all__ = ["SERVER_TRACK", "build_chrome_trace", "write_chrome_trace"]

#: Thread id of the server-phase track (fleet connections are numbered from 1).
SERVER_TRACK = 0

_PID = 1
_MIN_DURATION_US = 1.0


def _span_args(record: SpanRecord) -> dict[str, Any]:
    args: dict[str, Any] = {"span_id": record.span_id}
    if record.parent_id is not None:
        args["parent_id"] = record.parent_id
    if record.status != "ok":
        args["status"] = record.status
    for key in sorted(record.attributes):
        value = record.attributes[key]
        if isinstance(value, (list, tuple)):
            value = list(value)
        args[key] = value
    return args


def build_chrome_trace(
    records: Sequence[SpanRecord], label: str = "repro"
) -> dict[str, Any]:
    """Lay out a span stream as a Chrome trace-event document.

    Local (server) spans land on thread :data:`SERVER_TRACK`; spans whose
    attributes carry ``remote: True`` land on one thread per distinct
    ``client`` attribute (a fleet connection's first client id), ordered by
    client id and labelled ``client i`` or, for a range of ``k > 1``
    clients, ``clients i-j``.  ``otherData["clients"]`` counts the clients
    the tracks cover.  Returns the complete ``{"traceEvents": [...], ...}``
    document, metadata events included.
    """
    spans = list(records)
    ranges: dict[int, int] = {}
    for record in spans:
        if record.attributes.get("remote") and "client" in record.attributes:
            client = int(record.attributes["client"])
            ranges[client] = max(ranges.get(client, 1), int(record.attributes.get("clients", 1)))
    clients = sorted(ranges)
    tids = {client: index + 1 for index, client in enumerate(clients)}
    origin_s = min((record.start_time_s for record in spans), default=0.0)

    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": SERVER_TRACK,
            "args": {"name": label},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": SERVER_TRACK,
            "args": {"name": "server"},
        },
    ]
    for client in clients:
        k = ranges[client]
        name = f"client {client}" if k == 1 else f"clients {client}-{client + k - 1}"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tids[client],
                "args": {"name": name},
            }
        )

    for record in spans:
        remote = bool(record.attributes.get("remote"))
        if remote and "client" in record.attributes:
            tid = tids[int(record.attributes["client"])]
        else:
            tid = SERVER_TRACK
        events.append(
            {
                "name": record.name,
                "cat": "fleet" if remote else "server",
                "ph": "X",
                "ts": (record.start_time_s - origin_s) * 1e6,
                "dur": max(record.duration_s * 1e6, _MIN_DURATION_US),
                "pid": _PID,
                "tid": tid,
                "args": _span_args(record),
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "spans": len(spans),
            "clients": sum(ranges.values()),
        },
    }


def write_chrome_trace(
    path: str | Path, records: Sequence[SpanRecord], label: str = "repro"
) -> dict[str, Any]:
    """Build the trace document and write it to ``path``; returns the document."""
    document = build_chrome_trace(records, label=label)
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    return document
