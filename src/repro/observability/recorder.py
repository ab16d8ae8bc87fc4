"""Campaign flight recorder: one structured artifact per run.

A :class:`FlightRecorder` captures everything a run did into one directory:

* ``events.jsonl`` -- the span stream (the recorder is a tracer exporter;
  a monitoring campaign's rounds are its ``campaign.round`` spans),
  round-boundary metric snapshots (one ``{"type": "round"}`` line each time
  a ``federated.round`` span closes, in-process and served rounds alike),
  and free-form ``{"type": "event"}`` lines (operator notes, through
  :meth:`FlightRecorder.record_event`);
* ``manifest.json`` -- the run's identity and outcome: config, seed, git
  revision, final estimate, error-vs-bound analysis, metrics snapshot,
  phase profile, privacy-ledger spends, and bit-meter totals.

Every event line is flushed as it is written (``flush_every=1``), so a
crashed run keeps its event log up to the moment of death; ``append=True``
lets a resumed run extend an earlier log.  ``repro.cli report <dir>``
renders the artifact (see :mod:`repro.observability.report`), and
``repro.cli trace <target> --record <dir>`` produces one.

Recorded timings are wall-clock by default; pair the recorder with a
:class:`~repro.observability.tracing.SimClock`-driven tracer (CLI flag
``--sim-clock``) when byte-identical artifacts across same-seed runs
matter more than real latencies.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Any, Mapping

from repro.observability.exporters import JsonLinesExporter
from repro.observability.tracing import ROUND_SPAN, SpanRecord

__all__ = [
    "ARTIFACT_FORMAT",
    "EVENTS_FILENAME",
    "MANIFEST_FILENAME",
    "FlightRecorder",
    "git_revision",
]

#: Artifact schema version, bumped on breaking manifest/event changes.
ARTIFACT_FORMAT = 1

EVENTS_FILENAME = "events.jsonl"
MANIFEST_FILENAME = "manifest.json"


def git_revision(cwd: str | Path | None = None) -> str | None:
    """The current ``git rev-parse HEAD``, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = proc.stdout.strip()
    return revision if proc.returncode == 0 and revision else None


def _estimate_payload(estimate: Any) -> dict[str, Any]:
    """JSON-ready projection of a :class:`~repro.core.results.MeanEstimate`."""
    payload = {
        "value": float(estimate.value),
        "encoded_value": float(estimate.encoded_value),
        "n_clients": int(estimate.n_clients),
        "n_bits": int(estimate.n_bits),
        "method": estimate.method,
        "bit_means": [float(x) for x in estimate.bit_means],
        "counts": [int(x) for x in estimate.counts],
        "squashed_bits": [int(x) for x in estimate.squashed_bits],
        "metadata": json.loads(json.dumps(dict(estimate.metadata), default=str)),
    }
    return payload


class FlightRecorder:
    """Record one run's spans, events, and outcome into a directory.

    Parameters
    ----------
    directory:
        Artifact directory (created if missing).
    config:
        JSON-ready run configuration, stored verbatim in the manifest.
    seed:
        The run's RNG seed (manifest field; reports surface it).
    label:
        Human-readable run label (default: the directory name).
    metrics:
        Optional live :class:`~repro.observability.metrics.MetricsRegistry`;
        when given, each closing round-attempt span
        (:data:`~repro.observability.tracing.ROUND_SPAN`) writes a
        round-boundary metrics snapshot into the event log.
    append:
        Extend an existing ``events.jsonl`` instead of truncating it.
    """

    def __init__(
        self,
        directory: str | Path,
        config: Mapping[str, Any] | None = None,
        seed: int | None = None,
        label: str | None = None,
        metrics: Any = None,
        append: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.events_path = self.directory / EVENTS_FILENAME
        self.manifest_path = self.directory / MANIFEST_FILENAME
        self.config = dict(config) if config else {}
        self.seed = seed
        self.label = label if label is not None else self.directory.name
        self._metrics = metrics
        self._events = JsonLinesExporter(self.events_path, flush_every=1, append=append)
        self._n_spans = 0
        self._n_remote_spans = 0
        self._n_rounds = 0
        self._n_events = 0
        self._finalized = False

    # -- exporter protocol ---------------------------------------------
    def export(self, record: SpanRecord) -> None:
        """Write one span line; round spans also snapshot the metrics."""
        self._events.export(record)
        self._n_spans += 1
        if record.attributes.get("remote"):
            self._n_remote_spans += 1
        if record.name == ROUND_SPAN:
            self._n_rounds += 1
            boundary: dict[str, Any] = {
                "type": "round",
                "boundary": self._n_rounds,
                "round_index": record.attributes.get("round_index"),
                "attempt": record.attributes.get("attempt"),
            }
            if self._metrics is not None:
                boundary["metrics"] = self._metrics.snapshot()
            self._events.write_line(boundary)

    # -- explicit event surface ----------------------------------------
    def record_event(self, kind: str, payload: Mapping[str, Any] | None = None) -> None:
        """Append one free-form event line (``{"type": "event", "kind": ...}``)."""
        line: dict[str, Any] = {"type": "event", "kind": kind}
        if payload:
            line.update(dict(payload))
        self._events.write_line(line)
        self._n_events += 1

    def record_metrics(self, snapshot: Mapping[str, Any], label: str = "snapshot") -> None:
        """Append a labelled metrics-snapshot line."""
        self._events.write_line({"type": "metrics", "label": label, "metrics": dict(snapshot)})

    # -- manifest -------------------------------------------------------
    def finalize(
        self,
        estimate: Any = None,
        metrics: Mapping[str, Any] | None = None,
        profiler: Any = None,
        accountant: Any = None,
        meter: Any = None,
        analysis: Mapping[str, Any] | None = None,
        extra: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Write ``manifest.json``, close the event log, return the manifest.

        Idempotence is not attempted: a second call raises (the artifact is
        complete once finalized).
        """
        if self._finalized:
            raise ValueError(f"flight recorder for {self.directory} already finalized")
        self._finalized = True
        manifest: dict[str, Any] = {
            "format": ARTIFACT_FORMAT,
            "label": self.label,
            "seed": self.seed,
            "git_revision": git_revision(),
            "config": self.config,
            "events": {
                "path": EVENTS_FILENAME,
                "spans": self._n_spans,
                "remote_spans": self._n_remote_spans,
                "rounds": self._n_rounds,
                "events": self._n_events,
            },
        }
        if estimate is not None:
            manifest["estimate"] = _estimate_payload(estimate)
        if analysis is not None:
            manifest["analysis"] = dict(analysis)
        if metrics is not None:
            snapshot = dict(metrics)
            manifest["metrics"] = snapshot
            self.record_metrics(snapshot, label="final")
        if profiler is not None:
            manifest["profile"] = profiler.summary()
        if accountant is not None:
            manifest["privacy"] = {
                "epsilon_spent": float(accountant.spent_epsilon),
                "delta_spent": float(accountant.spent_delta),
                "epsilon_budget": accountant.epsilon_budget,
                "delta_budget": accountant.delta_budget,
                "ledger": [
                    {"epsilon": entry.epsilon, "delta": entry.delta, "note": entry.note}
                    for entry in accountant.entries
                ],
            }
        if meter is not None:
            manifest["bit_meter"] = {
                "total_bits": int(meter.total_bits),
                "max_bits_per_value": int(meter.max_bits_per_value),
                "max_bits_per_client": meter.max_bits_per_client,
            }
        if extra:
            manifest.update(dict(extra))
        self.manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
        )
        self._events.close()
        return manifest

    def close(self) -> None:
        """Close the event log without writing a manifest (aborted runs)."""
        self._events.close()
