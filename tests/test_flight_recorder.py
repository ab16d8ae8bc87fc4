"""Flight recorder + run report integration tests (PR 5 tentpole).

A recorded `trace --record` run must produce a complete artifact (event
log + manifest), render into a report containing every section the issue
demands (phase percentiles, bits sent, epsilon spend, recovery timeline,
Lemma 3.1 bound), and -- under ``--sim-clock`` -- be byte-identical across
two same-seed runs.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, run_traced_round
from repro.observability import (
    build_chrome_trace,
    build_report,
    load_run,
    render_markdown,
    write_chrome_trace,
)
from repro.observability.chrome_trace import SERVER_TRACK
from repro.observability.recorder import (
    ARTIFACT_FORMAT,
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    FlightRecorder,
)
from repro.observability.tracing import SpanRecord


def _run_recorded(tmp_path, name="run", **kwargs):
    record_dir = tmp_path / name
    defaults = dict(
        target="3a",
        quick=True,
        seed=7,
        sim_clock=True,
        record_dir=str(record_dir),
        stream=io.StringIO(),
    )
    defaults.update(kwargs)
    result = run_traced_round(**defaults)
    return record_dir, result


class TestFlightRecorderUnit:
    def test_round_boundary_snapshot_written(self, tmp_path):
        class FakeMetrics:
            def snapshot(self):
                return {"counters": {"rounds_total": 1.0}}

        recorder = FlightRecorder(tmp_path / "run", metrics=FakeMetrics())
        recorder.export(
            SpanRecord(
                name="federated.round",
                span_id=1,
                parent_id=None,
                start_time_s=0.0,
                duration_s=0.1,
                attributes={"round_index": 1, "attempt": 1},
            )
        )
        recorder.record_event("note", {"detail": "hello"})
        manifest = recorder.finalize()
        lines = [
            json.loads(line)
            for line in (tmp_path / "run" / EVENTS_FILENAME).read_text().splitlines()
        ]
        types = [line["type"] for line in lines]
        assert types == ["span", "round", "event"]
        assert lines[1]["metrics"]["counters"]["rounds_total"] == 1.0
        assert manifest["events"] == {
            "path": EVENTS_FILENAME,
            "spans": 1,
            "rounds": 1,
            "events": 1,
            "remote_spans": 0,
        }

    def test_finalize_twice_raises(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "run")
        recorder.finalize()
        with pytest.raises(ValueError):
            recorder.finalize()

    def test_load_run_skips_malformed_tail(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "run")
        recorder.record_event("ok")
        recorder.finalize()
        events = tmp_path / "run" / EVENTS_FILENAME
        events.write_text(events.read_text() + '{"type": "span", "trunc')
        artifact = load_run(tmp_path / "run")
        assert artifact.skipped_lines == 1
        assert len(artifact.events) == 1

    def test_load_run_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope")


class TestRecordedRun:
    def test_artifact_contents(self, tmp_path):
        record_dir, result = _run_recorded(tmp_path)
        assert (record_dir / EVENTS_FILENAME).exists()
        manifest = json.loads((record_dir / MANIFEST_FILENAME).read_text())
        assert manifest["format"] == ARTIFACT_FORMAT
        assert manifest["seed"] == 7
        assert manifest["config"]["target"] == "3a"
        assert manifest["config"]["epsilon"] == 2.0
        # Two adaptive rounds -> two ledger spends of epsilon=2 each.
        assert manifest["privacy"]["epsilon_spent"] == pytest.approx(4.0)
        assert len(manifest["privacy"]["ledger"]) == 2
        # Every delivered report is one metered bit.
        delivered = manifest["metrics"]["counters"]["round_reports_delivered_total"]
        assert manifest["bit_meter"]["total_bits"] == int(delivered)
        assert manifest["bit_meter"]["max_bits_per_value"] == 1
        assert manifest["estimate"]["n_clients"] == 2000
        assert manifest["analysis"]["bound_2sigma"] > 0
        phases = {p["name"] for p in manifest["profile"]["phases"]}
        assert "federated.round" in phases
        assert result["reconciled"]

    def test_event_log_has_round_boundaries(self, tmp_path):
        record_dir, _ = _run_recorded(tmp_path)
        lines = [
            json.loads(line)
            for line in (record_dir / EVENTS_FILENAME).read_text().splitlines()
        ]
        rounds = [line for line in lines if line["type"] == "round"]
        assert len(rounds) == 2
        assert rounds[0]["boundary"] == 1
        assert "counters" in rounds[0]["metrics"]

    def test_report_contains_required_sections(self, tmp_path):
        record_dir, _ = _run_recorded(tmp_path)
        report = build_report(load_run(record_dir))
        markdown = render_markdown(report)
        for needle in (
            "## Estimate vs. Lemma 3.1",
            "two-sigma bound",
            "## Communication budget",
            "bits sent",
            "## Privacy spend",
            "randomized response",
            "## Retry / degradation timeline",
            "## Phase profile",
            "p50 ms | p95 ms | p99 ms",
            "## Hot-path span tree",
            "federated.round",
        ):
            assert needle in markdown, f"report is missing {needle!r}"

    def test_sim_clock_runs_are_byte_identical(self, tmp_path):
        dir_a, _ = _run_recorded(tmp_path / "a", name="run")
        dir_b, _ = _run_recorded(tmp_path / "b", name="run")
        assert (dir_a / EVENTS_FILENAME).read_bytes() == (dir_b / EVENTS_FILENAME).read_bytes()
        assert (dir_a / MANIFEST_FILENAME).read_bytes() == (
            dir_b / MANIFEST_FILENAME
        ).read_bytes()
        report_a = render_markdown(build_report(load_run(dir_a)))
        report_b = render_markdown(build_report(load_run(dir_b)))
        assert report_a == report_b

    def test_chaos_run_records_retries_and_degradation(self, tmp_path):
        record_dir, result = _run_recorded(
            tmp_path,
            seed=3,
            max_retries=3,
            min_quorum=100,
            fault_schedule="1:blackout;2:loss=0.6",
        )
        assert result["reconciled"]
        report = build_report(load_run(record_dir))
        kinds = {entry["kind"] for entry in report["recovery"]}
        assert "failed" in kinds
        assert "retry" in kinds
        markdown = render_markdown(report)
        assert "retry" in markdown
        assert "below quorum" in markdown

    def test_report_cli_roundtrip(self, tmp_path, capsys):
        record_dir, _ = _run_recorded(tmp_path)
        assert main(["report", str(record_dir)]) == 0
        markdown = capsys.readouterr().out
        assert "# Run report:" in markdown
        assert "## Phase profile" in markdown
        assert main(["report", str(record_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 7
        assert payload["privacy"]["epsilon_spent"] == pytest.approx(4.0)
        assert payload["communication"]["bits_sent"] > 0
        assert payload["analysis"]["within_bound"] in (True, False)

    def test_unrecorded_run_has_no_artifact_side_effects(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        result = run_traced_round(
            "1a", quick=True, seed=0, out_path=str(out), stream=io.StringIO()
        )
        assert result["record_dir"] is None
        assert out.exists()
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_round_closes_its_artifact_in_one_line(self, tmp_path):
        """A recorded round that misses its quorum prints one line and leaves
        its event log without a manifest.  Under ``-X dev`` an unclosed file
        (the alert sink included) would add a ResourceWarning to stderr."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        record_dir = tmp_path / "x"
        proc = subprocess.run(
            [
                sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                "-m", "repro.cli", "trace", "1a", "--quick",
                "--record", str(record_dir), "--min-quorum", "100000",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("round failed: ")
        assert (record_dir / EVENTS_FILENAME).exists()
        assert not (record_dir / MANIFEST_FILENAME).exists()


def _span(name, span_id, start, duration, parent=None, status="ok", **attributes):
    return SpanRecord(
        name=name,
        span_id=span_id,
        parent_id=parent,
        start_time_s=start,
        duration_s=duration,
        status=status,
        attributes=attributes,
    )


class TestChromeTrace:
    """Chrome trace-event export: track layout, unit conversion, determinism."""

    RECORDS = [
        _span("serve.round", 1, 100.0, 0.5, round_index=0, attempt=1),
        _span("serve.announce", 2, 100.0, 0.01, parent=1),
        _span("fleet.round", 10, 100.002, 0.4, parent=1, remote=True, client=3),
        _span("fleet.encode", 11, 100.002, 0.0, parent=10, remote=True, client=3),
        _span("fleet.round", 12, 100.003, 0.3, parent=1, remote=True, client=0),
    ]

    def test_tracks_split_server_from_clients(self):
        document = build_chrome_trace(self.RECORDS, label="demo")
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        names = {e["args"]["name"] for e in metadata if e["name"] == "thread_name"}
        assert names == {"server", "client 0", "client 3"}
        # Client tracks are numbered 1.. in client-id order; server is track 0.
        by_name = {
            e["args"]["name"]: e["tid"]
            for e in metadata
            if e["name"] == "thread_name"
        }
        assert by_name["server"] == SERVER_TRACK
        assert by_name["client 0"] == 1
        assert by_name["client 3"] == 2
        tids = {e["name"]: e["tid"] for e in spans if e["cat"] == "server"}
        assert set(tids.values()) == {SERVER_TRACK}
        remote_tids = {e["args"]["client"]: e["tid"] for e in spans if e["cat"] == "fleet"}
        assert remote_tids == {0: 1, 3: 2}
        assert document["otherData"] == {"label": "demo", "spans": 5, "clients": 2}

    def test_timestamps_relative_microseconds_with_clamped_durations(self):
        events = build_chrome_trace(self.RECORDS)["traceEvents"]
        spans = {(e["name"], e["tid"]): e for e in events if e["ph"] == "X"}
        root = spans[("serve.round", SERVER_TRACK)]
        assert root["ts"] == pytest.approx(0.0)
        assert root["dur"] == pytest.approx(0.5e6)
        encode = spans[("fleet.encode", 2)]
        assert encode["ts"] == pytest.approx(2_000.0)
        assert encode["dur"] == 1.0  # zero-length spans stay clickable
        assert all(e["ts"] >= 0.0 and e["dur"] >= 1.0 for e in events if e["ph"] == "X")

    def test_span_args_carry_ids_status_and_attributes(self):
        failed = _span(
            "serve.round", 7, 0.0, 1.0, status="error", attempt=2, clients=(1, 2)
        )
        (event,) = [
            e for e in build_chrome_trace([failed])["traceEvents"] if e["ph"] == "X"
        ]
        assert event["args"]["span_id"] == 7
        assert event["args"]["status"] == "error"
        assert event["args"]["clients"] == [1, 2]
        assert "parent_id" not in event["args"]

    def test_write_is_deterministic_valid_json(self, tmp_path):
        path_a = tmp_path / "a" / "trace.json"
        path_b = tmp_path / "b" / "trace.json"
        write_chrome_trace(path_a, self.RECORDS, label="demo")
        write_chrome_trace(path_b, self.RECORDS, label="demo")
        assert path_a.read_bytes() == path_b.read_bytes()
        document = json.loads(path_a.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"

    def test_report_cli_exports_chrome_trace(self, tmp_path, capsys):
        record_dir, _ = _run_recorded(tmp_path)
        out = tmp_path / "trace.json"
        assert main(["report", str(record_dir), "--chrome-trace", str(out)]) == 0
        captured = capsys.readouterr()
        assert "# Run report:" in captured.out
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X"}
        assert any(e["name"] == "federated.round" for e in events)
        # An in-process run has no fleet clients, hence a single track.
        assert document["otherData"]["clients"] == 0
        # --json keeps stdout parseable: the notice goes to stderr.
        assert main(
            ["report", str(record_dir), "--json", "--chrome-trace", str(out)]
        ) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert str(out) in captured.err
