"""Schema stability test for ``repro.cli trace --json`` (PR 5 satellite).

Downstream tooling parses this output; the test pins the top-level keys,
their types, and the per-span record fields so accidental schema drift
fails loudly.
"""

from __future__ import annotations

import io
import json

from repro.cli import run_traced_round

TOP_LEVEL_TYPES = {
    "target": str,
    "seed": int,
    "quick": bool,
    "clients": int,
    "secure_agg": bool,
    "shard_size": int,
    "estimate": float,
    "truth": float,
    "reconciled": bool,
    "n_spans": int,
    "trace_path": str,
    "analysis": dict,
    "health": dict,
    "recovery": dict,
    "spans": list,
    "metrics": dict,
}

SPAN_FIELD_TYPES = {
    "type": str,
    "name": str,
    "span_id": int,
    "start_time_s": float,
    "duration_s": float,
    "status": str,
    "attributes": dict,
}

ANALYSIS_KEYS = {
    "truth",
    "observed_error",
    "predicted_std",
    "bound_2sigma",
    "within_bound",
    "epsilon",
}


def _trace_json(tmp_path, **kwargs):
    stream = io.StringIO()
    run_traced_round(
        "1a",
        quick=True,
        seed=0,
        out_path=str(tmp_path / "trace.jsonl"),
        stream=stream,
        as_json=True,
        **kwargs,
    )
    return json.loads(stream.getvalue())


class TestTraceJsonSchema:
    def test_top_level_keys_and_types(self, tmp_path):
        payload = _trace_json(tmp_path)
        assert set(payload) == set(TOP_LEVEL_TYPES) | {"record_dir", "chunk"}
        for key, expected in TOP_LEVEL_TYPES.items():
            assert isinstance(payload[key], expected), (key, type(payload[key]))
        assert payload["record_dir"] is None
        # chunk is nullable: None means the REPRO_BATCH_CHUNK default.
        assert payload["chunk"] is None or isinstance(payload["chunk"], int)

    def test_columnar_round_trip(self, tmp_path):
        payload = _trace_json(tmp_path, clients=500, chunk=64)
        assert payload["clients"] == 500
        assert payload["chunk"] == 64
        names = {span["name"] for span in payload["spans"]}
        assert "client_plane.elicit" in names
        assert "client_plane.collect" in names

    def test_span_record_fields(self, tmp_path):
        payload = _trace_json(tmp_path)
        assert payload["n_spans"] == len(payload["spans"])
        assert payload["spans"], "trace produced no spans"
        for span in payload["spans"]:
            assert set(span) == set(SPAN_FIELD_TYPES) | {"parent_id"}
            for key, expected in SPAN_FIELD_TYPES.items():
                assert isinstance(span[key], expected), (key, type(span[key]))
            assert span["parent_id"] is None or isinstance(span["parent_id"], int)
        names = {span["name"] for span in payload["spans"]}
        assert "federated.query" in names
        assert "federated.round" in names

    def test_analysis_and_recovery_sections(self, tmp_path):
        payload = _trace_json(tmp_path)
        assert set(payload["analysis"]) == ANALYSIS_KEYS
        assert payload["analysis"]["bound_2sigma"] >= 0.0
        assert set(payload["recovery"]) == {
            "round_attempts",
            "degraded_rounds",
            "backoff_s",
        }
        assert isinstance(payload["recovery"]["round_attempts"], list)

    def test_health_section_shape(self, tmp_path):
        payload = _trace_json(tmp_path)
        health = payload["health"]
        assert {
            "rules",
            "evaluations",
            "fired_total",
            "resolved_total",
            "by_rule",
            "by_severity",
            "active",
        } <= set(health)
        assert health["evaluations"] >= 1

    def test_metrics_snapshot_shape(self, tmp_path):
        payload = _trace_json(tmp_path)
        assert set(payload["metrics"]) == {"counters", "gauges", "histograms"}
        counters = payload["metrics"]["counters"]
        assert counters["round_reports_planned_total"] == (
            counters["round_reports_delivered_total"]
            + counters["round_reports_lost_total"]
        )

    def test_json_output_is_machine_only(self, tmp_path):
        stream = io.StringIO()
        run_traced_round(
            "1a",
            quick=True,
            seed=0,
            out_path=str(tmp_path / "trace.jsonl"),
            stream=stream,
            as_json=True,
        )
        # The whole stream must be one JSON document -- no banner lines.
        json.loads(stream.getvalue())

    def test_recorded_json_points_at_artifact(self, tmp_path):
        payload = _trace_json(
            tmp_path, record_dir=str(tmp_path / "run"), sim_clock=True
        )
        assert payload["record_dir"] == str(tmp_path / "run")
