"""Run registry + ``repro.cli runs`` + report error handling (PR 6).

Covers the cross-run analytics surface: indexing a tree of recorded
artifacts (corrupt manifests flagged, not fatal), comparing two runs
(phase percentiles, counters, estimate error, alerts) in Markdown and
JSON, the ``runs check`` regression gate, and the ``report`` command's
one-line non-zero exits on missing/corrupt manifests.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main, run_report_command, run_traced_round
from repro.observability import (
    check_comparison,
    compare_runs,
    render_compare_markdown,
    render_list_markdown,
    scan_runs,
)
from repro.observability.recorder import MANIFEST_FILENAME


def _record(tmp_path, name, seed=7, **kwargs):
    record_dir = tmp_path / name
    defaults = dict(
        target="3a",
        quick=True,
        seed=seed,
        sim_clock=True,
        record_dir=str(record_dir),
        stream=io.StringIO(),
    )
    defaults.update(kwargs)
    run_traced_round(**defaults)
    return record_dir


@pytest.fixture(scope="module")
def recorded_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    baseline = _record(root, "baseline", seed=7)
    candidate = _record(root, "candidate", seed=8)
    return root, baseline, candidate


class TestScanRuns:
    def test_indexes_every_artifact(self, recorded_pair):
        root, baseline, candidate = recorded_pair
        entries = scan_runs(root)
        assert [e.directory for e in entries] == [baseline, candidate]
        assert all(e.ok for e in entries)
        by_label = {e.label: e for e in entries}
        assert by_label["baseline"].seed == 7
        assert by_label["candidate"].seed == 8
        assert by_label["baseline"].rounds == 2
        assert by_label["baseline"].estimate is not None

    def test_corrupt_manifest_is_flagged_not_fatal(self, tmp_path):
        good = _record(tmp_path, "good")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / MANIFEST_FILENAME).write_text("{not json")
        entries = scan_runs(tmp_path)
        assert len(entries) == 2
        statuses = {e.directory.name: e.ok for e in entries}
        assert statuses == {"good": True, "bad": False}
        bad_entry = next(e for e in entries if not e.ok)
        assert "JSONDecodeError" in bad_entry.error
        markdown = render_list_markdown(entries, tmp_path)
        assert "## Unreadable artifacts" in markdown
        assert str(good) in markdown

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scan_runs(tmp_path / "nope")


class TestCompareRuns:
    def test_comparison_covers_every_delta_family(self, recorded_pair):
        _, baseline, candidate = recorded_pair
        comparison = compare_runs(baseline, candidate)
        assert comparison["baseline"]["seed"] == 7
        assert comparison["candidate"]["seed"] == 8
        phase_names = {p["name"] for p in comparison["phases"]}
        assert "federated.round" in phase_names
        for phase in comparison["phases"]:
            assert phase["p95_ratio"] is None or phase["p95_ratio"] > 0
        counters = comparison["counters"]
        assert counters["rounds_total"]["delta"] == 0.0
        estimate = comparison["estimate"]
        assert estimate["baseline_value"] is not None
        assert estimate["error_ratio"] is None or estimate["error_ratio"] > 0
        for side in ("baseline", "candidate"):
            rollup = comparison["alerts"][side]
            assert set(rollup) == {
                "fired_total",
                "resolved_total",
                "active",
                "by_rule",
                "by_severity",
            }

    def test_same_run_compares_clean(self, recorded_pair):
        _, baseline, _ = recorded_pair
        comparison = compare_runs(baseline, baseline)
        ok, messages = check_comparison(comparison)
        assert ok
        assert messages == ["no regressions detected"]
        for phase in comparison["phases"]:
            assert phase["p95_ratio"] == pytest.approx(1.0)

    def test_markdown_sections(self, recorded_pair):
        _, baseline, candidate = recorded_pair
        markdown = render_compare_markdown(compare_runs(baseline, candidate))
        for needle in (
            "# Run comparison: baseline -> candidate",
            "## Phase percentiles",
            "p95 ratio",
            "## Estimate",
            "observed error",
            "## Counters",
            "rounds_total",
            "## Alerts",
            "by severity",
        ):
            assert needle in markdown, f"compare markdown is missing {needle!r}"


class TestCheckComparison:
    def _doctored(self, comparison, **patches):
        doctored = json.loads(json.dumps(comparison))
        doctored.update(patches)
        return doctored

    def test_phase_regression_fails(self, recorded_pair):
        _, baseline, _ = recorded_pair
        comparison = compare_runs(baseline, baseline)
        phase = comparison["phases"][0]
        phase["candidate_p95_s"] = phase["baseline_p95_s"] * 3.0
        phase["p95_ratio"] = 3.0
        ok, messages = check_comparison(comparison)
        assert not ok
        assert any("REGRESSION" in m and phase["name"] in m for m in messages)

    def test_critical_alert_regression_fails(self, recorded_pair):
        _, baseline, _ = recorded_pair
        comparison = compare_runs(baseline, baseline)
        comparison["alerts"]["candidate"]["by_severity"] = {"critical": 1}
        ok, messages = check_comparison(comparison)
        assert not ok
        assert any("critical alert" in m for m in messages)

    def test_error_blowup_fails_and_improvement_passes(self, recorded_pair):
        _, baseline, _ = recorded_pair
        comparison = compare_runs(baseline, baseline)
        comparison["estimate"]["error_ratio"] = 2.0
        ok, messages = check_comparison(comparison)
        assert not ok
        assert any("estimate error" in m for m in messages)
        comparison["estimate"]["error_ratio"] = 0.5
        ok, _ = check_comparison(comparison)
        assert ok

    def test_tolerance_validation(self, recorded_pair):
        _, baseline, _ = recorded_pair
        comparison = compare_runs(baseline, baseline)
        with pytest.raises(ValueError):
            check_comparison(comparison, tolerance=1.0)


class TestRunsCli:
    def test_list_and_json(self, recorded_pair, capsys):
        root, _, _ = recorded_pair
        assert main(["runs", "list", str(root)]) == 0
        out = capsys.readouterr().out
        assert "# Recorded runs under" in out
        assert "baseline" in out and "candidate" in out
        assert main(["runs", "list", str(root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert {e["label"] for e in payload} == {"baseline", "candidate"}

    def test_compare_and_json(self, recorded_pair, capsys):
        _, baseline, candidate = recorded_pair
        assert main(["runs", "compare", str(baseline), str(candidate)]) == 0
        assert "## Phase percentiles" in capsys.readouterr().out
        assert main(["runs", "compare", str(baseline), str(candidate), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"baseline", "candidate", "phases", "counters", "estimate", "alerts"}

    def test_check_exit_codes(self, recorded_pair, capsys):
        _, baseline, candidate = recorded_pair
        assert main(["runs", "check", str(baseline), str(baseline)]) == 0
        assert "no regressions detected" in capsys.readouterr().out
        # A huge tolerance can never fail a self-comparison; a missing dir must.
        assert main(["runs", "check", str(baseline), str(candidate), "--tolerance", "50"]) == 0
        capsys.readouterr()

    def test_missing_directory_is_a_one_line_error(self, recorded_pair, tmp_path, capsys):
        _, baseline, _ = recorded_pair
        assert main(["runs", "compare", str(baseline), str(tmp_path / "nope")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1


class TestReportErrorHandling:
    def test_missing_manifest_one_line_exit_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_corrupt_manifest_one_line_exit_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / MANIFEST_FILENAME).write_text("{definitely not json")
        assert main(["report", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_error_stream_is_injectable(self, tmp_path):
        err = io.StringIO()
        assert run_report_command(str(tmp_path / "nope"), error_stream=err) == 2
        assert err.getvalue().startswith("error:")
