"""Tests for the bench regression gate (``scripts/bench_summary.py --check``)."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"

spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def _entry(label, means):
    return {
        "label": label,
        "python": "3.11",
        "cpu_count": 4,
        "n_benchmarks": len(means),
        "benchmarks": [
            {"name": name, "mean_s": mean, "stddev_s": mean / 10, "min_s": mean, "rounds": 5}
            for name, mean in sorted(means.items())
        ],
    }


BASE_MEANS = {"bench::alpha": 0.010, "bench::beta": 0.020}


def _write_trajectory(path, entries):
    path.write_text(json.dumps({"trajectory": entries}, indent=2))


class TestCheckRegressions:
    def test_identical_entries_pass(self):
        entries = [_entry("seed", BASE_MEANS), _entry("pr", BASE_MEANS)]
        ok, messages = bench_summary.check_regressions(entries)
        assert ok
        assert all(m.startswith("ok ") for m in messages)

    def test_doctored_slowdown_fails_naming_the_benchmark(self):
        slowed = copy.deepcopy(BASE_MEANS)
        slowed["bench::beta"] = BASE_MEANS["bench::beta"] * 2.0
        entries = [_entry("seed", BASE_MEANS), _entry("pr", slowed)]
        ok, messages = bench_summary.check_regressions(entries, tolerance=1.25)
        assert not ok
        regression_lines = [m for m in messages if m.startswith("REGRESSION")]
        assert len(regression_lines) == 1
        assert "bench::beta" in regression_lines[0]
        assert "2.00x" in regression_lines[0]

    def test_explicit_baseline_label(self):
        entries = [
            _entry("seed", BASE_MEANS),
            _entry("mid", {k: v * 3 for k, v in BASE_MEANS.items()}),
            _entry("pr", BASE_MEANS),
        ]
        # Against the previous ("mid") entry the newest looks 3x faster; the
        # named baseline compares seed-to-pr instead.
        ok, _ = bench_summary.check_regressions(entries, baseline_label="seed")
        assert ok

    def test_missing_baseline_label_fails(self):
        entries = [_entry("seed", BASE_MEANS), _entry("pr", BASE_MEANS)]
        ok, messages = bench_summary.check_regressions(entries, baseline_label="nope")
        assert not ok
        assert "nope" in messages[0]

    def test_single_entry_fails(self):
        ok, messages = bench_summary.check_regressions([_entry("seed", BASE_MEANS)])
        assert not ok
        assert "single entry" in messages[0]

    def test_disjoint_benchmarks_fail(self):
        entries = [
            _entry("seed", {"bench::old": 0.01}),
            _entry("pr", {"bench::new": 0.01}),
        ]
        ok, messages = bench_summary.check_regressions(entries)
        assert not ok
        assert "share no" in messages[0]

    def test_small_speedup_and_slowdown_within_tolerance_pass(self):
        newer = {"bench::alpha": 0.009, "bench::beta": 0.022}
        entries = [_entry("seed", BASE_MEANS), _entry("pr", newer)]
        ok, _ = bench_summary.check_regressions(entries, tolerance=1.25)
        assert ok


def _scale_entry(label, serve_rate, columnar_rate=50_000.0, telemetry=True):
    return {
        "label": label,
        "clients_per_s": {"100000": columnar_rate},
        "serve": {
            "n_clients": 256,
            "telemetry": telemetry,
            "reports_per_s": serve_rate,
            "concurrent_campaigns": 4,
            "concurrent_reports_per_s": serve_rate * 2.5,
        },
    }


class TestScaleRegressions:
    def test_unchanged_scale_entries_pass(self):
        entries = [_scale_entry("seed", 9_000.0), _scale_entry("pr", 9_000.0)]
        ok, messages = bench_summary.check_scale_regressions(entries)
        assert ok
        assert any("serve@256" in m for m in messages)

    def test_telemetry_on_serve_regression_gets_the_distinct_message(self):
        entries = [_scale_entry("seed", 9_000.0), _scale_entry("pr", 4_000.0)]
        ok, messages = bench_summary.check_scale_regressions(entries)
        assert not ok
        serve_failures = [m for m in messages if "serve@256" in m]
        assert serve_failures
        assert all(m.startswith("TELEMETRY REGRESSION") for m in serve_failures)
        assert any("drain/ingest" in m for m in serve_failures)

    def test_telemetry_off_serve_regression_stays_plain(self):
        entries = [
            _scale_entry("seed", 9_000.0, telemetry=False),
            _scale_entry("pr", 4_000.0, telemetry=False),
        ]
        ok, messages = bench_summary.check_scale_regressions(entries)
        assert not ok
        serve_failures = [m for m in messages if "serve@256" in m]
        assert all(m.startswith("REGRESSION") for m in serve_failures)

    def test_columnar_regression_is_not_blamed_on_telemetry(self):
        entries = [
            _scale_entry("seed", 9_000.0),
            _scale_entry("pr", 9_000.0, columnar_rate=10_000.0),
        ]
        ok, messages = bench_summary.check_scale_regressions(entries)
        assert not ok
        (failure,) = [m for m in messages if "columnar@100000" in m]
        assert failure.startswith("REGRESSION ")
        assert "TELEMETRY" not in failure

    def test_summarize_scale_threads_the_telemetry_flag(self):
        payload = {
            "serve": {
                "n_clients": 256,
                "telemetry": True,
                "reports_per_s": 9_000.0,
                "campaigns": {"count": 4, "reports_per_s": 20_000.0},
            }
        }
        entry = bench_summary.summarize_scale(payload, label="pr")
        assert entry["serve"]["telemetry"] is True


class TestCheckCli:
    def test_check_passes_on_unchanged_trajectory(self, tmp_path, capsys):
        trajectory = tmp_path / "BENCH.json"
        _write_trajectory(trajectory, [_entry("seed", BASE_MEANS), _entry("pr", BASE_MEANS)])
        assert bench_summary.main(["--check", str(trajectory)]) == 0
        assert "bench check passed" in capsys.readouterr().out

    def test_check_fails_nonzero_on_doctored_entry(self, tmp_path, capsys):
        slowed = copy.deepcopy(BASE_MEANS)
        slowed["bench::alpha"] = BASE_MEANS["bench::alpha"] * 2.0
        trajectory = tmp_path / "BENCH.json"
        _write_trajectory(trajectory, [_entry("seed", BASE_MEANS), _entry("pr", slowed)])
        assert bench_summary.main(["--check", str(trajectory)]) == 1
        assert "bench::alpha" in capsys.readouterr().err

    def test_check_with_tolerance_flag(self, tmp_path):
        slowed = {k: v * 1.8 for k, v in BASE_MEANS.items()}
        trajectory = tmp_path / "BENCH.json"
        _write_trajectory(trajectory, [_entry("seed", BASE_MEANS), _entry("pr", slowed)])
        assert bench_summary.main(["--check", str(trajectory)]) == 1
        assert bench_summary.main(["--check", str(trajectory), "--tolerance", "2.0"]) == 0

    def test_check_missing_file_errors(self, tmp_path, capsys):
        assert bench_summary.main(["--check", str(tmp_path / "missing.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_repo_trajectory_passes_against_seed(self):
        # The committed trajectory must satisfy its own gate (generous
        # tolerance: the entries were measured on different machines).
        repo_trajectory = SCRIPT.parent.parent / "BENCH_micro.json"
        assert (
            bench_summary.main(
                ["--check", str(repo_trajectory), "--baseline", "seed", "--tolerance", "3.0"]
            )
            == 0
        )

    def test_summarize_still_requires_both_positionals(self, capsys):
        try:
            bench_summary.main([])
        except SystemExit as exc:
            assert exc.code != 0
        else:  # pragma: no cover - argparse always exits
            raise AssertionError("expected SystemExit")


class TestScaleSummarizeCli:
    PAYLOAD = {"chunk": 65536, "columnar": {"100000": {"clients_per_s": 11_000_000.0}}}

    def _run(self, tmp_path, payload, label):
        source = tmp_path / "scale.json"
        source.write_text(json.dumps(payload))
        destination = tmp_path / "BENCH_scale.json"
        return bench_summary.main(
            ["--scale", str(source), str(destination), "--label", label]
        ), destination

    def test_carried_forward_rates_are_rejected(self, tmp_path, capsys):
        assert self._run(tmp_path, self.PAYLOAD, "seed")[0] == 0
        capsys.readouterr()
        code, destination = self._run(tmp_path, self.PAYLOAD, "pr8")
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "carried-forward" in err and "'seed'" in err
        labels = [e["label"] for e in bench_summary.load_trajectory(destination)]
        assert labels == ["seed"]

    def test_remeasured_rates_are_appended(self, tmp_path):
        assert self._run(tmp_path, self.PAYLOAD, "seed")[0] == 0
        remeasured = copy.deepcopy(self.PAYLOAD)
        remeasured["columnar"]["100000"]["clients_per_s"] = 11_000_001.0
        code, destination = self._run(tmp_path, remeasured, "pr12")
        assert code == 0
        labels = [e["label"] for e in bench_summary.load_trajectory(destination)]
        assert labels == ["seed", "pr12"]
        # The scale study no longer runs an object-path reference round.
        entry = bench_summary.load_trajectory(destination)[-1]
        assert not {"speedup_vs_object", "object_reference_n"} & set(entry)

    def test_resummarizing_the_same_label_is_not_a_carry_forward(self, tmp_path):
        # Replacing an entry compares against the one before it, not itself.
        assert self._run(tmp_path, self.PAYLOAD, "seed")[0] == 0
        code, destination = self._run(tmp_path, self.PAYLOAD, "seed")
        assert code == 0
        assert len(bench_summary.load_trajectory(destination)) == 1
