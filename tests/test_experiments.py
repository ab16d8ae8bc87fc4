"""Experiment harness: figure functions, method registry, report rendering, CLI.

Figure functions run here at drastically reduced scale -- the goal is to
test plumbing (labels, shapes, metrics, determinism), not to re-validate
accuracy claims (the benchmarks do that at full scale).
"""

import gc
import io
import socket
import warnings

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cli import run_traced_round
from repro.exceptions import ConfigurationError
from repro.experiments import (
    figure_1a,
    figure_1c,
    figure_2a,
    figure_3b,
    figure_4a,
    figure_4b,
    figure_4c,
    mean_methods,
    render_series_table,
    render_snapshot,
    variance_methods,
)
from repro.experiments.figure1 import bits_for_normal

QUICK = {"n_reps": 3}


class TestMethodRegistry:
    def test_paper_methods_built(self):
        methods = mean_methods(10)
        assert set(methods) == {"dithering", "weighted a=0.5", "weighted a=1.0", "adaptive"}

    def test_all_methods_estimate(self, rng):
        values = np.full(2_000, 300.0)
        for label, method in mean_methods(10, epsilon=2.0, include=[
            "dithering", "weighted a=0.5", "adaptive", "piecewise", "duchi",
            "randomized-rounding", "laplace",
        ]).items():
            estimate = method(values, rng)
            assert estimate == pytest.approx(300.0, abs=120.0), label

    def test_ldp_methods_require_epsilon(self):
        with pytest.raises(ConfigurationError):
            mean_methods(10, include=["piecewise"])
        with pytest.raises(ConfigurationError):
            mean_methods(10, include=["laplace"])

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_methods(10, include=["quantum"])

    def test_variance_methods_estimate(self, rng):
        values = np.clip(rng.normal(300, 50, 20_000), 0, None)
        for label, method in variance_methods(10).items():
            estimate = method(values, rng)
            assert estimate == pytest.approx(values.var(), rel=1.5), label

    def test_variance_unknown_label(self):
        with pytest.raises(ConfigurationError):
            variance_methods(10, include=["bogus"])


class TestFigureFunctions:
    def test_bits_for_normal_steps_at_powers_of_two(self):
        assert bits_for_normal(100.0, 100.0) == 9     # 500 -> 9 bits
        assert bits_for_normal(600.0, 100.0) == 10    # 1000 -> 10 bits
        assert bits_for_normal(700.0, 100.0) == 11    # 1100 -> 11 bits

    def test_figure_1a_structure(self):
        results = figure_1a(n_clients=500, mus=(100.0, 400.0), **QUICK)
        assert set(results) == {"dithering", "weighted a=0.5", "weighted a=1.0", "adaptive"}
        for series in results.values():
            assert series.x == [100.0, 400.0]
            assert all(v >= 0 for v in series.nrmse)

    def test_figure_1c_structure(self):
        results = figure_1c(n_clients=500, bit_depths=(11, 14), **QUICK)
        assert results["adaptive"].x == [11.0, 14.0]

    def test_figure_2a_structure(self):
        results = figure_2a(cohorts=(500, 1_000), **QUICK)
        assert results["adaptive"].x == [500.0, 1000.0]

    def test_figure_3b_structure(self):
        results = figure_3b(epsilons=(2.0,), n_clients=500, **QUICK)
        assert "piecewise" in results
        assert results["piecewise"].x == [2.0]

    def test_figure_3b_extras(self):
        results = figure_3b(epsilons=(2.0,), n_clients=300, include_extras=True, **QUICK)
        assert "laplace" in results and "duchi" in results

    def test_figure_4a_structure(self):
        results = figure_4a(multiples=(0.0, 2.0), n_clients=500, **QUICK)
        assert set(results) == {"adaptive+squash", "weighted a=1.0 (no squash)"}

    def test_figure_4c_structure(self):
        results = figure_4c(bit_depths=(8, 12), n_clients=500, **QUICK)
        assert "adaptive+squash" in results

    def test_figures_deterministic(self):
        a = figure_1a(n_clients=300, mus=(200.0,), n_reps=2, seed=7)
        b = figure_1a(n_clients=300, mus=(200.0,), n_reps=2, seed=7)
        assert a["adaptive"].nrmse == b["adaptive"].nrmse


class TestFigure4b:
    def test_snapshot_shape(self):
        snap = figure_4b(n_clients=2_000, n_bits=12, seed=1)
        assert snap.bit_means.shape == (12,)
        assert snap.counts.sum() == 2_000
        assert snap.threshold == 0.05

    def test_dense_region_and_noise_region(self):
        snap = figure_4b(n_clients=10_000, n_bits=16, seed=2)
        # Ages occupy ~7 bits: the low bits carry real means, the top bits
        # are pure randomized-response noise.
        assert snap.true_bit_means[:6].min() > 0.05
        assert snap.true_bit_means[8:].max() == 0.0
        assert set(snap.noisy_bits) >= set(range(10, 16))


class TestRendering:
    def test_series_table(self):
        results = figure_1a(n_clients=300, mus=(200.0,), n_reps=2)
        table = render_series_table("Figure 1a", results, metric="nrmse", x_name="mu")
        assert "### Figure 1a" in table
        assert "| mu |" in table
        assert "adaptive" in table
        assert "±" in table

    def test_mismatched_grids_rejected(self):
        a = figure_1a(n_clients=300, mus=(200.0,), n_reps=2)
        b = figure_1a(n_clients=300, mus=(400.0,), n_reps=2)
        with pytest.raises(ValueError):
            render_series_table("bad", {"a": a["adaptive"], "b": b["adaptive"]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_series_table("empty", {})

    def test_snapshot_rendering(self):
        snap = figure_4b(n_clients=2_000, n_bits=10, seed=3)
        text = render_snapshot(snap)
        assert "| bit |" in text
        assert "epsilon=2" in text


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "1a" in out and "poisoning" in out

    def test_figure_quick(self, capsys):
        assert cli_main(["figure", "1c", "--quick"]) == 0
        assert "### Figure 1c" in capsys.readouterr().out

    def test_figure_4b(self, capsys):
        assert cli_main(["figure", "4b"]) == 0
        assert "| bit |" in capsys.readouterr().out

    def test_ablation_quick(self, capsys):
        assert cli_main(["ablation", "b-send", "--quick"]) == 0
        assert "b_send" in capsys.readouterr().out

    def test_unknown_panel_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["figure", "9z"])
        # Consume argparse's usage/error text so it never leaks into the
        # pytest progress output.
        captured = capsys.readouterr()
        assert "invalid choice" in captured.err

    def test_figure_choices_sorted(self):
        """4b is registered like every other panel: choices stay sorted."""
        from repro.cli import DIAGNOSTICS, FIGURES, FIGURE_PANELS

        assert FIGURE_PANELS == sorted(FIGURE_PANELS)
        assert "4b" in DIAGNOSTICS
        assert set(DIAGNOSTICS).isdisjoint(FIGURES)

    @pytest.mark.parametrize(
        ("argv", "code", "prefix"),
        [
            ("trace 1a --clients 1", 2, "error: "),
            ("trace 1a --quick --chunk 0", 2, "error: "),
            ("trace 1a --quick --secure-agg --shard-size 0", 2, "error: "),
            ("trace 1a --quick --min-quorum 0", 2, "error: "),
            ("trace 1a --quick --max-retries -1", 2, "error: "),
            ("trace 1a --quick --min-quorum 100000", 1, "round failed: "),
            ("serve --clients 0", 2, "error: "),
            ("serve --clients 2 --max-retries -1", 2, "error: "),
            ("serve --clients 2 --epsilon 1000", 2, "error: "),
            ("fleet --clients 0 --port 1", 2, "error: "),
            ("fleet --clients 2 --port 1 --emulation bogus", 2, "error: "),
            ("figure 1a --quick --workers 0", 2, "error: "),
            ("runs check RUN RUN --tolerance 1.0", 2, "error: "),
            ("trace 1a --quick --seed -1", 2, "error: "),
            ("serve --clients 2 --seed -1", 2, "error: "),
            ("fleet --clients 2 --port 1 --seed -1", 2, "error: "),
            ("selfcheck --seed -1", 2, "error: "),
            ("serve --clients 2 --port 99999", 2, "error: "),
            ("fleet --clients 2 --port 70000", 2, "error: "),
            ("report LIST", 2, "error: "),
            ("runs compare LIST LIST", 2, "error: "),
            ("runs check LIST LIST", 2, "error: "),
        ],
    )
    def test_bad_input_ends_in_one_line(self, argv, code, prefix, tmp_path, capsys):
        """A misconfiguration is one ``error:`` line and exit 2, never a
        traceback; a round that misses its quorum is one line and exit 1."""
        args = argv.split()
        if args[0] == "trace":
            args += ["--out", str(tmp_path / "trace.jsonl")]
        if "RUN" in args:
            run_dir = tmp_path / "run"
            run_traced_round(
                "3a", quick=True, sim_clock=True, record_dir=str(run_dir), stream=io.StringIO()
            )
            args = [str(run_dir) if arg == "RUN" else arg for arg in args]
        if "LIST" in args:
            # A manifest that parses as JSON but is not an object.
            (tmp_path / "list").mkdir()
            (tmp_path / "list" / "manifest.json").write_text("[1, 2]\n")
            args = [str(tmp_path / "list") if arg == "LIST" else arg for arg in args]
        assert cli_main(args) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(prefix)

    def _assert_os_error_line(self, args, capsys):
        """An operating-system error is one ``error:`` line and exit 2, and
        leaves no file or socket open."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(args) == 2
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: [Errno ")

    def test_serve_on_a_port_in_use(self, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen()
            port = str(sock.getsockname()[1])
            self._assert_os_error_line(["serve", "--clients", "2", "--port", port], capsys)

    def test_serve_with_an_unwritable_port_file(self, tmp_path, capsys):
        port_file = str(tmp_path / "absent" / "port")
        self._assert_os_error_line(["serve", "--clients", "2", "--port-file", port_file], capsys)

    def test_fleet_refused_by_the_server(self, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = str(sock.getsockname()[1])
        self._assert_os_error_line(["fleet", "--clients", "16", "--port", port], capsys)

    def test_trace_record_under_a_file(self, tmp_path, capsys):
        (tmp_path / "F").touch()
        run_dir = str(tmp_path / "F" / "run")
        self._assert_os_error_line(["trace", "1a", "--quick", "--record", run_dir], capsys)

    def test_selfcheck_trace_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "F").touch()
        trace_out = str(tmp_path / "F" / "t.jsonl")
        self._assert_os_error_line(["selfcheck", "--trace-out", trace_out], capsys)
