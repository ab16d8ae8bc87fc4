"""Trial-execution engine: determinism and plumbing.

The engine's whole value proposition is "faster, same bytes": every test
here is some flavour of *bit-identical* -- serial vs parallel executors,
explicit vs environment-configured worker counts -- plus the error paths
that protect the contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BasicBitPushing, FixedPointEncoder
from repro.exceptions import ConfigurationError, PrivacyBudgetExceeded
from repro.experiments import figure_1a, render_series_table
from repro.federated.multivalue import elicit_batch, elicit_single_value
from repro.metrics.execution import (
    CellTask,
    ParallelExecutor,
    SerialExecutor,
    configure_executor,
    executor_for,
    get_executor,
    resolve_workers,
    use_executor,
)
from repro.metrics.experiment import run_trials
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer, instrumented
from repro.privacy import BitMeter, RandomizedResponse


def _make_data(rng: np.random.Generator) -> np.ndarray:
    return np.clip(rng.normal(600.0, 100.0, size=500), 0.0, None)


def _estimator(encoder=None, **kwargs) -> BasicBitPushing:
    return BasicBitPushing(encoder or FixedPointEncoder.for_integers(10), **kwargs)


def _run(executor, estimator, n_reps=12, seed=7):
    stats = run_trials(
        _make_data,
        lambda values, rng: estimator.estimate(values, rng).value,
        n_reps=n_reps,
        seed=seed,
        executor=executor,
    )
    return stats.estimates, stats.truths


# ----------------------------------------------------------------------
# Executor determinism
# ----------------------------------------------------------------------


class TestExecutorDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial_est, serial_truth = _run(SerialExecutor(), _estimator())
        for workers in (2, 3, 5):
            par_est, par_truth = _run(ParallelExecutor(workers), _estimator())
            np.testing.assert_array_equal(serial_est, par_est)
            np.testing.assert_array_equal(serial_truth, par_truth)

    def test_more_workers_than_reps(self):
        serial = _run(SerialExecutor(), _estimator(), n_reps=3)
        parallel = _run(ParallelExecutor(8), _estimator(), n_reps=3)
        np.testing.assert_array_equal(serial[0], parallel[0])

    def test_parallel_with_perturbation_matches_serial(self):
        rr = RandomizedResponse(epsilon=2.0)
        serial = _run(SerialExecutor(), _estimator(perturbation=rr))
        parallel = _run(ParallelExecutor(2), _estimator(perturbation=rr))
        np.testing.assert_array_equal(serial[0], parallel[0])

    def test_executor_advances_parent_identically(self):
        # Two consecutive cells on one generator: the second must see the
        # same spawn state regardless of how the first was executed.
        for executor in (SerialExecutor(), ParallelExecutor(2)):
            parent = np.random.default_rng(99)
            first = run_trials(
                _make_data,
                lambda values, rng: _estimator().estimate(values, rng).value,
                n_reps=4,
                seed=parent,
                executor=executor,
            )
            second = run_trials(
                _make_data,
                lambda values, rng: _estimator().estimate(values, rng).value,
                n_reps=4,
                seed=parent,
                executor=executor,
            )
            assert not np.array_equal(first.estimates, second.estimates)
            if isinstance(executor, SerialExecutor):
                baseline = (first.estimates.copy(), second.estimates.copy())
            else:
                np.testing.assert_array_equal(first.estimates, baseline[0])
                np.testing.assert_array_equal(second.estimates, baseline[1])

    def test_generator_without_seed_sequence_rejected(self):
        class _NoSeedSeq:
            seed_seq = object()

        class _FakeGen:
            bit_generator = _NoSeedSeq()

        task = CellTask(_make_data, lambda v, r: 0.0, lambda v: 0.0)
        with pytest.raises(ConfigurationError, match="SeedSequence"):
            SerialExecutor().run_cell(task, 2, _FakeGen())


# ----------------------------------------------------------------------
# Figure regression: --workers N output is byte-identical
# ----------------------------------------------------------------------


class TestFigureWorkersRegression:
    def test_figure_1a_table_identical_across_worker_counts(self):
        kwargs = {"n_clients": 500, "n_reps": 6, "mus": (100, 1000)}
        serial = figure_1a(**kwargs, executor=SerialExecutor())
        parallel = figure_1a(**kwargs, executor=ParallelExecutor(2))
        assert render_series_table("Figure 1a", serial) == render_series_table(
            "Figure 1a", parallel
        )
        for label in serial:
            for cell_s, cell_p in zip(serial[label].stats, parallel[label].stats):
                np.testing.assert_array_equal(cell_s.estimates, cell_p.estimates)
                np.testing.assert_array_equal(cell_s.truths, cell_p.truths)


# ----------------------------------------------------------------------
# Worker-count resolution and default-executor plumbing
# ----------------------------------------------------------------------


class TestWorkerResolution:
    def test_explicit_count(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert resolve_workers(None) == 1

    def test_invalid_counts_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_executor_for(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert isinstance(executor_for(1), SerialExecutor)
        assert isinstance(executor_for(None), SerialExecutor)
        parallel = executor_for(4)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 4

    def test_parallel_requires_two_workers(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(1)

    def test_default_executor_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        configure_executor(None)
        try:
            executor = get_executor()
            assert isinstance(executor, ParallelExecutor)
            assert executor.workers == 2
        finally:
            configure_executor(None)

    def test_use_executor_restores_previous(self):
        configure_executor(None)
        inner = SerialExecutor()
        with use_executor(inner) as active:
            assert active is inner
            assert get_executor() is inner
        assert get_executor() is not inner
        configure_executor(None)


# ----------------------------------------------------------------------
# Observability: executor spans and engine metrics
# ----------------------------------------------------------------------


class TestExecutorObservability:
    def _run_instrumented(self, executor):
        memory = InMemoryExporter()
        registry = MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            _run(executor, _estimator(), n_reps=6)
        return memory.records, registry.snapshot()

    def test_serial_span_and_metrics(self):
        records, snapshot = self._run_instrumented(SerialExecutor())
        chunk_spans = [r for r in records if r.name == "executor.chunk"]
        assert len(chunk_spans) == 1
        assert chunk_spans[0].attributes["backend"] == "serial"
        assert chunk_spans[0].attributes["reps"] == 6
        assert snapshot["counters"]["trials_executed_total"] == 6
        assert snapshot["gauges"]["executor_workers"] == 1
        assert snapshot["histograms"]["trial_cell_duration_s"]["count"] == 1

    def test_parallel_spans_and_metrics(self):
        records, snapshot = self._run_instrumented(ParallelExecutor(3))
        chunk_spans = [r for r in records if r.name == "executor.chunk"]
        assert len(chunk_spans) == 3
        assert all(s.attributes["backend"] == "process-pool" for s in chunk_spans)
        assert sorted(s.attributes["chunk"] for s in chunk_spans) == [0, 1, 2]
        assert sum(s.attributes["reps"] for s in chunk_spans) == 6
        assert snapshot["counters"]["trials_executed_total"] == 6
        assert snapshot["gauges"]["executor_workers"] == 3


# ----------------------------------------------------------------------
# Satellite kernels: elicit_batch and BitMeter.record_batch
# ----------------------------------------------------------------------


class TestElicitBatch:
    @pytest.mark.parametrize("strategy", ["sample", "mean", "max", "latest"])
    def test_matches_per_client_loop(self, strategy):
        rng = np.random.default_rng(17)
        value_sets = [rng.normal(50, 10, int(rng.integers(1, 6))) for _ in range(40)]
        gen_loop = np.random.default_rng(5)
        gen_batch = np.random.default_rng(5)
        looped = np.array(
            [elicit_single_value(v, strategy, gen_loop) for v in value_sets]
        )
        batched = elicit_batch(value_sets, strategy, gen_batch)
        np.testing.assert_array_equal(looped, batched)
        # The batched path must consume the stream exactly as the loop did.
        assert gen_batch.bit_generator.state == gen_loop.bit_generator.state

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            elicit_batch([np.array([1.0]), np.array([])], "sample", np.random.default_rng(0))


class TestBitMeterBatch:
    def test_matches_record_loop(self):
        loop_meter = BitMeter(max_bits_per_value=2)
        batch_meter = BitMeter(max_bits_per_value=2)
        ids = ["a", "b", "c", "a"]
        for cid in ids:
            loop_meter.record(cid, "v0")
        batch_meter.record_batch(ids, "v0")
        for cid in set(ids):
            assert loop_meter.bits_disclosed_by(cid) == batch_meter.bits_disclosed_by(cid)
        assert loop_meter.total_bits == batch_meter.total_bits

    def test_rejected_batch_leaves_meter_unchanged(self):
        meter = BitMeter(max_bits_per_value=1)
        meter.record("a", "v0")
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record_batch(["b", "c", "a"], "v0")
        # Atomic: neither b nor c was committed before the failure on a.
        assert meter.bits_disclosed_by("b") == 0
        assert meter.bits_disclosed_by("c") == 0
        assert meter.total_bits == 1

    def test_duplicates_within_batch_counted(self):
        meter = BitMeter(max_bits_per_value=1)
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record_batch(["x", "x"], "v0")
        assert meter.total_bits == 0

    def test_client_cap_enforced(self):
        meter = BitMeter(max_bits_per_value=5, max_bits_per_client=2)
        meter.record_batch(["a", "b"], "v0", n_bits=2)
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record_batch(["a"], "v1")
        assert meter.bits_disclosed_by("a") == 2
