"""Tests for the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``.

Every workload runs at toy size (the size is a function argument), the
emitted metric names must equal those declared in ``BENCHMARK.json``, and
each checker must count a corrupted answer as a failed operation.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import session  # noqa: E402
from hostspeed import HostSpeedProbe  # noqa: E402
from repro.exceptions import InvariantViolation  # noqa: E402
from workloads import ENCODER, WORKLOADS  # noqa: E402

SPEC = run.load_spec()

#: Clients per workload at toy size.
TOY = {
    "inproc-basic-1m": 2_000,
    "inproc-adaptive-ldp-100k": 2_000,
    "served-256": 8,
    "secure-1k": 96,
}


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")


def toy_session(workload, **kwargs):
    return session.run_session(
        workload, seed=3, seconds=0.01, n_clients=TOY[workload.name], min_queries=4, **kwargs
    )


class Corrupted:
    """A workload whose every answer goes through ``corrupt`` before checking."""

    def __init__(self, inner, corrupt):
        self.inner = inner
        self.corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def query(self, state, i):
        return self.corrupt(self.inner.query(state, i))


def test_workloads_match_the_spec():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert set(TOY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    record = toy_session(WORKLOADS[name])
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > record["queries"] >= 4
    # The host is probed after every query but the cold one.
    assert record["host_factor"]["samples"] == record["attempted"] - 1
    record["setup_samples_s"] = [0.5, 0.4, 0.6]
    record["setup_host_factors"] = [2.0, 1.0, 3.0]
    metrics = run.metrics_of(record, SPEC)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(metric["value"] > 0 for metric in metrics.values())
    assert metrics["setup_s"]["value"] == 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_replays_each_query_bit_for_bit(name):
    record = toy_session(WORKLOADS[name], trace=True)
    assert record["failed"] == 0, record["failures"]
    metrics = run.metrics_of(record, SPEC)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["replay_parity"]["value"] == 1.0
    traced = [s for s in record["spans"] if s["name"] == "query"]
    assert len(traced) == record["traced_queries"] >= session.MIN_TRACED_QUERIES


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_host_probe_times_the_kernels_each_workload_names(name):
    kernels = WORKLOADS[name].probe
    with HostSpeedProbe(kernels) as probe:
        assert set(probe.kernel_times()) == set(kernels)
        factor = probe.sample()
        assert factor > 0
        assert probe.samples == [factor]


def test_host_probe_rejects_an_unknown_kernel():
    with pytest.raises(ValueError, match="unknown probe kernels"):
        HostSpeedProbe(("numpy", "disk"))


def test_served_checker_counts_a_twin_mismatch():
    def nudge(outcome):
        result, fleet_result = outcome
        wrong = np.nextafter(result.estimate.value, np.inf)
        return replace(result, estimate=replace(result.estimate, value=wrong)), fleet_result

    record = toy_session(Corrupted(WORKLOADS["served-256"], nudge))
    assert record["failed"] == record["attempted"] >= 5
    assert "twin" in record["failures"][0]


@pytest.mark.parametrize("name", ["inproc-basic-1m", "inproc-adaptive-ldp-100k", "secure-1k"])
def test_z_bound_checker_counts_an_outlier(name):
    def shift(estimate):
        return replace(estimate, value=estimate.value + 10 * ENCODER.max_encoded)

    record = toy_session(Corrupted(WORKLOADS[name], shift))
    assert record["failed"] == record["attempted"] >= 5
    assert "sigma" in record["failures"][0]


def test_a_raising_query_is_counted_and_the_run_continues():
    workload = Corrupted(WORKLOADS["secure-1k"], lambda _estimate: None)

    def raising(state, i):
        raise InvariantViolation(f"query {i}: secure sum mismatch")

    workload.query = raising
    record = toy_session(workload)
    assert record["failed"] == record["attempted"] >= 5
    assert "InvariantViolation" in record["failures"][0]
