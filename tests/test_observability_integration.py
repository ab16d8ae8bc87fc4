"""End-to-end observability: traced rounds, reconciliation, zero overhead.

The contract under test: with instrumentation installed, a federated round
produces the documented span tree and metric counters that reconcile
exactly with its :class:`RoundOutcome`; with instrumentation disabled (the
default), results are bit-identical to an uninstrumented run because the
no-op tracer never touches the RNG stream.
"""

import json

import numpy as np
import pytest

from repro.cli import run_traced_round
from repro.core import AdaptiveBitPushing
from repro.exceptions import PrivacyBudgetExceeded
from repro.federated import (
    ClientDevice,
    DropoutModel,
    FederatedMeanQuery,
    NetworkModel,
)
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer, instrumented
from repro.privacy import BitMeter, PrivacyAccountant


def _population(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ClientDevice(i, np.clip(rng.normal(200.0, 40.0, rng.integers(1, 4)), 0.0, None))
        for i in range(n)
    ]


def _traced_run(query, population, seed=0):
    exporter = InMemoryExporter()
    registry = MetricsRegistry()
    with instrumented(Tracer([exporter]), registry):
        estimate = query.run(population, rng=seed)
    return estimate, exporter, registry


class TestTracedFederatedRound:
    def test_span_tree_covers_the_pipeline(self, encoder10):
        query = FederatedMeanQuery(
            encoder10,
            mode="adaptive",
            dropout=DropoutModel(rate=0.1),
            network=NetworkModel(loss_rate=0.05, deadline_s=600.0),
        )
        estimate, exporter, _ = _traced_run(query, _population(600))

        names = set(exporter.names())
        assert {
            "federated.query",
            "federated.cohort_select",
            "federated.round",
            "round.assign",
            "round.dropout",
            "network.transmit",
            "round.elicit",
            "round.collect",
            "federated.reconstruct",
        } <= names

        (root,) = exporter.roots()
        assert root.name == "federated.query"
        top_level = exporter.children_of(root.span_id)
        assert [r.name for r in top_level] == [
            "federated.cohort_select",
            "adaptive.round1",
            "adaptive.round2",
            "adaptive.combine",
            "federated.reconstruct",
        ]
        # Algorithm 2's plan runs each federated round inside its own span.
        for index, plan_round in enumerate(top_level[1:3], 1):
            (round_record,) = exporter.children_of(plan_round.span_id)
            assert round_record.name == "federated.round"
            assert round_record.attributes["round_index"] == index
            child_names = [r.name for r in exporter.children_of(round_record.span_id)]
            assert child_names == [
                "round.assign",
                "round.dropout",
                "network.transmit",
                "round.elicit",
                "round.collect",
            ]
        assert exporter.children_of(top_level[3].span_id) == []

    def test_counters_reconcile_with_round_outcomes(self, encoder10):
        query = FederatedMeanQuery(
            encoder10,
            mode="adaptive",
            dropout=DropoutModel(rate=0.15),
            network=NetworkModel(loss_rate=0.1, deadline_s=600.0),
        )
        estimate, exporter, registry = _traced_run(query, _population(800))
        counters = registry.snapshot()["counters"]

        planned = counters["round_reports_planned_total"]
        delivered = counters["round_reports_delivered_total"]
        lost = counters["round_reports_lost_total"]
        assert planned == delivered + lost
        assert planned == sum(estimate.metadata["planned_clients"])
        assert delivered == sum(estimate.metadata["surviving_clients"])
        assert delivered == sum(r.n_clients for r in estimate.rounds)
        assert counters["rounds_total"] == len(estimate.rounds) == 2

        # Span attributes carry the same numbers.
        spans = exporter.find("federated.round")
        assert sum(s.attributes["planned_clients"] for s in spans) == planned
        assert sum(s.attributes["surviving_clients"] for s in spans) == delivered

    def test_secure_aggregation_span_and_counters(self, encoder8):
        query = FederatedMeanQuery(
            encoder8, mode="basic", secure_aggregation=True, shard_size=16
        )
        estimate, exporter, registry = _traced_run(query, _population(64))
        assert exporter.find("round.secure_agg")
        # The shard tree reports each session's threshold verdict once, in
        # its shard.session span, at any worker count.
        verdicts = [
            {key: s.attributes[key] for key in ("planned", "submitted", "threshold", "recovered")}
            for s in exporter.find("shard.session")
        ]
        assert verdicts == [
            {"planned": 16, "submitted": 16, "threshold": 11, "recovered": True}
        ] * 4
        assert not exporter.find("secure_agg.finalize")
        counters = registry.snapshot()["counters"]
        assert counters["secure_agg_sessions_total"] == 4
        assert counters["secure_agg_dropouts_total"] == 0

    def test_bit_index_distribution_counts_every_delivered_report(self, encoder8):
        query = FederatedMeanQuery(encoder8, mode="basic")
        estimate, _, registry = _traced_run(query, _population(300))
        hist = registry.snapshot()["histograms"]["bit_index_distribution"]
        assert sum(hist["counts"]) == sum(estimate.metadata["surviving_clients"])


class TestDisabledInstrumentationIsInert:
    def test_results_bit_identical_with_and_without_tracing(self, encoder10):
        population = _population(500, seed=3)
        query = FederatedMeanQuery(
            encoder10,
            mode="adaptive",
            dropout=DropoutModel(rate=0.1),
            network=NetworkModel(loss_rate=0.05),
        )
        plain = query.run(population, rng=11)

        query2 = FederatedMeanQuery(
            encoder10,
            mode="adaptive",
            dropout=DropoutModel(rate=0.1),
            network=NetworkModel(loss_rate=0.05),
        )
        traced, _, _ = _traced_run(query2, population, seed=11)

        assert traced.value == plain.value
        np.testing.assert_array_equal(traced.bit_means, plain.bit_means)
        np.testing.assert_array_equal(traced.counts, plain.counts)

    def test_adaptive_core_bit_identical(self, encoder10, rng):
        values = rng.normal(500.0, 80.0, size=4_000).clip(0)
        plain = AdaptiveBitPushing(encoder10).estimate(values, rng=5)
        with instrumented(Tracer([InMemoryExporter()]), MetricsRegistry()):
            traced = AdaptiveBitPushing(encoder10).estimate(values, rng=5)
        assert traced.value == plain.value
        np.testing.assert_array_equal(traced.bit_means, plain.bit_means)


class TestAdaptiveCoreSpans:
    def test_round1_round2_and_cache_hits(self, encoder8, rng):
        values = rng.integers(0, 200, size=2_000)
        exporter = InMemoryExporter()
        registry = MetricsRegistry()
        with instrumented(Tracer([exporter]), registry):
            AdaptiveBitPushing(encoder8).estimate(values, rng=0)
        names = exporter.names()
        assert names.index("adaptive.round1") < names.index("adaptive.round2")
        (combine,) = exporter.find("adaptive.combine")
        assert combine.attributes["caching"] is True
        assert combine.attributes["cache_hits"] > 0
        counters = registry.snapshot()["counters"]
        assert counters["adaptive_estimates_total"] == 1
        assert counters["adaptive_cache_hits_total"] == combine.attributes["cache_hits"]

    def test_federated_query_runs_the_same_plan(self, encoder8):
        query = FederatedMeanQuery(encoder8, mode="adaptive")
        _, exporter, registry = _traced_run(query, _population(2_000))
        names = exporter.names()
        assert names.index("adaptive.round1") < names.index("adaptive.round2")
        (round1,) = exporter.find("adaptive.round1")
        (round2,) = exporter.find("adaptive.round2")
        assert round1.attributes["n_clients"] + round2.attributes["n_clients"] == 2_000
        (combine,) = exporter.find("adaptive.combine")
        assert combine.attributes["caching"] is True
        assert combine.attributes["cache_hits"] > 0
        counters = registry.snapshot()["counters"]
        assert counters["adaptive_estimates_total"] == 1
        assert counters["adaptive_cache_hits_total"] == combine.attributes["cache_hits"]


class TestPrivacyMetrics:
    def test_accountant_spend_and_denial_counters(self):
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            accountant = PrivacyAccountant(epsilon_budget=1.0)
            accountant.spend(0.4, note="r1")
            accountant.spend(0.5, note="r2")
            with pytest.raises(PrivacyBudgetExceeded):
                accountant.spend(0.5, note="r3")
        counters = registry.snapshot()["counters"]
        assert counters["privacy_epsilon_spent_total"] == pytest.approx(0.9)
        assert counters["privacy_budget_denials_total"] == 1
        assert registry.snapshot()["gauges"]["privacy_epsilon_remaining"] == pytest.approx(0.1)

    def test_meter_counters(self):
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            meter = BitMeter(max_bits_per_value=1)
            meter.record("c1", "v1")
            meter.record("c2", "v1")
            with pytest.raises(PrivacyBudgetExceeded):
                meter.record("c1", "v1")
        counters = registry.snapshot()["counters"]
        assert counters["metered_bits_total"] == 2
        assert counters["meter_denials_total"] == 1


class TestTraceCli:
    def test_run_traced_round_writes_reconciled_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        result = run_traced_round("1a", quick=True, seed=0, out_path=str(out))
        capsys.readouterr()  # swallow the printed report

        assert result["reconciled"] is True
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        span_names = {line["name"] for line in lines if line["type"] == "span"}
        assert {
            "federated.cohort_select",
            "round.assign",
            "network.transmit",
            "federated.reconstruct",
        } <= span_names
        assert lines[-1]["type"] == "metrics"
        counters = lines[-1]["metrics"]["counters"]
        assert (
            counters["round_reports_planned_total"]
            == counters["round_reports_delivered_total"] + counters["round_reports_lost_total"]
        )

    def test_secure_agg_trace_includes_secure_agg_spans(self, tmp_path, capsys):
        out = tmp_path / "trace_sa.jsonl"
        result = run_traced_round("2a", quick=True, secure_agg=True, seed=1, out_path=str(out))
        capsys.readouterr()
        assert result["reconciled"] is True
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        spans = [line for line in lines if line["type"] == "span"]
        span_names = {span["name"] for span in spans}
        assert "round.secure_agg" in span_names
        sessions = [span["attributes"] for span in spans if span["name"] == "shard.session"]
        assert sessions
        for attrs in sessions:
            assert attrs["recovered"] == (attrs["submitted"] >= attrs["threshold"])
            assert attrs["submitted"] <= attrs["planned"]
        assert "secure_agg.finalize" not in span_names
