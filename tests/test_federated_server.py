"""End-to-end federated mean queries."""

import asyncio

import numpy as np
import pytest

from repro.core import AdaptiveBitPushing, ClientBatch, FixedPointEncoder
from repro.exceptions import CohortTooSmallError, ConfigurationError
from repro.federated import (
    ClientDevice,
    CohortSelector,
    DropoutModel,
    FederatedMeanQuery,
    NetworkModel,
    attribute_equals,
    ground_truth_mean,
)
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer, instrumented
from repro.privacy import BitMeter, PrivacyAccountant, RandomizedResponse

#: Plans Algorithm 2 cannot run; NaN once meant "off" for squash_multiple.
BAD_PLANS = [
    {"alpha": -1.0},
    {"alpha": float("nan")},
    {"alpha": float("inf")},
    {"gamma": float("nan")},
    {"gamma": float("inf")},
    {"squash_multiple": -1.0},
    {"squash_multiple": float("nan")},
    {"squash_multiple": float("inf")},
]


def make_population(n=3_000, mean=200.0, std=40.0, seed=0, multi=False):
    rng = np.random.default_rng(seed)
    population = []
    for i in range(n):
        k = int(rng.integers(1, 5)) if multi else 1
        values = np.clip(rng.normal(mean, std, k), 0, None)
        population.append(
            ClientDevice(i, values, {"geo": "us" if i % 2 else "eu"})
        )
    return population


@pytest.fixture(scope="module")
def population():
    return make_population()


@pytest.fixture
def encoder():
    return FixedPointEncoder.for_integers(9)


class TestBasicMode:
    def test_accuracy(self, population, encoder):
        query = FederatedMeanQuery(encoder, mode="basic")
        truth = ground_truth_mean([c.values for c in population])
        est = query.run(population, rng=1)
        assert est.value == pytest.approx(truth, rel=0.05)
        assert est.method == "federated-basic"
        assert len(est.rounds) == 1

    def test_metadata(self, population, encoder):
        est = FederatedMeanQuery(encoder, mode="basic").run(population, rng=2)
        assert est.metadata["cohort_size"] == len(population)
        assert est.metadata["secure_aggregation"] is False
        assert len(est.metadata["dropout_rates"]) == 1


class TestAdaptiveMode:
    def test_accuracy(self, population, encoder):
        query = FederatedMeanQuery(encoder, mode="adaptive")
        truth = ground_truth_mean([c.values for c in population])
        assert query.run(population, rng=3).value == pytest.approx(truth, rel=0.05)

    def test_two_rounds_recorded(self, population, encoder):
        est = FederatedMeanQuery(encoder).run(population, rng=4)
        assert len(est.rounds) == 2
        assert est.metadata["total_duration_s"] >= 0.0

    def test_delta_controls_split(self, population, encoder):
        est = FederatedMeanQuery(encoder, delta=0.25).run(population, rng=5)
        assert est.rounds[0].n_clients + est.rounds[1].n_clients == len(population)
        assert est.rounds[0].n_clients == pytest.approx(0.25 * len(population), rel=0.05)


class TestFailures:
    def test_dropout_does_not_break_accuracy(self, population, encoder):
        query = FederatedMeanQuery(encoder, dropout=DropoutModel(0.3))
        truth = ground_truth_mean([c.values for c in population])
        est = query.run(population, rng=6)
        assert est.value == pytest.approx(truth, rel=0.08)
        assert est.metadata["dropout_rates"][0] == pytest.approx(0.3, abs=0.05)

    def test_network_loss_and_deadline(self, population, encoder):
        query = FederatedMeanQuery(
            encoder, network=NetworkModel(loss_rate=0.1, deadline_s=600.0)
        )
        est = query.run(population, rng=7)
        assert est.metadata["total_duration_s"] <= 1200.0
        assert est.n_clients == len(population)

    def test_all_clients_dropping_raises(self, encoder):
        tiny = make_population(20)
        query = FederatedMeanQuery(encoder, network=NetworkModel(loss_rate=0.9, deadline_s=1.0))
        with pytest.raises(ConfigurationError):
            query.run(tiny, rng=8)

    def test_dropout_tracker_updates(self, population, encoder):
        query = FederatedMeanQuery(encoder, dropout=DropoutModel(0.4))
        query.run(population, rng=9)
        assert query.dropout_tracker.rate == pytest.approx(0.4, abs=0.1)
        assert query.dropout_tracker.rounds_observed == 2


class TestScheduleAdjustment:
    def test_min_reports_floor_applied(self, population, encoder):
        query = FederatedMeanQuery(
            encoder, mode="basic", dropout=DropoutModel(0.5), min_reports_per_bit=25
        )
        est = query.run(population, rng=10)
        counts = est.rounds[0].counts
        # Every bit in the (full) support should clear the floor, modulo
        # dropout noise; allow a small margin.
        assert counts.min() >= 10

    def test_infeasible_floor_falls_back_to_uniform(self, encoder):
        tiny = make_population(50)
        query = FederatedMeanQuery(encoder, mode="basic", min_reports_per_bit=40)
        est = query.run(tiny, rng=11)
        counts = est.rounds[0].counts
        # Uniform fallback: every bit sampled at least once.
        assert (counts > 0).all()


class TestCohorts:
    def test_eligibility_and_cohort_size(self, population, encoder):
        query = FederatedMeanQuery(encoder, selector=CohortSelector(min_cohort_size=100))
        est = query.run(
            population, rng=12,
            eligibility=attribute_equals("geo", "us"),
            cohort_size=500,
        )
        assert est.metadata["cohort_size"] == 500

    def test_too_small_cohort_rejected(self, population, encoder):
        query = FederatedMeanQuery(
            encoder, selector=CohortSelector(min_cohort_size=10_000)
        )
        with pytest.raises(CohortTooSmallError):
            query.run(population, rng=13)


class TestMetering:
    def test_one_bit_per_client_per_query(self, encoder):
        population = make_population(400)
        meter = BitMeter(max_bits_per_value=1)
        query = FederatedMeanQuery(encoder, meter=meter, metric_name="latency")
        query.run(population, rng=14)
        assert meter.total_bits <= 400
        assert all(
            meter.bits_disclosed_for(c.client_id, "latency") <= 1 for c in population
        )

    def test_second_query_same_metric_violates_meter(self, encoder):
        population = make_population(200)
        meter = BitMeter(max_bits_per_value=1)
        query = FederatedMeanQuery(encoder, meter=meter, metric_name="latency")
        query.run(population, rng=15)
        from repro.exceptions import PrivacyBudgetExceeded

        with pytest.raises(PrivacyBudgetExceeded):
            query.run(population, rng=16)


class TestSecureAggregationIntegration:
    def test_secure_matches_plaintext_statistics(self, encoder):
        population = make_population(300)
        plain = FederatedMeanQuery(encoder, mode="basic")
        secure = FederatedMeanQuery(encoder, mode="basic", secure_aggregation=True, shard_size=16)
        truth = ground_truth_mean([c.values for c in population])
        assert plain.run(population, rng=17).value == pytest.approx(truth, rel=0.1)
        assert secure.run(population, rng=17).value == pytest.approx(truth, rel=0.1)

    def test_secure_with_ldp(self, encoder):
        population = make_population(600)
        query = FederatedMeanQuery(
            encoder, mode="basic",
            perturbation=RandomizedResponse(epsilon=3.0),
            secure_aggregation=True, shard_size=16,
        )
        truth = ground_truth_mean([c.values for c in population])
        assert query.run(population, rng=18).value == pytest.approx(truth, rel=0.35)

    def test_counts_conserved_through_shards(self, encoder):
        population = make_population(250)
        query = FederatedMeanQuery(encoder, mode="basic", secure_aggregation=True, shard_size=16)
        est = query.run(population, rng=19)
        assert est.counts.sum() == 250


class TestMultiValueClients:
    def test_sample_elicitation_matches_sampling_ground_truth(self, encoder):
        population = make_population(4_000, multi=True, seed=42)
        query = FederatedMeanQuery(encoder, elicitation="sample")
        truth = ground_truth_mean([c.values for c in population], "sample")
        assert query.run(population, rng=20).value == pytest.approx(truth, rel=0.05)

    def test_mean_elicitation(self, encoder):
        population = make_population(4_000, multi=True, seed=43)
        query = FederatedMeanQuery(encoder, elicitation="mean")
        truth = ground_truth_mean([c.values for c in population], "mean")
        assert query.run(population, rng=21).value == pytest.approx(truth, rel=0.05)


class TestConfigValidation:
    def test_invalid_mode(self, encoder):
        with pytest.raises(ConfigurationError):
            FederatedMeanQuery(encoder, mode="turbo")

    def test_invalid_delta(self, encoder):
        with pytest.raises(ConfigurationError):
            FederatedMeanQuery(encoder, delta=1.5)

    def test_squash_without_perturbation(self, encoder):
        with pytest.raises(ConfigurationError):
            FederatedMeanQuery(encoder, squash_multiple=1.0)

    def test_schedule_width_mismatch(self, encoder):
        from repro.core import BitSamplingSchedule

        with pytest.raises(ConfigurationError):
            FederatedMeanQuery(encoder, schedule=BitSamplingSchedule.uniform(4))

    @pytest.mark.parametrize("bad", BAD_PLANS)
    def test_bad_plan_rejected_before_any_round(self, encoder, bad):
        rr = RandomizedResponse(1.0)
        with pytest.raises(ConfigurationError):
            AdaptiveBitPushing(encoder, perturbation=rr, **bad)
        for mode in ("basic", "adaptive"):
            accountant = PrivacyAccountant()
            meter = BitMeter()
            with pytest.raises(ConfigurationError):
                FederatedMeanQuery(
                    encoder, mode=mode, perturbation=rr, accountant=accountant, meter=meter,
                    **bad,
                )
            assert accountant.spent_epsilon == 0.0 and accountant.entries == ()
            assert meter.total_bits == 0

    def test_invalid_shard_size(self, encoder):
        with pytest.raises(ConfigurationError):
            FederatedMeanQuery(encoder, shard_size=1)

    def test_empty_population(self, encoder):
        with pytest.raises(CohortTooSmallError):
            FederatedMeanQuery(encoder).run([], rng=0)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_adaptive_one_client_names_the_minimum(self, encoder, columnar):
        population = (
            ClientBatch.from_values([5.0]) if columnar else [ClientDevice(0, [5.0])]
        )
        with pytest.raises(
            ConfigurationError, match="adaptive mode needs at least 2 clients, got 1"
        ):
            FederatedMeanQuery(encoder, mode="adaptive").run(population, rng=0)
        # Basic mode still answers a one-client query.
        est = FederatedMeanQuery(encoder, mode="basic").run(population, rng=0)
        assert est.n_clients == 1


class TestOneDriver:
    """``FederatedMeanQuery.drive`` runs every round; only a basic round may await."""

    @pytest.mark.parametrize("mode", ["basic", "adaptive"])
    def test_a_transport_that_suspends_fails_at_once(self, monkeypatch, mode):
        query = FederatedMeanQuery(FixedPointEncoder.for_integers(10), mode=mode)

        async def suspending(gen, attempt, clients, assignment):
            await asyncio.sleep(0)  # yields to an event loop the query does not run
            raise AssertionError("a synchronous round never resumes")

        monkeypatch.setattr(query, "_run_round", suspending)
        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            with pytest.raises(ConfigurationError, match="awaited I/O outside an event loop"):
                query.run(ClientBatch.from_values(np.arange(100.0)), rng=0)
        rounds = [r for r in memory.records if r.name == "federated.round"]
        assert len(rounds) == 1 and rounds[0].attributes["failed"] is True
        assert [r.name for r in memory.records][-1] == "federated.query"
