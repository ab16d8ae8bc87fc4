"""Federated substrate components: clients, multivalue, dropout, network, cohorts."""

import numpy as np
import pytest

from repro.exceptions import CohortTooSmallError, ConfigurationError
from repro.federated import (
    ClientDevice,
    CohortSelector,
    DropoutModel,
    DropoutRateTracker,
    NetworkModel,
    attribute_equals,
    elicit_single_value,
    ground_truth_mean,
)
from repro.federated.fleet import range_bits


class TestClientDevice:
    def test_scalar_value_promoted(self):
        client = ClientDevice(1, 5.0)
        assert client.values.dtype == np.float64
        assert client.values.tolist() == [5.0]

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientDevice(1, np.array([]))

    def test_elicit_strategies(self, rng):
        values = ClientDevice(1, [1.0, 2.0, 9.0]).values
        assert elicit_single_value(values, "mean", rng) == pytest.approx(4.0)
        assert elicit_single_value(values, "max", rng) == 9.0
        assert elicit_single_value(values, "latest", rng) == 9.0
        assert elicit_single_value(values, "sample", rng) in {1.0, 2.0, 9.0}

    def test_report_bit_truthful_without_perturbation(self, encoder8):
        # 5 == 0b101; a lossless range draws nothing, so it needs no generators.
        bits = range_bits(np.full(3, 5.0), np.array([0, 1, 2]), encoder8, None, [])
        assert bits.dtype == np.uint8
        assert bits.tolist() == [1, 0, 1]

    def test_report_with_perturbation_is_binary(self, encoder8, rng):
        gens = rng.spawn(200)
        bits = range_bits(np.full(200, 5.0), np.zeros(200, np.int64), encoder8, 1.0, gens)
        assert bits.dtype == np.uint8 and bits.shape == (200,)
        assert set(bits.tolist()) == {0, 1}    # randomized: some reports flipped

    def test_each_client_randomizes_with_its_own_generator(self, encoder8):
        # Client j's report is its one-client range's report: the draws of
        # one client never depend on another's.
        values = np.arange(50, dtype=np.float64)
        indices = np.arange(50) % 6
        seeds = np.random.SeedSequence(8).spawn(50)
        bits = range_bits(values, indices, encoder8, 0.5, [np.random.default_rng(s) for s in seeds])
        alone = [
            range_bits(values[j:j + 1], indices[j:j + 1], encoder8, 0.5,
                       [np.random.default_rng(seeds[j])])[0]
            for j in range(50)
        ]
        assert bits.tolist() == alone


class TestMultivalue:
    def test_elicit_mean(self):
        assert elicit_single_value([2.0, 4.0], "mean") == 3.0

    def test_elicit_sample_deterministic_with_seed(self):
        values = [1.0, 2.0, 3.0]
        assert elicit_single_value(values, "sample", rng=0) == elicit_single_value(
            values, "sample", rng=0
        )

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            elicit_single_value([1.0], "median")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            elicit_single_value([], "mean")

    def test_ground_truth_sample_weights_clients_equally(self):
        """One chatty client must not dominate the sampling ground truth."""
        per_client = [np.array([0.0]), np.array([10.0] * 1_000)]
        assert ground_truth_mean(per_client, "sample") == pytest.approx(5.0)

    def test_ground_truth_max(self):
        per_client = [np.array([1.0, 5.0]), np.array([2.0])]
        assert ground_truth_mean(per_client, "max") == pytest.approx(3.5)

    def test_ground_truth_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ground_truth_mean([], "sample")


class TestDropout:
    def test_zero_rate_keeps_everyone(self, rng):
        assert DropoutModel(0.0).draw_survivors(1000, rng).all()

    def test_rate_respected(self, rng):
        survivors = DropoutModel(0.3).draw_survivors(100_000, rng)
        assert survivors.mean() == pytest.approx(0.7, abs=0.01)

    def test_jitter_varies_rounds(self):
        model = DropoutModel(0.3, jitter=0.1)
        rates = [1 - model.draw_survivors(10_000, seed).mean() for seed in range(10)]
        assert np.std(rates) > 0.01

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            DropoutModel(1.0)
        with pytest.raises(ConfigurationError):
            DropoutModel(-0.1)

    def test_tracker_ewma(self):
        tracker = DropoutRateTracker(smoothing=0.5, prior_rate=0.0)
        tracker.update(100, 80)
        assert tracker.rate == pytest.approx(0.1)
        tracker.update(100, 60)
        assert tracker.rate == pytest.approx(0.25)
        assert tracker.expected_survival == pytest.approx(0.75)
        assert tracker.rounds_observed == 2

    def test_tracker_validation(self):
        tracker = DropoutRateTracker()
        with pytest.raises(ConfigurationError):
            tracker.update(0, 0)
        with pytest.raises(ConfigurationError):
            tracker.update(10, 11)
        with pytest.raises(ConfigurationError):
            DropoutRateTracker(smoothing=0.0)


class TestNetwork:
    def test_lossless_default(self, rng):
        outcome = NetworkModel().transmit(1000, rng)
        assert outcome.delivery_rate == 1.0
        assert outcome.round_duration_s > 0

    def test_loss_rate(self, rng):
        outcome = NetworkModel(loss_rate=0.25).transmit(100_000, rng)
        assert outcome.delivery_rate == pytest.approx(0.75, abs=0.01)

    def test_deadline_drops_late_reports(self, rng):
        strict = NetworkModel(latency_median_s=90.0, deadline_s=90.0).transmit(50_000, rng)
        assert strict.delivery_rate == pytest.approx(0.5, abs=0.02)
        assert strict.round_duration_s <= 90.0

    def test_round_duration_is_max_delivered_latency(self, rng):
        outcome = NetworkModel().transmit(100, rng)
        assert outcome.round_duration_s == pytest.approx(
            outcome.latencies_s[outcome.delivered].max()
        )

    def test_zero_reports(self, rng):
        # Empty batch: vacuously fully delivered (rate 1.0, zero duration) --
        # distinguishable from a non-empty batch that lost everything (0.0).
        outcome = NetworkModel().transmit(0, rng)
        assert outcome.delivery_rate == 1.0
        assert outcome.round_duration_s == 0.0

    def test_total_loss_is_not_the_empty_batch(self, rng):
        lossy = NetworkModel(loss_rate=0.99, deadline_s=0.001).transmit(200, rng)
        assert lossy.delivery_rate == 0.0
        assert lossy.round_duration_s == 0.0

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            NetworkModel(latency_median_s=0.0)
        with pytest.raises(ConfigurationError):
            NetworkModel(deadline_s=0.0)


class TestCohortSelector:
    def _population(self, n=100):
        return [
            ClientDevice(i, [float(i)], {"geo": "us" if i % 2 else "eu"})
            for i in range(n)
        ]

    def test_no_filter_returns_everyone(self):
        pop = self._population()
        assert len(CohortSelector().select(pop)) == 100

    def test_eligibility_filter(self):
        pop = self._population()
        cohort = CohortSelector().select(pop, eligibility=attribute_equals("geo", "us"))
        assert len(cohort) == 50
        assert all(geo == "us" for geo in cohort.attributes["geo"])

    def test_missing_attribute_means_ineligible(self):
        pop = [ClientDevice(0, [1.0])]
        with pytest.raises(CohortTooSmallError):
            CohortSelector(min_cohort_size=1).select(
                pop, eligibility=attribute_equals("geo", "us")
            )

    def test_minimum_size_enforced(self):
        pop = self._population(10)
        with pytest.raises(CohortTooSmallError):
            CohortSelector(min_cohort_size=11).select(pop)

    def test_requested_cohort_below_minimum_rejected(self):
        pop = self._population(100)
        with pytest.raises(CohortTooSmallError):
            CohortSelector(min_cohort_size=10).select(pop, cohort_size=5)

    def test_subsampling(self, rng):
        pop = self._population(100)
        cohort = CohortSelector().select(pop, cohort_size=30, rng=rng)
        assert len(cohort) == 30
        assert len(set(cohort.client_ids.tolist())) == 30

    def test_cohort_size_above_population_returns_all(self, rng):
        pop = self._population(20)
        assert len(CohortSelector().select(pop, cohort_size=50, rng=rng)) == 20

    def test_invalid_min_size(self):
        with pytest.raises(ConfigurationError):
            CohortSelector(min_cohort_size=0)
