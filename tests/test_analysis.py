"""Closed-form predictions vs Monte-Carlo reality."""

import numpy as np
import pytest

from repro.analysis import (
    dithering_variance,
    per_report_bit_variance,
    plan_cohort_size,
    predicted_nrmse,
    predicted_variance,
)
from repro.baselines import SubtractiveDithering
from repro.core import BasicBitPushing, BitSamplingSchedule, FixedPointEncoder
from repro.exceptions import ConfigurationError
from repro.privacy import RandomizedResponse


class TestPerReportVariance:
    def test_noise_free_is_bernoulli(self):
        assert per_report_bit_variance(0.5) == 0.25
        assert per_report_bit_variance(0.0) == 0.0
        assert per_report_bit_variance(1.0) == 0.0

    def test_rr_adds_variance(self):
        assert per_report_bit_variance(0.5, epsilon=1.0) > 0.25

    def test_rr_variance_even_for_constant_bits(self):
        # The DP term never vanishes: constant bits still produce noise.
        assert per_report_bit_variance(0.0, epsilon=1.0) > 0.1

    def test_rr_variance_near_paper_constant_for_small_eps(self):
        """For small eps the variance approaches e^eps / (e^eps - 1)^2."""
        eps = 0.2
        paper_constant = np.exp(eps) / (np.exp(eps) - 1) ** 2
        v = per_report_bit_variance(0.5, epsilon=eps)
        assert v == pytest.approx(paper_constant, rel=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            per_report_bit_variance(1.5)
        with pytest.raises(ConfigurationError):
            per_report_bit_variance(0.5, epsilon=0.0)
        for epsilon in (float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="positive finite"):
                per_report_bit_variance(0.5, epsilon=epsilon)

    def test_rr_variance_finite_past_the_exponents_range(self):
        # e^710 overflows a float; p = e^eps / (1 + e^eps) is exactly 1.0
        # long before that, so the variance is the noise-free one.
        for epsilon in (709.0, 710.0, 800.0):
            assert per_report_bit_variance(0.3, epsilon) == per_report_bit_variance(0.3)
        assert dithering_variance(1.0, 10, epsilon=800.0) == dithering_variance(
            1.0, 10, epsilon=709.0
        )


class TestPredictedVariance:
    def test_matches_simulation_noise_free(self):
        """Prediction vs Monte-Carlo with fresh i.i.d. populations."""
        rng = np.random.default_rng(0)
        n, n_bits = 2_000, 6
        encoder = FixedPointEncoder.for_integers(n_bits)
        sched = BitSamplingSchedule.weighted(n_bits, 1.0)
        est = BasicBitPushing(encoder, schedule=sched)
        sims = [
            est.estimate(rng.integers(0, 64, n).astype(float), rng).value
            for _ in range(600)
        ]
        predicted = predicted_variance(np.full(n_bits, 0.5), sched, n)
        assert np.var(sims) == pytest.approx(predicted, rel=0.2)

    def test_matches_simulation_with_rr(self):
        rng = np.random.default_rng(1)
        n, n_bits, eps = 4_000, 6, 1.0
        encoder = FixedPointEncoder.for_integers(n_bits)
        sched = BitSamplingSchedule.weighted(n_bits, 1.0)
        est = BasicBitPushing(encoder, schedule=sched,
                              perturbation=RandomizedResponse(epsilon=eps))
        sims = [
            est.estimate(rng.integers(0, 64, n).astype(float), rng).value
            for _ in range(400)
        ]
        predicted = predicted_variance(np.full(n_bits, 0.5), sched, n, epsilon=eps)
        assert np.var(sims) == pytest.approx(predicted, rel=0.25)

    def test_unreachable_bit_is_infinite(self):
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0]))
        assert predicted_variance(np.array([0.5, 0.5]), sched, 100) == float("inf")

    def test_b_send_scaling(self):
        sched = BitSamplingSchedule.uniform(4)
        means = np.full(4, 0.5)
        assert predicted_variance(means, sched, 100, b_send=4) == pytest.approx(
            predicted_variance(means, sched, 100) / 4
        )

    def test_validation(self):
        sched = BitSamplingSchedule.uniform(4)
        with pytest.raises(ConfigurationError):
            predicted_variance(np.zeros(3), sched, 100)
        with pytest.raises(ConfigurationError):
            predicted_variance(np.zeros(4), sched, 0)


class TestPlanning:
    def test_plan_meets_target(self):
        means = np.array([0.5, 0.4, 0.3, 0.2])
        sched = BitSamplingSchedule.weighted(4, 1.0)
        n = plan_cohort_size(0.02, means, sched)
        assert predicted_nrmse(means, sched, n) <= 0.02
        assert predicted_nrmse(means, sched, max(n - n // 10, 1)) > 0.02 * 0.9

    def test_plan_scales_inverse_square(self):
        means = np.full(6, 0.5)
        sched = BitSamplingSchedule.weighted(6, 1.0)
        n_loose = plan_cohort_size(0.02, means, sched)
        n_tight = plan_cohort_size(0.01, means, sched)
        assert n_tight == pytest.approx(4 * n_loose, rel=0.01)

    def test_ldp_needs_more_clients(self):
        means = np.full(6, 0.5)
        sched = BitSamplingSchedule.weighted(6, 1.0)
        assert plan_cohort_size(0.02, means, sched, epsilon=1.0) > plan_cohort_size(
            0.02, means, sched
        )

    def test_plan_validated_against_simulation(self):
        """A cohort planned for 2% NRMSE should deliver ~2% in simulation."""
        rng = np.random.default_rng(2)
        n_bits = 8
        encoder = FixedPointEncoder.for_integers(n_bits)
        sched = BitSamplingSchedule.weighted(n_bits, 1.0)
        # Uniform integers over the full byte: every bit mean is 1/2.
        means = np.full(n_bits, 0.5)
        n = plan_cohort_size(0.02, means, sched)
        est = BasicBitPushing(encoder, schedule=sched)
        rel_errors = []
        for _ in range(200):
            values = rng.integers(0, 256, n).astype(float)
            rel_errors.append((est.estimate(values, rng).value - 127.5) / 127.5)
        achieved = float(np.sqrt(np.mean(np.square(rel_errors))))
        assert achieved == pytest.approx(0.02, rel=0.3)

    def test_unreachable_target_raises(self):
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0]))
        with pytest.raises(ConfigurationError):
            plan_cohort_size(0.01, np.array([0.5, 0.5]), sched)

    def test_absurd_target_raises(self):
        means = np.full(4, 0.5)
        sched = BitSamplingSchedule.uniform(4)
        with pytest.raises(ConfigurationError):
            plan_cohort_size(1e-9, means, sched, max_clients=10_000)

    def test_invalid_target(self):
        with pytest.raises(ConfigurationError):
            plan_cohort_size(0.0, np.full(4, 0.5), BitSamplingSchedule.uniform(4))


class TestDitheringPrediction:
    def test_upper_bounds_simulation(self):
        rng = np.random.default_rng(3)
        width, n = 1023.0, 5_000
        values = np.full(n, 400.0)
        est = SubtractiveDithering(0.0, width)
        sims = [est.estimate(values, rng).value for _ in range(300)]
        assert np.var(sims) <= dithering_variance(width, n)

    def test_quadratic_in_width(self):
        assert dithering_variance(200.0, 100) == pytest.approx(
            4 * dithering_variance(100.0, 100)
        )

    def test_rr_inflates(self):
        assert dithering_variance(100.0, 100, epsilon=1.0) > dithering_variance(100.0, 100)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            dithering_variance(0.0, 100)
        with pytest.raises(ConfigurationError):
            dithering_variance(10.0, 100, epsilon=-1.0)
