"""Randomized response: the epsilon-LDP bit perturbation."""

import copy
import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.privacy import RandomizedResponse


class TestConstruction:
    def test_epsilon_derives_p(self):
        rr = RandomizedResponse(epsilon=1.0)
        assert rr.p == pytest.approx(math.e / (1 + math.e))

    def test_p_derives_epsilon(self):
        rr = RandomizedResponse(p=0.75)
        assert rr.epsilon == pytest.approx(math.log(3))

    def test_roundtrip(self):
        rr = RandomizedResponse(epsilon=2.5)
        rr2 = RandomizedResponse(p=rr.p)
        assert rr2.epsilon == pytest.approx(2.5)

    def test_exactly_one_parameter_required(self):
        with pytest.raises(ConfigurationError):
            RandomizedResponse()
        with pytest.raises(ConfigurationError):
            RandomizedResponse(epsilon=1.0, p=0.7)

    def test_invalid_epsilon(self):
        for eps in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError):
                RandomizedResponse(epsilon=eps)

    def test_epsilon_whose_exponential_overflows(self):
        with pytest.raises(ConfigurationError, match="e\\^epsilon overflows"):
            RandomizedResponse(epsilon=1000.0)
        assert RandomizedResponse(epsilon=700.0).p == 1.0

    def test_invalid_p(self):
        for p in (0.5, 1.0, 0.3, 1.5):
            with pytest.raises(ConfigurationError):
                RandomizedResponse(p=p)


class TestPerturbation:
    def test_output_is_binary(self, rng):
        rr = RandomizedResponse(epsilon=1.0)
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        out = rr.perturb_bits(bits, rng)
        assert set(np.unique(out)) <= {0, 1}
        assert out.shape == bits.shape

    def test_truth_probability(self, rng):
        rr = RandomizedResponse(epsilon=2.0)
        bits = np.ones(200_000, dtype=np.uint8)
        out = rr.perturb_bits(bits, rng)
        assert out.mean() == pytest.approx(rr.p, abs=0.005)

    def test_flip_probability_symmetric(self, rng):
        rr = RandomizedResponse(epsilon=2.0)
        zeros = np.zeros(200_000, dtype=np.uint8)
        out = rr.perturb_bits(zeros, rng)
        assert out.mean() == pytest.approx(1 - rr.p, abs=0.005)

    def test_non_binary_input_raises(self):
        rr = RandomizedResponse(epsilon=50.0)
        gen = np.random.default_rng(1)
        untouched = copy.deepcopy(gen.bit_generator.state)
        for bits in (
            np.array([2], dtype=np.uint8),
            np.array([256, 257]),  # a uint8 cast would read [0, 1]
            np.array([1.5, 0.4]),  # ... [1, 0]
            np.array([-255]),  # ... [1]
            np.array([np.nan]),
        ):
            with pytest.raises(ConfigurationError, match="0/1 bits"):
                rr.perturb_bits(bits, gen)
        assert gen.bit_generator.state == untouched

    @pytest.mark.parametrize("shape", [(0,), (301,), (301, 1), (301, 3)])
    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64, np.float64])
    def test_flips_match_the_where_formula(self, shape, dtype):
        rr = RandomizedResponse(epsilon=1.0)
        bits = np.random.default_rng(4).integers(0, 2, size=shape).astype(dtype)
        before = bits.copy()
        gen = np.random.default_rng(8)
        clone = copy.deepcopy(gen)
        out = rr.perturb_bits(bits, gen)
        flips = clone.random(shape) >= rr.p
        reference = np.where(flips, 1 - bits.astype(np.uint8), bits).astype(np.uint8)
        assert out.dtype == np.uint8 and out.shape == shape
        np.testing.assert_array_equal(out, reference)
        np.testing.assert_array_equal(bits, before)
        assert gen.bit_generator.state == clone.bit_generator.state

    def test_ldp_guarantee_ratio(self, rng):
        """P(report=1 | true=1) / P(report=1 | true=0) == e^eps exactly."""
        rr = RandomizedResponse(epsilon=1.5)
        assert rr.p / (1 - rr.p) == pytest.approx(math.exp(1.5))


class TestUnbiasing:
    def test_identity_points(self):
        rr = RandomizedResponse(epsilon=1.0)
        # Reported mean p corresponds to true mean 1; (1-p) to true mean 0.
        assert rr.unbias_bit_means(np.array([rr.p]))[0] == pytest.approx(1.0)
        assert rr.unbias_bit_means(np.array([1 - rr.p]))[0] == pytest.approx(0.0)

    def test_midpoint_maps_to_half(self):
        rr = RandomizedResponse(epsilon=3.0)
        assert rr.unbias_bit_means(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_can_leave_unit_interval(self):
        rr = RandomizedResponse(epsilon=1.0)
        assert rr.unbias_bit_means(np.array([0.0]))[0] < 0.0
        assert rr.unbias_bit_means(np.array([1.0]))[0] > 1.0

    def test_end_to_end_unbiased(self, rng):
        rr = RandomizedResponse(epsilon=1.0)
        true_mean = 0.3
        bits = (rng.random(500_000) < true_mean).astype(np.uint8)
        reported = rr.perturb_bits(bits, rng)
        est = rr.unbias_bit_means(np.array([reported.mean()]))[0]
        assert est == pytest.approx(true_mean, abs=0.01)


class TestVarianceFormulas:
    def test_per_report_variance_formula(self):
        rr = RandomizedResponse(epsilon=2.0)
        e = math.exp(2.0)
        assert rr.per_report_variance() == pytest.approx(e / (e - 1) ** 2)

    def test_variance_decreases_with_epsilon(self):
        assert (
            RandomizedResponse(epsilon=3.0).per_report_variance()
            < RandomizedResponse(epsilon=0.5).per_report_variance()
        )

    def test_estimator_variance_bound(self):
        rr = RandomizedResponse(epsilon=1.0)
        assert rr.estimator_variance_bound(100) == pytest.approx(
            rr.per_report_variance() / 100
        )
        assert rr.estimator_variance_bound(0) == float("inf")

    def test_bound_holds_in_simulation(self, rng):
        rr = RandomizedResponse(epsilon=1.0)
        count = 1_000
        bits = (rng.random(count) < 0.5).astype(np.uint8)
        estimates = [
            float(rr.unbias_bit_means(np.array([rr.perturb_bits(bits, rng).mean()]))[0])
            for _ in range(400)
        ]
        assert np.var(estimates) <= rr.estimator_variance_bound(count) * 1.2

    def test_flip_probability(self):
        rr = RandomizedResponse(epsilon=1.0)
        assert rr.flip_probability() == pytest.approx(1 - rr.p)

    @pytest.mark.parametrize("epsilon", [354.0, 356.0, 400.0, 700.0, 709.0])
    def test_variance_finite_for_every_accepted_epsilon(self, epsilon):
        rr = RandomizedResponse(epsilon=epsilon)
        e = math.exp(epsilon)
        variance = rr.per_report_variance()
        assert math.isfinite(variance) and variance > 0.0
        assert rr.estimator_variance_bound(10) == variance / 10
        if epsilon < 355:  # the formula's own value wherever it is finite
            assert variance == e / (e - 1.0) ** 2
        else:
            assert variance == 1.0 / e
        assert variance <= RandomizedResponse(epsilon=epsilon - 1.0).per_report_variance()
