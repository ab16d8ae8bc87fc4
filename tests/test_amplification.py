"""Privacy-amplification calculators."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.privacy import (
    amplified_epsilon_by_sampling,
    required_epsilon_for_sampling,
    shuffle_amplification_valid,
    shuffle_amplified_epsilon,
)


class TestSamplingAmplification:
    def test_full_sampling_is_identity(self):
        assert amplified_epsilon_by_sampling(1.5, 1.0) == pytest.approx(1.5)

    def test_amplification_never_hurts(self):
        for s in (0.01, 0.1, 0.5, 0.99):
            assert amplified_epsilon_by_sampling(2.0, s) < 2.0

    def test_monotone_in_rate(self):
        eps = [amplified_epsilon_by_sampling(1.0, s) for s in (0.1, 0.3, 0.7, 1.0)]
        assert eps == sorted(eps)

    def test_monotone_in_epsilon(self):
        eps = [amplified_epsilon_by_sampling(e, 0.2) for e in (0.5, 1.0, 2.0, 4.0)]
        assert eps == sorted(eps)

    def test_small_rate_linearizes(self):
        """For tiny s, eps' ~ s * (e^eps - 1)."""
        s = 1e-4
        expected = s * (math.exp(1.0) - 1.0)
        assert amplified_epsilon_by_sampling(1.0, s) == pytest.approx(expected, rel=1e-3)

    def test_inverse_roundtrip(self):
        for target in (0.1, 0.5, 2.0):
            for s in (0.05, 0.3, 1.0):
                base = required_epsilon_for_sampling(target, s)
                assert amplified_epsilon_by_sampling(base, s) == pytest.approx(target)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            amplified_epsilon_by_sampling(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            amplified_epsilon_by_sampling(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            amplified_epsilon_by_sampling(1.0, 1.5)
        with pytest.raises(ConfigurationError):
            required_epsilon_for_sampling(1.0, 0.0)


class TestShuffleAmplification:
    def test_large_cohorts_amplify_strongly(self):
        eps = shuffle_amplified_epsilon(1.0, 1_000_000, 1e-8)
        assert eps < 0.05

    def test_scales_like_inverse_sqrt_n(self):
        small = shuffle_amplified_epsilon(1.0, 10_000, 1e-8)
        large = shuffle_amplified_epsilon(1.0, 1_000_000, 1e-8)
        # ~sqrt(100) = 10x, compressed slightly by log1p curvature and the
        # additive 8/n term.
        assert 7.0 < small / large < 11.0

    def test_monotone_in_epsilon(self):
        values = [shuffle_amplified_epsilon(e, 100_000, 1e-8) for e in (0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_validity_region(self):
        assert shuffle_amplification_valid(1.0, 100_000, 1e-8)
        assert not shuffle_amplification_valid(20.0, 1_000, 1e-8)   # eps too big
        assert not shuffle_amplification_valid(1.0, 2, 1e-8)        # n too small
        assert not shuffle_amplification_valid(0.0, 100_000, 1e-8)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            shuffle_amplified_epsilon(20.0, 1_000, 1e-8)
        with pytest.raises(ConfigurationError):
            shuffle_amplified_epsilon(1.0, 1, 1e-8)
        with pytest.raises(ConfigurationError):
            shuffle_amplified_epsilon(1.0, 1_000, 0.0)

    def test_amplified_below_local(self):
        for n in (50_000, 500_000):
            assert shuffle_amplified_epsilon(0.8, n, 1e-9) < 0.8


class TestAmplificationWithProtocol:
    def test_per_bit_sampling_amplifies_low_bits(self):
        """Under the 2^j schedule, a low bit is reported by a tiny fraction
        of clients, so an observer ignorant of the assignment sees a much
        smaller effective epsilon for it."""
        from repro.core import BitSamplingSchedule

        schedule = BitSamplingSchedule.weighted(10, alpha=1.0)
        base_eps = 2.0
        effective = np.array([
            amplified_epsilon_by_sampling(base_eps, float(p))
            for p in schedule.probabilities
        ])
        assert effective[0] < 0.05          # LSB barely sampled
        assert effective[-1] < base_eps      # even the MSB gains a little
        assert np.all(np.diff(effective) > 0)


class TestLargeEpsilon:
    """Every finite epsilon gives a finite value or one ConfigurationError line."""

    EPSILONS = (700.0, 709.0, 710.0, 800.0)
    RATES = (1.0, 0.5, 0.1, 1e-3)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("rate", RATES)
    def test_sampling_calculators_stay_finite(self, epsilon, rate):
        amplified = amplified_epsilon_by_sampling(epsilon, rate)
        assert math.isfinite(amplified) and 0.0 < amplified <= epsilon
        required = required_epsilon_for_sampling(epsilon, rate)
        assert math.isfinite(required) and required >= epsilon

    def test_sampling_past_the_float_range_follows_the_closed_form(self):
        # log(1 + s (e^eps - 1)) -> eps + log(s), and its inverse
        # -> target - log(s), once e^eps dwarfs 1.
        assert amplified_epsilon_by_sampling(710.0, 0.5) == pytest.approx(710.0 + math.log(0.5))
        assert amplified_epsilon_by_sampling(800.0, 1.0) == 800.0
        assert required_epsilon_for_sampling(709.0, 0.1) == pytest.approx(709.0 - math.log(0.1))
        assert required_epsilon_for_sampling(800.0, 1.0) == 800.0

    def test_values_inside_the_float_range_are_unchanged(self):
        for epsilon in np.linspace(0.01, 709.7, 61):
            for rate in self.RATES:
                grown = math.exp(epsilon) - 1.0
                assert amplified_epsilon_by_sampling(epsilon, rate) == math.log1p(rate * grown)
                if math.isfinite(grown / rate):
                    assert required_epsilon_for_sampling(epsilon, rate) == math.log1p(
                        grown / rate
                    )

    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("n_clients", [10**6, 10**307, 10**400, float("inf")])
    def test_shuffle_returns_finite_or_one_error_line(self, epsilon, n_clients):
        try:
            central = shuffle_amplified_epsilon(epsilon, n_clients, 0.5)
        except ConfigurationError as exc:
            assert "\n" not in str(exc)
        else:
            assert math.isfinite(central) and central < epsilon

    def test_shuffle_at_700_needs_a_float_sized_cohort(self):
        assert math.isfinite(shuffle_amplified_epsilon(700.0, 10**307, 0.5))
        assert not shuffle_amplification_valid(700.0, 10**400, 0.5)
        with pytest.raises(ConfigurationError, match="clients to shuffle"):
            shuffle_amplified_epsilon(700.0, 10**400, 0.5)
