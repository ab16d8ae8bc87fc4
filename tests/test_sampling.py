"""Bit-sampling schedules and client assignment."""

import numpy as np
import pytest

from repro.core.sampling import (
    BitSamplingSchedule,
    apportion_counts,
    central_assignment,
    local_assignment,
    multi_bit_assignment,
)
from repro.exceptions import ConfigurationError


class TestScheduleConstruction:
    def test_uniform(self):
        sched = BitSamplingSchedule.uniform(4)
        np.testing.assert_allclose(sched.probabilities, 0.25)

    def test_weighted_alpha_one_is_2_pow_j(self):
        """alpha = 1.0 is the Eq. 7 worst-case optimum p_j = 2^j / (2^b - 1)."""
        sched = BitSamplingSchedule.weighted(4, alpha=1.0)
        expected = np.array([1, 2, 4, 8]) / 15
        np.testing.assert_allclose(sched.probabilities, expected)

    def test_weighted_alpha_half_is_sqrt2_pow_j(self):
        sched = BitSamplingSchedule.weighted(3, alpha=0.5)
        raw = np.sqrt(2.0) ** np.arange(3)
        np.testing.assert_allclose(sched.probabilities, raw / raw.sum())

    def test_weighted_matches_geometric_family(self):
        """weighted(alpha) and geometric(gamma) are the same 2^(cj) family."""
        np.testing.assert_allclose(
            BitSamplingSchedule.weighted(6, alpha=0.7).probabilities,
            BitSamplingSchedule.geometric(6, gamma=0.7).probabilities,
        )

    def test_geometric_gamma(self):
        sched = BitSamplingSchedule.geometric(3, gamma=1.0)
        expected = np.array([1, 2, 4]) / 7
        np.testing.assert_allclose(sched.probabilities, expected)

    def test_geometric_gamma_zero_is_uniform(self):
        sched = BitSamplingSchedule.geometric(5, gamma=0.0)
        np.testing.assert_allclose(sched.probabilities, 0.2)

    def test_probabilities_sum_to_one(self):
        for sched in (
            BitSamplingSchedule.uniform(7),
            BitSamplingSchedule.weighted(7, 0.5),
            BitSamplingSchedule.geometric(7, 0.3),
        ):
            assert sched.probabilities.sum() == pytest.approx(1.0)

    def test_no_overflow_at_60_bits(self):
        sched = BitSamplingSchedule.weighted(60, alpha=1.0)
        assert np.all(np.isfinite(sched.probabilities))
        assert sched.probabilities.sum() == pytest.approx(1.0)

    def test_immutable(self):
        sched = BitSamplingSchedule.uniform(3)
        with pytest.raises(ValueError):
            sched.probabilities[0] = 0.9

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            BitSamplingSchedule.uniform(0)
        with pytest.raises(ConfigurationError):
            BitSamplingSchedule(np.array([0.5, -0.1]))
        with pytest.raises(ConfigurationError):
            BitSamplingSchedule(np.array([0.0, 0.0]))
        with pytest.raises(ConfigurationError):
            BitSamplingSchedule(np.array([[0.5], [0.5]]))
        with pytest.raises(ConfigurationError):
            BitSamplingSchedule.weighted(4, alpha=float("nan"))


class TestFromBitMeans:
    def test_matches_lemma_33_optimum(self):
        """p_j proportional to sqrt(beta_j) with beta_j = 4^j m_j (1 - m_j)."""
        means = np.array([0.5, 0.25, 0.1, 0.0])
        sched = BitSamplingSchedule.from_bit_means(means, alpha=0.5)
        beta = np.exp2(2 * np.arange(4)) * means * (1 - means)
        expected = np.sqrt(beta) / np.sqrt(beta).sum()
        np.testing.assert_allclose(sched.probabilities, expected)

    def test_empty_bits_get_zero_probability(self):
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0, 1.0, 0.5]))
        assert sched.probabilities[1] == 0.0
        assert sched.probabilities[2] == 0.0   # mean 1.0 also has zero variance

    def test_noisy_means_clipped(self):
        # DP noise can push estimates outside [0, 1]; they must not crash.
        sched = BitSamplingSchedule.from_bit_means(np.array([-0.2, 0.5, 1.3]))
        assert sched.probabilities[0] == 0.0
        assert sched.probabilities[2] == 0.0

    def test_all_zero_falls_back_to_weighted(self):
        # The docstring promises the flat weighted(n_bits, alpha=0.5)
        # fallback, not the steep alpha=1.0 schedule.
        sched = BitSamplingSchedule.from_bit_means(np.zeros(4))
        np.testing.assert_allclose(
            sched.probabilities, BitSamplingSchedule.weighted(4, 0.5).probabilities
        )

    def test_constant_input_falls_back_to_alpha_half(self):
        # A constant population has zero variance on every bit, so every
        # beta_j weight vanishes; the fallback must match the documented
        # weighted(n_bits, alpha=0.5) regardless of the constant.
        for constant in (0.0, 1.0):
            sched = BitSamplingSchedule.from_bit_means(np.full(6, constant))
            np.testing.assert_allclose(
                sched.probabilities,
                BitSamplingSchedule.weighted(6, 0.5).probabilities,
            )

    def test_floor_guarantees_minimum_mass(self):
        sched = BitSamplingSchedule.from_bit_means(
            np.array([0.5, 0.0, 0.0, 0.5]), floor=0.01
        )
        assert np.all(sched.probabilities >= 0.01 - 1e-12)
        assert sched.probabilities.sum() == pytest.approx(1.0)

    def test_alpha_one_squares_the_optimal(self):
        means = np.array([0.5, 0.5])
        sched = BitSamplingSchedule.from_bit_means(means, alpha=1.0)
        beta = np.array([0.25, 1.0])
        np.testing.assert_allclose(sched.probabilities, beta / beta.sum())

    def test_negative_alpha_raises(self):
        with pytest.raises(ConfigurationError):
            BitSamplingSchedule.from_bit_means(np.array([0.5]), alpha=-1.0)


class TestScheduleViews:
    def test_support(self):
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0, 0.5]))
        np.testing.assert_array_equal(sched.support(), [0, 2])

    def test_expected_counts(self):
        sched = BitSamplingSchedule.uniform(4)
        np.testing.assert_allclose(sched.expected_counts(100), 25.0)

    def test_len(self):
        assert len(BitSamplingSchedule.uniform(6)) == 6


class TestApportionCounts:
    def test_sums_exactly_to_n(self):
        sched = BitSamplingSchedule.weighted(10, 0.5)
        for n in (0, 1, 7, 100, 9_999):
            assert apportion_counts(n, sched).sum() == n

    def test_within_one_of_quota(self):
        sched = BitSamplingSchedule.weighted(8, 0.5)
        counts = apportion_counts(1000, sched)
        quotas = sched.probabilities * 1000
        assert np.all(np.abs(counts - quotas) < 1.0)

    def test_zero_probability_bits_get_zero(self):
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0, 0.5]))
        counts = apportion_counts(101, sched)
        assert counts[1] == 0
        assert counts.sum() == 101

    def test_negative_n_raises(self):
        with pytest.raises(ConfigurationError):
            apportion_counts(-1, BitSamplingSchedule.uniform(2))

    def test_returned_counts_are_the_callers_own(self):
        # The apportionment is memoized; each call hands out its own copy.
        sched = BitSamplingSchedule.weighted(6, 0.5)
        counts = apportion_counts(1000, sched)
        counts[:] = 0
        assert apportion_counts(1000, sched).sum() == 1000


class TestCentralAssignment:
    def test_counts_are_exact(self, rng):
        sched = BitSamplingSchedule.weighted(6, 0.5)
        assignment = central_assignment(1000, sched, rng)
        counts = np.bincount(assignment, minlength=6)
        np.testing.assert_array_equal(counts, apportion_counts(1000, sched))

    def test_assignment_is_shuffled(self):
        sched = BitSamplingSchedule.uniform(4)
        a = central_assignment(100, sched, rng=1)
        b = central_assignment(100, sched, rng=2)
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        sched = BitSamplingSchedule.uniform(4)
        np.testing.assert_array_equal(
            central_assignment(50, sched, rng=3), central_assignment(50, sched, rng=3)
        )

    @pytest.mark.parametrize("n", [0, 1, 1000, 2**19, 2**19 + 1])
    @pytest.mark.parametrize("n_bits", [1, 10, 63, 300])
    def test_compact_dtype_draws_the_int64_shuffle(self, n, n_bits):
        # 2**19 and 2**19 + 1 sit on both sides of the compact-shuffle
        # cutoff: each side must draw what an int64 shuffle draws, leave
        # the generator where it leaves it, and hand out the compact dtype.
        sched = BitSamplingSchedule.uniform(n_bits)
        gen, twin = np.random.default_rng(11), np.random.default_rng(11)
        assignment = central_assignment(n, sched, gen)
        expected = np.repeat(np.arange(n_bits, dtype=np.int64), apportion_counts(n, sched))
        twin.shuffle(expected)
        assert assignment.dtype == np.min_scalar_type(n_bits - 1)
        np.testing.assert_array_equal(assignment, expected)
        assert gen.bit_generator.state == twin.bit_generator.state


class TestLocalAssignment:
    def test_counts_are_multinomial_not_exact(self):
        sched = BitSamplingSchedule.uniform(2)
        assignment = local_assignment(10_001, sched, rng=0)
        counts = np.bincount(assignment, minlength=2)
        # An odd total cannot split exactly evenly, and multinomial noise
        # means counts deviate from quota; just verify plausibility.
        assert counts.sum() == 10_001
        assert abs(counts[0] - 5000.5) < 500

    def test_respects_zero_probability(self):
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0, 0.5]))
        assignment = local_assignment(1000, sched, rng=0)
        assert not np.any(assignment == 1)

    def test_negative_n_raises(self):
        with pytest.raises(ConfigurationError):
            local_assignment(-5, BitSamplingSchedule.uniform(2))


class TestMultiBitAssignment:
    def test_shape(self, rng):
        sched = BitSamplingSchedule.weighted(8, 0.5)
        picks = multi_bit_assignment(100, sched, b_send=3, rng=rng)
        assert picks.shape == (100, 3)

    def test_bits_distinct_per_client(self, rng):
        sched = BitSamplingSchedule.uniform(8)
        picks = multi_bit_assignment(200, sched, b_send=4, rng=rng)
        for row in picks:
            assert len(set(row.tolist())) == 4

    def test_b_send_one_matches_central_mode(self, rng):
        sched = BitSamplingSchedule.weighted(6, 0.5)
        picks = multi_bit_assignment(300, sched, b_send=1, rng=rng)
        assert picks.shape == (300, 1)

    def test_never_picks_zero_probability_bits(self, rng):
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0, 0.5, 0.5]))
        picks = multi_bit_assignment(500, sched, b_send=2, rng=rng)
        assert not np.any(picks == 1)

    def test_b_send_exceeding_support_raises(self):
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ConfigurationError):
            multi_bit_assignment(10, sched, b_send=3)

    def test_invalid_b_send(self):
        with pytest.raises(ConfigurationError):
            multi_bit_assignment(10, BitSamplingSchedule.uniform(4), b_send=0)

    def test_weighting_respected(self):
        """Higher-probability bits appear more often in multi-bit picks."""
        sched = BitSamplingSchedule.weighted(6, 0.5)
        picks = multi_bit_assignment(5000, sched, b_send=2, rng=0)
        counts = np.bincount(picks.ravel(), minlength=6)
        assert counts[5] > counts[0]
