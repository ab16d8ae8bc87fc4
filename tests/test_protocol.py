"""Round mechanics: report collection, debiasing, pooling, Lemma 3.1."""

import numpy as np
import pytest

from repro.core.protocol import (
    bit_means_from_stats,
    collect_bit_reports,
    combine_round_stats,
    optimal_probabilities_bound,
    theoretical_variance,
)
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.exceptions import ProtocolError
from repro.privacy import RandomizedResponse


class TestCollectBitReports:
    def test_exact_sums_on_known_data(self):
        # Clients hold 0b11, 0b01, 0b10; everyone reports bit 0.
        encoded = np.array([3, 1, 2], dtype=np.uint64)
        assignment = np.zeros(3, dtype=np.int64)
        sums, counts = collect_bit_reports(encoded, 2, assignment)
        assert sums.tolist() == [2.0, 0.0]
        assert counts.tolist() == [3, 0]

    def test_mixed_assignment(self):
        encoded = np.array([3, 3, 3, 3], dtype=np.uint64)
        assignment = np.array([0, 0, 1, 1])
        sums, counts = collect_bit_reports(encoded, 2, assignment)
        assert sums.tolist() == [2.0, 2.0]
        assert counts.tolist() == [2, 2]

    def test_multi_bit_assignment(self):
        encoded = np.array([0b11, 0b11], dtype=np.uint64)
        assignment = np.array([[0, 1], [0, 1]])
        sums, counts = collect_bit_reports(encoded, 2, assignment)
        assert sums.tolist() == [2.0, 2.0]
        assert counts.tolist() == [2, 2]

    def test_counts_match_assignment(self, rng):
        encoded = rng.integers(0, 1024, 500).astype(np.uint64)
        sched = BitSamplingSchedule.weighted(10, 0.5)
        assignment = central_assignment(500, sched, rng)
        _, counts = collect_bit_reports(encoded, 10, assignment)
        np.testing.assert_array_equal(counts, np.bincount(assignment, minlength=10))

    def test_perturbation_applied(self, rng):
        encoded = np.zeros(50_000, dtype=np.uint64)   # all bits are 0
        assignment = np.zeros(50_000, dtype=np.int64)
        rr = RandomizedResponse(epsilon=1.0)
        sums, counts = collect_bit_reports(encoded, 1, assignment, rr, rng)
        # Roughly a (1 - p) fraction of reports flip to 1.
        assert sums[0] / counts[0] == pytest.approx(1.0 - rr.p, abs=0.01)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ProtocolError):
            collect_bit_reports(np.array([1], dtype=np.uint64), 2, np.array([0, 1]))

    @pytest.mark.parametrize(
        "encoded", [np.uint64(5), np.arange(6, dtype=np.uint64).reshape(3, 2)], ids=["0-d", "2-d"]
    )
    def test_encoded_must_be_one_value_per_client(self, encoded):
        with pytest.raises(ProtocolError, match="1-D"):
            collect_bit_reports(encoded, 3, np.array([0]))

    def test_fractional_assignment_raises(self):
        # Truncating would count the reports as bits 2 and 0.
        with pytest.raises(ProtocolError, match="integer"):
            collect_bit_reports(np.array([5, 6], dtype=np.uint64), 3, np.array([2.7, 0.9]))

    def test_bool_assignment_raises(self):
        # Read as indices, True and False would be bits 1 and 0.
        with pytest.raises(ProtocolError, match="integer"):
            collect_bit_reports(np.array([5, 6], dtype=np.uint64), 3, np.array([True, False]))

    def test_integer_dtypes_kept(self):
        encoded = np.array([5, 6], dtype=np.uint64)
        ref = collect_bit_reports(encoded, 3, np.array([2, 0]))
        for dtype in (np.uint8, np.uint16, np.uint64, np.int8):
            got = collect_bit_reports(encoded, 3, np.array([2, 0], dtype=dtype))
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])

    def test_out_of_range_assignment_raises(self):
        with pytest.raises(ProtocolError):
            collect_bit_reports(np.array([1], dtype=np.uint64), 2, np.array([5]))
        with pytest.raises(ProtocolError):
            collect_bit_reports(np.array([1], dtype=np.uint64), 2, np.array([-1]))


class TestBitMeansFromStats:
    def test_plain_means(self):
        means = bit_means_from_stats(np.array([5.0, 0.0]), np.array([10, 0]))
        assert means.tolist() == [0.5, 0.0]

    def test_zero_count_bits_are_zero(self):
        means = bit_means_from_stats(np.array([0.0, 0.0, 0.0]), np.array([0, 0, 0]))
        assert means.tolist() == [0.0, 0.0, 0.0]

    def test_unbiasing_applied_only_to_sampled_bits(self):
        rr = RandomizedResponse(epsilon=2.0)
        raw = np.array([rr.p, 0.0])       # bit 0 sampled and "all ones", bit 1 unsampled
        means = bit_means_from_stats(raw * np.array([10, 0]), np.array([10, 0]), rr)
        assert means[0] == pytest.approx(1.0)
        assert means[1] == 0.0

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ProtocolError):
            bit_means_from_stats(np.zeros(3), np.zeros(2, dtype=int))


class TestCombineRoundStats:
    def test_count_weighted_pooling(self):
        pooled, counts = combine_round_stats(
            [np.array([1.0, 0.0]), np.array([0.0, 0.0])],
            [np.array([10, 0]), np.array([30, 0])],
        )
        assert pooled[0] == pytest.approx(0.25)   # (10*1 + 30*0) / 40
        assert counts[0] == 40

    def test_bit_unsampled_everywhere_stays_zero(self):
        pooled, counts = combine_round_stats(
            [np.array([0.5, 0.0])], [np.array([10, 0])]
        )
        assert pooled[1] == 0.0 and counts[1] == 0

    def test_single_round_identity(self):
        means = np.array([0.3, 0.7])
        pooled, counts = combine_round_stats([means], [np.array([5, 5])])
        np.testing.assert_allclose(pooled, means)

    def test_empty_raises(self):
        with pytest.raises(ProtocolError):
            combine_round_stats([], [])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ProtocolError):
            combine_round_stats([np.zeros(2)], [])


class TestTheoreticalVariance:
    def test_matches_lemma_formula(self):
        means = np.array([0.5, 0.25])
        sched = BitSamplingSchedule.uniform(2)
        n = 100
        beta = np.array([0.25, 4 * 0.25 * 0.75])
        expected = (beta / 0.5).sum() / n
        assert theoretical_variance(means, sched, n) == pytest.approx(expected)

    def test_b_send_scales_down(self):
        means = np.array([0.5, 0.5])
        sched = BitSamplingSchedule.uniform(2)
        v1 = theoretical_variance(means, sched, 100, b_send=1)
        v4 = theoretical_variance(means, sched, 100, b_send=4)
        assert v4 == pytest.approx(v1 / 4)

    def test_unsampled_active_bit_is_infinite(self):
        means = np.array([0.5, 0.5])
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0]))
        assert theoretical_variance(means, sched, 100) == float("inf")

    def test_unsampled_empty_bit_is_fine(self):
        means = np.array([0.5, 0.0])
        sched = BitSamplingSchedule.from_bit_means(np.array([0.5, 0.0]))
        assert np.isfinite(theoretical_variance(means, sched, 100))

    def test_empirical_variance_matches_lemma(self, rng):
        """Monte-Carlo check of Lemma 3.1 for the basic estimator.

        The lemma models each bit-j report as an independent Bernoulli(m_j)
        draw, which corresponds to a *fresh population per repetition* (a
        fixed population sampled without replacement would enjoy a
        finite-population correction and come in below the bound).
        """
        from repro.core import BasicBitPushing, FixedPointEncoder

        n, n_bits = 2000, 6
        encoder = FixedPointEncoder.for_integers(n_bits)
        sched = BitSamplingSchedule.weighted(n_bits, 0.5)
        est = BasicBitPushing(encoder, schedule=sched)
        estimates = [
            est.estimate(rng.integers(0, 64, size=n).astype(float), rng).value
            for _ in range(600)
        ]
        empirical = np.var(estimates)
        # Uniform integers over [0, 64): every bit mean is exactly 1/2.
        predicted = theoretical_variance(np.full(n_bits, 0.5), sched, n)
        assert empirical == pytest.approx(predicted, rel=0.2)

    def test_qmc_assignment_beats_lemma_bound_on_fixed_population(self, rng):
        """Without-replacement (central QMC) sampling of a fixed population
        has *lower* variance than the lemma's with-replacement model."""
        from repro.core import BasicBitPushing, FixedPointEncoder

        n, n_bits = 2000, 6
        values = rng.integers(0, 64, size=n).astype(float)
        encoder = FixedPointEncoder.for_integers(n_bits)
        sched = BitSamplingSchedule.weighted(n_bits, 0.5)
        est = BasicBitPushing(encoder, schedule=sched)
        estimates = [est.estimate(values, rng).value for _ in range(400)]
        predicted = theoretical_variance(encoder.true_bit_means(values), sched, n)
        assert np.var(estimates) < predicted

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            theoretical_variance(np.zeros(3), BitSamplingSchedule.uniform(2), 10)


class TestOptimalBound:
    def test_is_eq7_schedule(self):
        sched = optimal_probabilities_bound(4)
        np.testing.assert_allclose(sched.probabilities, np.array([1, 2, 4, 8]) / 15)

    def test_optimal_beats_uniform_in_lemma_variance(self):
        means = np.full(8, 0.5)
        n = 1000
        v_opt = theoretical_variance(means, optimal_probabilities_bound(8), n)
        v_uni = theoretical_variance(means, BitSamplingSchedule.uniform(8), n)
        assert v_opt < v_uni
