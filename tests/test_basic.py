"""Basic (single-round) bit-pushing -- Algorithm 1."""

import numpy as np
import pytest

from repro.core import (
    BasicBitPushing,
    BitSamplingSchedule,
    FixedPointEncoder,
    estimate_mean,
)
from repro.exceptions import ConfigurationError
from repro.privacy import RandomizedResponse


class TestConstruction:
    def test_default_schedule_is_eq7(self, encoder8):
        est = BasicBitPushing(encoder8)
        np.testing.assert_allclose(
            est.schedule.probabilities,
            np.exp2(np.arange(8)) / (2**8 - 1),
        )

    def test_schedule_width_mismatch_raises(self, encoder8):
        with pytest.raises(ConfigurationError):
            BasicBitPushing(encoder8, schedule=BitSamplingSchedule.uniform(4))

    def test_invalid_randomness(self, encoder8):
        with pytest.raises(ConfigurationError):
            BasicBitPushing(encoder8, randomness="quantum")

    def test_invalid_b_send(self, encoder8):
        with pytest.raises(ConfigurationError):
            BasicBitPushing(encoder8, b_send=0)

    def test_negative_squash_threshold(self, encoder8):
        with pytest.raises(ConfigurationError):
            BasicBitPushing(encoder8, squash_threshold=-0.1)


class TestAccuracy:
    def test_constant_population_recovered_exactly_in_expectation(self, encoder8):
        est = BasicBitPushing(encoder8)
        values = np.full(20_000, 42.0)
        # Every client holds 42, so every bit report is exact: zero variance.
        assert est.estimate(values, rng=0).value == pytest.approx(42.0)

    def test_unbiasedness(self, encoder10):
        """Mean of many estimates converges to the true mean."""
        rng = np.random.default_rng(7)
        values = np.clip(rng.normal(600, 100, 5_000), 0, None)
        est = BasicBitPushing(encoder10)
        estimates = [est.estimate(values, rng).value for _ in range(300)]
        stderr = np.std(estimates) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - values.mean()) < 4 * stderr

    def test_error_shrinks_with_n(self, encoder10):
        rng = np.random.default_rng(8)
        est = BasicBitPushing(encoder10)

        def rmse(n):
            errs = []
            for _ in range(40):
                values = np.clip(rng.normal(600, 100, n), 0, None)
                errs.append(est.estimate(values, rng).value - values.mean())
            return float(np.sqrt(np.mean(np.square(errs))))

        assert rmse(20_000) < rmse(1_000)

    def test_ten_bit_quantity_error_small_at_10k(self, encoder10):
        """Paper: 10k reports keep a 10-bit quantity comfortably below 1% NRMSE."""
        rng = np.random.default_rng(9)
        est = BasicBitPushing(encoder10)
        rel_errors = []
        for _ in range(30):
            values = np.clip(rng.normal(600, 100, 10_000), 0, None)
            rel_errors.append((est.estimate(values, rng).value - values.mean()) / values.mean())
        assert np.sqrt(np.mean(np.square(rel_errors))) < 0.02


class TestBSend:
    def test_more_bits_less_variance(self, encoder10):
        rng = np.random.default_rng(10)
        values = np.clip(rng.normal(600, 100, 3_000), 0, None)

        def variance(b_send):
            est = BasicBitPushing(encoder10, b_send=b_send)
            return np.var([est.estimate(values, rng).value for _ in range(150)])

        assert variance(4) < variance(1)

    def test_b_send_counts(self, encoder8, rng):
        est = BasicBitPushing(encoder8, b_send=3)
        result = est.estimate(np.full(1_000, 100.0), rng)
        assert result.total_reports == 3_000


class TestRandomnessModes:
    def test_local_mode_runs_and_is_reasonable(self, encoder10):
        rng = np.random.default_rng(11)
        values = np.clip(rng.normal(600, 100, 10_000), 0, None)
        est = BasicBitPushing(encoder10, randomness="local")
        assert est.estimate(values, rng).value == pytest.approx(values.mean(), rel=0.1)

    def test_central_mode_counts_deterministic(self, encoder8, rng):
        est = BasicBitPushing(encoder8)
        r1 = est.estimate(np.full(1_000, 99.0), rng)
        r2 = est.estimate(np.full(1_000, 99.0), rng)
        np.testing.assert_array_equal(r1.counts, r2.counts)


class TestLdp:
    def test_rr_estimate_still_unbiased(self, encoder8):
        rng = np.random.default_rng(12)
        values = np.full(50_000, 100.0)
        est = BasicBitPushing(encoder8, perturbation=RandomizedResponse(epsilon=2.0))
        estimates = [est.estimate(values, rng).value for _ in range(50)]
        stderr = np.std(estimates) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - 100.0) < 4 * stderr + 1e-9

    def test_rr_increases_error(self, encoder8):
        rng = np.random.default_rng(13)
        values = np.full(10_000, 100.0)
        plain = BasicBitPushing(encoder8)
        noisy = BasicBitPushing(encoder8, perturbation=RandomizedResponse(epsilon=1.0))
        err_plain = np.std([plain.estimate(values, rng).value for _ in range(50)])
        err_noisy = np.std([noisy.estimate(values, rng).value for _ in range(50)])
        assert err_noisy > err_plain

    def test_squashing_suppresses_noise_bits(self):
        rng = np.random.default_rng(14)
        values = np.full(20_000, 3.0)    # only bits 0 and 1 are real
        encoder = FixedPointEncoder.for_integers(16)
        est = BasicBitPushing(
            encoder,
            schedule=BitSamplingSchedule.uniform(16),
            perturbation=RandomizedResponse(epsilon=2.0),
            squash_threshold=0.05,
        )
        result = est.estimate(values, rng)
        assert result.metadata["ldp"] is True
        assert set(result.squashed_bits) >= set(range(4, 16))
        assert result.value == pytest.approx(3.0, abs=1.0)


class TestResultRecord:
    def test_result_fields(self, encoder8, rng):
        est = BasicBitPushing(encoder8)
        values = np.full(500, 17.0)
        result = est.estimate(values, rng)
        assert result.method == "basic"
        assert result.n_clients == 500
        assert result.n_bits == 8
        assert len(result.rounds) == 1
        assert result.total_reports == 500
        assert result.metadata["randomness"] == "central"
        assert float(result) == result.value

    def test_scaled_encoder_decodes(self, rng):
        encoder = FixedPointEncoder.for_range(1000.0, 2000.0, n_bits=10)
        est = BasicBitPushing(encoder)
        values = np.full(20_000, 1500.0)
        assert est.estimate(values, rng).value == pytest.approx(1500.0, abs=2.0)

    def test_zero_clients_raise(self, encoder8, rng):
        with pytest.raises(ConfigurationError):
            BasicBitPushing(encoder8).estimate(np.array([]), rng)


class TestConvenienceFunction:
    def test_estimate_mean(self):
        values = np.full(10_000, 77.0)
        result = estimate_mean(values, n_bits=8, rng=0)
        assert result.value == pytest.approx(77.0)

    def test_estimate_mean_with_offset_scale(self):
        rng = np.random.default_rng(15)
        values = rng.uniform(-1.0, 1.0, 50_000)
        result = estimate_mean(values, n_bits=12, scale=2.0 / 4095, offset=-1.0, rng=rng)
        assert result.value == pytest.approx(values.mean(), abs=0.02)
