"""Adaptive (two-round) bit-pushing -- Algorithm 2."""

import numpy as np
import pytest

from repro.core import AdaptiveBitPushing, BasicBitPushing, FixedPointEncoder
from repro.exceptions import ConfigurationError
from repro.privacy import RandomizedResponse


class TestConstruction:
    def test_invalid_delta(self, encoder8):
        for delta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError):
                AdaptiveBitPushing(encoder8, delta=delta)

    def test_invalid_alpha(self, encoder8):
        with pytest.raises(ConfigurationError):
            AdaptiveBitPushing(encoder8, alpha=-1.0)

    def test_invalid_randomness(self, encoder8):
        with pytest.raises(ConfigurationError):
            AdaptiveBitPushing(encoder8, randomness="psychic")

    def test_squash_without_perturbation_raises(self, encoder8):
        with pytest.raises(ConfigurationError):
            AdaptiveBitPushing(encoder8, squash_multiple=2.0)

    def test_too_few_clients_raise(self, encoder8, rng):
        with pytest.raises(ConfigurationError):
            AdaptiveBitPushing(encoder8).estimate(np.array([5.0]), rng)


class TestAccuracy:
    def test_recovers_constant_population(self, encoder8):
        est = AdaptiveBitPushing(encoder8)
        assert est.estimate(np.full(20_000, 42.0), rng=0).value == pytest.approx(42.0)

    def test_unbiasedness(self, encoder10):
        rng = np.random.default_rng(20)
        values = np.clip(rng.normal(600, 100, 5_000), 0, None)
        est = AdaptiveBitPushing(encoder10)
        estimates = [est.estimate(values, rng).value for _ in range(300)]
        stderr = np.std(estimates) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - values.mean()) < 4 * stderr

    def test_beats_basic_under_loose_bit_depth(self):
        """The paper's core claim: adaptivity wins when the range bound is loose."""
        rng = np.random.default_rng(21)
        encoder = FixedPointEncoder.for_integers(18)   # data needs only ~11 bits
        basic = BasicBitPushing(encoder)
        adaptive = AdaptiveBitPushing(encoder)

        def rmse(estimator):
            errs = []
            for _ in range(60):
                values = np.clip(rng.normal(1000, 100, 5_000), 0, None)
                errs.append(estimator.estimate(values, rng).value - values.mean())
            return float(np.sqrt(np.mean(np.square(errs))))

        assert rmse(adaptive) < rmse(basic)

    def test_insensitive_to_bit_depth(self):
        """Figure 1c behaviour: error roughly flat as slack bits are added."""
        rng = np.random.default_rng(22)

        def rmse(n_bits):
            est = AdaptiveBitPushing(FixedPointEncoder.for_integers(n_bits))
            errs = []
            for _ in range(50):
                values = np.clip(rng.normal(1000, 100, 5_000), 0, None)
                errs.append(est.estimate(values, rng).value - values.mean())
            return float(np.sqrt(np.mean(np.square(errs))))

        assert rmse(20) < 3.0 * rmse(11)


class TestRounds:
    def test_two_rounds_recorded(self, encoder10, rng):
        result = AdaptiveBitPushing(encoder10).estimate(np.full(1_000, 300.0), rng)
        assert len(result.rounds) == 2

    def test_delta_split_respected(self, encoder10, rng):
        est = AdaptiveBitPushing(encoder10, delta=0.25)
        result = est.estimate(np.full(1_000, 300.0), rng)
        assert result.n_clients == 1_000
        assert result.rounds[0].n_clients == 250
        assert result.rounds[1].n_clients == 750

    def test_round2_avoids_bits_found_empty(self, encoder10):
        # Half the clients hold 4 (0b0100), half hold 12 (0b1100): only
        # bit 3 has non-trivial variance, so round 2 should focus there and
        # give zero probability to bits round 1 found constant.
        rng = np.random.default_rng(23)
        values = np.array([4.0, 12.0] * 2_000)
        est = AdaptiveBitPushing(encoder10, delta=0.5)
        result = est.estimate(values, rng)
        round2 = result.rounds[1]
        assert round2.probabilities[3] == pytest.approx(1.0)
        assert round2.probabilities[9] == 0.0
        assert round2.probabilities[0] == 0.0

    def test_constant_population_falls_back_gracefully(self, encoder10, rng):
        # Constant data has zero variance at every bit; round 2 falls back
        # to the worst-case-optimal schedule and the estimate stays exact.
        est = AdaptiveBitPushing(encoder10, delta=0.5)
        result = est.estimate(np.full(4_000, 12.0), rng)
        assert result.value == pytest.approx(12.0)

    def test_caching_pools_counts(self, encoder10, rng):
        cached = AdaptiveBitPushing(encoder10, caching=True)
        result = cached.estimate(np.full(2_000, 300.0), rng)
        assert result.counts.sum() == 2_000

    def test_no_caching_still_estimates(self, encoder10):
        rng = np.random.default_rng(24)
        est = AdaptiveBitPushing(encoder10, caching=False)
        values = np.clip(rng.normal(300, 50, 5_000), 0, None)
        assert est.estimate(values, rng).value == pytest.approx(values.mean(), rel=0.1)

    def test_caching_reduces_error(self, encoder10):
        rng = np.random.default_rng(25)

        def rmse(caching):
            est = AdaptiveBitPushing(encoder10, caching=caching)
            errs = []
            for _ in range(80):
                values = np.clip(rng.normal(300, 60, 3_000), 0, None)
                errs.append(est.estimate(values, rng).value - values.mean())
            return float(np.sqrt(np.mean(np.square(errs))))

        # Pooling strictly adds evidence; allow slack for Monte-Carlo noise.
        assert rmse(True) < 1.15 * rmse(False)


class TestAdaptiveLdp:
    def test_squash_multiple_filters_noise_bits(self):
        rng = np.random.default_rng(26)
        encoder = FixedPointEncoder.for_integers(16)
        est = AdaptiveBitPushing(
            encoder,
            perturbation=RandomizedResponse(epsilon=2.0),
            squash_multiple=2.0,
        )
        values = np.clip(rng.normal(40, 10, 20_000), 0, None)   # needs ~6 bits
        result = est.estimate(values, rng)
        assert result.value == pytest.approx(values.mean(), rel=0.25)
        assert len(result.squashed_bits) > 0

    def test_squashing_under_dp_beats_no_squashing(self):
        """Figure 4 behaviour: with loose bit depth and DP noise, squashing
        improves accuracy by a large factor."""
        rng = np.random.default_rng(27)
        encoder = FixedPointEncoder.for_integers(16)
        rr = RandomizedResponse(epsilon=2.0)

        def rmse(squash_multiple):
            est = AdaptiveBitPushing(encoder, perturbation=rr, squash_multiple=squash_multiple)
            errs = []
            for _ in range(30):
                values = np.clip(rng.normal(40, 10, 10_000), 0, None)
                errs.append(est.estimate(values, rng).value - values.mean())
            return float(np.sqrt(np.mean(np.square(errs))))

        assert rmse(2.0) < 0.5 * rmse(0.0)

    def test_gamma_defaults_to_uniform_under_dp(self, encoder8):
        """RR noise is level-independent, so the DP exploratory round
        samples uniformly by default; without DP it keeps gamma = 0.5."""
        plain = AdaptiveBitPushing(encoder8)
        private = AdaptiveBitPushing(encoder8, perturbation=RandomizedResponse(epsilon=2.0))
        assert plain.gamma == 0.5
        assert private.gamma == 0.0

    def test_gamma_override_respected_under_dp(self, encoder8):
        est = AdaptiveBitPushing(
            encoder8, gamma=0.3, perturbation=RandomizedResponse(epsilon=2.0)
        )
        assert est.gamma == 0.3

    def test_metadata_records_parameters(self, encoder8, rng):
        est = AdaptiveBitPushing(
            encoder8, gamma=0.7, alpha=1.0, delta=0.4, caching=False,
            perturbation=RandomizedResponse(epsilon=3.0), squash_multiple=1.0,
        )
        result = est.estimate(np.full(1_000, 10.0), rng)
        meta = result.metadata
        assert meta["gamma"] == 0.7
        assert meta["alpha"] == 1.0
        assert meta["delta"] == 0.4
        assert meta["caching"] is False
        assert meta["ldp"] is True
