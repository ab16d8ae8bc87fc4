"""Tests for the self-check subsystem (repro.verification).

Three concerns:

* the invariant checkers accept honest structures and *raise* on broken ones
  (tampered ledgers, unbalanced meters, mismatched secure sums);
* the statistical primitives match a scipy reference and the family-wise
  gate behaves as a Bonferroni gate;
* the Monte-Carlo oracles pass on the shipped implementations and -- the
  acceptance criterion for the whole subsystem -- *catch a deliberately
  injected bias* (a randomized-response mechanism with a broken debias
  constant).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import BasicBitPushing, BitSamplingSchedule, FixedPointEncoder
from repro.exceptions import InvariantViolation, PrivacyBudgetExceeded
from repro.privacy import BitMeter, PrivacyAccountant, RandomizedResponse
from repro.verification import (
    FamilyWiseGate,
    check_apportionment,
    check_bit_meter,
    check_estimate,
    check_ledger_conservation,
    check_schedule_normalized,
    check_secure_sum,
    run_selfcheck,
)
from repro.verification.oracles import (
    adaptive_unbiasedness_oracle,
    basic_unbiasedness_oracle,
    basic_variance_bound_oracle,
    rr_debias_oracle,
    secure_agg_oracle,
    variance_estimator_oracle,
)
from repro.verification.statcheck import TestResult as StatResult
from repro.verification.statcheck import (
    chi2_sf,
    chi_square_gof,
    normal_sf,
    variance_upper_tail,
    z_test,
)


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------

class TestScheduleInvariants:
    def test_honest_schedules_pass(self):
        for sched in (
            BitSamplingSchedule.uniform(8),
            BitSamplingSchedule.weighted(16, alpha=1.0),
            BitSamplingSchedule.from_bit_means(np.array([0.1, 0.5, 0.0])),
        ):
            check_schedule_normalized(sched)
            counts = check_apportionment(1000, sched)
            assert counts.sum() == 1000

    def test_denormalized_schedule_raises(self):
        sched = BitSamplingSchedule.uniform(4)
        # The constructor normalizes, so break the invariant from outside
        # (what a buggy in-place mutation elsewhere would amount to).
        object.__setattr__(sched, "probabilities", np.array([0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(InvariantViolation, match="mass"):
            check_schedule_normalized(sched)

    def test_nan_probability_raises(self):
        sched = BitSamplingSchedule.uniform(3)
        object.__setattr__(sched, "probabilities", np.array([np.nan, 0.5, 0.5]))
        with pytest.raises(InvariantViolation, match="finite"):
            check_schedule_normalized(sched)


class TestSecureSumInvariant:
    def test_exact_match_passes(self):
        check_secure_sum(np.array([1, 2, 3]), np.array([1, 2, 3]))

    def test_single_component_mismatch_raises(self):
        with pytest.raises(InvariantViolation, match="index 1"):
            check_secure_sum(np.array([1, 5, 3]), np.array([1, 2, 3]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvariantViolation, match="shape"):
            check_secure_sum(np.array([1, 2]), np.array([1, 2, 3]))


class TestLedgerInvariant:
    def test_honest_ledger_passes(self):
        acct = PrivacyAccountant(epsilon_budget=2.0)
        acct.spend(0.5, note="r1")
        acct.spend(0.25, delta=0.0, note="r2")
        check_ledger_conservation(acct)

    def test_tampered_cache_raises(self):
        acct = PrivacyAccountant()
        acct.spend(0.5)
        acct._spent_epsilon = 0.1  # simulate a drifted running total
        with pytest.raises(InvariantViolation, match="epsilon drift"):
            check_ledger_conservation(acct)

    def test_overspent_budget_raises(self):
        acct = PrivacyAccountant(epsilon_budget=1.0)
        acct.spend(0.9)
        # Force an entry past the budget without going through spend().
        acct._entries.append(type(acct.entries[0])(epsilon=0.5, delta=0.0, note="smuggled"))
        acct._spent_epsilon += 0.5
        with pytest.raises(InvariantViolation, match="overspent"):
            check_ledger_conservation(acct)


class TestMeterInvariant:
    def test_honest_meter_passes(self):
        meter = BitMeter(max_bits_per_value=2, max_bits_per_client=4)
        meter.record("c1", "v1")
        meter.record("c1", "v1")
        meter.record("c1", "v2")
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record("c1", "v1")
        check_bit_meter(meter)

    def test_ghost_entry_raises(self):
        meter = BitMeter(max_bits_per_value=1)
        meter._per_value[("c1", "v1")] = 0  # the old defaultdict bug's footprint
        with pytest.raises(InvariantViolation, match="ghost"):
            check_bit_meter(meter)

    def test_unbalanced_books_raise(self):
        meter = BitMeter(max_bits_per_value=3)
        meter.record("c1", "v1")
        meter._per_client["c1"] = 2  # per-client says 2, per-value sums to 1
        with pytest.raises(InvariantViolation, match="balance"):
            check_bit_meter(meter)

    def test_over_cap_entry_raises(self):
        meter = BitMeter(max_bits_per_value=1)
        meter._per_value[("c1", "v1")] = 5
        meter._per_client["c1"] = 5
        with pytest.raises(InvariantViolation, match="over cap"):
            check_bit_meter(meter)


class TestEstimateInvariant:
    def test_honest_estimate_passes(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 256, size=500).astype(np.float64)
        est = BasicBitPushing(FixedPointEncoder.for_integers(8)).estimate(values, rng=rng)
        check_estimate(est)

    def test_nan_value_raises(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 256, size=500).astype(np.float64)
        est = BasicBitPushing(FixedPointEncoder.for_integers(8)).estimate(values, rng=rng)
        broken = dataclasses.replace(est, value=float("nan"))
        with pytest.raises(InvariantViolation, match="not finite"):
            check_estimate(broken)


# ----------------------------------------------------------------------
# Statistical primitives
# ----------------------------------------------------------------------

class TestTailFunctions:
    def test_normal_sf_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for z in (-4.0, -1.0, 0.0, 0.5, 1.96, 5.0, 8.0):
            assert normal_sf(z) == pytest.approx(stats.norm.sf(z), rel=1e-12)

    def test_chi2_sf_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 5, 59, 299):
            for x in (0.1, 1.0, df * 0.5, float(df), df * 2.0, df * 5.0):
                assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), rel=1e-10)

    def test_chi2_sf_edge_cases(self):
        assert chi2_sf(0.0, 5) == 1.0
        assert chi2_sf(-1.0, 5) == 1.0
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestTestHelpers:
    def test_z_test_centered(self):
        result = z_test(0.5, 0.5, 0.1)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_z_test_gross_shift_has_tiny_p(self):
        assert z_test(1.0, 0.0, 0.01).p_value < 1e-300

    def test_zero_std_degenerates_to_equality(self):
        assert z_test(0.3, 0.3, 0.0).p_value == pytest.approx(1.0)
        assert z_test(0.3, 0.4, 0.0).p_value == 0.0

    def test_variance_upper_tail_one_sided(self):
        # Beating the bound is fine; exceeding it grossly is not.
        assert variance_upper_tail(0.5, 1.0, 100).p_value > 0.99
        assert variance_upper_tail(3.0, 1.0, 100).p_value < 1e-9

    def test_chi_square_gof_rejects_mass_in_empty_bin(self):
        result = chi_square_gof(np.array([5.0, 1.0]), np.array([5.0, 0.0]))
        assert result.p_value == 0.0


class TestFamilyWiseGate:
    def test_threshold_tightens_with_family_size(self):
        gate = FamilyWiseGate(alpha_family=0.01)
        gate.add(StatResult("a", 0.0, p_value=0.005))
        assert gate.per_test_alpha == pytest.approx(0.01)
        assert not gate.passed  # alone, 0.005 < 0.01
        gate.add(StatResult("b", 0.0, p_value=0.9))
        # Now each test is judged at 0.005; p == threshold survives.
        assert gate.per_test_alpha == pytest.approx(0.005)
        assert gate.passed

    def test_failures_named(self):
        gate = FamilyWiseGate(alpha_family=1e-6)
        gate.add(StatResult("fine", 1.0, p_value=0.4))
        gate.add(StatResult("broken", 40.0, p_value=1e-300))
        assert [r.name for r in gate.failures()] == ["broken"]

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            FamilyWiseGate(alpha_family=0.0)


# ----------------------------------------------------------------------
# Oracles: honest implementations pass
# ----------------------------------------------------------------------

class TestOraclesPassOnHonestCode:
    def test_basic_unbiasedness(self):
        result = basic_unbiasedness_oracle(seed=11, n_reps=120, n_clients=1024)
        assert result.passed, result.detail

    def test_basic_variance_bound(self):
        result = basic_variance_bound_oracle(seed=11, n_reps=120, n_clients=1024)
        assert result.passed, result.detail

    def test_rr_debias(self):
        result = rr_debias_oracle(seed=11)
        assert result.passed, result.detail

    def test_adaptive_unbiasedness(self):
        result = adaptive_unbiasedness_oracle(seed=11, n_reps=80, n_clients=1024)
        assert result.passed, result.detail

    def test_variance_estimator(self):
        result = variance_estimator_oracle(seed=11, n_reps=30, n_clients=8000)
        assert result.passed, result.detail

    def test_secure_agg(self):
        result = secure_agg_oracle(seed=11)
        assert result.passed, result.detail


# ----------------------------------------------------------------------
# Oracles: a deliberately injected bias is caught
# ----------------------------------------------------------------------

class BrokenDebiasRR(RandomizedResponse):
    """eps-RR whose debias map uses a wrong constant (the injected bug)."""

    def unbias_bit_means(self, means):
        means = np.asarray(means, dtype=np.float64)
        # Correct map: (r - (1 - p)) / (2p - 1).  This one "forgets" the
        # additive correction -- a classic transcription slip.
        return means / (2.0 * self.p - 1.0)


class TestInjectedBiasIsCaught:
    def test_broken_debias_constant_fails_oracle(self):
        result = rr_debias_oracle(seed=11, perturbation=BrokenDebiasRR(epsilon=1.0))
        assert not result.passed
        # O(1) bias against an O(1/sqrt(N)) stderr: decisive at any alpha.
        assert result.p_value < 1e-12

    def test_broken_debias_caught_inside_full_estimator(self):
        result = basic_unbiasedness_oracle(
            seed=11,
            n_reps=120,
            n_clients=1024,
            perturbation=BrokenDebiasRR(epsilon=1.0),
        )
        assert not result.passed

    def test_squashing_bias_visible_to_oracle(self):
        # Bit squashing is *known* to be a biased post-process on this
        # population scale; the oracle must see that, not smooth over it.
        biased = basic_unbiasedness_oracle(
            seed=11, n_reps=120, n_clients=256, squash_threshold=0.45
        )
        honest = basic_unbiasedness_oracle(seed=11, n_reps=120, n_clients=256)
        assert honest.passed
        assert biased.p_value < honest.p_value


# ----------------------------------------------------------------------
# The assembled selfcheck
# ----------------------------------------------------------------------

class TestRunSelfcheck:
    def test_quick_selfcheck_passes(self):
        report = run_selfcheck(deep=False, seed=123)
        assert report.passed, [c.name for c in report.failures]
        assert len(report.outcomes) >= 20

    def test_report_round_trips_and_renders(self):
        report = run_selfcheck(deep=False, seed=123)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert len(payload["checks"]) == len(report.outcomes)
        text = report.render()
        assert f"{len(report.outcomes)} checks, 0 failed" in text
