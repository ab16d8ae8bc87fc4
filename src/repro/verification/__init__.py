"""Correctness tooling: runtime invariants, statistical oracles, selfcheck.

The estimators in this repository come with closed-form guarantees
(unbiasedness, the Lemma 3.1/3.3 variance bounds, exact secure-aggregation
sums, conservation of the privacy ledger).  This package *verifies* those
guarantees as the codebase evolves, in three layers:

* :mod:`repro.verification.invariants` -- cheap, always-on runtime checks
  that raise :class:`~repro.exceptions.InvariantViolation` on structural
  breakage (a schedule that stopped summing to 1, an apportionment that
  leaks clients, a secure sum that disagrees with its plaintext twin, a
  ledger whose cached totals drift from its entries, a meter over its cap).
* :mod:`repro.verification.statcheck` + :mod:`repro.verification.oracles`
  -- seeded Monte-Carlo *differential oracles* that run each estimator
  against its closed-form expectation and against its own plaintext/serial
  twin, with z- and chi-square assertions under family-wise error control
  so a fixed-seed CI run can never flake.
* ``scripts/lint_rng.py`` -- a static AST pass enforcing the repo's seed
  discipline (no module-level ``np.random`` calls, no stdlib ``random``,
  no unseeded ``default_rng()`` inside ``src/repro``), which the parallel
  executor's bit-identity contract depends on.

``python -m repro.cli selfcheck [--deep]`` (see
:mod:`repro.verification.selfcheck`) runs layers 1 and 2 with spans and
metrics and exits non-zero on any failure.
"""

from repro.verification.invariants import (
    check_apportionment,
    check_bit_meter,
    check_estimate,
    check_ledger_conservation,
    check_schedule_normalized,
    check_secure_sum,
)
from repro.verification.oracles import (
    OracleResult,
    adaptive_unbiasedness_oracle,
    baseline_unbiasedness_oracle,
    basic_unbiasedness_oracle,
    basic_variance_bound_oracle,
    executor_twin_oracle,
    rr_debias_oracle,
    secure_agg_oracle,
    variance_estimator_oracle,
)
from repro.verification.selfcheck import CheckOutcome, SelfCheckReport, run_selfcheck
from repro.verification.statcheck import (
    FamilyWiseGate,
    TestResult,
    chi2_sf,
    chi_square_gof,
    normal_sf,
    variance_upper_tail,
    z_test,
)

__all__ = [
    "CheckOutcome",
    "FamilyWiseGate",
    "OracleResult",
    "SelfCheckReport",
    "TestResult",
    "adaptive_unbiasedness_oracle",
    "baseline_unbiasedness_oracle",
    "basic_unbiasedness_oracle",
    "basic_variance_bound_oracle",
    "check_apportionment",
    "check_bit_meter",
    "check_estimate",
    "check_ledger_conservation",
    "check_schedule_normalized",
    "check_secure_sum",
    "chi2_sf",
    "chi_square_gof",
    "executor_twin_oracle",
    "normal_sf",
    "rr_debias_oracle",
    "run_selfcheck",
    "secure_agg_oracle",
    "variance_estimator_oracle",
    "variance_upper_tail",
    "z_test",
]
