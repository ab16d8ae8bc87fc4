"""The ``repro.cli selfcheck`` runner: invariants + oracles, instrumented.

Orchestrates the verification layers into one pass/fail report:

1. **Invariant sweep** -- the always-on checks of
   :mod:`repro.verification.invariants` exercised over a deterministic
   spread of synthetic configurations (schedule families x sizes,
   apportionment corner cases, a spend/reject accountant lifecycle, a
   metered federated meter).
2. **Oracle suite** -- the Monte-Carlo differential oracles of
   :mod:`repro.verification.oracles`.  Statistical oracles are gated
   family-wise (Bonferroni, see :class:`~repro.verification.statcheck.
   FamilyWiseGate`); exact-twin oracles must match bit-for-bit.

``deep=True`` widens the sweep: more repetitions, the LDP and local-
randomness variants, every baseline, ``b_send > 1``, and the caching-off
adaptive path.  The default (quick) suite is sized for a CI leg.

Every check runs inside a ``selfcheck.check`` span and feeds the
``selfcheck_checks_total`` / ``selfcheck_failures_total`` counters and the
``selfcheck_duration_s`` histogram (catalogued in
``docs/observability.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.baselines import (
    DuchiMechanism,
    HybridMechanism,
    LaplaceMean,
    PiecewiseMechanism,
    RandomizedRounding,
    SubtractiveDithering,
)
from repro.core.sampling import BitSamplingSchedule
from repro.exceptions import PrivacyBudgetExceeded, ReproError
from repro.metrics.execution import TrialExecutor, get_executor
from repro.observability import get_metrics, get_tracer
from repro.privacy.accountant import BitMeter, PrivacyAccountant
from repro.privacy.randomized_response import RandomizedResponse
from repro.rng import ensure_rng
from repro.verification import oracles as _oracles
from repro.verification import invariants as _inv
from repro.verification.statcheck import FamilyWiseGate, TestResult

__all__ = ["CheckOutcome", "SelfCheckReport", "run_selfcheck"]

#: Family-wise false-alarm budget for the statistical oracles: the chance
#: that a fully correct implementation fails any statistical check under a
#: *fresh* seed.  (Under the default fixed seed the suite is deterministic.)
FAMILY_ALPHA = 1e-6


@dataclass(frozen=True)
class CheckOutcome:
    """One line of the selfcheck report."""

    name: str
    layer: str  # "invariant" | "oracle"
    passed: bool
    duration_s: float
    detail: str = ""
    p_value: float | None = None
    statistic: float | None = None


@dataclass
class SelfCheckReport:
    """All outcomes of one selfcheck run."""

    outcomes: list[CheckOutcome] = field(default_factory=list)
    deep: bool = False
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def failures(self) -> list[CheckOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "deep": self.deep,
            "seed": self.seed,
            "checks": [
                {
                    "name": o.name,
                    "layer": o.layer,
                    "passed": o.passed,
                    "duration_s": round(o.duration_s, 6),
                    "p_value": o.p_value,
                    "statistic": o.statistic,
                    "detail": o.detail,
                }
                for o in self.outcomes
            ],
        }

    def render(self) -> str:
        lines = [
            "| check | layer | status | p-value | detail |",
            "|---|---|---|---|---|",
        ]
        for o in self.outcomes:
            status = "ok" if o.passed else "FAIL"
            p = f"{o.p_value:.2e}" if o.p_value is not None else "-"
            lines.append(f"| {o.name} | {o.layer} | {status} | {p} | {o.detail} |")
        n_failed = len(self.failures)
        lines.append("")
        lines.append(
            f"{len(self.outcomes)} checks, {n_failed} failed"
            + ("" if n_failed else " -- all invariants and oracles hold")
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Invariant sweep
# ----------------------------------------------------------------------

def _invariant_checks(seed: int, deep: bool) -> list[tuple[str, Callable[[], None]]]:
    """Deterministic synthetic configurations for every invariant."""
    gen = ensure_rng(seed)
    sizes = [1, 2, 7, 16, 40] + ([60] if deep else [])
    schedules: list[tuple[str, BitSamplingSchedule]] = []
    for n_bits in sizes:
        schedules.append((f"uniform[{n_bits}]", BitSamplingSchedule.uniform(n_bits)))
        schedules.append((f"weighted[{n_bits},a=1]", BitSamplingSchedule.weighted(n_bits, 1.0)))
        schedules.append(
            (f"weighted[{n_bits},a=0.5]", BitSamplingSchedule.weighted(n_bits, 0.5))
        )
        means = np.clip(gen.normal(0.4, 0.3, size=n_bits), -0.5, 1.5)
        schedules.append((f"from-means[{n_bits}]", BitSamplingSchedule.from_bit_means(means)))
    cohorts = [0, 1, 3, 101, 4096] + ([65_537] if deep else [])

    def schedule_and_apportionment(schedule: BitSamplingSchedule) -> None:
        _inv.check_schedule_normalized(schedule)
        for n in cohorts:
            _inv.check_apportionment(n, schedule)

    checks: list[tuple[str, Callable[[], None]]] = [
        (f"schedule+apportionment/{label}", lambda s=schedule: schedule_and_apportionment(s))
        for label, schedule in schedules
    ]

    def ledger_lifecycle() -> None:
        acct = PrivacyAccountant(epsilon_budget=2.0, delta_budget=1e-4)
        for i in range(20):
            acct.spend(0.05, delta=1e-6, note=f"round {i}")
            _inv.check_ledger_conservation(acct)
        try:
            acct.spend(5.0)
        except PrivacyBudgetExceeded:
            pass
        _inv.check_ledger_conservation(acct)

    def meter_lifecycle() -> None:
        meter = BitMeter(max_bits_per_value=2, max_bits_per_client=5)
        for cid in range(8):
            meter.record(f"client-{cid}", "metric-a")
            meter.record(f"client-{cid}", "metric-b", n_bits=2)
        try:
            meter.record("client-0", "metric-b")  # over per-value cap
        except PrivacyBudgetExceeded:
            pass
        try:
            meter.record("client-1", "metric-c", n_bits=3)  # over client cap
        except PrivacyBudgetExceeded:
            pass
        _inv.check_bit_meter(meter)

    checks.append(("ledger-conservation/lifecycle", ledger_lifecycle))
    checks.append(("bit-meter/lifecycle", meter_lifecycle))
    return checks


# ----------------------------------------------------------------------
# Oracle suite
# ----------------------------------------------------------------------

def _oracle_runs(
    seed: int, deep: bool, executor: TrialExecutor | None
) -> list[tuple[str, Callable[[], _oracles.OracleResult]]]:
    reps = 400 if deep else 200
    rr = RandomizedResponse(epsilon=2.0)
    runs: list[tuple[str, Callable[[], _oracles.OracleResult]]] = [
        (
            "basic-unbiased/central",
            lambda: _oracles.basic_unbiasedness_oracle(seed=seed, n_reps=reps),
        ),
        (
            "basic-variance-bound",
            lambda: _oracles.basic_variance_bound_oracle(seed=seed + 1, n_reps=reps),
        ),
        ("rr-debias", lambda: _oracles.rr_debias_oracle(seed=seed + 2)),
        (
            "adaptive-unbiased/caching",
            lambda: _oracles.adaptive_unbiasedness_oracle(seed=seed + 3, n_reps=reps),
        ),
        (
            "twin/executor",
            lambda: _oracles.executor_twin_oracle(seed=seed + 6, executor=executor),
        ),
        ("secure-agg/exact-sum", lambda: _oracles.secure_agg_oracle(seed=seed + 7)),
        (
            "twin/columnar-vs-object",
            lambda: _oracles.columnar_twin_oracle(seed=seed + 18),
        ),
        (
            "variance-estimator/centered",
            lambda: _oracles.variance_estimator_oracle(seed=seed + 8, n_reps=24),
        ),
        (
            "baseline-unbiased/laplace",
            lambda: _oracles.baseline_unbiasedness_oracle(
                LaplaceMean(0.0, 255.0, epsilon=1.0), seed=seed + 9, n_reps=reps
            ),
        ),
    ]
    if deep:
        runs += [
            (
                "basic-unbiased/local",
                lambda: _oracles.basic_unbiasedness_oracle(
                    seed=seed + 10, n_reps=reps, randomness="local"
                ),
            ),
            (
                "basic-unbiased/ldp",
                lambda: _oracles.basic_unbiasedness_oracle(
                    seed=seed + 11, n_reps=reps, perturbation=rr
                ),
            ),
            (
                "basic-unbiased/b_send=2",
                lambda: _oracles.basic_unbiasedness_oracle(
                    seed=seed + 12, n_reps=reps, b_send=2, alpha_schedule=0.5
                ),
            ),
            (
                "basic-unbiased/alpha=0.5",
                lambda: _oracles.basic_unbiasedness_oracle(
                    seed=seed + 13, n_reps=reps, alpha_schedule=0.5
                ),
            ),
            (
                "adaptive-unbiased/no-caching",
                lambda: _oracles.adaptive_unbiasedness_oracle(
                    seed=seed + 14, n_reps=reps, caching=False
                ),
            ),
            (
                "adaptive-unbiased/ldp",
                lambda: _oracles.adaptive_unbiasedness_oracle(
                    seed=seed + 15, n_reps=reps, perturbation=rr
                ),
            ),
            (
                "variance-estimator/moments",
                lambda: _oracles.variance_estimator_oracle(
                    seed=seed + 16, n_reps=24, method="moments"
                ),
            ),
            (
                "secure-agg/exact-sum/large",
                lambda: _oracles.secure_agg_oracle(
                    seed=seed + 17, n_clients=48, vector_length=32, n_dropouts=8
                ),
            ),
            (
                "twin/columnar-vs-object/basic",
                lambda: _oracles.columnar_twin_oracle(seed=seed + 30, mode="basic"),
            ),
            (
                "twin/columnar-vs-object/ldp",
                lambda: _oracles.columnar_twin_oracle(seed=seed + 31, perturbation=rr),
            ),
        ]
        for offset, baseline in enumerate(
            [
                DuchiMechanism(0.0, 255.0, epsilon=1.0),
                PiecewiseMechanism(0.0, 255.0, epsilon=1.0),
                HybridMechanism(0.0, 255.0, epsilon=1.0),
                RandomizedRounding(0.0, 255.0),
                SubtractiveDithering(0.0, 255.0),
            ]
        ):
            runs.append(
                (
                    f"baseline-unbiased/{type(baseline).__name__}",
                    lambda b=baseline, o=offset: _oracles.baseline_unbiasedness_oracle(
                        b, seed=seed + 20 + o, n_reps=reps
                    ),
                )
            )
    return runs


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def run_selfcheck(
    deep: bool = False,
    seed: int = 0,
    executor: TrialExecutor | None = None,
) -> SelfCheckReport:
    """Run the full verification suite and return the report.

    ``executor`` feeds the executor-twin oracle (default: the process-wide
    executor from ``REPRO_WORKERS`` -- running selfcheck under different
    worker counts is exactly how CI exercises the bit-identity contract).
    """
    tracer = get_tracer()
    metrics = get_metrics()
    report = SelfCheckReport(deep=deep, seed=seed)
    exec_for_twin = executor if executor is not None else get_executor()

    with tracer.span("selfcheck", {"deep": deep, "seed": seed}):
        with tracer.span("selfcheck.invariants"):
            for name, check in _invariant_checks(seed, deep):
                report.outcomes.append(_run_one(name, "invariant", check, tracer, metrics))

        gate = FamilyWiseGate(alpha_family=FAMILY_ALPHA)
        oracle_outcomes: list[tuple[int, _oracles.OracleResult]] = []
        with tracer.span("selfcheck.oracles"):
            for name, run in _oracle_runs(seed, deep, exec_for_twin):
                start = time.perf_counter()
                with tracer.span("selfcheck.check", {"check": name, "layer": "oracle"}):
                    try:
                        result = run()
                    except ReproError as exc:
                        result = _oracles.OracleResult(
                            name=name, passed=False, detail=f"raised {exc!r}"
                        )
                elapsed = time.perf_counter() - start
                index = len(report.outcomes)
                report.outcomes.append(
                    CheckOutcome(
                        name=name,
                        layer="oracle",
                        passed=result.passed,
                        duration_s=elapsed,
                        detail=result.detail,
                        p_value=result.p_value,
                        statistic=result.statistic,
                    )
                )
                if result.p_value is not None:
                    gate.add(
                        TestResult(
                            name=name,
                            statistic=result.statistic or 0.0,
                            p_value=result.p_value,
                            detail=result.detail,
                        )
                    )
                    oracle_outcomes.append((index, result))

        # Family-wise verdict: a statistical oracle fails only if its
        # p-value breaches the Bonferroni-adjusted threshold (exact-twin
        # and tolerance oracles keep their own verdicts).
        failing = {t.name for t in gate.failures()}
        for index, result in oracle_outcomes:
            outcome = report.outcomes[index]
            passed = outcome.name not in failing
            report.outcomes[index] = CheckOutcome(
                name=outcome.name,
                layer=outcome.layer,
                passed=passed,
                duration_s=outcome.duration_s,
                detail=outcome.detail
                + f" [alpha={gate.per_test_alpha:.1e} family={gate.alpha_family:.0e}]",
                p_value=outcome.p_value,
                statistic=outcome.statistic,
            )

    if metrics.enabled:
        metrics.counter("selfcheck_checks_total").inc(len(report.outcomes))
        metrics.counter("selfcheck_failures_total").inc(len(report.failures))
    return report


def _run_one(name: str, layer: str, check: Callable[[], None], tracer, metrics) -> CheckOutcome:
    start = time.perf_counter()
    with tracer.span("selfcheck.check", {"check": name, "layer": layer}):
        try:
            check()
            passed, detail = True, ""
        except ReproError as exc:
            passed, detail = False, str(exc)
    elapsed = time.perf_counter() - start
    if metrics.enabled:
        metrics.histogram("selfcheck_duration_s").observe(elapsed)
    return CheckOutcome(name=name, layer=layer, passed=passed, duration_s=elapsed, detail=detail)
