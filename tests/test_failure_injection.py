"""Failure injection: corrupted inputs, degenerate sizes, byzantine payloads.

Production aggregation pipelines fail at the edges: a malformed report, a
shard with one client, a cohort that all dropped, a 1-bit encoder.  These
tests pin down the behaviour in each corner -- either a clean, typed error
or a correct degenerate result, never silent corruption.
"""

import numpy as np
import pytest

from repro.core import (
    AdaptiveBitPushing,
    BasicBitPushing,
    BitSamplingSchedule,
    FederatedHistogram,
    FixedPointEncoder,
)
from repro.exceptions import (
    ConfigurationError,
    ProtocolError,
    SecureAggregationError,
)
from repro.federated import (
    BitReport,
    ClientDevice,
    FaultSchedule,
    FederatedMeanQuery,
    NetworkModel,
    RetryPolicy,
    SecureAggregationSession,
    StreamingAggregator,
    attribute_equals,
)
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer, instrumented
from repro.federated.secure_agg import PrimeField, Share, reconstruct_secret
from repro.privacy import BitMeter, PrivacyAccountant, RandomizedResponse


class TestDegenerateSizes:
    def test_one_bit_encoder_works(self, rng):
        encoder = FixedPointEncoder.for_integers(1)
        values = np.array([0.0, 1.0] * 1_000)
        est = BasicBitPushing(encoder).estimate(values, rng)
        assert est.value == pytest.approx(0.5, abs=0.05)

    def test_adaptive_with_two_clients(self, encoder8, rng):
        # Smallest legal cohort: one client per round.
        result = AdaptiveBitPushing(encoder8).estimate(np.array([10.0, 10.0]), rng)
        assert result.rounds[0].n_clients == 1
        assert result.rounds[1].n_clients == 1

    def test_single_bucket_histogram(self, rng):
        hist = FederatedHistogram.uniform(0.0, 10.0, 1)
        est = hist.estimate(rng.uniform(0, 10, 100), rng)
        assert est.frequencies[0] == pytest.approx(1.0)

    def test_single_bit_schedule(self, rng):
        sched = BitSamplingSchedule.uniform(1)
        assert sched.probabilities.tolist() == [1.0]

    def test_one_client_one_bit(self, rng):
        encoder = FixedPointEncoder.for_integers(4)
        est = BasicBitPushing(encoder).estimate(np.array([8.0]), rng)
        # One client reports one bit; the estimate is whatever that bit
        # implies -- crude but well-defined and within the encodable range.
        assert 0.0 <= est.value <= encoder.representable_max


class TestByzantinePayloads:
    def test_streaming_rejects_alien_bits(self, encoder8):
        agg = StreamingAggregator(encoder8)
        with pytest.raises(ProtocolError):
            agg.submit(BitReport(0, 0, 7))

    def test_streaming_rejects_out_of_band_index(self, encoder8):
        agg = StreamingAggregator(encoder8)
        with pytest.raises(ProtocolError):
            agg.submit(BitReport(0, 63, 1))

    def test_rejected_report_leaves_counters_clean(self, encoder8):
        agg = StreamingAggregator(encoder8)
        agg.submit(BitReport(0, 0, 1))
        with pytest.raises(ProtocolError):
            agg.submit(BitReport(1, 0, 9))
        assert agg.reports_received == 1
        # The byzantine client did not burn its id: a valid retry works.
        agg.submit(BitReport(1, 0, 1))
        assert agg.reports_received == 2

    def test_perturbation_shape_change_detected(self, encoder8, rng):
        class ShapeShifter:
            def perturb_bits(self, bits, rng):
                return np.zeros(bits.size + 1)

            def unbias_bit_means(self, means):
                return means

        est = BasicBitPushing(encoder8, perturbation=ShapeShifter())
        with pytest.raises(ProtocolError):
            est.estimate(np.full(100, 5.0), rng)


class TestSecureAggregationFailures:
    def test_corrupted_share_detected_by_duplicate_point(self):
        field = PrimeField()
        with pytest.raises(SecureAggregationError):
            reconstruct_secret([Share(1, 5), Share(1, 9)], field)

    def test_exactly_threshold_survivors_succeeds(self):
        session = SecureAggregationSession(6, 2, threshold=4, rng=0)
        for cid in range(4):
            session.submit(cid, [1, 2])
        assert session.finalize() == [4, 8]

    def test_one_below_threshold_fails(self):
        session = SecureAggregationSession(6, 2, threshold=4, rng=1)
        for cid in range(3):
            session.submit(cid, [1, 2])
        with pytest.raises(SecureAggregationError):
            session.finalize()

    def test_negative_contributions_survive_centering(self):
        # Debiased counters can be negative; the field's centered decode
        # must bring them back as signed integers.
        session = SecureAggregationSession(3, 1, threshold=2, rng=2)
        session.submit(0, [-5])
        session.submit(1, [2])
        session.submit(2, [-4])
        assert session.finalize() == [-7]


class TestFederatedQueryFailureModes:
    def _population(self, n=300):
        rng = np.random.default_rng(0)
        return [
            ClientDevice(i, [v])
            for i, v in enumerate(np.clip(rng.normal(100, 20, n), 0, None))
        ]

    def test_total_network_blackout_raises(self, encoder8):
        query = FederatedMeanQuery(
            encoder8, network=NetworkModel(loss_rate=0.95, deadline_s=0.001)
        )
        with pytest.raises(ConfigurationError):
            query.run(self._population(), rng=0)

    def test_lone_client_shard_still_counted(self, encoder8):
        # 17 clients, shard size 16 -> the last shard has a single client,
        # which cannot be pairwise-masked; its counter joins the total in
        # the clear (documented behaviour) and nothing is lost.
        population = self._population(17)
        query = FederatedMeanQuery(
            encoder8, mode="basic", secure_aggregation=True, shard_size=16
        )
        est = query.run(population, rng=1)
        assert est.counts.sum() == 17

    def test_meter_violation_aborts_before_partial_state_is_trusted(self, encoder8):
        from repro.exceptions import PrivacyBudgetExceeded
        from repro.privacy import BitMeter

        population = self._population(100)
        meter = BitMeter(max_bits_per_value=1)
        query = FederatedMeanQuery(encoder8, mode="basic", meter=meter, metric_name="m")
        query.run(population, rng=2)
        with pytest.raises(PrivacyBudgetExceeded):
            query.run(population, rng=3)

    def test_only_a_missed_quorum_is_retried(self, encoder8):
        # An over-disclosure inside an attempt fails its federated.round
        # span and propagates as raised, with retries left unspent.
        from repro.exceptions import PrivacyBudgetExceeded

        population = self._population(100)
        query = FederatedMeanQuery(
            encoder8, mode="basic", meter=BitMeter(max_bits_per_value=1), metric_name="m",
            retry=RetryPolicy(max_attempts=3),
        )
        query.run(population, rng=2)
        memory, registry = InMemoryExporter(), MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            with pytest.raises(PrivacyBudgetExceeded):
                query.run(population, rng=3)
        rounds = [r for r in memory.records if r.name == "federated.round"]
        assert [r.status for r in rounds] == ["error"]
        assert "round.retry" not in {r.name for r in memory.records}
        counters = registry.snapshot()["counters"]
        assert counters["round_attempts_total"] == 1.0
        assert "round_retries_total" not in counters

    def test_extreme_dropout_jitter_clamped(self, encoder8):
        from repro.federated import DropoutModel

        # Jitter can push the effective rate above 1; the model clamps at
        # 0.95 so some clients always survive in expectation.
        model = DropoutModel(rate=0.9, jitter=0.5)
        survivors = model.draw_survivors(50_000, np.random.default_rng(0))
        assert survivors.sum() > 0

    def test_total_failure_counted_once_per_attempt(self, encoder8):
        # Regression: a fully-failed round must update the dropout tracker
        # and rounds_failed_total once per *attempt*, not once per query.
        query = FederatedMeanQuery(
            encoder8, mode="basic",
            faults=FaultSchedule.from_spec("1-3:blackout"),
            retry=RetryPolicy(max_attempts=3),
        )
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            with pytest.raises(ConfigurationError):
                query.run(self._population(100), rng=0)
        counters = registry.snapshot()["counters"]
        assert counters["rounds_failed_total"] == 3.0
        assert counters["round_attempts_total"] == 3.0
        assert counters["round_retries_total"] == 2.0
        assert query.dropout_tracker.rounds_observed == 3
        # Every attempt observed total loss, so the EWMA converges upward.
        assert query.dropout_tracker.rate > 0.6

    def test_retry_recovers_from_blackout(self, encoder8):
        query = FederatedMeanQuery(
            encoder8, mode="basic",
            faults=FaultSchedule.from_spec("1:blackout"),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=30.0),
        )
        est = query.run(self._population(200), rng=1)
        assert est.metadata["round_attempts"] == [2]
        assert est.metadata["attempt_history"] == [[[200, 0], [200, 200]]]

    def test_quorum_failure_retries_with_fresh_cohort(self, encoder8):
        # Quorum 150 of a 200-cohort under 60% scripted dropout fails; the
        # clean second attempt (fresh re-draw) completes at full strength.
        query = FederatedMeanQuery(
            encoder8, mode="basic", min_quorum=150,
            faults=FaultSchedule.from_spec("1:dropout=0.6"),
            retry=RetryPolicy(max_attempts=2),
        )
        est = query.run(self._population(200), rng=2)
        (history,) = est.metadata["attempt_history"]
        assert history[0][1] < 150 <= history[1][1]

    def test_redrawn_cohort_stays_out_of_the_other_round(self):
        # Round 1's first attempt blacks out and redraws its cohort; the
        # redraw must leave out round 2's clients, or a client discloses in
        # both rounds and the 1-bit meter aborts round 2 after round 1
        # spent its epsilon.
        rng = np.random.default_rng(0)
        devices = [
            ClientDevice(i, [float(rng.integers(0, 1000))], {"geo": "us" if i % 2 else "eu"})
            for i in range(1500)
        ]
        meter, accountant = BitMeter(), PrivacyAccountant()
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(10),
            perturbation=RandomizedResponse(1.0),
            faults=FaultSchedule.from_spec("1:blackout"),
            retry=RetryPolicy(max_attempts=3, redraw_cohort=True),
            meter=meter,
            accountant=accountant,
        )
        est = query.run(
            devices, rng=1, eligibility=attribute_equals("geo", "us"), cohort_size=500
        )
        assert est.metadata["round_attempts"] == [2, 1]
        assert accountant.spent_epsilon == 2.0
        # One bit per client that reported in either round's last attempt.
        history = est.metadata["attempt_history"]
        assert meter.total_bits == sum(attempts[-1][1] for attempts in history)

    def test_network_blackout_recovered_when_fault_lifts(self, encoder8):
        # The *base* network is fine; the fault schedule makes attempt 1
        # hopeless, and the retry runs under the base weather again.
        query = FederatedMeanQuery(
            encoder8,
            network=NetworkModel(loss_rate=0.05, deadline_s=600.0),
            faults=FaultSchedule.from_spec("1:loss=0.9,deadline*0.001"),
            min_quorum=50,
            retry=RetryPolicy(max_attempts=2),
            mode="basic",
        )
        est = query.run(self._population(300), rng=3)
        assert est.metadata["round_attempts"] == [2]

    def test_rr_epsilon_extremes(self, encoder8, rng):
        values = np.full(50_000, 100.0)
        # Tiny epsilon: nearly coin-flip reports, estimate still unbiased
        # but very noisy -- must not crash or produce non-finite output.
        noisy = BasicBitPushing(
            encoder8, perturbation=RandomizedResponse(epsilon=0.01)
        ).estimate(values, rng)
        assert np.isfinite(noisy.value)
        # Huge epsilon: effectively no noise.
        clean = BasicBitPushing(
            encoder8, perturbation=RandomizedResponse(epsilon=20.0)
        ).estimate(values, rng)
        assert clean.value == pytest.approx(100.0, abs=1.0)
