"""Round-failure recovery: retry policy, quorum degradation, fault schedules.

The deployment setting is lossy by design; these tests pin the robustness
subsystem that keeps multi-round campaigns alive through it -- scripted
fault injection (deterministic storms), bounded retries with simulated-time
backoff, and quorum-based graceful degradation -- including the acceptance
scenario: a campaign that survives one killed round and two degraded ones,
bit-identically across runs.
"""

import numpy as np
import pytest

from repro.core import FixedPointEncoder
from repro.exceptions import CohortTooSmallError, ConfigurationError, RoundFailedError
from repro.federated import (
    MAX_EFFECTIVE_RATE,
    ClientDevice,
    DropoutModel,
    FaultEvent,
    FaultSchedule,
    FederatedMeanQuery,
    MonitoringCampaign,
    NetworkModel,
    RetryPolicy,
    StreamingAggregator,
    TotalBlackout,
)
from repro.observability import (
    HealthMonitor,
    InMemoryExporter,
    MetricsRegistry,
    Tracer,
    instrumented,
)
from repro.observability.health import QuorumDegradationRule


def make_population(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ClientDevice(i, [v])
        for i, v in enumerate(np.clip(rng.normal(100, 20, n), 0, None))
    ]


class TestFaultEvent:
    def test_single_round_coverage(self):
        event = FaultEvent(first_round=3, blackout=True)
        assert not event.covers(2)
        assert event.covers(3)
        assert not event.covers(4)

    def test_range_coverage(self):
        event = FaultEvent(first_round=2, last_round=4, loss_rate=0.5)
        assert [event.covers(k) for k in range(1, 6)] == [False, True, True, True, False]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(first_round=0, blackout=True)
        with pytest.raises(ConfigurationError):
            FaultEvent(first_round=3, last_round=2, blackout=True)
        with pytest.raises(ConfigurationError):
            FaultEvent(first_round=1, loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(first_round=1, dropout_rate=0.99)  # above the clip ceiling
        with pytest.raises(ConfigurationError):
            FaultEvent(first_round=1, deadline_factor=0.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(first_round=1)  # no effect


class TestFaultSchedule:
    def test_spec_round_trip(self):
        schedule = FaultSchedule.from_spec("2:blackout;4-5:loss=0.6;6:deadline*0.5,dropout=0.4")
        assert len(schedule) == 3
        assert schedule.at(2).blackout
        assert schedule.at(4).loss_rate == 0.6
        assert schedule.at(5).loss_rate == 0.6
        active6 = schedule.at(6)
        assert active6.deadline_factor == 0.5 and active6.dropout_rate == 0.4
        assert not schedule.at(1).any

    def test_spec_errors(self):
        for bad in ("", "3", "3:", "x:blackout", "3:explode", "3:loss=high"):
            with pytest.raises(ConfigurationError):
                FaultSchedule.from_spec(bad)

    def test_json_round_trip(self):
        schedule = FaultSchedule.from_json(
            '[{"first_round": 1, "blackout": true}, {"first_round": 2, "loss_rate": 0.3}]'
        )
        assert schedule.at(1).blackout and schedule.at(2).loss_rate == 0.3
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_json('[{"first_round": 1, "explode": true}]')

    def test_load_dispatches_on_shape(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text('[{"first_round": 2, "loss_rate": 0.5}]')
        assert FaultSchedule.load(str(path)).at(2).loss_rate == 0.5
        assert FaultSchedule.load('[{"first_round": 2, "loss_rate": 0.5}]').at(2).loss_rate == 0.5
        assert FaultSchedule.load("2:loss=0.5").at(2).loss_rate == 0.5
        with pytest.raises(ConfigurationError):
            FaultSchedule.load(str(tmp_path / "missing.json"))

    def test_later_events_win_on_overlap(self):
        schedule = FaultSchedule.from_spec("1-5:loss=0.2;3:loss=0.8")
        assert schedule.at(2).loss_rate == 0.2
        assert schedule.at(3).loss_rate == 0.8

    def test_clock_advances_per_attempt_and_resets(self):
        schedule = FaultSchedule.from_spec("2:blackout")
        assert not schedule.begin_attempt().blackout
        assert schedule.begin_attempt().blackout
        assert schedule.attempts_started == 2
        schedule.reset()
        assert schedule.attempts_started == 0
        assert not schedule.begin_attempt().blackout

    def test_apply_wrappers_pass_through_when_inactive(self):
        schedule = FaultSchedule.from_spec("7:blackout")
        base_dropout = DropoutModel(rate=0.1)
        base_network = NetworkModel(loss_rate=0.1, deadline_s=100.0)
        active = schedule.at(1)
        assert active.apply_dropout(base_dropout) is base_dropout
        assert active.apply_network(base_network) is base_network

    def test_apply_wrappers_override_fields(self):
        active = FaultSchedule.from_spec("1:loss=0.6,deadline*0.5,latency*2,dropout=0.4").at(1)
        dropout = active.apply_dropout(DropoutModel(rate=0.05, jitter=0.1))
        assert dropout.rate == 0.4 and dropout.jitter == 0.0
        network = active.apply_network(NetworkModel(loss_rate=0.05, deadline_s=600.0))
        assert network.loss_rate == 0.6
        assert network.deadline_s == 300.0
        assert network.latency_median_s == 180.0

    def test_network_faults_without_base_network(self):
        # Faults can introduce weather into a run configured without one.
        network = FaultSchedule.from_spec("1:loss=0.3").at(1).apply_network(None)
        assert network is not None and network.loss_rate == 0.3

    def test_blackout_kills_everyone(self):
        survivors = TotalBlackout().draw_survivors(1_000, np.random.default_rng(0))
        assert not survivors.any()


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=30.0, backoff_factor=2.0)
        assert [policy.backoff_s(k) for k in (1, 2, 3)] == [30.0, 60.0, 120.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(0)


class TestDropoutClipAlignment:
    def test_rate_above_ceiling_rejected_at_construction(self):
        # Regression: rate=0.98 used to pass validation but silently clip
        # to 0.95 in draw_survivors; validation now matches the ceiling.
        with pytest.raises(ConfigurationError):
            DropoutModel(rate=0.98)
        DropoutModel(rate=MAX_EFFECTIVE_RATE)  # the boundary is legal

    def test_jitter_clip_surfaces_via_metric(self):
        model = DropoutModel(rate=0.9, jitter=1.0)
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            for seed in range(20):
                model.draw_survivors(100, seed)
        clips = registry.snapshot()["counters"].get("dropout_rate_clips_total", 0)
        assert clips > 0  # jittered draws beyond [0, ceiling] are counted


class TestQuorumAndRetryRounds:
    def _query(self, **kwargs):
        return FederatedMeanQuery(FixedPointEncoder.for_integers(8), mode="basic", **kwargs)

    def test_below_quorum_raises_without_retry(self):
        query = self._query(min_quorum=1_000)
        with pytest.raises(RoundFailedError) as info:
            query.run(make_population(400), rng=0)
        assert info.value.planned == 400
        assert info.value.survived == 400  # nobody dropped; quorum was simply higher

    def test_blackout_recovered_by_retry(self):
        query = self._query(
            faults=FaultSchedule.from_spec("1:blackout"),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=45.0),
        )
        est = query.run(make_population(), rng=1)
        assert est.metadata["round_attempts"] == [2]
        assert est.metadata["backoff_s"] == [45.0]
        assert est.metadata["attempt_history"] == [[[400, 0], [400, 400]]]
        assert est.metadata["total_duration_s"] >= 45.0

    def test_retries_exhausted_still_raises(self):
        query = self._query(
            faults=FaultSchedule.from_spec("1-3:blackout"),
            retry=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(RoundFailedError):
            query.run(make_population(), rng=2)

    def test_legacy_all_dropped_message_preserved(self):
        query = self._query(faults=FaultSchedule.from_spec("1:blackout"))
        with pytest.raises(ConfigurationError, match="every client dropped out"):
            query.run(make_population(), rng=3)

    def test_degraded_round_completes_above_quorum(self):
        query = self._query(
            faults=FaultSchedule.from_spec("1:loss=0.6"),
            network=NetworkModel(loss_rate=0.0, deadline_s=600.0),
            min_quorum=50,
        )
        est = query.run(make_population(), rng=4)
        assert est.metadata["degraded_rounds"] == [True]
        (inflation,) = est.metadata["variance_inflation"]
        assert inflation == pytest.approx(1 / 0.4, rel=0.25)

    def test_below_quorum_retries_then_degrades(self):
        # Attempt 1 is below quorum (95% dropout of 400 -> ~20 survivors);
        # attempt 2 runs at 60% dropout -> ~160 survivors: above quorum,
        # below half the plan -> completes degraded on the second attempt.
        query = self._query(
            faults=FaultSchedule.from_spec("1:dropout=0.95;2:dropout=0.6"),
            min_quorum=50,
            retry=RetryPolicy(max_attempts=2),
        )
        est = query.run(make_population(), rng=5)
        assert est.metadata["round_attempts"] == [2]
        assert est.metadata["degraded_rounds"] == [True]

    def test_adaptive_rounds_retry_independently(self):
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(8),
            mode="adaptive",
            faults=FaultSchedule.from_spec("1:blackout;3:blackout"),
            retry=RetryPolicy(max_attempts=2),
        )
        est = query.run(make_population(), rng=6)
        # Round 1: attempts 1 (killed) + 2; round 2: attempts 3 (killed) + 4.
        assert est.metadata["round_attempts"] == [2, 2]

    def test_no_retry_no_faults_is_bit_identical_to_default(self):
        # The recovery wrapper must be a no-op for unconfigured queries.
        population = make_population()
        plain = self._query().run(population, rng=7)
        wrapped = self._query(min_quorum=1).run(population, rng=7)
        np.testing.assert_array_equal(plain.bit_means, wrapped.bit_means)
        assert plain.value == wrapped.value


class TestStreamingDegradation:
    def test_target_reports_flags_degraded_snapshots(self):
        from repro.federated import BitReport

        agg = StreamingAggregator(
            FixedPointEncoder.for_integers(4), min_reports=10, target_reports=100
        )
        for client in range(40):
            agg.submit(BitReport(client_id=client, bit_index=client % 4, bit=1))
        early = agg.estimate()
        assert early.metadata["degraded"] is True
        assert early.metadata["evidence_ratio"] == pytest.approx(0.4)
        for client in range(40, 140):
            agg.submit(BitReport(client_id=client, bit_index=client % 4, bit=1))
        full = agg.estimate()
        assert full.metadata["degraded"] is False

    def test_snapshots_feed_the_health_monitor(self):
        from repro.federated import BitReport

        monitor = HealthMonitor(rules=[QuorumDegradationRule(window=3, max_rate=0.5)])
        agg = StreamingAggregator(
            FixedPointEncoder.for_integers(4), min_reports=10, target_reports=100
        )
        with instrumented(Tracer([monitor]), MetricsRegistry()):
            with pytest.raises(CohortTooSmallError):
                agg.estimate()  # below min_reports: no sample
            assert monitor.summary()["evaluations"] == 0
            for client in range(140):
                agg.submit(BitReport(client_id=client, bit_index=client % 4, bit=1))
                if client + 1 in (10, 20, 30, 100, 140):
                    agg.estimate()
        # Three under-evidenced snapshots fill the window; two at the
        # target push them out.
        assert monitor.summary()["evaluations"] == 5
        assert [(e.rule, e.state) for e in monitor.events] == [
            ("quorum-degradation", "fired"),
            ("quorum-degradation", "resolved"),
        ]

    def test_target_below_minimum_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingAggregator(
                FixedPointEncoder.for_integers(4), min_reports=10, target_reports=5
            )


class TestChaosCampaignIntegration:
    """The acceptance scenario: retry + quorum degradation keep a campaign alive."""

    SPEC = "1:blackout;3-4:loss=0.6"

    def _run_campaign(self, seed=0):
        population = make_population(400, seed=17)
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(8),
            mode="basic",
            min_quorum=20,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=60.0),
            faults=FaultSchedule.from_spec(self.SPEC),
        )
        campaign = MonitoringCampaign(query)
        memory = InMemoryExporter()
        registry = MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            for day in range(4):
                campaign.run_round(population, rng=np.random.default_rng(seed + day))
        return campaign, registry.snapshot(), memory.records

    def test_campaign_survives_kill_and_degradation(self):
        campaign, snapshot, spans = self._run_campaign()
        assert campaign.rounds_run == 4

        counters = snapshot["counters"]
        # Campaign round 1 = attempts 1 (blackout) + 2; rounds 2 and 3 run
        # at 60% loss (attempts 3, 4): degraded; round 4 (attempt 5) clean.
        assert counters["round_attempts_total"] == 5.0
        assert counters["rounds_failed_total"] == 1.0
        assert counters["round_retries_total"] == 1.0
        assert counters["rounds_degraded_total"] == 2.0
        assert counters["rounds_total"] == 4.0
        # Per-attempt report accounting still reconciles.
        assert counters["round_reports_planned_total"] == (
            counters["round_reports_delivered_total"]
            + counters["round_reports_lost_total"]
        )

        retry_spans = [s for s in spans if s.name == "round.retry"]
        assert len(retry_spans) == 1
        assert retry_spans[0].attributes["backoff_s"] == 60.0

        assert [r.metadata["round_attempts"] for r in campaign.records] == [[2], [1], [1], [1]]
        assert [r.metadata["degraded"] for r in campaign.records] == [False, True, True, False]
        assert campaign.rounds_degraded == 2
        assert campaign.total_attempts == 5
        # Degraded rounds completed under-strength yet still estimate sanely
        # (the widened tolerance IS the degradation: ~160 of 400 reporters).
        for estimate in campaign.estimates:
            assert estimate == pytest.approx(100.0, rel=0.35)

    def test_same_seed_is_bit_identical(self):
        first, _, _ = self._run_campaign(seed=99)
        second, _, _ = self._run_campaign(seed=99)
        assert first.estimates == second.estimates
        for a, b in zip(first.records, second.records):
            np.testing.assert_array_equal(a.estimate.bit_means, b.estimate.bit_means)
            assert a.metadata["round_attempts"] == b.metadata["round_attempts"]
