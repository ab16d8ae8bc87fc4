"""Monitoring campaigns and multi-feature bit-budgeted queries."""

import json

import numpy as np
import pytest

from repro.core import FixedPointEncoder
from repro.exceptions import ConfigurationError
from repro.federated import (
    ClientDevice,
    DropoutModel,
    FederatedMeanQuery,
    MonitoringCampaign,
    MultiFeatureQuery,
)
from repro.observability import ObservedRun


def _population(rng, n=2_000, scale=100.0):
    return [
        ClientDevice(i, [v])
        for i, v in enumerate(np.clip(rng.normal(scale, 20, n), 0, None))
    ]


class TestMonitoringCampaign:
    def test_records_accumulate(self):
        rng = np.random.default_rng(0)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(10))
        )
        for _ in range(3):
            campaign.run_round(_population(rng), rng)
        assert campaign.rounds_run == 3
        assert len(campaign.records) == 3
        assert len(campaign.estimates) == 3
        assert all(80 < e < 120 for e in campaign.estimates)

    def test_alert_fires_on_regression(self):
        rng = np.random.default_rng(1)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(12))
        )
        alerts = []
        for day in range(6):
            scale = 100.0 if day < 4 else 1500.0
            record = campaign.run_round(_population(rng, scale=scale), rng)
            if record.alert:
                alerts.append(record.round_index)
        # The first alert fires the round the regression ships; the rolling
        # baseline may trail for a round or two, re-alerting until it
        # catches up.
        assert alerts and alerts[0] == 4
        assert len(campaign.alerts) == len(alerts)

    def test_alert_reaches_the_health_monitor_through_its_round_span(self):
        rng = np.random.default_rng(1)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(12))
        )
        with ObservedRun(sim_clock=True) as run:
            for day in range(6):
                scale = 100.0 if day < 4 else 1500.0
                campaign.run_round(_population(rng, scale=scale), rng)
        run.finalize()
        rounds = [r for r in run.spans if r.name == "campaign.round"]
        assert [r.attributes["round_index"] for r in rounds] == list(range(6))
        shift = next(e for e in run.health.events if e.rule == "monitor-shift")
        assert (shift.state, shift.round_index) == ("fired", 4)
        # Stamped on the tracer's clock, when round 4's span closed.
        assert shift.t_s == rounds[4].start_time_s + rounds[4].duration_s

    def test_one_shift_fires_and_resolves_once(self):
        # Rounds 4 and 5 alert, round 6 is quiet: the rule fires on round
        # 4's campaign.round span and resolves on round 6's, with no flap on
        # the federated.round samples in between.
        rng = np.random.default_rng(1)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(12))
        )
        with ObservedRun(sim_clock=True) as run:
            for day in range(8):
                scale = 100.0 if day < 4 else 1500.0
                campaign.run_round(_population(rng, scale=scale), rng)
        run.finalize()
        assert [r.round_index for r in campaign.records if r.alert] == [4, 5]
        shifts = [e for e in run.health.events if e.rule == "monitor-shift"]
        assert [(e.state, e.round_index) for e in shifts] == [("fired", 4), ("resolved", 6)]

    def test_recorded_campaign_logs_one_span_per_round(self, tmp_path):
        rng = np.random.default_rng(0)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(10))
        )
        with ObservedRun(record_dir=tmp_path, sim_clock=True) as run:
            for _ in range(3):
                campaign.run_round(_population(rng), rng)
        run.finalize()
        lines = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
        spans = [x for x in lines if x["type"] == "span" and x["name"] == "campaign.round"]
        assert [x["attributes"]["round_index"] for x in spans] == [0, 1, 2]
        keys = {
            "round_index", "estimate", "n_clients", "alert",
            "round_attempts", "degraded", "backoff_s",
        }
        assert all(keys <= set(x["attributes"]) for x in spans)
        assert [x["attributes"]["estimate"] for x in spans] == campaign.estimates
        assert spans[0]["attributes"]["round_attempts"] == [1, 1]  # two adaptive rounds
        assert spans[0]["attributes"]["alert"] is None

    def test_no_alert_when_stable(self):
        rng = np.random.default_rng(2)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(10))
        )
        for _ in range(6):
            campaign.run_round(_population(rng), rng)
        assert campaign.alerts == ()

    def test_metadata_carries_ops_state(self):
        rng = np.random.default_rng(3)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(
                FixedPointEncoder.for_integers(10), dropout=DropoutModel(0.25)
            )
        )
        record = campaign.run_round(_population(rng), rng)
        assert record.metadata["dropout_rate_estimate"] == pytest.approx(0.25, abs=0.08)
        assert record.metadata["upper_bound"] > 0


class TestMultiFeatureQuery:
    def _feature_population(self, rng, n=6_000):
        population = []
        for i in range(n):
            population.append(ClientDevice(i, [0.0], {"features": {
                "latency": np.clip(rng.normal(200, 30, 1), 0, None),
                "memory": np.clip(rng.normal(60, 10, 1), 0, None),
                "battery": np.clip(rng.normal(80, 5, 1), 0, None),
            }}))
        return population

    def _queries(self):
        return {
            "latency": FederatedMeanQuery(FixedPointEncoder.for_integers(9)),
            "memory": FederatedMeanQuery(FixedPointEncoder.for_integers(7)),
            "battery": FederatedMeanQuery(FixedPointEncoder.for_integers(7)),
        }

    def test_all_features_estimated(self):
        rng = np.random.default_rng(4)
        mfq = MultiFeatureQuery(self._queries())
        results = mfq.run(self._feature_population(rng), rng)
        assert results["latency"].value == pytest.approx(200, abs=15)
        assert results["memory"].value == pytest.approx(60, abs=5)
        assert results["battery"].value == pytest.approx(80, abs=5)

    def test_budget_enforced_one_feature_per_client(self):
        rng = np.random.default_rng(5)
        population = self._feature_population(rng)
        mfq = MultiFeatureQuery(self._queries(), features_per_client=1)
        mfq.run(population, rng)
        # Each client served at most one feature -> at most one bit each.
        assert mfq.total_private_bits <= len(population)
        assert all(
            mfq.meter.bits_disclosed_by(c.client_id) <= 1 for c in population
        )

    def test_budget_two_features_per_client(self):
        rng = np.random.default_rng(6)
        population = self._feature_population(rng)
        mfq = MultiFeatureQuery(self._queries(), features_per_client=2)
        mfq.run(population, rng)
        assert all(
            mfq.meter.bits_disclosed_by(c.client_id) <= 2 for c in population
        )

    def test_missing_feature_clients_skipped(self):
        rng = np.random.default_rng(7)
        population = self._feature_population(rng, n=3_000)
        # Strip "memory" from a third of the fleet.
        for client in population[::3]:
            del client.attributes["features"]["memory"]
        mfq = MultiFeatureQuery(self._queries())
        results = mfq.run(population, rng)
        assert results["memory"].value == pytest.approx(60, abs=5)

    def test_no_data_for_feature_raises(self):
        rng = np.random.default_rng(8)
        population = self._feature_population(rng, n=300)
        for client in population:
            del client.attributes["features"]["battery"]
        with pytest.raises(ConfigurationError):
            MultiFeatureQuery(self._queries()).run(population, rng)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultiFeatureQuery({})
        with pytest.raises(ConfigurationError):
            MultiFeatureQuery(self._queries(), features_per_client=0)
        with pytest.raises(ConfigurationError):
            MultiFeatureQuery(self._queries(), features_per_client=4)
