"""Health plane tests (PR 6): SLO rules, fire/resolve engine, live watch.

The health monitor is the campaign's watchdog; these tests pin each
built-in rule's trigger arithmetic, the one-fired/one-resolved transition
semantics, the ``alerts.jsonl`` sink round trip, the stderr-only live
monitor, and -- via the CLI -- byte-identical alert logs under
``--sim-clock``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import run_traced_round
from repro.core import FixedPointEncoder
from repro.core.monitor import HighBitMonitor
from repro.exceptions import ConfigurationError, PrivacyBudgetExceeded
from repro.federated import ClientDevice, FederatedMeanQuery
from repro.observability import (
    ALERTS_FILENAME,
    HealthMonitor,
    InMemoryExporter,
    LiveMonitor,
    MetricsRegistry,
    ObservedRun,
    Tracer,
    build_report,
    default_rules,
    instrumented,
    load_alerts,
    load_run,
)
from repro.observability.health import (
    DropoutClipRule,
    EpsilonBurnRateRule,
    HealthRule,
    HealthSample,
    MonitorShiftRule,
    QuorumDegradationRule,
    Reading,
    RetryStormRule,
    StragglerSkewRule,
    VarianceDriftRule,
    rank_active,
)
from repro.observability.tracing import SpanRecord
from repro.privacy import RandomizedResponse
from repro.privacy.accountant import BitMeter, PrivacyAccountant


def _round(attempt=1, failed=False, degraded=False, t_s=0.0, counters=None, **kw):
    return HealthSample(
        kind="round",
        t_s=t_s,
        attempt=attempt,
        failed=failed,
        degraded=degraded,
        counters=counters or {},
        **kw,
    )


def _span(round_index=0, end=0.0, duration=0.0, **attrs):
    """A finished round-attempt span ending at ``end``."""
    return SpanRecord(
        name="federated.round",
        span_id=1,
        parent_id=None,
        start_time_s=end - duration,
        duration_s=duration,
        attributes={"round_index": round_index, "attempt": 1, **attrs},
    )


class TestRules:
    def test_retry_storm_fires_and_clears_with_the_window(self):
        rule = RetryStormRule(window=5, threshold=2)
        readings = [rule.evaluate(_round(attempt=a)) for a in (1, 2, 1, 2)]
        assert [r.firing for r in readings] == [False, False, False, True]
        # Five clean attempts push the retries out of the window.
        for _ in range(5):
            reading = rule.evaluate(_round(attempt=1))
        assert reading.firing is False

    def test_retry_storm_ignores_other_kinds(self):
        rule = RetryStormRule()
        assert rule.evaluate(HealthSample(kind="estimate", t_s=0.0)).firing is None

    def test_epsilon_burn_rate_tracks_the_schedule(self):
        rule = EpsilonBurnRateRule(budget=2.0, planned_rounds=4)

        def spent(epsilon):
            return _round(counters={"privacy_epsilon_spent_total": epsilon})

        # Round 1 spends 1.5 of the 0.5 earned so far: way ahead of schedule.
        assert rule.evaluate(spent(1.5)).firing is True
        # Three more on-schedule rounds let the allowance catch up.
        for epsilon in (1.6, 1.8, 2.0):
            reading = rule.evaluate(spent(epsilon))
        assert reading.firing is False

    def test_epsilon_burn_rate_reads_the_counter_snapshot(self):
        rule = EpsilonBurnRateRule(budget=1.0, planned_rounds=2)
        reading = rule.evaluate(_round(counters={"privacy_epsilon_spent_total": 2.0}))
        assert reading.firing is True
        assert rule.evaluate(_round()).firing is None  # no spend signal at all

    def test_quorum_degradation_needs_a_full_window(self):
        rule = QuorumDegradationRule(window=3, max_rate=0.5)
        assert rule.evaluate(_round(degraded=True)).firing is None
        assert rule.evaluate(_round(failed=True)).firing is None
        assert rule.evaluate(_round()).firing is True  # 2/3 >= 0.5
        assert rule.evaluate(_round()).firing is False  # degraded slid out: 1/3
        assert rule.evaluate(_round()).firing is False  # 0/3

    def test_dropout_clip_watches_the_counter_delta(self):
        rule = DropoutClipRule(window=3, threshold=1)
        clips = [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        readings = [
            rule.evaluate(_round(counters={"dropout_rate_clips_total": c})) for c in clips
        ]
        assert [r.firing for r in readings] == [False, False, True, True, True, False]

    def test_monitor_shift_on_campaign_samples(self):
        rule = MonitorShiftRule()
        fired = rule.evaluate(HealthSample(kind="campaign", t_s=0.0, shift=True))
        quiet = rule.evaluate(HealthSample(kind="campaign", t_s=1.0, shift=False))
        assert fired.firing is True and quiet.firing is False

    def test_round_samples_leave_monitor_shift_unchanged(self):
        # The campaign.round span is the one event per shift: a round
        # sample, whatever its monitor_shifts_total, neither fires nor resolves.
        rule = MonitorShiftRule()
        for total in (0.0, 1.0, 1.0):
            assert rule.evaluate(_round(counters={"monitor_shifts_total": total})).firing is None

    def test_variance_drift_scores_the_normal_tail(self):
        rule = VarianceDriftRule(alpha=1e-4)
        plausible = HealthSample(
            kind="estimate", t_s=0.0, observed_error=1.0, predicted_std=1.0
        )
        implausible = HealthSample(
            kind="estimate", t_s=0.0, observed_error=10.0, predicted_std=1.0
        )
        no_model = HealthSample(kind="estimate", t_s=0.0, observed_error=1.0)
        assert rule.evaluate(plausible).firing is False
        assert rule.evaluate(implausible).firing is True
        assert rule.evaluate(no_model).firing is None

    def test_straggler_skew_fires_on_divergent_slow_decile(self):
        rule = StragglerSkewRule(max_ratio=4.0)
        healthy = rule.evaluate(
            _round(uplink_median_s=0.010, uplink_slow_decile_s=0.030)
        )
        assert healthy.firing is False
        skewed = rule.evaluate(
            _round(uplink_median_s=0.010, uplink_slow_decile_s=0.050)
        )
        assert skewed.firing is True
        assert skewed.value == pytest.approx(5.0)
        assert "5.00x" in skewed.detail
        recovered = rule.evaluate(
            _round(uplink_median_s=0.010, uplink_slow_decile_s=0.011)
        )
        assert recovered.firing is False

    def test_straggler_skew_has_no_opinion_without_uplink_timings(self):
        rule = StragglerSkewRule()
        # In-process rounds (no wire) and estimate samples carry no timings.
        assert rule.evaluate(_round()).firing is None
        assert rule.evaluate(HealthSample(kind="estimate", t_s=0.0)).firing is None
        # A degenerate (sub-floor) median is ignored rather than divided by.
        degenerate = rule.evaluate(
            _round(uplink_median_s=0.0, uplink_slow_decile_s=1.0)
        )
        assert degenerate.firing is None

    def test_straggler_skew_reads_round_span_attributes(self):
        monitor = HealthMonitor(rules=[StragglerSkewRule(max_ratio=4.0)])
        monitor.export(
            SpanRecord(
                name="federated.round",
                span_id=1,
                parent_id=None,
                start_time_s=0.0,
                duration_s=1.0,
                attributes={
                    "round_index": 0,
                    "attempt": 1,
                    "uplink_median_s": 0.002,
                    "uplink_slow_decile_s": 0.020,
                },
            )
        )
        (event,) = monitor.events
        assert event.rule == "straggler-skew"
        assert event.state == "fired"

    def test_rule_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            EpsilonBurnRateRule(budget=0.0)
        with pytest.raises(ConfigurationError):
            RetryStormRule(window=0)
        with pytest.raises(ConfigurationError):
            QuorumDegradationRule(max_rate=1.5)
        with pytest.raises(ConfigurationError):
            VarianceDriftRule(alpha=1.0)
        with pytest.raises(ConfigurationError):
            StragglerSkewRule(max_ratio=1.0)
        with pytest.raises(ConfigurationError):
            StragglerSkewRule(floor_s=0.0)

    def test_default_rules_gate_the_budget_rule(self):
        names = [r.name for r in default_rules()]
        assert "epsilon-burn-rate" not in names
        assert "straggler-skew" in names
        names = [r.name for r in default_rules(epsilon_budget=2.0)]
        assert names[0] == "epsilon-burn-rate"


class _AlwaysOn(HealthRule):
    name = "always-on"
    severity = "critical"

    def __init__(self):
        self.firing = True

    def evaluate(self, sample):
        return Reading(self.firing, value=1.0, detail="scripted")


class TestHealthMonitor:
    def test_fire_once_resolve_once(self):
        rule = _AlwaysOn()
        monitor = HealthMonitor(rules=[rule])
        monitor.export(_span(0))
        assert len(monitor.events) == 1
        monitor.export(_span(1))  # active, no re-fire
        assert len(monitor.events) == 1
        rule.firing = False
        monitor.export(_span(2))
        assert [e.state for e in monitor.events] == ["fired", "resolved"]
        monitor.export(_span(3))
        assert [e.state for e in monitor.events] == ["fired", "resolved"]
        assert monitor.active_alerts() == []

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            HealthMonitor(rules=[RetryStormRule(), RetryStormRule()])

    def test_invalid_severity_rejected(self):
        bad = _AlwaysOn()
        bad.severity = "catastrophic"
        with pytest.raises(ConfigurationError, match="severity"):
            HealthMonitor(rules=[bad])

    def test_summary_shape(self):
        rule = _AlwaysOn()
        monitor = HealthMonitor(rules=[rule])
        monitor.export(_span(0))
        summary = monitor.summary()
        assert summary["evaluations"] == 1
        assert summary["fired_total"] == 1
        assert summary["resolved_total"] == 0
        assert summary["by_rule"] == {"always-on": {"fired": 1, "resolved": 0}}
        assert summary["by_severity"] == {"critical": 1}
        assert summary["active"][0]["rule"] == "always-on"
        assert {r["name"] for r in summary["rules"]} == {"always-on"}

    def test_sink_round_trip(self, tmp_path):
        rule = _AlwaysOn()
        monitor = HealthMonitor(rules=[rule], sink=tmp_path / ALERTS_FILENAME)
        monitor.export(_span(0, end=1.5, duration=1.5))
        rule.firing = False
        monitor.export(_span(1, end=3.0, duration=1.5))
        monitor.close()
        alerts = load_alerts(tmp_path)
        assert [a["state"] for a in alerts] == ["fired", "resolved"]
        assert alerts[0]["rule"] == "always-on"
        assert alerts[0]["t_s"] == pytest.approx(1.5)
        assert alerts[1]["t_s"] == pytest.approx(3.0)

    def test_load_alerts_missing_and_truncated(self, tmp_path):
        assert load_alerts(tmp_path) == []
        path = tmp_path / ALERTS_FILENAME
        path.write_text('{"rule": "ok"}\n{"rule": "trunc')
        assert load_alerts(tmp_path) == [{"rule": "ok"}]

    def test_span_driven_sample_uses_span_end_time(self):
        rule = RetryStormRule(window=2, threshold=1)
        monitor = HealthMonitor(rules=[rule])
        span = SpanRecord(
            name="federated.round",
            span_id=1,
            parent_id=None,
            start_time_s=10.0,
            duration_s=2.0,
            attributes={"round_index": 0, "attempt": 2, "planned_clients": 10},
        )
        monitor.export(span)
        assert monitor.events[0].t_s == pytest.approx(12.0)
        monitor.export(
            SpanRecord(
                name="not.a.round", span_id=2, parent_id=None,
                start_time_s=99.0, duration_s=0.0, attributes={},
            )
        )
        assert monitor.summary()["evaluations"] == 1

    def test_rank_active_orders_by_severity(self):
        ranked = rank_active(
            [
                {"rule": "b", "severity": "info"},
                {"rule": "a", "severity": "critical"},
                {"rule": "c", "severity": "warning"},
            ]
        )
        assert [a["rule"] for a in ranked] == ["a", "c", "b"]


class TestMonitorShiftInstrumentation:
    def _trigger_shift(self):
        monitor = HighBitMonitor(noise_floor=0.01, shift_threshold=2, window=3)
        quiet = [0.4, 0.5, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]
        for _ in range(3):
            monitor.update(quiet)
        alert = monitor.update([0.4, 0.5, 0.3, 0.0, 0.0, 0.0, 0.2, 0.0])
        assert alert is not None
        return alert

    def test_shift_emits_span_and_counter(self):
        memory = InMemoryExporter()
        registry = MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            alert = self._trigger_shift()
        spans = [r for r in memory.records if r.name == "monitor.shift"]
        assert len(spans) == 1
        assert spans[0].attributes["shift"] == alert.shift
        assert spans[0].attributes["observed_bit"] == alert.observed_bit
        assert registry.snapshot()["counters"]["monitor_shifts_total"] == 1.0

    def test_shift_costs_nothing_uninstrumented(self):
        # No tracer/metrics installed: the update still works, silently.
        self._trigger_shift()


class TestLiveMonitor:
    def test_update_lines_and_finish(self):
        stream = io.StringIO()
        live = LiveMonitor(planned_rounds=2, stream=stream)
        live.export(_span(0, end=10.0, duration=10.0, surviving_clients=90, planned_clients=100))
        live.export(
            _span(1, end=20.0, duration=10.0, attempt=3, surviving_clients=80,
                  planned_clients=100, degraded=True)
        )
        live.finish(estimate=123.456)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("[watch] round 0 | 90/100 reports")
        assert "ETA" in lines[0]
        assert "attempt 3" in lines[1] and "degraded" in lines[1]
        assert lines[2].startswith("[watch] done | 2 round(s) | 170 reports")
        assert "estimate 123.456" in lines[2]
        assert "alerts: none" in lines[2]

    def test_active_alerts_rendered_most_severe_first(self):
        rule = _AlwaysOn()
        health = HealthMonitor(rules=[rule])
        stream = io.StringIO()
        live = LiveMonitor(health=health, stream=stream)
        span = _span(0, surviving_clients=10, planned_clients=10)
        for exporter in (health, live):
            exporter.export(span)
        assert "alerts: always-on(critical)" in stream.getvalue()

    def test_exporter_protocol_ignores_other_spans(self):
        stream = io.StringIO()
        live = LiveMonitor(stream=stream)
        live.export(
            SpanRecord(
                name="round.assign", span_id=1, parent_id=None,
                start_time_s=0.0, duration_s=0.1, attributes={},
            )
        )
        assert stream.getvalue() == ""


class _Samples(HealthRule):
    """Keeps every sample; never fires."""

    name = "samples"

    def __init__(self):
        self.samples = []

    def evaluate(self, sample):
        self.samples.append(sample)
        return Reading(None)


class TestAbortedAttempt:
    def test_an_attempt_that_raised_reads_as_failed(self, tmp_path):
        # The second query re-asks the same devices: the one-bit meter
        # aborts its attempt inside the fold, after the quorum check.
        devices = [ClientDevice(i, [float(i % 50)]) for i in range(200)]
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(6),
            mode="basic",
            meter=BitMeter(max_bits_per_value=1),
            accountant=PrivacyAccountant(),
            perturbation=RandomizedResponse(1.0),
        )
        samples = _Samples()
        run = ObservedRun(record_dir=tmp_path, rules=[samples], sim_clock=True)
        stream = io.StringIO()
        run.tracer.add_exporter(LiveMonitor(health=run.health, stream=stream))
        with run:
            query.run(devices, rng=0)
            with pytest.raises(PrivacyBudgetExceeded):
                query.run(devices, rng=1)
        run.finalize()
        assert [(s.kind, s.failed) for s in samples.samples] == [
            ("round", False),
            ("round", True),
        ]
        lines = stream.getvalue().splitlines()
        assert "FAILED" not in lines[0]
        assert lines[1].startswith("[watch] round 1 | 0/200 reports | FAILED")
        recovery = build_report(load_run(tmp_path))["recovery"]
        assert [e["kind"] for e in recovery] == ["completed", "failed"]
        assert "PrivacyBudgetExceeded" in recovery[1]["detail"]


class TestWatchCli:
    def test_watch_writes_stderr_and_keeps_stdout_json_clean(self, tmp_path):
        stdout, stderr = io.StringIO(), io.StringIO()
        run_traced_round(
            "1a",
            quick=True,
            seed=0,
            out_path=str(tmp_path / "trace.jsonl"),
            stream=stdout,
            as_json=True,
            watch=True,
            watch_stream=stderr,
        )
        payload = json.loads(stdout.getvalue())  # stdout stays one JSON doc
        assert payload["health"]["evaluations"] >= 1
        watch_lines = stderr.getvalue().splitlines()
        assert all(line.startswith("[watch] ") for line in watch_lines)
        assert any(line.startswith("[watch] done") for line in watch_lines)
        # One line per round attempt plus the closing summary.
        assert len(watch_lines) == sum(payload["recovery"]["round_attempts"]) + 1

    def test_retried_rounds_count_once_and_show_no_eta_before_one_completes(self, tmp_path):
        # Round 1 fails twice before its third attempt completes; the query
        # has 2 rounds, so the view must not read 4, nor show an ETA while
        # no round has completed yet.
        stderr = io.StringIO()
        run_traced_round(
            "3a",
            quick=True,
            seed=3,
            sim_clock=True,
            max_retries=4,
            min_quorum=100,
            fault_schedule="1:blackout;2:blackout",
            out_path=str(tmp_path / "trace.jsonl"),
            stream=io.StringIO(),
            watch=True,
            watch_stream=stderr,
        )
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 5
        assert all("FAILED" in line and "ETA" not in line for line in lines[:2])
        assert all("ETA" in line for line in lines[2:4])
        assert lines[4].startswith("[watch] done | 2 round(s) | ")


class TestAlertsByteIdentity:
    def _recorded_chaos(self, tmp_path, name):
        record_dir = tmp_path / name
        run_traced_round(
            "3a",
            quick=True,
            seed=3,
            sim_clock=True,
            max_retries=4,
            min_quorum=100,
            fault_schedule="1:blackout;2:blackout",
            record_dir=str(record_dir),
            stream=io.StringIO(),
        )
        return record_dir

    def test_sim_clock_alerts_are_byte_identical(self, tmp_path):
        dir_a = self._recorded_chaos(tmp_path / "a", "run")
        dir_b = self._recorded_chaos(tmp_path / "b", "run")
        alerts_a = (dir_a / ALERTS_FILENAME).read_bytes()
        assert alerts_a, "chaos run produced no alert transitions"
        assert alerts_a == (dir_b / ALERTS_FILENAME).read_bytes()
        # The storm of back-to-back retries must actually be in the log.
        rules = {a["rule"] for a in load_alerts(dir_a)}
        assert "retry-storm" in rules

    def test_health_summary_lands_in_the_manifest(self, tmp_path):
        record_dir = self._recorded_chaos(tmp_path, "run")
        manifest = json.loads((record_dir / "manifest.json").read_text())
        health = manifest["health"]
        assert health["fired_total"] >= 1
        assert health["by_rule"]["retry-storm"]["fired"] >= 1
