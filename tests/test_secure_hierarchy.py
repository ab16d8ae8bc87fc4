"""Hierarchical secure aggregation: twin tests, shard recovery, server wiring.

The contract under test (PR tentpole): hierarchical secure sum == flat
``secure_sum`` == plaintext, across shard trees, worker counts, and scripted
per-shard dropout patterns -- and a shard falling below its threshold
degrades the round instead of aborting it.
"""

import numpy as np
import pytest

from repro.core import FixedPointEncoder
from repro.exceptions import ConfigurationError, RoundFailedError
from repro.federated import ClientDevice, DropoutModel, FederatedMeanQuery
from repro.federated.faults import FaultEvent, FaultSchedule
from repro.federated.secure_agg import (
    SecureAggregationSession,
    ShardTask,
    aggregate_shards,
    default_threshold,
    hierarchical_secure_sum,
    secure_sum,
    shard_bounds,
)
from repro.federated.secure_agg import PrimeField, hierarchy, protocol
from repro.federated.secure_agg.masking import expand_masks
from repro.metrics.execution import spawn_seed_sequences
from repro.observability import (
    HealthMonitor,
    InMemoryExporter,
    MetricsRegistry,
    SimClock,
    Tracer,
    configure,
    disable,
    get_tracer,
    instrumented,
)
from repro.observability.health import ShardFailureRule
from repro.privacy.accountant import BitMeter


@pytest.fixture
def encoder():
    return FixedPointEncoder.for_integers(8)


def make_population(n, value=170.0):
    return [ClientDevice(i, [value]) for i in range(n)]


class TestShardBounds:
    @pytest.mark.parametrize("shard_size", [2, 3, 4, 16, 32])
    @pytest.mark.parametrize("n", list(range(2, 70)))
    def test_every_residue_has_no_singleton_shard(self, n, shard_size):
        """Regression for the lone-client plaintext leak: for every value of
        ``n % shard_size`` the partition must cover [0, n) contiguously with
        no shard smaller than 2 clients."""
        bounds = shard_bounds(n, shard_size)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi == lo2
        assert all(hi - lo >= 2 for lo, hi in bounds)
        assert all(hi - lo <= shard_size + 1 for lo, hi in bounds)

    def test_remainder_of_one_folds_into_previous_shard(self):
        assert shard_bounds(33, 32) == [(0, 33)]
        assert shard_bounds(9, 4) == [(0, 4), (4, 9)]

    def test_single_client_is_a_singleton_shard(self):
        # Nothing to fold into; the aggregator fails it instead of leaking.
        assert shard_bounds(1, 4) == [(0, 1)]

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(10, 1)
        with pytest.raises(ConfigurationError):
            shard_bounds(-1, 4)


class TestHierarchicalTwin:
    @pytest.mark.parametrize("shard_size", [2, 5, 8, 64])
    def test_matches_flat_and_plaintext_full_participation(self, shard_size, rng):
        vecs = rng.integers(0, 1000, size=(41, 6))
        plain = vecs.sum(axis=0)
        flat = secure_sum(vecs, rng=0)
        result = hierarchical_secure_sum(vecs, shard_size=shard_size, rng=1)
        np.testing.assert_array_equal(flat, plain)
        np.testing.assert_array_equal(result.total, plain)
        assert not result.failed_shards
        assert result.included_submitters == 41

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_dropout_matches_plaintext_over_included(self, seed):
        draw = np.random.default_rng(seed)
        vecs = draw.integers(0, 100, size=(50, 4))
        submitted = draw.random(50) > 0.25
        result = hierarchical_secure_sum(
            vecs, submitted=submitted, shard_size=8, rng=seed
        )
        included = result.included
        assert submitted[included].all()
        np.testing.assert_array_equal(result.total, vecs[included].sum(axis=0))
        # Every recovered shard kept all of its submitters.
        recovered_submitters = sum(s.submitted for s in result.shards if s.recovered)
        assert included.size == recovered_submitters

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_for_any_worker_count(self, workers):
        draw = np.random.default_rng(3)
        vecs = draw.integers(0, 200, size=(37, 5))
        submitted = draw.random(37) > 0.2
        result = hierarchical_secure_sum(
            vecs,
            submitted=submitted,
            shard_size=6,
            workers=workers,
            rng=np.random.default_rng(11),
        )
        reference = hierarchical_secure_sum(
            vecs,
            submitted=submitted,
            shard_size=6,
            workers=1,
            rng=np.random.default_rng(11),
        )
        np.testing.assert_array_equal(result.total, reference.total)
        assert [s.recovered for s in result.shards] == [
            s.recovered for s in reference.shards
        ]

    def test_whole_shard_blackout_is_contained(self):
        vecs = np.ones((24, 3), dtype=np.int64)
        submitted = np.ones(24, dtype=bool)
        submitted[8:16] = False  # shard 1 of shard_size=8 goes dark
        result = hierarchical_secure_sum(vecs, submitted=submitted, shard_size=8, rng=5)
        assert [s.index for s in result.failed_shards] == [1]
        assert result.excluded_clients == 8
        np.testing.assert_array_equal(result.total, np.full(3, 16))

    def test_below_threshold_shard_excluded_not_fatal(self):
        vecs = np.arange(30).reshape(10, 3)
        submitted = np.ones(10, dtype=bool)
        submitted[[0, 1, 2]] = False  # 2/5 submitted < threshold 4 in shard 0
        result = hierarchical_secure_sum(vecs, submitted=submitted, shard_size=5, rng=6)
        assert len(result.failed_shards) == 1
        assert result.failed_shards[0].index == 0
        np.testing.assert_array_equal(result.total, vecs[5:].sum(axis=0))

    def test_shard_metrics_recorded(self):
        registry = MetricsRegistry()
        configure(metrics=registry)
        try:
            vecs = np.ones((12, 2), dtype=np.int64)
            submitted = np.ones(12, dtype=bool)
            submitted[:6] = False
            hierarchical_secure_sum(vecs, submitted=submitted, shard_size=6, rng=7)
            counters = registry.snapshot()["counters"]
            assert counters["secure_shards_total"] == 2
            assert counters["secure_shard_failures_total"] == 1
            assert counters["secure_clients_excluded_total"] == 6
        finally:
            disable()


def _tasks(vecs, submitted, shard_size):
    """The shard tasks hierarchical_secure_sum builds, as a list."""
    tasks = []
    for index, (lo, hi) in enumerate(shard_bounds(len(vecs), shard_size)):
        local = np.flatnonzero(submitted[lo:hi])
        tasks.append(ShardTask(index, lo, hi - lo, local, vecs[lo:hi][local]))
    return tasks


def _one_session_each(tasks, length, seed):
    """Reference: each shard's own session, submit_batch then finalize."""
    seeds, bitgen_cls = spawn_seed_sequences(np.random.default_rng(seed), len(tasks))
    rows, totals = [], []
    for task, child in zip(tasks, seeds):
        session = SecureAggregationSession(
            task.n_clients,
            length,
            default_threshold(task.n_clients),
            dtype=task.vectors.dtype,
            rng=np.random.Generator(bitgen_cls(child)),
        )
        rows.append(session.submit_batch(task.submitted_ids, task.vectors))
        try:
            totals.append(session.finalize())
        except Exception:
            totals.append(None)
    return rows, totals


def _matmul_spans(monkeypatch):
    """Patch the field product to record each call's ``(open span id, b's shape)``."""
    calls = []
    matmul = PrimeField.matmul_arrays

    def recording(self, a, b):
        calls.append((get_tracer().current_span_id(), np.shape(b)))
        return matmul(self, a, b)

    monkeypatch.setattr(PrimeField, "matmul_arrays", recording)
    return calls


def _recording_batches(monkeypatch):
    """Patch the group path's session batch class to keep every batch it builds."""
    built = []

    class Recording(protocol.SessionBatch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(hierarchy, "SessionBatch", Recording)
    return built


def _masked_rows(built, tasks):
    """Each shard's masked rows, read from the batches in shard order.

    A group's shards of one shape share a batch, and the shapes of a
    shard tree's groups come in shard order.
    """
    sessions = [(batch, s) for batch in built for s in range(batch.size)]
    assert len(sessions) == len(tasks)
    return [batch.masked[s, task.submitted_ids] for (batch, s), task in zip(sessions, tasks)]


class TestShardGroups:
    """A group of shards equals its sessions run one by one."""

    @pytest.mark.parametrize("group", [1, 3, None])
    def test_group_path_equals_one_session_path(self, group, monkeypatch):
        draw = np.random.default_rng(8)
        vecs = draw.random((7 * 9, 4)) < 0.5
        submitted = draw.random(7 * 9) > 0.1
        submitted[36:42] = False  # shard 4 of 9 falls below its threshold of 6
        tasks = _tasks(vecs, submitted, 9)
        monkeypatch.setattr(hierarchy, "SHARD_GROUP", group or len(tasks))
        built = _recording_batches(monkeypatch)
        result = aggregate_shards(tasks, 4, rng=np.random.default_rng(5), workers=1)
        rows, totals = _one_session_each(tasks, 4, 5)
        assert [s.recovered for s in result.shards] == [t is not None for t in totals]
        assert not result.shards[4].recovered
        for got, expected_rows, total, outcome in zip(
            _masked_rows(built, tasks), rows, totals, result.shards
        ):
            np.testing.assert_array_equal(got, expected_rows)
            if total is not None:
                assert outcome.total.tolist() == total
        np.testing.assert_array_equal(result.total, vecs[result.included].sum(axis=0))

    def test_group_with_two_ring_widths(self, monkeypatch):
        # shard_size=255 over 511 clients: the last shard holds 256 clients,
        # whose bool sums need the 16-bit ring.
        draw = np.random.default_rng(9)
        vecs = draw.random((511, 3)) < 0.5
        submitted = draw.random(511) > 0.1
        tasks = _tasks(vecs, submitted, 255)
        built = _recording_batches(monkeypatch)
        calls = []

        def counting(seeds, length, lane):
            calls.append(np.dtype(lane).itemsize * 8)
            return expand_masks(seeds, length, lane)

        monkeypatch.setattr(protocol, "expand_masks", counting)
        result = aggregate_shards(tasks, 3, rng=np.random.default_rng(2), workers=1)
        assert [s.ring_bits for s in result.shards] == [8, 16]
        assert calls == [8, 16, 8, 16]
        rows, totals = _one_session_each(tasks, 3, 2)
        for got, expected_rows in zip(_masked_rows(built, tasks), rows):
            np.testing.assert_array_equal(got, expected_rows)
        assert [s.total.tolist() for s in result.shards] == totals
        np.testing.assert_array_equal(result.total, vecs[submitted].sum(axis=0))

    def test_one_shamir_product_per_threshold(self, monkeypatch):
        # shard_size=9 over 55 clients: five 9-client shards (threshold 6)
        # and a 10-client last shard (threshold 7), all in one group.
        draw = np.random.default_rng(10)
        vecs = draw.random((55, 4)) < 0.5
        submitted = np.ones(55, dtype=bool)
        submitted[[2, 30, 50]] = False
        submitted[9:13] = False  # shard 1 keeps 5 of 9, below its threshold of 6
        tasks = _tasks(vecs, submitted, 9)
        assert [t.n_clients for t in tasks] == [9] * 5 + [10]
        built = _recording_batches(monkeypatch)
        calls = _matmul_spans(monkeypatch)
        exporter = InMemoryExporter()
        with instrumented(Tracer([exporter]), MetricsRegistry()):
            result = aggregate_shards(tasks, 4, rng=np.random.default_rng(4), workers=1)
        (setup,) = exporter.find("secure_agg.setup")
        (unmask,) = exporter.find("secure_agg.unmask")
        # Setup splits the share matrices of each shape's sessions in one
        # product; unmasking reconstructs the four threshold-6 sessions in
        # one product and the one threshold-7 session in another.
        assert [shape for span, shape in calls if span == setup.span_id] == [(6, 9), (7, 10)]
        assert sorted(shape for span, shape in calls if span == unmask.span_id) == [
            (6, 4),
            (7, 1),
        ]
        assert len(calls) == 2 + 2
        assert [batch.size for batch in built] == [5, 1]
        rows, totals = _one_session_each(tasks, 4, 4)
        assert [s.recovered for s in result.shards] == [t is not None for t in totals]
        assert [s.index for s in result.failed_shards] == [1]
        for got, expected_rows, total, outcome in zip(
            _masked_rows(built, tasks), rows, totals, result.shards
        ):
            np.testing.assert_array_equal(got, expected_rows)
            if total is not None:
                assert outcome.total.tolist() == total
        np.testing.assert_array_equal(result.total, vecs[result.included].sum(axis=0))

    def test_two_shapes_of_one_threshold_share_a_reconstruction(self, monkeypatch):
        # shard_size=8 over 41 clients: four 8-client shards and a 9-client
        # last shard, both threshold 6 -- two session shapes, one product.
        draw = np.random.default_rng(12)
        vecs = draw.integers(0, 50, size=(41, 3))
        submitted = draw.random(41) > 0.1
        tasks = _tasks(vecs, submitted, 8)
        assert [default_threshold(t.n_clients) for t in tasks] == [6] * 5
        built = _recording_batches(monkeypatch)
        calls = _matmul_spans(monkeypatch)
        exporter = InMemoryExporter()
        with instrumented(Tracer([exporter]), MetricsRegistry()):
            result = aggregate_shards(tasks, 3, rng=np.random.default_rng(6), workers=1)
        (setup,) = exporter.find("secure_agg.setup")
        (unmask,) = exporter.find("secure_agg.unmask")
        assert [batch.size for batch in built] == [4, 1]
        assert calls == [(setup.span_id, (6, 8)), (setup.span_id, (6, 9)), (unmask.span_id, (6, 5))]
        rows, totals = _one_session_each(tasks, 3, 6)
        for got, expected_rows in zip(_masked_rows(built, tasks), rows):
            np.testing.assert_array_equal(got, expected_rows)
        assert [s.total.tolist() for s in result.shards] == totals

    def test_one_expansion_per_phase_for_a_group(self, monkeypatch):
        calls = []

        def counting(seeds, length, lane):
            calls.append(len(seeds))
            return expand_masks(seeds, length, lane)

        monkeypatch.setattr(protocol, "expand_masks", counting)
        vecs = np.random.default_rng(4).random((40, 6)) < 0.5
        result = hierarchical_secure_sum(vecs, shard_size=8, workers=1, rng=3)
        assert len(result.shards) == 5
        assert len(calls) == 2
        np.testing.assert_array_equal(result.total, vecs.sum(axis=0))

    def test_groups_time_their_phases(self, monkeypatch):
        exporter = InMemoryExporter()
        calls = _matmul_spans(monkeypatch)
        vecs = np.random.default_rng(6).random((40, 6)) < 0.5
        submitted = np.ones(40, dtype=bool)
        submitted[[3, 17]] = False
        with instrumented(Tracer([exporter]), MetricsRegistry()):
            result = hierarchical_secure_sum(vecs, submitted, shard_size=8, workers=1, rng=3)
        (root,) = exporter.find("secure_agg.hierarchy")
        phases = {}
        for name in ("secure_agg.setup", "secure_agg.mask", "secure_agg.unmask"):
            (span,) = exporter.find(name)
            assert span.parent_id == root.span_id
            assert span.attributes["shards"] == 5
            assert span.attributes["ring_bits"] == 8
            phases[name] = span
        assert phases["secure_agg.setup"].attributes["seeds"] == 5 * 8 * 9 // 2
        # Mask: 38 self seeds and all 28 pairs of each shard; unmask: 38
        # reconstructed self seeds and 2 x 7 survivor-dropout pairs.
        assert phases["secure_agg.mask"].attributes["seeds"] == 38 + 5 * 28
        assert phases["secure_agg.unmask"].attributes["seeds"] == 38 + 2 * 7
        # Each session's threshold verdict lands once, in its shard.session
        # span; the group's unmask phase records no per-session span.
        verdicts = [
            (s.attributes["planned"], s.attributes["submitted"], s.attributes["threshold"],
             s.attributes["recovered"])
            for s in exporter.find("shard.session")
        ]
        assert verdicts == [(8, 7, 6, True), (8, 8, 6, True), (8, 7, 6, True)] + [
            (8, 8, 6, True)
        ] * 2
        assert not exporter.find("secure_agg.finalize")
        # One share split for the group's five sessions of one shape in
        # setup; one Shamir reconstruction for them inside the unmask phase.
        assert calls == [
            (phases["secure_agg.setup"].span_id, (6, 8)),
            (phases["secure_agg.unmask"].span_id, (6, 5)),
        ]
        # Shard durations share out the group's wall time, which holds the phases.
        assert sum(s.duration_s for s in result.shards) >= sum(
            span.duration_s for span in phases.values()
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sim_clock_times_shards(self, monkeypatch, workers):
        # Groups of 2 shards, so workers=2 takes the pooled path: each worker
        # times its group on a copy of the tracer's clock, and its phases land
        # on the run's timeline.
        monkeypatch.setattr(hierarchy, "SHARD_GROUP", 2)
        vecs = np.random.default_rng(6).random((40, 6)) < 0.5
        submitted = np.ones(40, dtype=bool)
        submitted[[3, 17]] = False
        runs = []
        for _ in range(2):
            clock = SimClock(start=1.0)
            exporter = InMemoryExporter()
            tracer = Tracer([exporter], clock=clock)
            with instrumented(tracer, MetricsRegistry()):
                hierarchical_secure_sum(vecs, submitted, shard_size=8, workers=workers, rng=3)
            end = clock()
            assert all(1.0 <= span.start_time_s < end for span in exporter.records)
            runs.append([span.to_dict() for span in exporter.records])
        assert runs[0] == runs[1]
        assert sum(span["name"] == "secure_agg.mask" for span in runs[0]) == 3
        durations = [
            span["attributes"]["duration_s"] for span in runs[0] if span["name"] == "shard.session"
        ]
        assert len(durations) == 5 and all(d > 0 for d in durations)
        # Serial or pooled, the tree reports verdicts in shard.session only.
        assert not any(span["name"] == "secure_agg.finalize" for span in runs[0])

    def test_pooled_groups_record_worker_phase_spans(self, monkeypatch):
        monkeypatch.setattr(hierarchy, "SHARD_GROUP", 2)
        exporter = InMemoryExporter()
        registry = MetricsRegistry()
        vecs = np.random.default_rng(7).random((40, 6)) < 0.5
        with instrumented(Tracer([exporter]), registry):
            result = hierarchical_secure_sum(vecs, shard_size=8, workers=2, rng=3)
        (root,) = exporter.find("secure_agg.hierarchy")
        for name in ("secure_agg.setup", "secure_agg.mask", "secure_agg.unmask"):
            spans = exporter.find(name)
            # Groups of 2, 2 and 1 shards, recorded in group order.
            assert [s.attributes["shards"] for s in spans] == [2, 2, 1]
            assert all(s.parent_id == root.span_id and s.attributes["worker"] for s in spans)
        assert [s.attributes["shard"] for s in exporter.find("shard.session")] == [0, 1, 2, 3, 4]
        # Workers trace nothing, but their metrics merge back; the verdicts
        # live in the parent's shard.session spans, as on the serial path.
        assert not exporter.find("secure_agg.finalize")
        assert all(s.attributes["recovered"] for s in exporter.find("shard.session"))
        counters = registry.snapshot()["counters"]
        assert counters["secure_agg_sessions_total"] == 5
        assert counters["secure_agg_masked_bytes_total"] == 40 * 6
        np.testing.assert_array_equal(result.total, vecs.sum(axis=0))


class TestServerSecureRounds:
    """The hierarchical plane wired into FederatedMeanQuery rounds."""

    @pytest.mark.parametrize("n", [17, 33, 47, 48, 49])
    def test_every_residue_stays_exact_vs_plain(self, encoder, n):
        """No client is ever aggregated outside a masking session: the
        always-on check_secure_sum invariant inside _secure_collect would
        raise on any leak, and the estimate must match plaintext exactly."""
        population = make_population(n)
        plain = FederatedMeanQuery(encoder, mode="basic")
        secure = FederatedMeanQuery(
            encoder, mode="basic", secure_aggregation=True, shard_size=16
        )
        est_plain = plain.run(population, rng=7)
        est_secure = secure.run(population, rng=7)
        np.testing.assert_array_equal(est_plain.counts, est_secure.counts)
        assert est_plain.value == est_secure.value

    def test_dropout_routes_into_sessions_and_stays_exact(self, encoder):
        """Mid-round dropout becomes intra-session dropout; recovery keeps the
        masked aggregate bit-exact vs plaintext (internal invariant), and the
        round completes with the included clients."""
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=8,
            dropout=DropoutModel(rate=0.2, jitter=0.0),
        )
        est = query.run(make_population(64), rng=3)
        assert est.metadata["surviving_clients"][0] <= 64
        assert est.metadata["surviving_clients"][0] > 0

    def test_worker_counts_agree_on_server_rounds(self, encoder, monkeypatch):
        population = make_population(40)

        def run_with(workers):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            query = FederatedMeanQuery(
                encoder,
                mode="basic",
                secure_aggregation=True,
                shard_size=8,
                dropout=DropoutModel(rate=0.15, jitter=0.0),
            )
            return query.run(population, rng=21)

        est1 = run_with(1)
        est2 = run_with(3)
        np.testing.assert_array_equal(est1.counts, est2.counts)
        assert est1.value == est2.value

    def test_shard_blackout_fault_degrades_not_aborts(self, encoder):
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=8,
            faults=FaultSchedule([FaultEvent(first_round=1, shard_blackout=(0,))]),
        )
        est = query.run(make_population(32), rng=4)
        assert est.metadata["degraded_rounds"] == [True]
        assert est.metadata["surviving_clients"] == [24]
        assert est.metadata["variance_inflation"][0] == pytest.approx(32 / 24)

    def test_all_shards_blacked_out_fails_quorum(self, encoder):
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=8,
            faults=FaultSchedule(
                [FaultEvent(first_round=1, shard_blackout=(0, 1))]
            ),
        )
        with pytest.raises(RoundFailedError):
            query.run(make_population(16), rng=4)

    def test_meter_records_only_included_clients(self, encoder):
        meter = BitMeter(max_bits_per_value=1)
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=8,
            meter=meter,
            faults=FaultSchedule([FaultEvent(first_round=1, shard_blackout=(1,))]),
        )
        query.run(make_population(24), rng=5)
        # Shard 1's clients (ids 8..15) disclosed nothing: their masked rows
        # were never unmasked.
        included = set(range(8)) | set(range(16, 24))
        for cid in range(24):
            expected = 1 if cid in included else 0
            assert meter.bits_disclosed_by(cid) == expected, cid

    def test_shard_failure_health_rule_fires_and_resolves(self, encoder):
        registry = MetricsRegistry()
        monitor = HealthMonitor(rules=[ShardFailureRule(window=2)], metrics=registry)
        population = make_population(32)
        # Adaptive mode runs two rounds: round 1 is the clean baseline
        # for the counter-delta window, round 2 blacks out shard 0.
        faulty = FederatedMeanQuery(
            encoder,
            mode="adaptive",
            secure_aggregation=True,
            shard_size=8,
            faults=FaultSchedule([FaultEvent(first_round=2, shard_blackout=(0,))]),
        )
        clean = FederatedMeanQuery(
            encoder, mode="adaptive", secure_aggregation=True, shard_size=8
        )
        with instrumented(Tracer([monitor]), registry):
            faulty.run(population, rng=6)  # fires on round 2
            clean.run(population, rng=7)  # two clean rounds push it out
        states = [(e.rule, e.state) for e in monitor.events]
        assert ("shard-failure", "fired") in states
        assert ("shard-failure", "resolved") in states

    def test_bool_rows_mask_in_20_bytes_per_client(self):
        # 10-bit values: 20 counters per client, one byte each in the 8-bit ring.
        encoder = FixedPointEncoder.for_integers(10)
        exporter = InMemoryExporter()
        registry = MetricsRegistry()
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=32,
            dropout=DropoutModel(rate=0.1, jitter=0.0),
        )
        with instrumented(Tracer([exporter]), registry):
            query.run(make_population(100), rng=2)
        (span,) = exporter.find("round.secure_agg")
        assert span.attributes["masked_bytes_per_client"] == 20
        submitters = sum(s.attributes["submitted"] for s in exporter.find("shard.session"))
        assert {s.attributes["ring_bits"] for s in exporter.find("shard.session")} == {8}
        masked = registry.snapshot()["counters"]["secure_agg_masked_bytes_total"]
        assert masked == 20 * submitters
