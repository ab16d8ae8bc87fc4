"""Served-round integration tests: server + fleet over real loopback sockets.

The acceptance criterion lives here: a lossless served round on a fixed seed
is bit-identical to the equivalent in-process ``FederatedMeanQuery`` round,
and lossy/LDP/adversarial rounds match their deterministic
:func:`in_process_estimate` twin.  Every malformed uplink must be rejected
with ``wire_rejects_total`` accounting and never folded into the estimate.
"""

import asyncio
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import run_fleet_command, run_serve_command
from repro.core import FixedPointEncoder
from repro.core.protocol import bit_means_from_stats
from repro.core.sampling import central_assignment
from repro.core.squashing import squash_bit_means
from repro.exceptions import ConfigurationError, RoundFailedError
from repro.federated import (
    ClientBatch,
    ClientDevice,
    ClientFleet,
    EmulationProfile,
    FederatedMeanQuery,
    RetryPolicy,
    RoundServer,
    ServeConfig,
    fleet_values,
    in_process_estimate,
    round_trace_id,
    run_loopback,
)
from repro.federated import fleet as fleet_module
from repro.federated import serve as serve_module
from repro.federated.client import BitReport
from repro.federated.fleet import fleet_ranges, read_message
from repro.federated.rounds import run_to_completion
from repro.federated.serve import twin_transport
from repro.federated.wire import (
    MSG_ABORT,
    MSG_ANNOUNCE,
    MSG_HELLO,
    MSG_REPORTS,
    MSG_RESULT,
    REPORT_SIZE,
    decode_report,
    encode_message,
    encode_report,
    encode_telemetry,
)
from repro.observability import (
    InMemoryExporter,
    MetricsRegistry,
    ObservedRun,
    Tracer,
    build_report,
    instrumented,
    load_run,
)
from repro.privacy import BitMeter, PrivacyAccountant, RandomizedResponse
from repro.rng import ensure_rng


class TestLoopbackParity:
    def test_lossless_round_matches_in_process_federated_round(self):
        n = 32
        values = fleet_values(n, seed=3)
        cfg = ServeConfig(n_clients=n, seed=11, deadline_s=10.0, registration_timeout_s=5.0)
        served, fleet = run_loopback(cfg, values, fleet_seed=3)
        assert served.connections == len(fleet_ranges(n))
        assert served.registered_clients == n

        population = [ClientDevice(i, [float(v)]) for i, v in enumerate(values)]
        in_process = FederatedMeanQuery(
            FixedPointEncoder.for_integers(10), mode="basic"
        ).run(population, rng=cfg.seed)
        twin = in_process_estimate(values, cfg, fleet_seed=3)

        assert served.estimate.value == in_process.value
        assert served.estimate.value == twin.value
        assert np.array_equal(served.estimate.counts, twin.counts)
        assert served.attempts == 1
        assert served.surviving_clients == n
        assert served.wire_rejects == 0 and served.late_reports == 0
        assert fleet.uplinks_sent == n and fleet.uplinks_dropped == 0
        assert fleet.estimate == served.estimate.value
        assert len(fleet.results) == n
        assert served.estimate.metadata["served"] is True
        assert served.estimate.metadata["transport"] == "tcp"
        # The port is the result's, not the estimate's; untraced, the
        # collection is still timed on the real clock.
        assert "port" not in served.estimate.metadata and served.port > 0
        assert served.duration_s > 0

    def test_lossy_rr_round_matches_twin(self):
        n = 40
        values = fleet_values(n, seed=5)
        profile = EmulationProfile(loss_rate=0.3, latency_median_s=10.0)
        cfg = ServeConfig(
            n_clients=n,
            epsilon=2.0,
            seed=9,
            deadline_s=0.75,
            registration_timeout_s=5.0,
        )
        served, fleet = run_loopback(cfg, values, profile=profile, fleet_seed=5)
        twin = in_process_estimate(values, cfg, profile=profile, fleet_seed=5)

        assert served.estimate.value == twin.value
        assert fleet.uplinks_sent + fleet.uplinks_dropped == n
        assert fleet.uplinks_dropped > 0
        assert served.surviving_clients == fleet.uplinks_sent
        assert served.wire_rejects == 0
        assert served.estimate.metadata["ldp"] is True

    def test_ldp_round_clips_debiased_bit_means(self):
        # Rebuild the round's counters from the frames the fleet put on the
        # wire (lossless, so every one is accepted), then decode them the
        # way the in-process round does: debias, clip into [0, 1], decode.
        n = 40
        values = fleet_values(n, seed=5)
        cfg = ServeConfig(
            n_clients=n, epsilon=2.0, seed=9, deadline_s=10.0, registration_timeout_s=5.0
        )
        frames = {}

        def capture(cid, attempt, frame):
            frames[cid] = frame
            return frame

        served, _fleet = run_loopback(cfg, values, fleet_seed=5, mutate=capture)
        reports = [decode_report(frame)[0] for frame in frames.values()]
        indices = np.array([r.bit_index for r in reports])
        bits = np.array([r.bit for r in reports], dtype=np.float64)
        counts = np.bincount(indices, minlength=cfg.n_bits)
        sums = np.bincount(indices, weights=bits, minlength=cfg.n_bits)
        debiased = bit_means_from_stats(sums, counts, RandomizedResponse(epsilon=2.0))
        assert ((debiased < 0.0) | (debiased > 1.0)).any()  # the clip matters here

        encoder = cfg.encoder
        clipped = squash_bit_means(debiased, 0.0)[0]
        assert served.surviving_clients == n
        assert np.array_equal(served.estimate.counts, counts)
        assert served.estimate.value == encoder.mean_from_bit_means(clipped)
        assert served.estimate.value != encoder.mean_from_bit_means(debiased)
        assert served.estimate.value == in_process_estimate(values, cfg, fleet_seed=5).value

    def test_retry_recovers_after_total_uplink_loss(self):
        n = 12
        values = fleet_values(n, seed=1)
        cfg = ServeConfig(
            n_clients=n,
            seed=4,
            deadline_s=0.3,
            registration_timeout_s=5.0,
            retry=RetryPolicy(max_attempts=2, redraw_cohort=False),
        )
        served, fleet = run_loopback(
            cfg,
            values,
            fleet_seed=1,
            mutate=lambda cid, attempt, frame: None if attempt == 1 else frame,
        )
        assert served.attempts == 2
        assert served.surviving_clients == n
        assert served.backoff_s == cfg.retry.backoff_s(1)
        assert served.estimate.metadata["attempt_history"] == [[[n, 0], [n, n]]]
        assert fleet.uplinks_dropped == n and fleet.uplinks_sent == n

        # Replay: the second assignment draw from the same server stream.
        gen = ensure_rng(cfg.seed)
        central_assignment(n, cfg.schedule, gen)  # attempt 1, all uplinks lost
        assignment = central_assignment(n, cfg.schedule, gen)
        encoded = cfg.encoder.encode(values)
        bits = ((encoded >> assignment.astype(np.uint64)) & np.uint64(1)).astype(np.float64)
        counts = np.bincount(assignment, minlength=cfg.n_bits).astype(np.int64)
        sums = np.bincount(assignment, weights=bits, minlength=cfg.n_bits)
        means = bit_means_from_stats(sums, counts, None)
        expected = cfg.encoder.decode_scalar(float(cfg.encoder.powers @ means))
        assert served.estimate.value == expected

    def test_quorum_failure_aborts_and_fleet_sees_abort(self):
        n = 6
        values = fleet_values(n, seed=2)
        cfg = ServeConfig(
            n_clients=n, seed=0, deadline_s=0.3, registration_timeout_s=5.0, min_quorum=2
        )

        async def scenario():
            server = RoundServer(cfg)
            port = await server.start()
            fleet = ClientFleet(values, seed=2, mutate=lambda cid, attempt, frame: None)
            task = asyncio.create_task(fleet.run(cfg.host, port))
            with pytest.raises(RoundFailedError, match="every client dropped"):
                await server.serve_round()
            result = await task
            await server.close()
            return result

        fleet_result = asyncio.run(scenario())
        assert fleet_result.aborted
        assert fleet_result.estimate is None
        assert fleet_result.uplinks_dropped == n

        with pytest.raises(RoundFailedError, match="every client dropped"):
            in_process_estimate(values, cfg, fleet_seed=2, corrupted=range(n))


class TestInProcessTwin:
    """The twin runs the fleet's client code over one in-memory range."""

    def test_lossless_twin_builds_no_client_generator(self, monkeypatch):
        def refuse(seed, client_id):
            raise AssertionError("a lossless twin draws nothing client-side")

        monkeypatch.setattr(serve_module, "client_generator", refuse)
        values = fleet_values(300, seed=4)
        cfg = ServeConfig(n_clients=300, seed=9)
        population = [ClientDevice(i, [v]) for i, v in enumerate(values)]
        reference = FederatedMeanQuery(cfg.encoder, mode="basic", schedule=cfg.schedule).run(
            population, rng=cfg.seed
        )
        assert in_process_estimate(values, cfg, fleet_seed=4).value == reference.value

    @pytest.mark.parametrize(
        "epsilon, profile", [(1.0, None), (None, EmulationProfile(loss_rate=0.2))]
    )
    def test_drawing_twin_builds_one_generator_per_client(self, monkeypatch, epsilon, profile):
        built = []

        def counting(seed, client_id):
            built.append(client_id)
            return fleet_module.client_generator(seed, client_id)

        monkeypatch.setattr(serve_module, "client_generator", counting)
        cfg = ServeConfig(n_clients=50, seed=9, epsilon=epsilon)
        in_process_estimate(fleet_values(50, seed=4), cfg, profile, fleet_seed=4)
        assert built == list(range(50))

    def test_draws_replay_each_clients_own_stream(self):
        # Per client: randomized response, then the uplink's loss draw, both
        # from the client's own generator, across retried attempts too.
        n = 60
        values = fleet_values(n, seed=3)
        profile = EmulationProfile(loss_rate=0.4)
        cfg = ServeConfig(
            n_clients=n, seed=2, epsilon=1.0, min_quorum=40,
            retry=RetryPolicy(max_attempts=4, redraw_cohort=False),
        )
        twin = in_process_estimate(values, cfg, profile, fleet_seed=6)

        gen = ensure_rng(cfg.seed)
        gens = [fleet_module.client_generator(6, i) for i in range(n)]
        rr = RandomizedResponse(epsilon=1.0)
        encoded = cfg.encoder.encode(values)
        attempts = 0
        while True:
            attempts += 1
            assignment = central_assignment(n, cfg.schedule, gen)
            delivered = []
            for i, client_gen in enumerate(gens):
                bit = (int(encoded[i]) >> int(assignment[i])) & 1
                bit = int(rr.perturb_bits(np.array([bit], dtype=np.uint8), client_gen)[0])
                if profile.draw(client_gen)[0]:
                    delivered.append((int(assignment[i]), bit))
            if len(delivered) >= cfg.min_quorum:
                break
        assert attempts > 1  # the stream carries across a retry
        assert twin.metadata["round_attempts"] == [attempts]
        index, bits = np.array(delivered).T
        counts = np.bincount(index, minlength=cfg.n_bits)
        sums = np.bincount(index, weights=bits, minlength=cfg.n_bits)
        means, _ = squash_bit_means(
            bit_means_from_stats(sums, counts, rr), 0.0, clip_to_unit=True
        )
        assert twin.value == cfg.encoder.decode_scalar(float(cfg.encoder.powers @ means))

    @pytest.mark.parametrize("n", [2_000, 100_000])
    @pytest.mark.parametrize("mode", ["basic", "adaptive"])
    def test_twin_transport_runs_either_plan_like_the_in_memory_query(self, mode, n):
        # Lossless and without epsilon, no client draws: the twin's clients
        # under either plan report exactly what in-memory clients do.
        values = fleet_values(n, seed=4)
        cfg = ServeConfig(n_clients=n, seed=9)
        twin, outcomes = run_to_completion(
            FederatedMeanQuery(cfg.encoder, mode=mode).drive(
                np.arange(n), ensure_rng(cfg.seed), twin_transport(values, cfg, fleet_seed=4)
            )
        )
        reference = FederatedMeanQuery(cfg.encoder, mode=mode).run(
            ClientBatch.from_values(values), rng=cfg.seed
        )
        assert len(outcomes) == len(reference.rounds) == (1 if mode == "basic" else 2)
        assert twin.value == reference.value
        assert np.array_equal(twin.bit_means, reference.bit_means)
        assert np.array_equal(twin.counts, reference.counts)
        for ours, theirs in zip(twin.rounds, reference.rounds):
            assert np.array_equal(ours.counts, theirs.counts)
            assert np.array_equal(ours.bit_means, theirs.bit_means)

    def test_corrupted_ids_outside_the_cohort_are_ignored(self):
        values = fleet_values(20, seed=1)
        cfg = ServeConfig(n_clients=20, seed=3)
        clean = in_process_estimate(values, cfg, fleet_seed=1)
        # -1 must not wrap onto the last client, nor 20 fail to index.
        ignored = in_process_estimate(values, cfg, fleet_seed=1, corrupted=[-1, 20, 99])
        assert ignored.value == clean.value
        assert int(ignored.counts.sum()) == 20
        last = in_process_estimate(values, cfg, fleet_seed=1, corrupted=[19, -1])
        assert int(last.counts.sum()) == 19

    def test_hundred_thousand_client_twin_is_pinned(self):
        # The estimate the two-process served smoke pins (serve --seed 5,
        # fleet --seed 2).
        twin = in_process_estimate(
            fleet_values(100_000, 2), ServeConfig(n_clients=100_000, seed=5), fleet_seed=2
        )
        assert twin.value == 598.4426550231725

    def test_profile_draw_replays_network_transmit(self):
        profile = EmulationProfile(loss_rate=0.3, latency_median_s=20.0)
        for i in range(200):
            drawn = fleet_module.client_generator(5, i)
            sent = fleet_module.client_generator(5, i)
            outcome = profile.network.transmit(1, sent)
            fate = (bool(outcome.delivered[0]), float(outcome.latencies_s[0]))
            assert profile.draw(drawn) == fate
            assert drawn.random() == sent.random()  # both streams advanced alike

    def test_emulated_uplinks_record_no_network_telemetry(self):
        # A client's loss draw happens on the client: a loopback round
        # records what a two-process round does, with no network.transmit
        # span and no network_* metric on the server's side.
        n = 16
        cfg = ServeConfig(n_clients=n, seed=1, deadline_s=0.3, registration_timeout_s=5.0)
        memory, registry = InMemoryExporter(), MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            served, fleet = run_loopback(
                cfg, fleet_values(n, seed=2), profile=EmulationProfile(loss_rate=0.2), fleet_seed=2
            )
        assert fleet.uplinks_dropped > 0 and served.surviving_clients == fleet.uplinks_sent
        assert "network.transmit" not in {r.name for r in memory.records}
        snapshot = registry.snapshot()
        names = [name for instruments in snapshot.values() for name in instruments]
        assert not [name for name in names if name.startswith("network_")]


class TestOneRoundVocabulary:
    """The query, the server and the twin record one round core's phases."""

    N = 16
    CONFIG = ServeConfig(n_clients=N, seed=11, deadline_s=10.0, registration_timeout_s=5.0)

    def _query(self):
        values = fleet_values(self.N, seed=3)
        population = [ClientDevice(i, [float(v)]) for i, v in enumerate(values)]
        query = FederatedMeanQuery(self.CONFIG.encoder, mode="basic", schedule=self.CONFIG.schedule)
        return query.run(population, rng=self.CONFIG.seed).metadata["round_attempts"][0]

    def _served(self):
        served, _ = run_loopback(self.CONFIG, fleet_values(self.N, seed=3), fleet_seed=3)
        return served.attempts

    def _twin(self):
        twin = in_process_estimate(fleet_values(self.N, seed=3), self.CONFIG, fleet_seed=3)
        return twin.metadata["round_attempts"][0]

    def _retried_twin(self):
        # test_draws_replay_each_clients_own_stream's round: more than one attempt.
        cfg = ServeConfig(
            n_clients=60, seed=2, epsilon=1.0, min_quorum=40,
            retry=RetryPolicy(max_attempts=4, redraw_cohort=False),
        )
        twin = in_process_estimate(
            fleet_values(60, seed=3), cfg, EmulationProfile(loss_rate=0.4), fleet_seed=6
        )
        return twin.metadata["round_attempts"][0]

    @pytest.mark.parametrize("run_round", ["_query", "_served", "_twin", "_retried_twin"])
    def test_every_round_path_records_the_round_core_spans(self, run_round):
        memory, registry = InMemoryExporter(), MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            attempts = getattr(self, run_round)()
        names = [r.name for r in memory.records]
        assert {"federated.round", "round.assign", "federated.reconstruct"} <= set(names)
        assert not {"serve.round", "serve.reconstruct"} & set(names)
        assert names.count("federated.round") == names.count("round.assign") == attempts
        assert names.count("round.retry") == attempts - 1
        assert registry.snapshot()["counters"]["round_attempts_total"] == attempts

    def test_recorded_served_retry_reports_every_attempt(self, tmp_path):
        # test_retry_recovers_after_total_uplink_loss's round, recorded.
        n = 12
        cfg = ServeConfig(
            n_clients=n, seed=4, deadline_s=0.3, registration_timeout_s=5.0,
            retry=RetryPolicy(max_attempts=2, redraw_cohort=False),
        )
        with ObservedRun(record_dir=tmp_path, config=cfg.to_manifest(), seed=cfg.seed) as run:
            served, _ = run_loopback(
                cfg, fleet_values(n, seed=1), fleet_seed=1,
                mutate=lambda cid, attempt, frame: None if attempt == 1 else frame,
            )
        run.finalize(estimate=served.estimate, accountant=served.accountant, meter=served.meter)
        recovery = build_report(load_run(tmp_path))["recovery"]
        assert [(e["kind"], e["attempt"]) for e in recovery] == [
            ("failed", 1), ("retry", 1), ("completed", 2)
        ]
        assert recovery[2]["detail"] == f"{n}/{n} survivors"


class TestUplinkRejection:
    def test_adversarial_uplinks_are_rejected_with_accounting(self):
        registry = MetricsRegistry()
        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), registry):
            served = asyncio.run(self._adversarial_scenario())

        assert served.surviving_clients == 1
        assert served.wire_rejects == 5
        assert served.late_reports == 1
        counters = registry.snapshot()["counters"]
        assert counters["wire_rejects_total"] == 5.0
        assert counters["serve_late_reports_total"] == 1.0
        reasons = sorted(
            r.attributes["reason"] for r in memory.records if r.name == "uplink.reject"
        )
        assert reasons == [
            "assignment-mismatch",
            "duplicate",
            "flag-mismatch",
            "spoofed-id",
            "unexpected-kind",
        ]
        assert any(r.name == "uplink.late" for r in memory.records)
        assert any(r.name == "uplink.drain" for r in memory.records)
        # Post-registration rejects and late reports are attributable: each
        # span names the offending connection's peer address and session id.
        attributed = [
            r for r in memory.records if r.name in ("uplink.reject", "uplink.late")
        ]
        assert attributed
        for record in attributed:
            assert record.attributes["peer"] == "127.0.0.1"
            assert isinstance(record.attributes["session"], int)

    async def _adversarial_scenario(self):
        cfg = ServeConfig(n_clients=2, seed=6, deadline_s=0.5, registration_timeout_s=5.0)
        values = fleet_values(2, seed=0)
        server = RoundServer(cfg)
        port = await server.start()

        async def hello(client_id):
            reader, writer = await asyncio.open_connection(cfg.host, port)
            writer.write(
                encode_message(MSG_HELLO, json.dumps({"client_id": client_id}).encode())
            )
            await writer.drain()
            return reader, writer

        def frame_for(owner, announce, **overrides):
            encoded = cfg.encoder.encode(np.asarray([values[owner]]))
            bit_index = overrides.get("bit_index", int(announce["bit_index"]))
            bit = int((encoded[0] >> np.uint64(int(announce["bit_index"]))) & np.uint64(1))
            report = BitReport(
                client_id=overrides.get("client_id", owner),
                bit_index=bit_index,
                bit=bit,
            )
            return encode_report(report, overrides.get("rr", False))

        async def honest_but_duplicated():
            reader, writer = await hello(0)
            kind, seq, payload = await read_message(reader)
            assert kind == MSG_ANNOUNCE
            announce = json.loads(payload)
            frame = frame_for(0, announce)
            for _ in range(2):  # the second is a "duplicate" reject
                writer.write(encode_message(MSG_REPORTS, frame, seq=seq))
                await writer.drain()
            kind, _seq, _payload = await read_message(reader)
            writer.close()
            return kind

        async def adversary():
            reader, writer = await hello(1)
            kind, seq, payload = await read_message(reader)
            assert kind == MSG_ANNOUNCE
            announce = json.loads(payload)
            bad_uplinks = [
                # late: stale attempt number
                encode_message(MSG_REPORTS, frame_for(1, announce), seq=7),
                # spoofed-id: frame claims a different client
                encode_message(MSG_REPORTS, frame_for(1, announce, client_id=5), seq=seq),
                # assignment-mismatch: reports an unassigned bit
                encode_message(
                    MSG_REPORTS,
                    frame_for(
                        1, announce, bit_index=(int(announce["bit_index"]) + 1) % 10
                    ),
                    seq=seq,
                ),
                # flag-mismatch: RR flag on a non-LDP round
                encode_message(MSG_REPORTS, frame_for(1, announce, rr=True), seq=seq),
                # unexpected-kind: a client must never send RESULT
                encode_message(MSG_RESULT, b"{}", seq=seq),
            ]
            for message in bad_uplinks:
                writer.write(message)
                await writer.drain()
            kind, _seq, _payload = await read_message(reader)
            writer.close()
            return kind

        clients = asyncio.gather(honest_but_duplicated(), adversary())
        served = await server.serve_round()
        kinds = await clients
        await server.close()
        assert kinds == [MSG_RESULT, MSG_RESULT]
        return served

    def test_bad_hellos_rejected_before_registration(self):
        async def scenario():
            cfg = ServeConfig(
                n_clients=1, seed=0, deadline_s=5.0, registration_timeout_s=5.0
            )
            server = RoundServer(cfg)
            port = await server.start()
            bad_first_messages = [
                encode_message(MSG_RESULT, b"{}"),  # not a HELLO
                encode_message(MSG_HELLO, b"not json"),  # unparsable payload
                encode_message(MSG_HELLO, json.dumps({"client_id": 99}).encode()),
                encode_message(MSG_HELLO, b'{"client_id": 1e400}'),  # reads as inf
            ]
            writers = []
            for message in bad_first_messages:
                _reader, writer = await asyncio.open_connection(cfg.host, port)
                writer.write(message)
                await writer.drain()
                writers.append(writer)
            await asyncio.sleep(0.05)
            fleet = ClientFleet(fleet_values(1, seed=0), seed=0)
            task = asyncio.create_task(fleet.run(cfg.host, port))
            served = await server.serve_round()
            await task
            for writer in writers:
                writer.close()
            await server.close()
            return served

        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            served = asyncio.run(scenario())
        assert served.wire_rejects == 4
        assert served.surviving_clients == 1
        reasons = [r.attributes["reason"] for r in memory.records if r.name == "uplink.reject"]
        assert sorted(reasons) == ["hello", "hello", "hello", "hello-id-range"]

    def test_a_connection_of_bad_frames_writes_one_span_per_reason(self):
        # 10**4 clients on 8 connections; the fourth breaks the magic of its
        # even ids' frames and sets the randomized-response flag on its odd
        # ids', all in its one REPORTS message.
        n = 10_000
        lo, hi = fleet_ranges(n)[3]
        values = fleet_values(n, seed=4)
        cfg = ServeConfig(n_clients=n, seed=8, deadline_s=10.0, registration_timeout_s=10.0)

        def corrupt(cid, attempt, frame):
            if not lo <= cid < hi:
                return frame
            if cid % 2 == 0:
                return b"\x00" + frame[1:]
            return frame[:7] + bytes([frame[7] | 1]) + frame[8:]

        memory, registry = InMemoryExporter(), MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            served, _fleet = run_loopback(cfg, values, fleet_seed=4, mutate=corrupt)
        rejects = [r for r in memory.records if r.name == "uplink.reject"]
        assert [(r.attributes["reason"], r.attributes["frames"]) for r in rejects] == [
            ("frame", (hi - lo) // 2), ("flag-mismatch", (hi - lo) // 2),
        ]
        assert [r.attributes["client"] for r in rejects] == [lo, lo + 1]
        assert "magic" in rejects[0].attributes["detail"]
        assert len({r.attributes["session"] for r in rejects}) == 1
        assert sum(r.attributes["frames"] for r in rejects) == served.wire_rejects == hi - lo
        assert registry.snapshot()["counters"]["wire_rejects_total"] == hi - lo
        assert served.surviving_clients == n - (hi - lo)
        twin = in_process_estimate(values, cfg, fleet_seed=4, corrupted=range(lo, hi))
        assert served.estimate.value == twin.value


class TestSilentConnection:
    @pytest.mark.parametrize("fleet_size", [2, 1])
    def test_silent_peer_is_closed_when_registration_ends(self, fleet_size):
        # fleet_size 2 ends the window early (everyone registered); 1 runs
        # it to its timeout.  Either way the silent peer is cut off, the
        # round completes, and close() returns promptly.
        cfg = ServeConfig(n_clients=2, seed=0, deadline_s=5.0, registration_timeout_s=0.5)

        async def scenario():
            server = RoundServer(cfg)
            port = await server.start()
            silent_reader, silent_writer = await asyncio.open_connection(cfg.host, port)
            await asyncio.sleep(0.05)  # accepted before the fleet shows up
            fleet = ClientFleet(fleet_values(fleet_size, seed=0), seed=0)
            task = asyncio.create_task(fleet.run(cfg.host, port))
            served = await server.serve_round()
            await task
            loop = asyncio.get_running_loop()
            start = loop.time()
            await asyncio.wait_for(server.close(), 2.0)
            close_s = loop.time() - start
            eof = await asyncio.wait_for(silent_reader.read(), 2.0)
            silent_writer.close()
            return served, close_s, eof

        registry = MetricsRegistry()
        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), registry):
            served, close_s, eof = asyncio.run(scenario())
        assert served.surviving_clients == fleet_size
        assert close_s < 2.0
        assert eof == b""
        assert served.wire_rejects == 1
        assert registry.snapshot()["counters"]["wire_rejects_total"] == 1.0
        (reject,) = [r for r in memory.records if r.name == "uplink.reject"]
        assert reject.attributes["reason"] == "hello-timeout"
        assert reject.attributes["peer"] == "127.0.0.1"

    def test_connection_after_the_window_is_rejected(self):
        # Nobody registers in the window, so the round fails; a connection
        # opened afterwards sends a HELLO for clients 0-1 and is turned away.
        cfg = ServeConfig(n_clients=2, seed=0, deadline_s=5.0, registration_timeout_s=0.2)

        async def scenario():
            server = RoundServer(cfg)
            port = await server.start()
            with pytest.raises(RoundFailedError):
                await server.serve_round()
            reader, writer = await asyncio.open_connection(cfg.host, port)
            hello = json.dumps({"client_id": 0, "clients": 2}).encode()
            try:
                writer.write(encode_message(MSG_HELLO, hello))
                await writer.drain()
                closed = await asyncio.wait_for(reader.read(), 2.0) == b""
            except ConnectionError:  # closed with the HELLO unread: a reset
                closed = True
            writer.close()
            await server.close()
            return server, closed

        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            server, closed = asyncio.run(scenario())
        assert closed
        assert server._registered == 0 and server._rejects == 1
        (reject,) = [r for r in memory.records if r.name == "uplink.reject"]
        assert reject.attributes["reason"] == "hello-timeout"
        assert reject.attributes["peer"] == "127.0.0.1"


class TestRecordedServedRoundSize:
    @staticmethod
    def _longest_list_attribute(record_dir: Path, n: int) -> int:
        cfg = ServeConfig(n_clients=n, seed=5, deadline_s=30.0, registration_timeout_s=30.0)
        with ObservedRun(
            record_dir / "trace.jsonl", record_dir / "run", config=cfg.to_manifest(),
            seed=cfg.seed, profile=True,
        ) as run:
            served, _ = run_loopback(cfg, fleet_values(n, seed=2), fleet_seed=2)
        run.finalize(estimate=served.estimate, accountant=served.accountant, meter=served.meter)
        return max(
            (
                len(value)
                for span in load_run(record_dir / "run").spans()
                for value in span.attributes.values()
                if isinstance(value, list)
            ),
            default=0,
        )

    def test_no_span_attribute_grows_with_the_cohort(self, tmp_path):
        small = self._longest_list_attribute(tmp_path / "small", 1_000)
        large = self._longest_list_attribute(tmp_path / "large", 10_000)
        assert large == small


class TestServedPrivacyAccounting:
    def test_ledger_and_meter_match_the_in_process_round(self):
        n = 24
        values = fleet_values(n, seed=7)
        cfg = ServeConfig(
            n_clients=n, epsilon=2.0, seed=13, deadline_s=10.0, registration_timeout_s=5.0
        )
        served, _fleet = run_loopback(cfg, values, fleet_seed=7)

        accountant = PrivacyAccountant()
        meter = BitMeter(max_bits_per_value=1)
        FederatedMeanQuery(
            cfg.encoder,
            mode="basic",
            perturbation=RandomizedResponse(2.0),
            accountant=accountant,
            meter=meter,
        ).run([ClientDevice(i, [float(v)]) for i, v in enumerate(values)], rng=cfg.seed)

        def ledger(books):
            return [(entry.epsilon, entry.note) for entry in books.entries]

        assert ledger(served.accountant) == ledger(accountant)
        assert ledger(accountant) == [
            (2.0, f"round 1 attempt 1: randomized response over {n} reports")
        ]
        disclosed = [served.meter.bits_disclosed_for(i, "metric") for i in range(n)]
        assert disclosed == [meter.bits_disclosed_for(i, "metric") for i in range(n)]
        assert disclosed == [1] * n

    def test_retried_round_spends_epsilon_once(self):
        n = 10
        cfg = ServeConfig(
            n_clients=n,
            epsilon=2.0,
            seed=4,
            deadline_s=0.3,
            registration_timeout_s=5.0,
            retry=RetryPolicy(max_attempts=2, redraw_cohort=False),
        )
        served, _fleet = run_loopback(
            cfg,
            fleet_values(n, seed=1),
            fleet_seed=1,
            mutate=lambda cid, attempt, frame: None if attempt == 1 else frame,
        )
        assert served.attempts == 2
        assert served.accountant.spent_epsilon == 2.0
        assert [entry.note for entry in served.accountant.entries] == [
            f"round 1 attempt 2: randomized response over {n} reports"
        ]
        assert served.meter.total_bits == n


@pytest.fixture
def ranges_of_one(monkeypatch):
    """Every fleet connection speaks for one client: the one-device protocol shape."""
    monkeypatch.setattr(fleet_module, "FLEET_CONNECTIONS", 10**6)


@pytest.mark.usefixtures("ranges_of_one")
class TestLoopbackParityRangesOfOne(TestLoopbackParity):
    """:class:`TestLoopbackParity` with one client per fleet connection."""


@pytest.mark.usefixtures("ranges_of_one")
class TestServedPrivacyAccountingRangesOfOne(TestServedPrivacyAccounting):
    """:class:`TestServedPrivacyAccounting` with one client per fleet connection."""


def _undecodable(data: bytes) -> bytes:
    """Make arbitrary bytes guaranteed-invalid as a report frame."""
    if len(data) != REPORT_SIZE:
        return data  # wrong size is rejected before decoding
    return b"\x00" + data[1:]  # can never carry the frame magic


def _rejects_for(payload: bytes, k: int) -> int:
    """Rejects one garbage uplink earns on a range of ``k`` clients.

    A payload of 1 to ``k`` whole frames is checked frame by frame (every
    frame here is undecodable); any other size is one ``frame-size`` reject.
    """
    frames, partial = divmod(len(payload), REPORT_SIZE)
    return frames if not partial and 1 <= frames <= k else 1


def _fuzzed_round(data) -> None:
    """Garbage uplinks from a drawn set of clients never break the round."""
    n = 8
    corrupted = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n - 1)
    )
    garbage = {
        cid: data.draw(st.binary(max_size=3 * REPORT_SIZE).map(_undecodable))
        for cid in sorted(corrupted)
    }
    values = fleet_values(n, seed=13)
    cfg = ServeConfig(n_clients=n, seed=21, deadline_s=0.4, registration_timeout_s=5.0)
    registry = MetricsRegistry()
    memory = InMemoryExporter()
    with instrumented(Tracer([memory]), registry):
        served, fleet = run_loopback(
            cfg,
            values,
            fleet_seed=13,
            mutate=lambda cid, attempt, frame: garbage.get(cid, frame),
        )
    twin = in_process_estimate(values, cfg, fleet_seed=13, corrupted=corrupted)
    range_size = {c: hi - lo for lo, hi in fleet_ranges(n) for c in range(lo, hi)}
    expected = sum(_rejects_for(garbage[cid], range_size[cid]) for cid in corrupted)

    assert served.estimate.value == twin.value
    assert served.surviving_clients == n - len(corrupted)
    assert served.wire_rejects == expected
    counters = registry.snapshot()["counters"]
    assert counters["wire_rejects_total"] == float(expected)
    rejects = [r for r in memory.records if r.name == "uplink.reject"]
    # One span per message and reason: a message of several bad frames is one.
    assert sum(r.attributes["frames"] for r in rejects) == expected
    assert len(rejects) <= expected
    assert {r.attributes["reason"] for r in rejects} <= {"frame", "frame-size"}
    assert fleet.uplinks_sent == n


class TestFuzzedServedRound:
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_fuzzed_uplinks_never_break_the_round(self, data):
        _fuzzed_round(data)


@pytest.fixture
def ranges_of_four(monkeypatch):
    """The fuzzed fleet of 8 on two connections of four clients."""
    monkeypatch.setattr(fleet_module, "FLEET_CONNECTIONS", 2)


@pytest.mark.usefixtures("ranges_of_four")
class TestFuzzedServedRoundOnRanges:
    """:class:`TestFuzzedServedRound` on ranges of four clients.

    Its fleet of 8 runs one client per connection by default, so this is the
    shape where whole-frame garbage shares its range's message.
    """

    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_fuzzed_uplinks_never_break_the_round(self, data):
        _fuzzed_round(data)


async def _wait_for_port(port_file: Path, timeout_s: float = 10.0) -> int:
    """Poll a ``--port-file`` rendezvous path from inside an event loop."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        await asyncio.sleep(0.02)
    raise TimeoutError(f"no port appeared in {port_file}")  # pragma: no cover


async def _plain_client(host: str, port: int, client_id: int, value: float):
    """A span-free wire client for threaded CLI tests.

    The serve command installs a process-*global* tracer, so a background
    fleet thread must not emit spans of its own -- they would race the
    command's exporter teardown in a way two separate processes never do.
    """
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(encode_message(MSG_HELLO, json.dumps({"client_id": client_id}).encode()))
    await writer.drain()
    estimate = None
    try:
        while True:
            kind, seq, payload = await read_message(reader)
            if kind == MSG_RESULT:
                estimate = float(json.loads(payload)["estimate"])
                break
            if kind == MSG_ABORT:
                break
            if kind != MSG_ANNOUNCE:
                continue
            announce = json.loads(payload)
            encoder = FixedPointEncoder(
                n_bits=int(announce["n_bits"]),
                scale=float(announce["scale"]),
                offset=float(announce["offset"]),
            )
            encoded = encoder.encode(np.asarray([value]))
            bit_index = int(announce["bit_index"])
            bit = int((encoded[0] >> np.uint64(bit_index)) & np.uint64(1))
            frame = encode_report(BitReport(client_id=client_id, bit_index=bit_index, bit=bit))
            writer.write(encode_message(MSG_REPORTS, frame, seq=seq))
            await writer.drain()
    finally:
        writer.close()
    return estimate


class TestServeCli:
    def test_serve_command_records_standard_artifact(self, tmp_path):
        port_file = tmp_path / "port"
        record_dir = tmp_path / "run"
        trace_path = tmp_path / "trace.jsonl"
        values = fleet_values(5, 3)
        outcome = {}

        def fleet_thread():
            async def run():
                port = await _wait_for_port(port_file)
                return await asyncio.gather(
                    *(
                        _plain_client("127.0.0.1", port, i, float(v))
                        for i, v in enumerate(values)
                    )
                )

            outcome["estimates"] = asyncio.run(run())

        thread = threading.Thread(target=fleet_thread)
        thread.start()
        serve_out = io.StringIO()
        code = run_serve_command(
            clients=5,
            seed=3,
            deadline_s=10.0,
            registration_timeout_s=10.0,
            port_file=str(port_file),
            record_dir=str(record_dir),
            out_path=str(trace_path),
            as_json=True,
            stream=serve_out,
            error_stream=serve_out,
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert code == 0

        payload = json.loads(serve_out.getvalue())
        twin = in_process_estimate(
            values,
            ServeConfig(
                n_clients=5, seed=3, deadline_s=10.0, registration_timeout_s=10.0
            ),
        )
        assert payload["estimate"] == twin.value
        assert outcome["estimates"] == [twin.value] * 5

        # The artifact has the standard flight-recorder shape.
        artifact = load_run(record_dir)
        assert artifact.manifest["config"]["command"] == "serve"
        assert artifact.manifest["estimate"]["value"] == twin.value
        trace = trace_path.read_text()
        assert "serve.session" in trace and "serve.collect" in trace

    def test_serve_command_records_the_privacy_books(self, tmp_path):
        port_file = tmp_path / "port"
        record_dir = tmp_path / "run"
        values = fleet_values(4, 1)

        def fleet_thread():
            async def run():
                port = await _wait_for_port(port_file)
                return await asyncio.gather(
                    *(_plain_client("127.0.0.1", port, i, float(v)) for i, v in enumerate(values))
                )

            asyncio.run(run())

        thread = threading.Thread(target=fleet_thread)
        thread.start()
        code = run_serve_command(
            clients=4,
            seed=2,
            deadline_s=10.0,
            registration_timeout_s=10.0,
            port_file=str(port_file),
            record_dir=str(record_dir),
            stream=io.StringIO(),
            error_stream=io.StringIO(),
        )
        thread.join(timeout=30)
        assert code == 0
        manifest = load_run(record_dir).manifest
        # Not an LDP round: nothing spent, but every accepted bit is metered.
        assert manifest["privacy"]["epsilon_spent"] == 0.0
        assert manifest["privacy"]["ledger"] == []
        assert manifest["bit_meter"]["total_bits"] == 4
        assert manifest["bit_meter"]["max_bits_per_value"] == 1

    def test_fleet_command_against_a_plain_server(self, tmp_path):
        port_file = tmp_path / "port"
        cfg = ServeConfig(
            n_clients=4, seed=8, deadline_s=10.0, registration_timeout_s=10.0
        )
        outcome = {}

        def server_thread():
            async def run():
                server = RoundServer(cfg)
                port = await server.start()
                port_file.write_text(f"{port}\n")
                try:
                    return await server.serve_round()
                finally:
                    await server.close()

            outcome["served"] = asyncio.run(run())

        thread = threading.Thread(target=server_thread)
        thread.start()
        fleet_out = io.StringIO()
        code = run_fleet_command(
            clients=4,
            port_file=str(port_file),
            seed=6,
            as_json=True,
            stream=fleet_out,
            error_stream=fleet_out,
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert code == 0
        twin = in_process_estimate(fleet_values(4, 6), cfg, fleet_seed=6)
        assert json.loads(fleet_out.getvalue())["estimate"] == twin.value
        assert outcome["served"].estimate.value == twin.value

    def test_fleet_command_requires_a_port(self):
        err = io.StringIO()
        code = run_fleet_command(
            clients=2, port=None, port_file=None, stream=io.StringIO(), error_stream=err
        )
        assert code == 2
        assert "needs --port or --port-file" in err.getvalue()

    def test_serve_command_exit_1_on_quorum_failure(self, tmp_path):
        err = io.StringIO()
        outcome = {}
        port_file = tmp_path / "port"

        def serve():
            outcome["code"] = run_serve_command(
                clients=3,
                seed=0,
                deadline_s=0.3,
                registration_timeout_s=10.0,
                min_quorum=2,
                port_file=str(port_file),
                stream=io.StringIO(),
                error_stream=err,
            )

        thread = threading.Thread(target=serve)
        thread.start()
        values = fleet_values(3, 0)

        async def silent_fleet():
            fleet = ClientFleet(values, seed=0, mutate=lambda cid, attempt, frame: None)
            port = None
            while port is None:
                await asyncio.sleep(0.02)
                if port_file.exists() and port_file.read_text().strip():
                    port = int(port_file.read_text().strip())
            return await fleet.run("127.0.0.1", port)

        result = asyncio.run(silent_fleet())
        thread.join(timeout=30)
        assert outcome["code"] == 1
        assert "round failed" in err.getvalue()
        assert result.aborted

    def test_two_process_loopback_round(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        port_file = tmp_path / "port"
        serve = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--clients", "4", "--seed", "5", "--deadline-s", "10",
                "--registration-timeout-s", "15",
                "--port-file", str(port_file), "--json",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            fleet = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "fleet",
                    "--clients", "4", "--seed", "2",
                    "--port-file", str(port_file), "--json",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            out, err = serve.communicate(timeout=60)
        finally:
            if serve.poll() is None:  # pragma: no cover - cleanup on failure
                serve.kill()
        assert serve.returncode == 0, err
        assert fleet.returncode == 0, fleet.stderr
        twin = in_process_estimate(
            fleet_values(4, 2),
            ServeConfig(n_clients=4, seed=5, deadline_s=10.0, registration_timeout_s=15.0),
            fleet_seed=2,
        )
        assert json.loads(out)["estimate"] == twin.value
        assert json.loads(fleet.stdout)["estimate"] == twin.value


class TestDistributedTracing:
    def test_loopback_telemetry_merges_fleet_spans_under_round_trace(self):
        n = 16
        values = fleet_values(n, seed=3)
        cfg = ServeConfig(n_clients=n, seed=11, deadline_s=10.0, registration_timeout_s=5.0)
        twin = in_process_estimate(values, cfg, fleet_seed=3)
        memory = InMemoryExporter()
        registry = MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            served, fleet = run_loopback(cfg, values, fleet_seed=3)

        # Telemetry never perturbs the estimate: still bit-identical.
        assert served.estimate.value == twin.value
        assert served.telemetry_clients == n
        assert fleet.telemetry_sent == n
        # One TELEMETRY message per connection, each covering its range.
        connections = len(fleet_ranges(n))
        assert served.connections == connections < n
        (drain,) = [r for r in memory.records if r.name == "serve.telemetry"]
        assert drain.attributes["received"] == connections
        assert drain.attributes["ingested_clients"] == n

        remote = [r for r in memory.records if r.attributes.get("remote")]
        assert served.remote_spans == len(remote) > 0
        # Every connection contributed spans, all under the round's trace id,
        # and the connections' client ranges cover every client once.
        ranges = {(r.attributes["client"], r.attributes["clients"]) for r in remote}
        assert len(ranges) == connections
        assert sorted(c for lo, k in ranges for c in range(lo, lo + k)) == list(range(n))
        assert {r.attributes["trace_id"] for r in remote} == {round_trace_id(cfg.seed)}
        assert {r.name for r in remote} == {"fleet.round", "fleet.encode", "fleet.uplink"}
        # Remote roots are re-parented under the server's federated.round
        # span: one fleet.round per connection.
        round_ids = {r.span_id for r in memory.records if r.name == "federated.round"}
        fleet_rounds = [r for r in remote if r.name == "fleet.round"]
        assert len(fleet_rounds) == connections
        assert all(r.parent_id in round_ids for r in fleet_rounds)
        # Ingested spans carry connection attribution next to the client id.
        assert all(r.attributes["peer"] == "127.0.0.1" for r in remote)

        # The round span carries straggler stats derived from uplink arrivals.
        (round_span,) = [r for r in memory.records if r.name == "federated.round"]
        assert round_span.attributes["uplink_median_s"] >= 0.0
        assert (
            round_span.attributes["uplink_slow_decile_s"]
            >= round_span.attributes["uplink_median_s"]
        )

        # Fleet-side counters merged into the server's registry.
        counters = registry.snapshot()["counters"]
        assert counters["fleet_uplinks_sent_total"] == float(n)
        assert counters["serve_telemetry_clients_total"] == float(n)
        assert counters["serve_telemetry_spans_total"] == float(len(remote))
        assert "telemetry_rejects_total" not in counters

    def test_clock_skew_alignment_pins_known_offset(self):
        cfg = ServeConfig(n_clients=1, seed=2)
        server = RoundServer(cfg)
        memory = InMemoryExporter()
        tracer = Tracer([memory], clock=lambda: 1000.0)
        with instrumented(tracer, MetricsRegistry()):
            # HELLO anchor: client clock read 400 when the server read 1000,
            # so every remote timestamp shifts forward by exactly 600.
            server._clock_offsets[0] = tracer.wall_time() - 400.0
            server._attempt_spans[1] = 77
            payload = encode_telemetry(
                0,
                [
                    {
                        "name": "fleet.round",
                        "span_id": 1,
                        "parent_id": None,
                        "start_time_s": 5.5,
                        "duration_s": 0.25,
                        "status": "ok",
                        "attributes": {"attempt": 1},
                    },
                    {
                        "name": "fleet.uplink",
                        "span_id": 2,
                        "parent_id": 1,
                        "start_time_s": 6.5,
                        "duration_s": 0.125,
                        "status": "ok",
                        "attributes": {},
                    },
                ],
            )
            server._ingest_telemetry(0, payload)

        spans = {r.name: r for r in memory.records}
        assert spans["fleet.round"].start_time_s == 605.5
        assert spans["fleet.uplink"].start_time_s == 606.5
        assert spans["fleet.round"].duration_s == 0.25
        assert spans["fleet.round"].parent_id == 77
        assert spans["fleet.uplink"].parent_id == spans["fleet.round"].span_id
        assert spans["fleet.round"].attributes["remote"] is True
        assert server._remote_spans == 2

    def test_unanchored_client_ingests_with_zero_offset(self):
        cfg = ServeConfig(n_clients=1, seed=2)
        server = RoundServer(cfg)
        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            payload = encode_telemetry(
                3,
                [
                    {
                        "name": "fleet.round",
                        "span_id": 9,
                        "parent_id": None,
                        "start_time_s": 12.0,
                        "duration_s": 1.0,
                        "status": "ok",
                        "attributes": {},
                    }
                ],
            )
            server._ingest_telemetry(3, payload)
        (record,) = memory.records
        assert record.start_time_s == 12.0

    def test_corrupt_telemetry_is_rejected_never_ingested(self):
        cfg = ServeConfig(n_clients=2, seed=2)
        server = RoundServer(cfg)
        memory = InMemoryExporter()
        registry = MetricsRegistry()
        # A span's start must be finite, its duration finite and >= 0.
        bad_times = [(float("nan"), 1.0), (0.0, float("inf")), (0.0, -0.5)]
        with instrumented(Tracer([memory]), registry):
            server._ingest_telemetry(0, b"\xffnot json")  # undecodable
            server._ingest_telemetry(
                1, encode_telemetry(5, [])  # claims a different client id
            )
            for start, duration in bad_times:
                span = {"name": "fleet.round", "span_id": 1, "parent_id": None,
                        "start_time_s": start, "duration_s": duration}
                server._ingest_telemetry(0, encode_telemetry(0, [span]))
        assert server._telemetry_clients == 0
        assert server._remote_spans == 0
        rejects = [r for r in memory.records if r.name == "telemetry.reject"]
        assert len(rejects) == 5
        assert registry.snapshot()["counters"]["telemetry_rejects_total"] == 5.0
        assert "claims client 5" in rejects[1].attributes["detail"]
        for reject in rejects[2:]:
            assert "finite" in reject.attributes["detail"]

    def test_infinite_hello_clock_leaves_the_connection_unanchored(self):
        cfg = ServeConfig(n_clients=1, seed=2, registration_timeout_s=5.0)
        server = RoundServer(cfg)
        memory = InMemoryExporter()

        async def scenario():
            await server.start()
            _reader, writer = await asyncio.open_connection(cfg.host, server.port)
            hello = json.dumps({"client_id": 0, "clock_s": float("inf")})  # "Infinity"
            writer.write(encode_message(MSG_HELLO, hello.encode()))
            await writer.drain()
            await asyncio.wait_for(server._all_registered.wait(), 5.0)
            writer.close()
            await server.close()

        asyncio.run(scenario())
        assert 0 not in server._clock_offsets
        span = {"name": "fleet.round", "span_id": 1, "parent_id": None,
                "start_time_s": 12.0, "duration_s": 0.5}
        with instrumented(Tracer([memory]), MetricsRegistry()):
            server._ingest_telemetry(0, encode_telemetry(0, [span]))
        (record,) = memory.records
        assert record.start_time_s == 12.0 and record.duration_s == 0.5
        assert json.loads(json.dumps(record.to_dict(), allow_nan=False))

    def test_span_start_that_overflows_once_aligned_is_rejected(self):
        # Both times are finite, but the HELLO offset plus the span start is not.
        cfg = ServeConfig(n_clients=1, seed=2, registration_timeout_s=5.0)
        server = RoundServer(cfg)

        async def scenario():
            await server.start()
            _reader, writer = await asyncio.open_connection(cfg.host, server.port)
            hello = json.dumps({"client_id": 0, "clock_s": -1.7e308})
            writer.write(encode_message(MSG_HELLO, hello.encode()))
            await writer.drain()
            await asyncio.wait_for(server._all_registered.wait(), 5.0)
            writer.close()
            await server.close()

        asyncio.run(scenario())
        spans = [
            {"name": "fleet.round", "span_id": 1, "parent_id": None,
             "start_time_s": 12.0, "duration_s": 0.5},
            {"name": "fleet.uplink", "span_id": 2, "parent_id": 1,
             "start_time_s": 1.7e308, "duration_s": 0.5},
        ]
        metrics = {"counters": {"fleet_uplinks_sent_total": 1.0}}
        memory, registry = InMemoryExporter(), MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            server._ingest_telemetry(0, encode_telemetry(0, spans, metrics))
        (reject,) = memory.records
        assert reject.name == "telemetry.reject"
        assert "not finite" in reject.attributes["detail"]
        assert server._remote_spans == 0 and server._telemetry_clients == 0
        assert registry.snapshot()["counters"] == {"telemetry_rejects_total": 1.0}

    def test_plain_fleet_without_telemetry_support_still_completes(self):
        # A pre-tracing client never sends TELEMETRY: the drain gives up as
        # soon as the connections close instead of burning the full timeout.
        cfg = ServeConfig(
            n_clients=2, seed=7, deadline_s=5.0, registration_timeout_s=5.0
        )
        values = fleet_values(2, seed=1)

        async def scenario():
            server = RoundServer(cfg)
            port = await server.start()
            clients = asyncio.gather(
                *(
                    _plain_client(cfg.host, port, i, float(v))
                    for i, v in enumerate(values)
                )
            )
            served = await server.serve_round()
            estimates = await clients
            await server.close()
            return served, estimates

        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            served, estimates = asyncio.run(scenario())
        twin = in_process_estimate(values, cfg)
        assert served.estimate.value == twin.value
        assert estimates == [twin.value] * 2
        assert served.telemetry_clients == 0
        assert served.remote_spans == 0


class TestFleetRendezvousTimeout:
    def test_missing_port_file_exits_2_with_one_line_error(self, tmp_path):
        err = io.StringIO()
        code = run_fleet_command(
            clients=2,
            port_file=str(tmp_path / "never-written"),
            rendezvous_timeout_s=0.2,
            stream=io.StringIO(),
            error_stream=err,
        )
        assert code == 2
        lines = [line for line in err.getvalue().splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error: no port appeared in")
        assert "0.2s" in lines[0]

    def test_cli_flag_reaches_the_rendezvous(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "fleet",
                "--clients",
                "2",
                "--port-file",
                str(tmp_path / "absent"),
                "--rendezvous-timeout",
                "0.2",
            ]
        )
        assert code == 2
        assert "no port appeared" in capsys.readouterr().err


class TestStalePortFile:
    def test_fleet_waits_out_a_port_file_left_by_an_earlier_server(self, tmp_path):
        # The planted file names a closed port, and the server starts after
        # the fleet: the fleet re-reads the file on each refused connection
        # until the server's own port appears in it.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            stale_port = probe.getsockname()[1]
        port_file = tmp_path / "port"
        port_file.write_text(f"{stale_port}\n")
        cfg = ServeConfig(n_clients=4, seed=8, deadline_s=10.0, registration_timeout_s=10.0)
        serve_out = io.StringIO()
        outcome = {}

        def serve():
            time.sleep(0.3)
            outcome["code"] = run_serve_command(
                clients=4,
                seed=8,
                deadline_s=10.0,
                registration_timeout_s=10.0,
                port_file=str(port_file),
                as_json=True,
                stream=serve_out,
                error_stream=serve_out,
            )

        thread = threading.Thread(target=serve)
        thread.start()
        fleet_out = io.StringIO()
        code = run_fleet_command(
            clients=4,
            port_file=str(port_file),
            seed=6,
            as_json=True,
            stream=fleet_out,
            error_stream=fleet_out,
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert code == 0 and outcome["code"] == 0
        twin = in_process_estimate(fleet_values(4, 6), cfg, fleet_seed=6)
        assert json.loads(fleet_out.getvalue())["estimate"] == twin.value
        assert json.loads(serve_out.getvalue())["estimate"] == twin.value
        # The server removed its port file on the way out.
        assert list(tmp_path.iterdir()) == []


class TestConfigSurface:
    def test_emulation_profile_parse(self):
        profile = EmulationProfile.parse("loss=0.2,latency=45,sigma=0.5,scale=0.001")
        assert profile.loss_rate == 0.2
        assert profile.latency_median_s == 45.0
        assert profile.latency_sigma == 0.5
        assert profile.time_scale == 0.001
        with pytest.raises(ConfigurationError, match="bad emulation spec"):
            EmulationProfile.parse("bogus=1")
        with pytest.raises(ConfigurationError, match="not a number"):
            EmulationProfile.parse("loss=abc")
        with pytest.raises(ConfigurationError):
            EmulationProfile(loss_rate=1.5)

    def test_serve_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(n_clients=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_clients=1, deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_clients=1, epsilon=-1.0)
        # The served query is built per round, so its parts validate here.
        for bad in ({"epsilon": float("inf")}, {"epsilon": float("nan")}, {"n_bits": 0}):
            with pytest.raises(ConfigurationError):
                ServeConfig(n_clients=1, **bad)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_clients=1, min_quorum=0)
        # A served retry re-contacts the registered fleet; it cannot redraw.
        with pytest.raises(ConfigurationError, match="redraw_cohort=False"):
            ServeConfig(n_clients=4, retry=RetryPolicy())
        ServeConfig(n_clients=4, retry=RetryPolicy(redraw_cohort=False))

    def test_fleet_values_deterministic(self):
        assert np.array_equal(fleet_values(16, 7), fleet_values(16, 7))
        assert not np.array_equal(fleet_values(16, 7), fleet_values(16, 8))
        assert fleet_values(16, 7).min() >= 0.0
        with pytest.raises(ConfigurationError):
            fleet_values(0)
