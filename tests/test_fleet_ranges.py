"""Fleet connections that speak for client ranges.

A fleet connection registers a contiguous range of client ids, receives the
range's slice of the bit assignment, and uplinks its clients' frames in one
REPORTS message.  These tests pin the range rules of the wire protocol (HELLO
validation, per-frame rejects inside a range, the mutator's per-client
frames), the fleet's vectorized bits and frames, and parity with the
in-process twin at cohort sizes a socket per client could not reach.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated import (
    EmulationProfile,
    FleetResult,
    RoundServer,
    ServeConfig,
    ServeResult,
    fleet_values,
    in_process_estimate,
    run_loopback,
)
from repro.federated import fleet as fleet_module
from repro.federated.client import BitReport
from repro.federated.fleet import (
    FLEET_CONNECTIONS,
    MAX_RANGE,
    ClientFleet,
    client_generator,
    fleet_ranges,
    read_message,
)
from repro.federated.wire import (
    MSG_ANNOUNCE,
    MSG_HELLO,
    MSG_REPORTS,
    MSG_RESULT,
    REPORT_SIZE,
    encode_batch,
    encode_frames,
    encode_message,
)
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer, instrumented


class TestFrames:
    @given(
        reports=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**64 - 1),
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=1),
            ),
            max_size=40,
        ),
        randomized=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_frames_matches_encode_batch_byte_for_byte(self, reports, randomized):
        ids = np.array([r[0] for r in reports], dtype=np.uint64)
        indices = np.array([r[1] for r in reports], dtype=np.int64)
        bits = np.array([r[2] for r in reports], dtype=np.uint8)
        expected = encode_batch(
            [BitReport(client_id=c, bit_index=j, bit=b) for c, j, b in reports],
            randomized_response=randomized,
        )
        assert encode_frames(ids, indices, bits, randomized) == expected


class TestFleetShape:
    def test_ranges_are_near_equal_contiguous_blocks(self):
        assert fleet_ranges(5) == [(i, i + 1) for i in range(5)]
        assert len(fleet_ranges(FLEET_CONNECTIONS)) == FLEET_CONNECTIONS
        for n in (9, 256, 1000, 100_000):
            ranges = fleet_ranges(n)
            assert len(ranges) == FLEET_CONNECTIONS
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            sizes = [hi - lo for lo, hi in ranges]
            assert max(sizes) - min(sizes) <= 1
        # A range never outgrows one REPORTS message.
        ranges = fleet_ranges(FLEET_CONNECTIONS * MAX_RANGE + 1)
        assert max(hi - lo for lo, hi in ranges) <= MAX_RANGE

    def test_range_generators_are_slices_of_spawn_generators(self):
        spawned = [
            np.random.default_rng(s).random(4) for s in np.random.SeedSequence(17).spawn(300)
        ]
        for lo, hi in fleet_ranges(300):
            lazy = [client_generator(17, i).random(4) for i in range(lo, hi)]
            assert all(np.array_equal(a, b) for a, b in zip(lazy, spawned[lo:hi]))


def _bits(cfg: ServeConfig, values, lo: int, indices) -> np.ndarray:
    encoded = cfg.encoder.encode(np.asarray(values[lo:lo + len(indices)]))
    return ((encoded >> np.asarray(indices, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)


async def _hello(cfg: ServeConfig, port: int, hello: dict):
    reader, writer = await asyncio.open_connection(cfg.host, port)
    writer.write(encode_message(MSG_HELLO, json.dumps(hello).encode()))
    await writer.drain()
    return reader, writer


async def _range_client(cfg, port, values, lo, k, uplinks=None):
    """A hand-written fleet connection for ``[lo, lo + k)``.

    ``uplinks(indices, frames)`` maps the assigned indices and the range's
    honest frames to the REPORTS payloads to send (default: the honest
    frames in one message).  Returns the kind of the round's closing message.
    """
    reader, writer = await _hello(cfg, port, {"client_id": lo, "clients": k})
    kind, seq, payload = await read_message(reader)
    assert kind == MSG_ANNOUNCE
    indices = json.loads(payload)["bit_index"]
    assert len(indices) == k
    ids = np.arange(lo, lo + k, dtype=np.uint64)
    frames = encode_frames(ids, np.asarray(indices), _bits(cfg, values, lo, indices))
    for message in uplinks(indices, frames) if uplinks else [frames]:
        writer.write(encode_message(MSG_REPORTS, message, seq=seq))
    await writer.drain()
    kind, _seq, _payload = await read_message(reader)
    writer.close()
    return kind


class TestRangeHello:
    @pytest.mark.parametrize(
        "hello, reason",
        [
            ({"client_id": 0, "clients": 0}, "hello"),
            ({"client_id": 0, "clients": True}, "hello"),
            ({"client_id": 0, "clients": "4"}, "hello"),
            ({"client_id": 0, "clients": MAX_RANGE + 1}, "hello"),
            ({"client_id": 0, "clients": MAX_RANGE}, "hello-id-range"),
            ({"client_id": 2, "clients": 3}, "hello-id-range"),
            ({"client_id": 2.5}, "hello"),
            ({"client_id": True}, "hello"),
        ],
    )
    def test_bad_range_hello_is_rejected(self, hello, reason):
        cfg = ServeConfig(n_clients=4, seed=1, deadline_s=5.0, registration_timeout_s=5.0)
        values = fleet_values(4, seed=2)

        async def scenario():
            server = RoundServer(cfg)
            port = await server.start()
            _reader, bad = await _hello(cfg, port, hello)
            await asyncio.sleep(0.05)
            fleet = asyncio.create_task(ClientFleet(values, seed=2).run(cfg.host, port))
            served = await server.serve_round()
            await fleet
            bad.close()
            await server.close()
            return served

        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            served = asyncio.run(scenario())
        (reject,) = [r for r in memory.records if r.name == "uplink.reject"]
        assert reject.attributes["reason"] == reason
        assert reject.attributes["peer"] == "127.0.0.1"
        assert served.wire_rejects == 1
        assert served.registered_clients == 4 and served.connections == 4
        assert served.estimate.value == in_process_estimate(values, cfg, fleet_seed=2).value

    def test_overlapping_range_is_a_duplicate_hello(self):
        cfg = ServeConfig(n_clients=4, seed=3, deadline_s=5.0, registration_timeout_s=5.0)
        values = fleet_values(4, seed=4)

        async def scenario():
            server = RoundServer(cfg)
            port = await server.start()
            first = asyncio.create_task(_range_client(cfg, port, values, 2, 2))
            await asyncio.sleep(0.05)
            # Starts on a free id and runs into the registered range [2, 4).
            _reader, overlapping = await _hello(cfg, port, {"client_id": 1, "clients": 2})
            await asyncio.sleep(0.05)
            second = asyncio.create_task(_range_client(cfg, port, values, 0, 2))
            served = await server.serve_round()
            kinds = await asyncio.gather(first, second)
            overlapping.close()
            await server.close()
            return served, kinds

        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            served, kinds = asyncio.run(scenario())
        assert kinds == [MSG_RESULT, MSG_RESULT]
        (reject,) = [r for r in memory.records if r.name == "uplink.reject"]
        assert reject.attributes["reason"] == "hello-duplicate"
        assert served.registered_clients == 4 and served.connections == 2
        assert served.estimate.value == in_process_estimate(values, cfg).value


class TestRangeUplinks:
    def test_rejects_inside_a_range_are_attributed_and_honest_frames_fold(self):
        n = 8
        cfg = ServeConfig(n_clients=n, seed=6, deadline_s=5.0, registration_timeout_s=5.0)
        values = fleet_values(n, seed=7)

        def adversarial(indices, frames):
            def frame(i):
                return frames[i * REPORT_SIZE:(i + 1) * REPORT_SIZE]

            wrong_index = encode_frames(
                np.array([2], dtype=np.uint64),
                np.array([(indices[2] + 1) % cfg.n_bits]),
                np.array([0], dtype=np.uint8),
            )
            spoofed = encode_frames(
                np.array([5], dtype=np.uint64),
                np.array([indices[0]]),
                np.array([0], dtype=np.uint8),
            )
            return [
                frames + frame(0),  # 5 frames on a range of 4: frame-size
                frames[:40],  # not whole frames: frame-size
                frame(0) + frame(1) + spoofed + frame(0),  # spoofed-id, duplicate
                wrong_index,  # assignment-mismatch
                frame(2) + frame(3),  # the range's remaining honest reports
            ]

        async def scenario():
            server = RoundServer(cfg)
            port = await server.start()
            clients = asyncio.gather(
                _range_client(cfg, port, values, 0, 4, adversarial),
                _range_client(cfg, port, values, 4, 4),
            )
            served = await server.serve_round()
            kinds = await clients
            await server.close()
            return served, kinds

        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            served, kinds = asyncio.run(scenario())
        assert kinds == [MSG_RESULT, MSG_RESULT]
        rejects = [r for r in memory.records if r.name == "uplink.reject"]
        assert [(r.attributes["reason"], r.attributes["client"]) for r in rejects] == [
            ("frame-size", 0),
            ("frame-size", 0),
            ("spoofed-id", 0),
            ("duplicate", 0),
            ("assignment-mismatch", 2),
        ]
        assert "claims client 5" in rejects[2].attributes["detail"]
        # Every reject names the adversarial connection, whatever id it hit.
        assert len({(r.attributes["session"], r.attributes["peer"]) for r in rejects}) == 1
        assert served.wire_rejects == 5
        assert served.surviving_clients == n
        assert served.estimate.value == in_process_estimate(values, cfg).value

    def test_stale_range_message_counts_each_frame_late(self):
        cfg = ServeConfig(n_clients=4, seed=2, deadline_s=5.0, registration_timeout_s=5.0)
        values = fleet_values(4, seed=3)

        async def run():
            server = RoundServer(cfg)
            port = await server.start()
            task = asyncio.create_task(server.serve_round())
            reader, writer = await _hello(cfg, port, {"client_id": 0, "clients": 4})
            kind, seq, payload = await read_message(reader)
            assert kind == MSG_ANNOUNCE
            indices = json.loads(payload)["bit_index"]
            frames = encode_frames(
                np.arange(4, dtype=np.uint64), np.asarray(indices), _bits(cfg, values, 0, indices)
            )
            writer.write(encode_message(MSG_REPORTS, frames[:48], seq=seq + 1))
            writer.write(encode_message(MSG_REPORTS, frames, seq=seq))
            await writer.drain()
            served = await task
            writer.close()
            await server.close()
            return served

        memory = InMemoryExporter()
        registry = MetricsRegistry()
        with instrumented(Tracer([memory]), registry):
            served = asyncio.run(run())
        (late,) = [r for r in memory.records if r.name == "uplink.late"]
        assert late.attributes["frames"] == 3
        assert late.attributes["peer"] == "127.0.0.1"
        assert served.late_reports == 3
        assert registry.snapshot()["counters"]["serve_late_reports_total"] == 3.0
        assert served.estimate.value == in_process_estimate(values, cfg).value

    def test_mutated_frame_of_another_size_goes_alone(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "FLEET_CONNECTIONS", 2)
        n = 10
        values = fleet_values(n, seed=8)
        cfg = ServeConfig(n_clients=n, seed=9, deadline_s=0.5, registration_timeout_s=5.0)

        def pad(cid, attempt, frame):
            return frame + b"\x00" * 4 if cid == 7 else frame

        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            served, fleet = run_loopback(cfg, values, fleet_seed=8, mutate=pad)
        (reject,) = [r for r in memory.records if r.name == "uplink.reject"]
        assert reject.attributes["reason"] == "frame-size"
        assert "uplink of 20 bytes" in reject.attributes["detail"]
        assert served.connections == 2
        assert served.surviving_clients == n - 1
        assert fleet.uplinks_sent == n
        twin = in_process_estimate(values, cfg, fleet_seed=8, corrupted={7})
        assert served.estimate.value == twin.value


class TestRangeAnnounce:
    def test_assignment_of_the_wrong_length_is_a_malformed_announce(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "FLEET_CONNECTIONS", 1)
        hellos = []

        async def handle(reader, writer):
            _kind, _seq, payload = await read_message(reader)
            hellos.append(json.loads(payload))
            announce = {"bit_index": [0, 1, 2], "n_bits": 10, "scale": 1.0, "offset": 0.0}
            writer.write(encode_message(MSG_ANNOUNCE, json.dumps(announce).encode(), seq=1))
            await writer.drain()
            await reader.read()  # the fleet hangs up instead of reporting
            writer.close()

        async def scenario():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                return await ClientFleet(fleet_values(4, seed=1)).run("127.0.0.1", port)

        result = asyncio.run(scenario())
        assert [(h["client_id"], h["clients"]) for h in hellos] == [(0, 4)]
        assert result.uplinks_sent == 0 and result.estimate is None and not result.aborted


class TestRangeParity:
    def test_lossy_ldp_round_with_real_latency_matches_twin(self):
        n = 24
        values = fleet_values(n, seed=5)
        profile = EmulationProfile(loss_rate=0.3, latency_median_s=10.0, time_scale=0.001)
        cfg = ServeConfig(
            n_clients=n, epsilon=2.0, seed=9, deadline_s=1.0, registration_timeout_s=5.0
        )
        memory = InMemoryExporter()
        with instrumented(Tracer([memory]), MetricsRegistry()):
            served, fleet = run_loopback(cfg, values, profile=profile, fleet_seed=5)
        assert served.connections == FLEET_CONNECTIONS < n
        assert served.estimate.value == in_process_estimate(
            values, cfg, profile=profile, fleet_seed=5
        ).value
        assert fleet.uplinks_dropped > 0
        assert served.surviving_clients == fleet.uplinks_sent
        # Each delivered frame travelled alone, after its own latency.
        drained = [r for r in memory.records if r.name == "uplink.drain"]
        assert sum(r.attributes["uplinks"] for r in drained) == fleet.uplinks_sent
        assert sum(r.attributes["frames"] for r in drained) == fleet.uplinks_sent

    def test_ten_thousand_clients_on_eight_connections_match_twin(self):
        n = 10_000
        values = fleet_values(n, seed=2)
        cfg = ServeConfig(n_clients=n, seed=5)
        served, fleet = run_loopback(cfg, values, fleet_seed=2)
        assert served.connections == 8
        assert served.registered_clients == n
        assert served.surviving_clients == n and served.wire_rejects == 0
        assert fleet.uplinks_sent == n and len(fleet.results) == n
        assert served.estimate.value == in_process_estimate(values, cfg, fleet_seed=2).value


def test_run_loopback_never_formats_its_results(monkeypatch):
    calls = {"serve": 0, "fleet": 0}

    def counting(key):
        def __repr__(self):
            calls[key] += 1
            return key

        return __repr__

    monkeypatch.setattr(ServeResult, "__repr__", counting("serve"))
    monkeypatch.setattr(FleetResult, "__repr__", counting("fleet"))
    run_loopback(ServeConfig(n_clients=4, seed=1), fleet_values(4, seed=1), fleet_seed=1)
    assert calls == {"serve": 0, "fleet": 0}
