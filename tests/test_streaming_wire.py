"""Asynchronous aggregation and the report wire format."""

import numpy as np
import pytest

from repro.exceptions import CohortTooSmallError, ConfigurationError, ProtocolError
from repro.federated import (
    REPORT_SIZE,
    BitReport,
    StreamingAggregator,
    decode_batch,
    decode_report,
    encode_batch,
    encode_report,
    payload_efficiency,
)
from repro.federated.wire import MAGIC
from repro.privacy import RandomizedResponse


class TestStreamingAggregator:
    def _reports_for_constant(self, value: int, n_bits: int, n_clients: int):
        for client in range(n_clients):
            j = client % n_bits
            yield BitReport(client_id=client, bit_index=j, bit=(value >> j) & 1)

    def test_estimate_from_streamed_reports(self, encoder8):
        agg = StreamingAggregator(encoder8)
        agg.submit_many(self._reports_for_constant(42, 8, 800))
        assert agg.estimate().value == pytest.approx(42.0)

    def test_order_independence(self, encoder8, rng):
        reports = list(self._reports_for_constant(99, 8, 400))
        in_order = StreamingAggregator(encoder8)
        in_order.submit_many(reports)
        shuffled = StreamingAggregator(encoder8)
        indices = rng.permutation(len(reports))
        shuffled.submit_many([reports[i] for i in indices])
        assert in_order.estimate().value == shuffled.estimate().value

    def test_estimate_refines_as_reports_arrive(self, encoder8):
        """Snapshots are non-destructive and improve with more evidence."""
        rng = np.random.default_rng(0)
        agg = StreamingAggregator(encoder8)
        values = rng.integers(0, 256, 20_000)
        early = None
        for client, value in enumerate(values):
            j = int(rng.integers(8))
            agg.submit(BitReport(client, j, int((int(value) >> j) & 1)))
            if client == 499:
                early = agg.estimate()
        late = agg.estimate()
        truth = values.mean()
        assert abs(late.value - truth) < abs(early.value - truth) + 2.0
        assert late.n_clients == 20_000

    def test_duplicate_client_rejected(self, encoder8):
        agg = StreamingAggregator(encoder8)
        agg.submit(BitReport(7, 0, 1))
        with pytest.raises(ProtocolError):
            agg.submit(BitReport(7, 3, 0))

    def test_min_reports_guard(self, encoder8):
        agg = StreamingAggregator(encoder8, min_reports=100)
        agg.submit(BitReport(0, 0, 1))
        with pytest.raises(CohortTooSmallError):
            agg.estimate()

    def test_invalid_reports_rejected(self, encoder8):
        agg = StreamingAggregator(encoder8)
        with pytest.raises(ProtocolError):
            agg.submit(BitReport(0, 8, 1))      # index out of range
        with pytest.raises(ProtocolError):
            agg.submit(BitReport(1, 0, 2))      # non-binary bit

    def test_ldp_debiasing(self, encoder8):
        rng = np.random.default_rng(1)
        rr = RandomizedResponse(epsilon=2.0)
        agg = StreamingAggregator(encoder8, perturbation=rr)
        value = 200
        for client in range(40_000):
            j = client % 8
            true_bit = (value >> j) & 1
            noisy = int(rr.perturb_bits(np.array([true_bit], dtype=np.uint8), rng)[0])
            agg.submit(BitReport(client, j, noisy))
        assert agg.estimate().value == pytest.approx(200.0, abs=8.0)

    def test_round_summary_keeps_debiased_means(self, encoder8):
        # The summary keeps the unbiased evidence, which may leave [0, 1];
        # only the estimate's own bit means are clipped before decoding.
        rng = np.random.default_rng(3)
        rr = RandomizedResponse(epsilon=0.5)
        agg = StreamingAggregator(encoder8, perturbation=rr)
        sums = np.zeros(8)
        counts = np.zeros(8, dtype=np.int64)
        for client in range(200):
            j = client % 8
            noisy = int(rr.perturb_bits(np.array([(77 >> j) & 1], dtype=np.uint8), rng)[0])
            agg.submit(BitReport(client, j, noisy))
            sums[j] += noisy
            counts[j] += 1
        estimate = agg.estimate()
        debiased = rr.unbias_bit_means(sums / counts)
        assert debiased.min() < 0.0 and debiased.max() > 1.0
        (summary,) = estimate.rounds
        np.testing.assert_array_equal(summary.bit_means, debiased)
        np.testing.assert_array_equal(summary.sums, debiased * counts)
        clipped = np.clip(debiased, 0.0, 1.0)
        np.testing.assert_array_equal(estimate.bit_means, clipped)
        assert estimate.value == encoder8.decode_scalar(float(encoder8.powers @ clipped))

    def test_reset(self, encoder8):
        agg = StreamingAggregator(encoder8)
        agg.submit(BitReport(0, 0, 1))
        agg.reset()
        assert agg.reports_received == 0
        agg.submit(BitReport(0, 0, 1))   # same client OK after reset
        assert agg.clients_seen == 1

    def test_invalid_min_reports(self, encoder8):
        with pytest.raises(ConfigurationError):
            StreamingAggregator(encoder8, min_reports=0)


class TestWireFormat:
    def test_roundtrip(self):
        report = BitReport(client_id=123456789, bit_index=13, bit=1)
        decoded, rr_flag = decode_report(encode_report(report, randomized_response=True))
        assert decoded == report
        assert rr_flag is True

    def test_frame_size_fixed(self):
        assert len(encode_report(BitReport(0, 0, 0))) == REPORT_SIZE
        assert REPORT_SIZE == 16

    def test_flag_roundtrip_false(self):
        _, rr_flag = decode_report(encode_report(BitReport(1, 2, 0)))
        assert rr_flag is False

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_report(BitReport(0, 0, 0)))
        frame[0:4] = b"XXXX"
        with pytest.raises(ProtocolError):
            decode_report(bytes(frame))

    def test_truncated_rejected(self):
        frame = encode_report(BitReport(0, 0, 0))
        with pytest.raises(ProtocolError):
            decode_report(frame[:-1])

    def test_tampered_bit_rejected(self):
        frame = bytearray(encode_report(BitReport(0, 0, 1)))
        frame[6] = 2   # bit field
        with pytest.raises(ProtocolError):
            decode_report(bytes(frame))

    def test_unknown_flags_rejected(self):
        frame = bytearray(encode_report(BitReport(0, 0, 1)))
        frame[7] = 0x80
        with pytest.raises(ProtocolError):
            decode_report(bytes(frame))

    def test_bad_version_rejected(self):
        frame = bytearray(encode_report(BitReport(0, 0, 1)))
        frame[4] = 99
        with pytest.raises(ProtocolError):
            decode_report(bytes(frame))

    def test_encode_validation(self):
        with pytest.raises(ProtocolError):
            encode_report(BitReport(0, 0, 5))
        with pytest.raises(ProtocolError):
            encode_report(BitReport(0, 70, 1))
        with pytest.raises(ProtocolError):
            encode_report(BitReport(-1, 0, 1))

    def test_batch_roundtrip(self):
        reports = [BitReport(i, i % 8, i % 2) for i in range(20)]
        decoded = decode_batch(encode_batch(reports))
        assert [r for r, _ in decoded] == reports

    def test_ragged_batch_rejected(self):
        data = encode_batch([BitReport(0, 0, 1)]) + b"\x00"
        with pytest.raises(ProtocolError):
            decode_batch(data)

    def test_magic_is_stable(self):
        assert MAGIC == b"BPSH"

    def test_payload_efficiency(self):
        assert payload_efficiency() == pytest.approx(1.0 / 128.0)


class TestWireToAggregatorPipeline:
    def test_end_to_end_over_the_wire(self, encoder8):
        """Client encodes -> bytes cross the 'network' -> server decodes and
        folds into the streaming aggregator."""
        rng = np.random.default_rng(2)
        agg = StreamingAggregator(encoder8)
        value = 171   # 0b10101011
        frames = encode_batch(
            BitReport(client, client % 8, (value >> (client % 8)) & 1)
            for client in range(4_000)
        )
        for report, rr_flag in decode_batch(frames):
            assert rr_flag is False
            agg.submit(report)
        assert agg.estimate().value == pytest.approx(171.0)
