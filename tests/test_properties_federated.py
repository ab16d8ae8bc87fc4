"""Property-based tests on the federated substrate (wire, streaming, cohorts)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FixedPointEncoder
from repro.federated import (
    BitReport,
    ClientDevice,
    CohortSelector,
    StreamingAggregator,
    decode_batch,
    decode_report,
    encode_batch,
    encode_report,
    elicit_single_value,
    ground_truth_mean,
)

report_strategy = st.builds(
    BitReport,
    client_id=st.integers(min_value=0, max_value=2**64 - 1),
    bit_index=st.integers(min_value=0, max_value=63),
    bit=st.integers(min_value=0, max_value=1),
)


class TestWireProperties:
    @given(report=report_strategy, rr=st.booleans())
    def test_roundtrip_identity(self, report, rr):
        decoded, flag = decode_report(encode_report(report, rr))
        assert decoded == report
        assert flag == rr

    @given(reports=st.lists(report_strategy, max_size=40))
    def test_batch_roundtrip(self, reports):
        decoded = decode_batch(encode_batch(reports))
        assert [r for r, _ in decoded] == reports

    @given(report=report_strategy, flip=st.integers(min_value=0, max_value=3))
    def test_magic_corruption_always_detected(self, report, flip):
        from repro.exceptions import ProtocolError

        frame = bytearray(encode_report(report))
        frame[flip] ^= 0xFF
        with pytest.raises(ProtocolError):
            decode_report(bytes(frame))


class TestStreamingProperties:
    @given(
        bits=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)),
                      min_size=1, max_size=200),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30)
    def test_order_invariance(self, bits, seed):
        """Any permutation of the report stream yields the same estimate."""
        encoder = FixedPointEncoder.for_integers(8)
        reports = [
            BitReport(client, j, b) for client, (j, b) in enumerate(bits)
        ]
        forward = StreamingAggregator(encoder)
        forward.submit_many(reports)
        permuted = StreamingAggregator(encoder)
        order = np.random.default_rng(seed).permutation(len(reports))
        permuted.submit_many([reports[i] for i in order])
        assert forward.estimate().value == permuted.estimate().value

    @given(
        bits=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)),
                      min_size=1, max_size=100)
    )
    def test_estimate_bounded_by_encoder_range(self, bits):
        encoder = FixedPointEncoder.for_integers(8)
        agg = StreamingAggregator(encoder)
        agg.submit_many(
            BitReport(client, j, b) for client, (j, b) in enumerate(bits)
        )
        estimate = agg.estimate()
        assert 0.0 <= estimate.value <= encoder.representable_max


class TestElicitationProperties:
    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30),
        seed=st.integers(0, 2**16),
    )
    def test_sample_elicitation_returns_member(self, values, seed):
        picked = elicit_single_value(np.array(values), "sample", seed)
        assert any(np.isclose(picked, v) for v in values)

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30)
    )
    def test_deterministic_strategies_in_hull(self, values):
        arr = np.array(values)
        for strategy in ("mean", "max", "latest"):
            picked = elicit_single_value(arr, strategy)
            assert arr.min() - 1e-9 <= picked <= arr.max() + 1e-9

    @given(
        populations=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=5),
            min_size=1,
            max_size=20,
        )
    )
    def test_ground_truth_in_population_hull(self, populations):
        arrays = [np.array(p) for p in populations]
        truth = ground_truth_mean(arrays, "sample")
        lo = min(a.min() for a in arrays)
        hi = max(a.max() for a in arrays)
        assert lo - 1e-9 <= truth <= hi + 1e-9


class TestCohortProperties:
    @given(
        n=st.integers(min_value=1, max_value=200),
        cohort_size=st.integers(min_value=1, max_value=250),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40)
    def test_selection_invariants(self, n, cohort_size, seed):
        population = [ClientDevice(i, [float(i)]) for i in range(n)]
        cohort = CohortSelector().select(population, cohort_size=cohort_size, rng=seed)
        ids = cohort.client_ids.tolist()
        assert len(cohort) == min(cohort_size, n)     # never over-selects
        assert len(set(ids)) == len(ids)              # no duplicates
        assert set(ids) <= set(range(n))              # only real clients
