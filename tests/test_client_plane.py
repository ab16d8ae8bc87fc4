"""Columnar client plane: ClientBatch, chunked kernels, and bit-identity twins.

The contract under test (see ``src/repro/core/client_plane.py``): every
columnar kernel consumes randomness exactly as its object-path twin, for
*any* chunk size -- including chunk = 1 and chunk > n -- so object and
columnar populations produce bit-identical estimates for the same seed.
"""

import tracemalloc

import numpy as np
import pytest

from repro.baselines import (
    DuchiMechanism,
    HybridMechanism,
    LaplaceMean,
    PiecewiseMechanism,
    RandomizedRounding,
    SubtractiveDithering,
)
from repro.core import (
    AdaptiveBitPushing,
    BasicBitPushing,
    ClientBatch,
    FixedPointEncoder,
    VectorMeanEstimator,
    accumulate_bit_reports,
    batch_chunk_size,
    collect_client_reports,
    elicit_values,
    report_bits,
)
from repro.core.client_plane import DEFAULT_CHUNK_CLIENTS
from repro.core.protocol import collect_bit_reports
from repro.exceptions import ConfigurationError, ProtocolError
from repro.federated import (
    ClientDevice,
    CohortSelector,
    DropoutModel,
    FaultSchedule,
    FederatedMeanQuery,
    NetworkModel,
    RetryPolicy,
    attribute_equals,
    fleet_values,
)
from repro.federated.multivalue import elicit_batch, ground_truth_mean
from repro.observability import InMemoryExporter, Tracer, instrumented
from repro.privacy import RandomizedResponse

CHUNKS = (1, 3, 7, 50, 200, 100_000)  # includes chunk = 1 and chunk > n


def make_devices(n=120, seed=5, multi=True):
    rng = np.random.default_rng(seed)
    devices = []
    for i in range(n):
        k = int(rng.integers(1, 4)) if multi else 1
        values = np.clip(rng.normal(600.0, 100.0, k), 0.0, None)
        devices.append(ClientDevice(i, values, {"geo": "us" if i % 2 else "eu"}))
    return devices


@pytest.fixture(scope="module")
def devices():
    return make_devices()


@pytest.fixture(scope="module")
def batch(devices):
    return ClientBatch.from_devices(devices)


@pytest.fixture(scope="module")
def one_value_devices():
    return make_devices(multi=False)


# ----------------------------------------------------------------------
# Chunk-size resolution
# ----------------------------------------------------------------------


class TestBatchChunkSize:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK", raising=False)
        assert batch_chunk_size() == DEFAULT_CHUNK_CLIENTS

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "1234")
        assert batch_chunk_size() == 1234
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "  ")
        assert batch_chunk_size() == DEFAULT_CHUNK_CLIENTS

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "1234")
        assert batch_chunk_size(7) == 7

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "many")
        with pytest.raises(ConfigurationError, match="REPRO_BATCH_CHUNK"):
            batch_chunk_size()
        monkeypatch.delenv("REPRO_BATCH_CHUNK")
        with pytest.raises(ConfigurationError, match=">= 1"):
            batch_chunk_size(0)


# ----------------------------------------------------------------------
# ClientBatch structure
# ----------------------------------------------------------------------


class TestClientBatch:
    def test_from_devices_round_trip(self, devices, batch):
        assert len(batch) == len(devices)
        assert batch.n_clients == len(devices)
        for i, device in enumerate(devices):
            np.testing.assert_array_equal(batch.values_for(i), device.values)
            assert batch.client_ids[i] == device.client_id
            assert batch.attributes["geo"][i] == device.attributes["geo"]

    def test_from_values_uniform(self):
        b = ClientBatch.from_values([3.0, 5.0, 7.0])
        assert b.uniform
        assert b.sizes.tolist() == [1, 1, 1]
        np.testing.assert_array_equal(b.client_ids, [0, 1, 2])

    def test_local_means(self, devices, batch):
        expected = np.array([d.values.mean() for d in devices])
        np.testing.assert_allclose(batch.local_means(), expected, rtol=1e-15)

    def test_take_ragged(self, devices, batch):
        idx = np.array([17, 3, 3, 119, 0])
        sub = batch.take(idx)
        assert len(sub) == idx.size
        for pos, i in enumerate(idx):
            np.testing.assert_array_equal(sub.values_for(pos), devices[i].values)
            assert sub.client_ids[pos] == devices[i].client_id
            assert sub.attributes["geo"][pos] == devices[i].attributes["geo"]

    def test_take_uniform_fast_path(self):
        b = ClientBatch.from_values(np.arange(10.0), attributes={"k": np.arange(10)})
        sub = b.take([9, 2])
        assert sub.uniform
        assert sub.values.tolist() == [9.0, 2.0]
        assert sub.attributes["k"].tolist() == [9, 2]

    def test_take_out_of_range(self, batch):
        for population in (batch, ClientBatch.from_values(np.arange(5.0))):
            for bad in ([0, len(population)], [-1], [len(population)]):
                with pytest.raises(ConfigurationError, match="outside"):
                    population.take(bad)
            with pytest.raises(ConfigurationError, match="1-D"):
                population.take(np.zeros((2, 1), dtype=np.int64))

    def test_ragged_batch_keeps_its_offsets(self, devices, batch):
        sizes = [d.values.size for d in devices]
        assert batch.offsets is not None and not batch.uniform
        np.testing.assert_array_equal(batch.offsets, np.concatenate([[0], np.cumsum(sizes)]))
        np.testing.assert_array_equal(batch.sizes, sizes)
        sub = batch.take([5, 1])
        np.testing.assert_array_equal(sub.offsets, [0, sizes[5], sizes[5] + sizes[1]])
        with pytest.raises(IndexError):
            batch.values_for(len(batch))

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one local value"):
            ClientBatch(np.array([1.0]), np.array([0, 0, 1]))
        with pytest.raises(ConfigurationError, match="span"):
            ClientBatch(np.array([1.0, 2.0]), np.array([0, 1]))
        with pytest.raises(ConfigurationError, match="prefix array"):
            ClientBatch(np.array([1.0]), np.array([[0, 1]]))
        for offsets in (np.array([0, 1]), None):
            with pytest.raises(ConfigurationError, match="client_ids"):
                ClientBatch(np.array([1.0]), offsets, client_ids=np.array([1, 2]))
            with pytest.raises(ConfigurationError, match="attribute column"):
                ClientBatch(np.array([1.0]), offsets, attributes={"geo": np.array([1, 2])})
        with pytest.raises(ConfigurationError, match="1-D value array"):
            ClientBatch.from_values(np.ones((2, 2)))
        with pytest.raises(ConfigurationError, match="1-D value array"):
            ClientBatch(np.ones((2, 2)), None)
        with pytest.raises(ConfigurationError, match="no local values"):
            ClientBatch.from_devices([ClientDevice(0, np.empty(0))])


class TestOneValueBatches:
    """Every way of building a batch of one-value clients stores ``offsets=None``
    and reads like the per-client arrays it holds."""

    n = 40

    @pytest.fixture(scope="class")
    def cases(self):
        values = np.random.default_rng(6).normal(600.0, 100.0, self.n)
        full = ClientBatch.from_values(values)
        perm = np.random.default_rng(7).permutation(self.n)
        ragged = ClientBatch(np.arange(6.0), np.array([0, 1, 4, 5, 6]))
        return {
            "from_values": (full, values),
            "take_none": (full.take(np.arange(0)), values[:0]),
            "take_one": (full.take([7]), values[[7]]),
            "take_all": (full.take(np.arange(self.n)), values),
            "take_permutation": (full.take(perm), values[perm]),
            "prefix_array": (ClientBatch(values, np.arange(self.n + 1)), values),
            "from_devices": (
                ClientBatch.from_devices(
                    [ClientDevice(i, values[i : i + 1]) for i in range(self.n)]
                ),
                values,
            ),
            "ragged_take": (ragged.take([3, 0, 2]), np.array([5.0, 0.0, 4.0])),
        }

    @pytest.mark.parametrize(
        "case",
        [
            "from_values", "take_none", "take_one", "take_all", "take_permutation",
            "prefix_array", "from_devices", "ragged_take",
        ],
    )
    def test_reads_like_the_per_client_arrays(self, cases, case):
        batch, values = cases[case]
        per_client = [values[i : i + 1] for i in range(values.size)]
        assert batch.offsets is None and batch.uniform
        assert batch.n_clients == len(batch) == values.size
        assert batch.sizes.dtype == np.int64
        np.testing.assert_array_equal(batch.sizes, np.ones(values.size))
        for i, own in enumerate(per_client):
            np.testing.assert_array_equal(batch.values_for(i), own)
        with pytest.raises(IndexError):
            batch.values_for(values.size)
        np.testing.assert_array_equal(batch.local_means(), values)
        for strategy in ("sample", "mean", "max", "latest"):
            gen, ref_gen = np.random.default_rng(3), np.random.default_rng(3)
            np.testing.assert_array_equal(
                elicit_values(batch, strategy, gen),
                elicit_batch(per_client, strategy, ref_gen) if per_client else [],
            )
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            if per_client:
                assert ground_truth_mean(batch, strategy) == ground_truth_mean(
                    per_client, strategy
                )


# ----------------------------------------------------------------------
# Elicitation twins
# ----------------------------------------------------------------------


class TestElicitValues:
    @pytest.mark.parametrize("strategy", ["sample", "max", "latest"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_exact_twin(self, devices, one_value_devices, strategy, chunk):
        # Ragged multisets first, then one value per client (the fast path).
        for population in (devices, one_value_devices):
            ref_gen = np.random.default_rng(11)
            reference = elicit_batch([d.values for d in population], strategy, ref_gen)
            gen = np.random.default_rng(11)
            columnar = elicit_values(
                ClientBatch.from_devices(population), strategy, gen, chunk=chunk
            )
            np.testing.assert_array_equal(columnar, reference)
        if strategy == "sample":
            # The one-value fast path skips gen.integers(ones), which is only
            # stream-identical because NumPy draws nothing for it; the object
            # path still makes that call.
            untouched = np.random.default_rng(11).bit_generator.state
            assert ref_gen.bit_generator.state == untouched
            assert gen.bit_generator.state == untouched
            # It hands out the population's own values: callers must not be
            # able to write through them.
            assert not columnar.flags.writeable
            with pytest.raises(ValueError):
                columnar[0] = -1.0

    def test_mean_twin_allclose(self, devices, batch):
        # "mean" is the documented ulp exception: reduceat (sequential) vs
        # ndarray.mean (pairwise) summation order.
        reference = elicit_batch([d.values for d in devices], "mean")
        np.testing.assert_allclose(elicit_values(batch, "mean"), reference, rtol=1e-15)

    def test_unknown_strategy(self, batch):
        with pytest.raises(ConfigurationError, match="unknown elicitation"):
            elicit_values(batch, "median")

    def test_ground_truth_twin(self, devices, batch):
        for strategy in ("sample", "mean", "max", "latest"):
            assert ground_truth_mean(batch, strategy) == pytest.approx(
                ground_truth_mean([d.values for d in devices], strategy), rel=1e-14
            )


# ----------------------------------------------------------------------
# Chunked report collection vs the legacy single-pass kernel
# ----------------------------------------------------------------------


class TestReportBits:
    """``report_bits``: the one kernel every client's report comes from."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize("b_send", [None, 3])
    def test_matches_per_element_shift(self, dtype, b_send):
        rng = np.random.default_rng(12)
        encoded = rng.integers(0, 2**63, size=40, dtype=np.uint64) | np.uint64(2**63)
        shape = (40,) if b_send is None else (40, b_send)
        assignment = rng.integers(0, 64, size=shape).astype(dtype)
        assignment.flat[0] = 63  # the top bit, held in the narrowest dtype too
        bits = report_bits(encoded, assignment)
        assert bits.dtype == np.uint8 and bits.shape == shape
        rows = assignment.reshape(40, -1)
        expected = [
            [(int(v) >> int(j)) & 1 for j in row] for v, row in zip(encoded, rows)
        ]
        np.testing.assert_array_equal(bits.reshape(40, -1), expected)
        assert bits.flat[0] == 1

    def test_perturbation_draws_in_the_assignments_shape(self):
        encoded = np.arange(30, dtype=np.uint64)
        assignment = np.arange(60).reshape(30, 2) % 5
        rr = RandomizedResponse(epsilon=1.0)
        bits = report_bits(encoded, assignment, rr, np.random.default_rng(3))
        assert bits.dtype == np.uint8 and bits.shape == (30, 2)
        expected = rr.perturb_bits(report_bits(encoded, assignment), np.random.default_rng(3))
        np.testing.assert_array_equal(bits, expected)

    def test_shape_changing_perturbation_rejected(self):
        class Flattening:
            def perturb_bits(self, bits, rng):
                return bits.ravel()

        with pytest.raises(ProtocolError, match="changed report shape"):
            report_bits(
                np.arange(4, dtype=np.uint64), np.zeros((4, 1), np.uint8), Flattening(), 0
            )


class TestAccumulateBitReports:
    n_bits = 8

    @pytest.fixture(scope="class")
    def encoded(self):
        rng = np.random.default_rng(21)
        return rng.integers(0, 2**self.n_bits, size=230).astype(np.uint64)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("b_send", [1, 2])
    @pytest.mark.parametrize("ldp", [False, True])
    def test_bit_identical_to_collect_bit_reports(self, encoded, chunk, b_send, ldp):
        rng = np.random.default_rng(33)
        n = encoded.size
        assignment = rng.integers(0, self.n_bits, size=(n, b_send))
        if b_send == 1:
            assignment = assignment.ravel()  # 1-D shape must be accepted too
        perturbation = RandomizedResponse(epsilon=1.0) if ldp else None
        ref = collect_bit_reports(
            encoded, self.n_bits, assignment, perturbation, np.random.default_rng(55)
        )
        got = accumulate_bit_reports(
            encoded,
            self.n_bits,
            assignment,
            perturbation,
            np.random.default_rng(55),
            chunk=chunk,
        )
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_collect_client_reports_fuses_encoding(self, chunk):
        rng = np.random.default_rng(8)
        values = rng.normal(120.0, 30.0, size=211)
        encoder = FixedPointEncoder.for_integers(9)
        assignment = rng.integers(0, encoder.n_bits, size=(211, 2))
        perturbation = RandomizedResponse(epsilon=2.0)
        ref = collect_bit_reports(
            encoder.encode(values),
            encoder.n_bits,
            assignment,
            perturbation,
            np.random.default_rng(9),
        )
        got = collect_client_reports(
            values, encoder, assignment, perturbation, np.random.default_rng(9), chunk=chunk
        )
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("chunk", [1, 50, 100_000])
    def test_only_reports_equal_to_one_add_to_sums(self, encoded, chunk):
        class Shifted:
            """Reports each bit as bit + 1 (values 1 and 2)."""

            def perturb_bits(self, bits, rng):
                return bits + 1

        assignment = np.arange(encoded.size) % self.n_bits
        sums, counts = accumulate_bit_reports(
            encoded, self.n_bits, assignment, Shifted(), rng=0, chunk=chunk
        )
        bits = (encoded >> assignment.astype(np.uint64)) & np.uint64(1)
        np.testing.assert_array_equal(counts, np.bincount(assignment, minlength=self.n_bits))
        # A report of 2 (a true 1) is not a 1, so only true 0s add to sums.
        np.testing.assert_array_equal(
            sums, np.bincount(assignment[bits == 0], minlength=self.n_bits)
        )

    def test_bad_assignment(self, encoded):
        with pytest.raises(ProtocolError, match="incompatible"):
            accumulate_bit_reports(encoded, self.n_bits, np.zeros(encoded.size - 1))
        with pytest.raises(ProtocolError, match="outside"):
            accumulate_bit_reports(
                encoded, self.n_bits, np.full(encoded.size, self.n_bits)
            )

    @pytest.mark.parametrize("chunk, spans", [(100_000, 1), (50, 5)])
    def test_one_collect_span_per_chunk(self, encoded, chunk, spans):
        # Both entry points run one loop: a cohort that fits in one chunk
        # records its one span too.
        values = encoded.astype(np.float64)
        assignment = np.arange(encoded.size) % self.n_bits
        for collect in (
            lambda: accumulate_bit_reports(encoded, self.n_bits, assignment, chunk=chunk),
            lambda: collect_client_reports(
                values, FixedPointEncoder.for_integers(self.n_bits), assignment, chunk=chunk
            ),
        ):
            exporter = InMemoryExporter()
            with instrumented(Tracer([exporter])):
                collect()
            found = exporter.find("client_plane.collect")
            assert [s.attributes["chunk"] for s in found] == list(range(spans))
            assert {s.attributes["n_bits"] for s in found} == {self.n_bits}
            assert found[-1].attributes["hi"] == encoded.size

    @pytest.mark.parametrize(
        "column", [np.uint64(5), np.arange(6, dtype=np.uint64).reshape(3, 2)], ids=["0-d", "2-d"]
    )
    def test_encoded_must_be_one_value_per_client(self, column):
        with pytest.raises(ProtocolError, match="1-D"):
            accumulate_bit_reports(column, 3, np.array([0]))
        with pytest.raises(ProtocolError, match="1-D"):
            collect_client_reports(
                column.astype(np.float64), FixedPointEncoder.for_integers(3), np.array([0])
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_assignment_rejected(self, encoded, dtype):
        # A float index would truncate to a bit; a bool one reads as bit 0 or 1.
        assignment = np.ones(encoded.size, dtype=dtype)
        with pytest.raises(ProtocolError, match="integer"):
            accumulate_bit_reports(encoded, self.n_bits, assignment)
        with pytest.raises(ProtocolError, match="integer"):
            collect_client_reports(
                encoded.astype(np.float64), FixedPointEncoder.for_integers(8), assignment
            )

    @pytest.mark.parametrize("chunk", [1, 50, 100_000])
    def test_compact_assignment_widened_before_index_arithmetic(self, chunk):
        # In uint8, 2 * 199 wraps to 142: an unwidened joint index would
        # file bit 199's reports under bit 71.
        encoded = np.random.default_rng(4).integers(0, 2**62, size=300, dtype=np.uint64)
        assignment = np.resize(np.array([150, 199], dtype=np.uint8), 300)
        got = accumulate_bit_reports(encoded, 200, assignment, chunk=chunk)
        ref = accumulate_bit_reports(encoded, 200, assignment.astype(np.int64), chunk=chunk)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[1][150] == got[1][199] == 150

    @pytest.mark.parametrize(
        "dtype, n_bits",
        [(np.uint8, 10), (np.uint16, 300), (np.uint64, 64), (np.int64, 64)],
    )
    @pytest.mark.parametrize("b_send", [None, 3])
    @pytest.mark.parametrize("chunk", [1, 50, 100_000])
    def test_counts_match_per_element_reference(self, dtype, n_bits, b_send, chunk):
        rng = np.random.default_rng(17)
        encoded = rng.integers(0, 2**64, size=120, dtype=np.uint64)
        shape = (120,) if b_send is None else (120, b_send)
        assignment = rng.integers(0, n_bits, size=shape).astype(dtype)
        assignment.flat[0] = n_bits - 1
        sums, counts = accumulate_bit_reports(encoded, n_bits, assignment, chunk=chunk)
        ref_sums, ref_counts = np.zeros(n_bits), np.zeros(n_bits, dtype=np.int64)
        for value, row in zip(encoded, assignment.reshape(120, -1)):
            for j in row:
                ref_counts[int(j)] += 1
                ref_sums[int(j)] += (int(value) >> int(j)) & 1
        np.testing.assert_array_equal(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)
        rr = RandomizedResponse(epsilon=0.5)
        got = accumulate_bit_reports(
            encoded, n_bits, assignment, rr, np.random.default_rng(2), chunk=chunk
        )
        ref = collect_bit_reports(encoded, n_bits, assignment, rr, np.random.default_rng(2))
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])


# ----------------------------------------------------------------------
# Estimator twins: object path vs columnar path, chunk-invariant
# ----------------------------------------------------------------------


class TestEstimatorTwins:
    @pytest.mark.parametrize("chunk", [1, 13, 1000])
    def test_basic_chunk_invariance_via_env(self, monkeypatch, chunk):
        # estimate() streams internally through accumulate_bit_reports; the
        # REPRO_BATCH_CHUNK knob must not change a single bit.
        rng = np.random.default_rng(3)
        values = rng.normal(500.0, 80.0, size=400)
        est = BasicBitPushing(
            FixedPointEncoder.for_integers(10),
            perturbation=RandomizedResponse(epsilon=1.5),
        )
        monkeypatch.delenv("REPRO_BATCH_CHUNK", raising=False)
        reference = est.estimate(values, np.random.default_rng(7))
        monkeypatch.setenv("REPRO_BATCH_CHUNK", str(chunk))
        chunked = est.estimate(values, np.random.default_rng(7))
        assert chunked.value == reference.value
        np.testing.assert_array_equal(chunked.counts, reference.counts)

    @pytest.mark.parametrize("mode", ["basic", "adaptive"])
    @pytest.mark.parametrize("chunk", [1, 37, None])
    def test_estimate_clients_twin(self, devices, one_value_devices, mode, chunk):
        cls = BasicBitPushing if mode == "basic" else AdaptiveBitPushing
        encoder = FixedPointEncoder.for_integers(10)
        # One-value clients elicit a read-only view of the population.
        for population in (devices, one_value_devices):
            gen = np.random.default_rng(17)
            values = elicit_batch([d.values for d in population], "sample", gen)
            reference = cls(encoder).estimate(values, gen)
            columnar = cls(encoder).estimate_clients(
                ClientBatch.from_devices(population),
                rng=np.random.default_rng(17),
                chunk=chunk,
            )
            assert columnar.value == reference.value
            np.testing.assert_array_equal(columnar.counts, reference.counts)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DuchiMechanism(0.0, 1000.0, epsilon=1.0),
            lambda: PiecewiseMechanism(0.0, 1000.0, epsilon=1.0),
            lambda: HybridMechanism(0.0, 1000.0, epsilon=1.0),
            lambda: LaplaceMean(0.0, 1000.0, epsilon=1.0),
            lambda: SubtractiveDithering(0.0, 1000.0),
            lambda: RandomizedRounding(0.0, 1000.0),
        ],
        ids=["duchi", "piecewise", "hybrid", "laplace", "dithering", "rounding"],
    )
    @pytest.mark.parametrize("chunk", [1, 37])
    def test_baseline_estimate_clients_twin(
        self, devices, one_value_devices, factory, chunk
    ):
        for population in (devices, one_value_devices):
            gen = np.random.default_rng(23)
            values = elicit_batch([d.values for d in population], "sample", gen)
            reference = factory().estimate(values, gen)
            columnar = factory().estimate_clients(
                ClientBatch.from_devices(population),
                rng=np.random.default_rng(23),
                chunk=chunk,
            )
            assert columnar.value == reference.value
            assert columnar.n_clients == reference.n_clients
            assert columnar.method == reference.method


# ----------------------------------------------------------------------
# Federated server twins: run(devices) == run(batch), chunk-invariant
# ----------------------------------------------------------------------


class TestFederatedTwins:
    def run_query(self, population, mode, ldp, chunk_clients, seed=41, lossless=False):
        """A lossy round over a subsampled cohort, or a lossless whole-population one."""
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(8),
            mode=mode,
            perturbation=RandomizedResponse(epsilon=2.0) if ldp else None,
            dropout=None if lossless else DropoutModel(rate=0.1),
            network=None if lossless else NetworkModel(loss_rate=0.05),
            chunk_clients=chunk_clients,
        )
        if lossless:
            return query.run(population, rng=seed)
        return query.run(
            population,
            rng=seed,
            eligibility=attribute_equals("geo", "us"),
            cohort_size=40,
        )

    @pytest.mark.parametrize("mode", ["basic", "adaptive"])
    @pytest.mark.parametrize("ldp", [False, True])
    def test_run_twin(self, devices, one_value_devices, mode, ldp):
        # The lossy cases take survivors; the lossless ones pass the cohort
        # through, over ragged and one-value (draw-free elicit) populations.
        cases = [
            (devices, False),
            (devices, True),
            (one_value_devices, True),
        ]
        for population, lossless in cases:
            reference = self.run_query(population, mode, ldp, None, lossless=lossless)
            batch = ClientBatch.from_devices(population)
            for chunk in (None, 1, 13):
                columnar = self.run_query(batch, mode, ldp, chunk, lossless=lossless)
                assert columnar.value == reference.value
                assert len(columnar.rounds) == len(reference.rounds)
                for ref_round, col_round in zip(reference.rounds, columnar.rounds):
                    np.testing.assert_array_equal(col_round.bit_means, ref_round.bit_means)
                    np.testing.assert_array_equal(col_round.counts, ref_round.counts)
                    assert col_round.n_clients == ref_round.n_clients
            if lossless:
                assert sum(r.n_clients for r in reference.rounds) == len(population)

    def test_lossless_round_takes_nothing(self, monkeypatch, one_value_devices):
        calls = []
        original_take = ClientBatch.take

        def counting_take(self, indices):
            calls.append(len(indices))
            return original_take(self, indices)

        monkeypatch.setattr(ClientBatch, "take", counting_take)
        batch = ClientBatch.from_devices(one_value_devices)
        estimate = self.run_query(batch, "basic", False, None, lossless=True)
        assert estimate.rounds[0].n_clients == len(batch)
        assert calls == []

    def test_redrawn_retry_converts_devices_once(self, monkeypatch, devices):
        # Both adaptive rounds and the redrawn retry reuse run()'s one batch.
        calls = []
        original_from_devices = ClientBatch.from_devices

        def counting_from_devices(population):
            calls.append(len(population))
            return original_from_devices(population)

        monkeypatch.setattr(ClientBatch, "from_devices", staticmethod(counting_from_devices))
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(8),
            faults=FaultSchedule.from_spec("1:blackout"),
            retry=RetryPolicy(max_attempts=2, redraw_cohort=True),
        )
        estimate = query.run(
            devices, rng=3, eligibility=attribute_equals("geo", "us"), cohort_size=40
        )
        assert estimate.metadata["round_attempts"] == [2, 1]
        assert calls == [len(devices)]

    def test_chunk_clients_validated(self):
        with pytest.raises(ConfigurationError, match="chunk"):
            FederatedMeanQuery(FixedPointEncoder.for_integers(8), chunk_clients=0)

    def test_lossless_million_client_round_stays_compact(self):
        # One byte of assignment per client plus chunk-sized temporaries:
        # any cohort-sized int64 array (assignment, copy or survivor index)
        # would push the peak past 4 B per client.
        batch = ClientBatch.from_values(fleet_values(10**6, 0))
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(10), mode="basic",
            chunk_clients=DEFAULT_CHUNK_CLIENTS,
        )
        assert query.run(batch, rng=1).value == 600.2256289440697
        tracemalloc.start()
        try:
            query.run(batch, rng=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(batch), f"{peak / len(batch):.2f} B per client"


# ----------------------------------------------------------------------
# Cohort selection twins
# ----------------------------------------------------------------------


class TestCohortSelection:
    def test_select_indices_stream_identical(self, devices, batch):
        selector = CohortSelector(min_cohort_size=2)
        obj = selector.select_indices(
            devices, attribute_equals("geo", "us"), cohort_size=20, rng=9
        )
        col = selector.select_indices(
            batch, attribute_equals("geo", "us"), cohort_size=20, rng=9
        )
        np.testing.assert_array_equal(obj, col)

    def test_full_population_no_copy(self, batch):
        selector = CohortSelector(min_cohort_size=2)
        # No predicate, no subsampling: the batch itself comes back.
        assert selector.select(batch, rng=0) is batch

    def test_mask_eligibility(self, devices, batch):
        cohort = CohortSelector(min_cohort_size=2).select(
            batch, attribute_equals("geo", "eu"), rng=0
        )
        expected = [d.client_id for d in devices if d.attributes["geo"] == "eu"]
        assert cohort.client_ids.tolist() == expected

    def test_plain_callable_on_batch_rejected(self, devices, batch):
        for population in (batch, devices):
            with pytest.raises(ConfigurationError, match="mask"):
                CohortSelector(min_cohort_size=2).select(population, lambda c: True, rng=0)

    def test_sequence_valued_attribute_matches_whole_value(self):
        # A tuple value must compare per device, not broadcast across the
        # tuple's items (nor build a 2-D column from equal-length tuples).
        devices = [ClientDevice(i, [float(i)], {"build": (i, 1)}) for i in range(6)]
        devices[2] = ClientDevice(2, [2.0], {"build": (2, 0)})
        predicate = attribute_equals("build", (2, 0))
        for population in (ClientBatch.from_devices(devices), devices):
            cohort = CohortSelector().select(population, predicate)
            assert cohort.client_ids.tolist() == [2]


# ----------------------------------------------------------------------
# Vectorized grouping in VectorMeanEstimator stays order-identical
# ----------------------------------------------------------------------


class TestVectorGrouping:
    @staticmethod
    def reference_groups(order, n_dims, dims_per_client):
        # The original Python append loop the argsort vectorization replaced.
        offset = max(1, n_dims // dims_per_client)
        groups = [[] for _ in range(n_dims)]
        for position, client in enumerate(order):
            for j in range(dims_per_client):
                groups[(position + j * offset) % n_dims].append(int(client))
        return groups

    @pytest.mark.parametrize("dims_per_client", [1, 2, 3])
    @pytest.mark.parametrize("n_dims", [4, 5])
    def test_estimate_matches_reference_grouping(self, n_dims, dims_per_client):
        if dims_per_client > n_dims:
            pytest.skip("invalid configuration")
        rng = np.random.default_rng(2)
        vectors = rng.normal(0.2, 0.1, size=(300, n_dims))
        encoder = FixedPointEncoder.for_range(-1.0, 1.0, n_bits=8)
        estimator = VectorMeanEstimator(
            encoder, n_dims=n_dims, dims_per_client=dims_per_client
        )
        result = estimator.estimate(vectors, np.random.default_rng(6))

        # Re-run the estimation with the hand-rolled grouping loop.
        gen = np.random.default_rng(6)
        order = gen.permutation(vectors.shape[0])
        groups = self.reference_groups(order, n_dims, dims_per_client)
        for dim in range(n_dims):
            expected = BasicBitPushing(encoder).estimate(
                vectors[groups[dim], dim], gen
            )
            assert result.per_dim[dim].value == expected.value
