"""Columnar client plane: ClientBatch, chunked kernels, and bit-identity twins.

The contract under test (see ``src/repro/core/client_plane.py``): every
columnar kernel consumes randomness exactly as its object-path twin, for
*any* chunk size -- including chunk = 1 and chunk > n -- so object and
columnar populations produce bit-identical estimates for the same seed.
"""

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
)
from repro.core.client_plane import DEFAULT_CHUNK_CLIENTS
from repro.core.protocol import collect_bit_reports
from repro.exceptions import ConfigurationError, ProtocolError
from repro.federated import (
    ClientDevice,
    CohortSelector,
    DropoutModel,
    FederatedMeanQuery,
    NetworkModel,
    attribute_equals,
)
from repro.federated.multivalue import elicit_batch, ground_truth_mean
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
        with pytest.raises(ConfigurationError, match="outside"):
            batch.take([0, len(batch)])

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one local value"):
            ClientBatch(np.array([1.0]), np.array([0, 0, 1]))
        with pytest.raises(ConfigurationError, match="span"):
            ClientBatch(np.array([1.0, 2.0]), np.array([0, 1]))
        with pytest.raises(ConfigurationError, match="client_ids"):
            ClientBatch(np.array([1.0]), np.array([0, 1]), client_ids=np.array([1, 2]))
        with pytest.raises(ConfigurationError, match="attribute column"):
            ClientBatch(
                np.array([1.0]), np.array([0, 1]), attributes={"geo": np.array([1, 2])}
            )
        with pytest.raises(ConfigurationError, match="no local values"):
            ClientBatch.from_devices([ClientDevice(0, np.empty(0))])


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

    def test_metadata_flags_columnar(self, devices, batch):
        assert self.run_query(batch, "basic", False, None).metadata["columnar"] is True
        assert self.run_query(devices, "basic", False, None).metadata["columnar"] is False

    def test_chunk_clients_validated(self):
        with pytest.raises(ConfigurationError, match="chunk"):
            FederatedMeanQuery(FixedPointEncoder.for_integers(8), chunk_clients=0)


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

    def test_plain_callable_on_batch_rejected(self, batch):
        with pytest.raises(ConfigurationError, match="mask"):
            CohortSelector(min_cohort_size=2).select(batch, lambda c: True, rng=0)


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


# ----------------------------------------------------------------------
# estimate_batch dispatch: no population cap, shared chunk budget
# ----------------------------------------------------------------------


class TestBatchDispatchUncapped:
    def test_large_population_batches_bit_identically(self, monkeypatch):
        # 3000 > the old 2048 cap: rows must still go through estimate_batch
        # and match per-row estimate() exactly.
        rng = np.random.default_rng(4)
        values = rng.normal(300.0, 50.0, size=(3, 3000))
        est = BasicBitPushing(FixedPointEncoder.for_integers(9))
        batched = est.estimate_batch(values, [10, 11, 12])
        scalar = [est.estimate(values[r], np.random.default_rng(10 + r)).value for r in range(3)]
        np.testing.assert_array_equal(batched, scalar)
