"""Secure aggregation: field, Shamir, masking, and the full protocol."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SecureAggregationError
from repro.federated.secure_agg import (
    DEFAULT_PRIME,
    PrimeField,
    SecureAggregationSession,
    Share,
    apply_masks,
    default_threshold,
    expand_mask,
    expand_masks,
    hierarchical_secure_sum,
    mask_ring,
    pairwise_mask_sign,
    philox4x64,
    reconstruct_secret,
    reconstruct_secrets,
    secure_sum,
    split_secret,
    split_secret_sets,
    split_secrets,
)
from repro.federated.secure_agg import protocol
from repro.federated.secure_agg.protocol import _pair_index
from repro.federated.secure_agg.shamir import _lagrange_weights_at_zero, reconstruct_secret_sets
from repro.observability import (
    InMemoryExporter,
    MetricsRegistry,
    Tracer,
    configure,
    disable,
    instrumented,
)

#: The four ring lanes, 8 to 64 bits.
LANES = (np.uint8, np.uint16, np.uint32, np.uint64)


class TestPrimeField:
    def test_default_prime_is_mersenne_61(self):
        assert DEFAULT_PRIME == 2**61 - 1

    def test_composite_modulus_rejected(self):
        with pytest.raises(ConfigurationError):
            PrimeField(100)
        with pytest.raises(ConfigurationError):
            PrimeField(2**61)   # not prime

    def test_arithmetic(self):
        f = PrimeField(97)
        assert f.add(95, 5) == 3
        assert f.sub(2, 5) == 94
        assert f.mul(10, 10) == 3
        assert f.neg(1) == 96

    def test_inverse(self):
        f = PrimeField(97)
        for a in (1, 2, 50, 96):
            assert f.mul(a, f.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(97).inv(0)

    def test_random_element_in_range(self, rng):
        f = PrimeField(97)
        for _ in range(50):
            assert 0 <= f.random_element(rng) < 97


class TestShamir:
    def test_roundtrip_any_threshold_subset(self):
        field = PrimeField()
        shares = split_secret(987654321, n_shares=7, threshold=4, field=field, rng=0)
        for subset in ([0, 1, 2, 3], [3, 4, 5, 6], [0, 2, 4, 6]):
            picked = [shares[i] for i in subset]
            assert reconstruct_secret(picked, field) == 987654321

    def test_more_shares_than_threshold_still_work(self):
        field = PrimeField()
        shares = split_secret(42, n_shares=5, threshold=2, field=field, rng=1)
        assert reconstruct_secret(shares, field) == 42

    def test_below_threshold_gives_garbage(self):
        field = PrimeField()
        shares = split_secret(42, n_shares=5, threshold=3, field=field, rng=2)
        assert reconstruct_secret(shares[:2], field) != 42

    def test_single_share_with_threshold_one(self):
        field = PrimeField()
        shares = split_secret(7, n_shares=3, threshold=1, field=field, rng=3)
        assert reconstruct_secret([shares[2]], field) == 7

    def test_duplicate_points_rejected(self):
        field = PrimeField()
        shares = split_secret(7, n_shares=3, threshold=2, field=field, rng=4)
        with pytest.raises(SecureAggregationError):
            reconstruct_secret([shares[0], shares[0]], field)

    def test_empty_rejected(self):
        with pytest.raises(SecureAggregationError):
            reconstruct_secret([], PrimeField())

    def test_invalid_threshold(self):
        field = PrimeField()
        with pytest.raises(ConfigurationError):
            split_secret(1, n_shares=3, threshold=0, field=field)
        with pytest.raises(ConfigurationError):
            split_secret(1, n_shares=3, threshold=4, field=field)

    def test_secret_reduced_into_field(self):
        field = PrimeField(97)
        shares = split_secret(200, n_shares=3, threshold=2, field=field, rng=5)
        assert reconstruct_secret(shares[:2], field) == 200 % 97


class TestMasking:
    def test_expand_deterministic(self):
        for lane in LANES:
            assert expand_mask(123, 5, lane) == expand_mask(123, 5, lane)

    def test_different_seeds_differ(self):
        for lane in LANES:
            assert expand_mask(1, 5, lane) != expand_mask(2, 5, lane)

    def test_mask_values_in_field(self):
        # Masks live in the ring of the lane: every value is one lane word.
        for lane in LANES:
            top = 1 << (8 * np.dtype(lane).itemsize)
            assert all(0 <= v < top for v in expand_mask(9, 100, lane))

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_mask(1, -1, PrimeField())

    def test_sign_convention_antisymmetric(self):
        assert pairwise_mask_sign(1, 2) == -pairwise_mask_sign(2, 1)

    def test_self_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            pairwise_mask_sign(3, 3)

    def test_pairwise_masks_cancel_in_sum(self):
        lane, modulus = np.uint16, 1 << 16
        seeds = {(0, 1): 11, (0, 2): 22, (1, 2): 33}
        values = [[10, 20], [30, 40], [50, 60]]
        total = [0, 0]
        for me in range(3):
            pair_seeds = {
                other: seeds[(min(me, other), max(me, other))]
                for other in range(3) if other != me
            }
            masked = apply_masks(values[me], self_seed=0, pairwise_seeds=pair_seeds,
                                 my_id=me, dtype=lane)
            total = [(t + m) % modulus for t, m in zip(total, masked)]
        # Self-seeds were all 0 -> expand(0) identical for all three clients,
        # so subtract it three times to isolate the data sum.
        zero_mask = expand_mask(0, 2, lane)
        total = [(t - 3 * z) % modulus for t, z in zip(total, zero_mask)]
        assert total == [90, 120]


class TestSession:
    def test_exact_sum_no_dropout(self):
        session = SecureAggregationSession(5, 4, threshold=3, rng=0)
        expected = [0, 0, 0, 0]
        for cid in range(5):
            vec = [cid, cid * 2, 7, 1]
            expected = [e + v for e, v in zip(expected, vec)]
            session.submit(cid, vec)
        assert session.finalize() == expected

    @pytest.mark.parametrize("dropped", [{1}, {0, 4}, {2, 3}])
    def test_sum_with_dropouts(self, dropped):
        session = SecureAggregationSession(5, 3, threshold=3, rng=1)
        expected = [0, 0, 0]
        for cid in range(5):
            if cid in dropped:
                continue
            vec = [cid + 1, 10, cid]
            expected = [e + v for e, v in zip(expected, vec)]
            session.submit(cid, vec)
        assert session.finalize() == expected
        assert session.dropout_count == len(dropped)

    def test_below_threshold_fails(self):
        session = SecureAggregationSession(5, 2, threshold=4, rng=2)
        session.submit(0, [1, 1])
        session.submit(1, [1, 1])
        with pytest.raises(SecureAggregationError):
            session.finalize()

    def test_standalone_finalize_records_its_threshold_check(self):
        exporter = InMemoryExporter()
        with instrumented(Tracer([exporter])):
            session = SecureAggregationSession(4, 1, threshold=3, rng=2)
            session.submit_batch([0, 1, 3], [[1], [1], [1]])
            assert session.finalize() == [3]
            failing = SecureAggregationSession(4, 1, threshold=3, rng=2)
            failing.submit(0, [1])
            with pytest.raises(SecureAggregationError):
                failing.finalize()
        passed, failed = exporter.find("secure_agg.finalize")
        assert passed.attributes == {
            "n_clients": 4, "submitted": 3, "dropouts": 1, "threshold": 3
        }
        assert failed.attributes["submitted"] == 1
        assert "threshold is 3" in failed.attributes["error"]

    def test_masked_submission_hides_plaintext(self):
        session = SecureAggregationSession(3, 4, threshold=2, rng=3)
        masked = session.submit(0, [5, 5, 5, 5])
        # The wire message is a uniform field vector; the odds it equals the
        # plaintext are negligible.
        assert masked != [5, 5, 5, 5]

    def test_double_submit_rejected(self):
        session = SecureAggregationSession(3, 1, threshold=2, rng=4)
        session.submit(0, [1])
        with pytest.raises(SecureAggregationError):
            session.submit(0, [1])

    def test_wrong_vector_length_rejected(self):
        session = SecureAggregationSession(3, 2, threshold=2, rng=5)
        with pytest.raises(ConfigurationError):
            session.submit(0, [1])

    def test_unknown_client_rejected(self):
        session = SecureAggregationSession(3, 1, threshold=2, rng=6)
        with pytest.raises(ConfigurationError):
            session.submit(7, [1])

    def test_finalize_twice_rejected(self):
        session = SecureAggregationSession(2, 1, threshold=2, rng=7)
        session.submit(0, [1])
        session.submit(1, [2])
        assert session.finalize() == [3]
        with pytest.raises(SecureAggregationError):
            session.finalize()

    def test_submit_after_finalize_rejected(self):
        session = SecureAggregationSession(3, 1, threshold=2, rng=8)
        session.submit(0, [1])
        session.submit(1, [2])
        session.finalize()
        with pytest.raises(SecureAggregationError):
            session.submit(2, [3])

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            SecureAggregationSession(1, 2, threshold=1)
        with pytest.raises(ConfigurationError):
            SecureAggregationSession(3, 0, threshold=2)
        with pytest.raises(ConfigurationError):
            SecureAggregationSession(3, 2, threshold=5)


class TestSecureSum:
    def test_matches_plain_sum(self, rng):
        vecs = rng.integers(0, 1000, size=(10, 6))
        np.testing.assert_array_equal(secure_sum(vecs, rng=0), vecs.sum(axis=0))

    def test_with_dropouts(self, rng):
        vecs = rng.integers(0, 100, size=(9, 3))
        submitted = np.ones(9, dtype=bool)
        submitted[[2, 5]] = False
        np.testing.assert_array_equal(
            secure_sum(vecs, submitted, rng=1), vecs[submitted].sum(axis=0)
        )

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            secure_sum(np.zeros(5))
        with pytest.raises(ConfigurationError):
            secure_sum(np.zeros((4, 2)), submitted=np.ones(3, dtype=bool))


class TestArrayFieldOps:
    """The vectorized uint64 kernels agree exactly with the scalar path."""

    def test_reduce_array_matches_scalar(self, rng):
        field = PrimeField()
        raw = rng.integers(-(2**40), 2**40, size=50)
        reduced = field.reduce_array(raw)
        assert reduced.dtype == np.uint64
        assert reduced.tolist() == [field.reduce(int(v)) for v in raw]

    def test_oversized_modulus_rejected_for_array_ops(self):
        # 2**89 - 1 is a Mersenne prime above the uint64 vectorization bound.
        field = PrimeField(2**89 - 1)
        with pytest.raises(ConfigurationError):
            field.reduce_array(np.zeros(3, dtype=np.int64))


class TestExpandMasks:
    def test_rows_bit_identical_to_expand_mask(self):
        seeds = [0, 1, 123, DEFAULT_PRIME - 1]
        for lane in LANES:
            batched = expand_masks(seeds, 16, lane)
            assert batched.shape == (4, 16)
            assert batched.dtype == lane
            for row, seed in zip(batched, seeds):
                assert row.tolist() == expand_mask(seed, 16, lane)

    def test_zero_length(self):
        for lane in LANES:
            assert expand_masks([1, 2], 0, lane).shape == (2, 0)

    def test_signed_lane_rejected(self):
        with pytest.raises(ConfigurationError, match="unsigned"):
            expand_masks([1], 4, np.int64)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_masks([1], -1, PrimeField())


class TestPhiloxKernel:
    """The numpy philox4x64-10 kernel is pinned to numpy's own Philox."""

    def test_pinned_to_numpy_philox_random_raw(self, rng):
        keys = [0, 1, 2**32, DEFAULT_PRIME - 1] + [
            int(k) for k in rng.integers(0, DEFAULT_PRIME, size=8)
        ]
        counters = np.arange(1, 6, dtype=np.uint64)
        lanes = philox4x64(
            np.asarray(keys, dtype=np.uint64)[:, None], counters[None, :]
        )
        ours = np.stack(lanes, axis=-1)  # (keys, counters, 4)
        for i, key in enumerate(keys):
            # numpy pre-increments the counter, so its raw block j holds
            # the kernel's output at counter j + 1.
            raw = np.random.Philox(key=key).random_raw(20).reshape(5, 4)
            np.testing.assert_array_equal(ours[i], raw)

    def test_expand_masks_matches_numpy_stream(self):
        # A row is the little-endian bytes of the seed's raw stream read as
        # lane words; 70 words span several Philox blocks in every lane, and
        # the 64-bit rows are the raw words themselves (no field reduction).
        for lane in LANES:
            for seed in (0, 7, 123456789, DEFAULT_PRIME - 1):
                raw = np.random.Philox(key=seed).random_raw(72).astype("<u8")
                expected = raw.view(f"<u{np.dtype(lane).itemsize}")[:70]
                np.testing.assert_array_equal(expand_masks([seed], 70, lane)[0], expected)

    def test_broadcasts_scalar_inputs(self):
        scalar = philox4x64(np.uint64(5), np.uint64(1))
        grid = philox4x64(np.full((2, 3), 5, dtype=np.uint64), np.uint64(1))
        for lane_s, lane_g in zip(scalar, grid):
            assert lane_g.shape == (2, 3)
            assert (lane_g == lane_s).all()


def _python_matmul(a, b, modulus):
    """Exact ``(a @ b) mod p`` with Python ints, one dot product at a time."""
    columns = b.T.tolist()
    return [
        [sum(x * y for x, y in zip(row, col)) % modulus for col in columns]
        for row in a.tolist()
    ]


class TestMatmulArrays:
    @pytest.mark.parametrize("operands", ["random", "p-1"])
    @pytest.mark.parametrize("inner", [1, 7, 2047, 2048, 2049, 5000])
    def test_matches_python_int_reference(self, inner, operands, rng):
        # Inner dimensions span several 682-term float64 blocks; all-(p-1)
        # operands put every 21-bit limb at its maximum.
        field = PrimeField()
        if operands == "random":
            a = field.reduce_array(rng.integers(0, field.modulus, size=(3, inner)))
            b = field.reduce_array(rng.integers(0, field.modulus, size=(inner, 4)))
        else:
            a = np.full((3, inner), field.modulus - 1, dtype=np.uint64)
            b = np.full((inner, 4), field.modulus - 1, dtype=np.uint64)
        out = field.matmul_arrays(a, b)
        assert out.dtype == np.uint64
        assert out.tolist() == _python_matmul(a, b, field.modulus)

    def test_near_modulus_corners(self):
        field = PrimeField()
        edge = np.asarray([0, 1, 2, field.modulus - 2, field.modulus - 1], dtype=np.uint64)
        outer = field.matmul_arrays(edge[:, None], edge[None, :])
        assert outer.tolist() == [[field.mul(int(x), int(y)) for y in edge] for x in edge]

    @pytest.mark.parametrize("inner", [22, 681, 682, 683, 1365])
    def test_stacked_left_operand_equals_one_product_each(self, inner, rng):
        # Inner dimensions straddle the 682-term float64 block edge; all-(p-1)
        # operands put every limb at its maximum.
        field = PrimeField()
        top = field.modulus - 1
        operands = [
            (
                field.reduce_array(rng.integers(0, field.modulus, size=(4, 5, inner))),
                field.reduce_array(rng.integers(0, field.modulus, size=(inner, 6))),
            ),
            (np.full((3, 5, inner), top, np.uint64), np.full((inner, 6), top, np.uint64)),
        ]
        for a, b in operands:
            out = field.matmul_arrays(a, b)
            assert out.shape == a.shape[:2] + (6,)
            for stacked, left in zip(out, a):
                assert stacked.tolist() == _python_matmul(left, b, field.modulus)

    def test_generic_modulus_fallback(self, rng):
        field = PrimeField(97)
        a = field.reduce_array(rng.integers(0, 97, size=(4, 40)))
        b = field.reduce_array(rng.integers(0, 97, size=(40, 3)))
        out = field.matmul_arrays(a, b)
        assert out.dtype == np.uint64
        assert out.tolist() == _python_matmul(a, b, 97)


class TestBatchedShamir:
    def test_split_secrets_stream_identical_to_scalar_loop(self, rng):
        field = PrimeField()
        secrets = [int(s) for s in rng.integers(0, field.modulus, size=9)]
        batched = split_secrets(
            secrets, n_shares=7, threshold=5, field=field, rng=np.random.default_rng(3)
        )
        gen = np.random.default_rng(3)
        for row, secret in zip(batched, secrets):
            shares = split_secret(secret, n_shares=7, threshold=5, field=field, rng=gen)
            assert [int(y) for y in row] == [s.y for s in shares]
            assert [s.x for s in shares] == list(range(1, 8))

    def test_split_secret_sets_equal_one_split_each(self, rng):
        field = PrimeField()
        rows = rng.integers(0, field.modulus, size=(3, 9)).astype(np.uint64)
        stacked = split_secret_sets(
            rows, 7, 5, field, [np.random.default_rng(seed) for seed in range(3)]
        )
        assert stacked.shape == (3, 9, 7)
        for seed, (shares, secrets) in enumerate(zip(stacked, rows)):
            one = split_secrets(secrets, 7, 5, field, np.random.default_rng(seed))
            np.testing.assert_array_equal(shares, one)

    def test_reconstruct_secrets_matches_scalar(self, rng):
        field = PrimeField()
        secrets = [int(s) for s in rng.integers(0, field.modulus, size=6)]
        shares_matrix = split_secrets(
            secrets, n_shares=5, threshold=3, field=field, rng=1
        )
        xs = [2, 4, 5]
        ys = shares_matrix[:, [x - 1 for x in xs]]
        batched = reconstruct_secrets(xs, ys, field, expected_threshold=3)
        assert batched.tolist() == secrets
        for row, secret in zip(ys, secrets):
            shares = [Share(x=x, y=int(y)) for x, y in zip(xs, row)]
            assert reconstruct_secret(shares, field, expected_threshold=3) == secret

    def test_threshold_one_constant_polynomial(self):
        field = PrimeField()
        out = split_secrets([42, 7], n_shares=3, threshold=1, field=field, rng=0)
        assert out.tolist() == [[42, 42, 42], [7, 7, 7]]

    def test_batched_error_cases(self):
        field = PrimeField()
        ys = np.ones((2, 2), dtype=np.uint64)
        with pytest.raises(SecureAggregationError, match="zero shares"):
            reconstruct_secrets([], np.zeros((1, 0), dtype=np.uint64), field)
        with pytest.raises(SecureAggregationError, match="needs >= 3 shares"):
            reconstruct_secrets([1, 2], ys, field, expected_threshold=3)
        with pytest.raises(SecureAggregationError, match="duplicate"):
            reconstruct_secrets([1, 1], ys, field)
        with pytest.raises(ConfigurationError, match="2 columns for 3 points"):
            reconstruct_secrets([1, 2, 3], ys, field)
        with pytest.raises(ConfigurationError, match="threshold"):
            split_secrets([1], n_shares=2, threshold=3, field=field, rng=0)
        # Points equal mod p are one point: a domain error, not a bare
        # ZeroDivisionError, and never a silent zero from the batched inverse.
        small = PrimeField(97)
        with pytest.raises(SecureAggregationError, match="duplicate share points"):
            reconstruct_secrets([1, 98], ys, small)
        with pytest.raises(SecureAggregationError, match="duplicate share points"):
            reconstruct_secret([Share(1, 5), Share(98, 6)], small)

    def test_sets_match_one_reconstruction_each(self, rng, monkeypatch):
        field = PrimeField()
        point_sets = [[1, 3, 4], [2, 3, 5, 6, 7], [2, 4, 5], [1, 2, 3, 4, 5]]
        blocks, expected = [], []
        for xs in point_sets:
            secrets = rng.integers(0, field.modulus, size=4).astype(np.uint64)
            shares = split_secrets(secrets, 7, len(xs), field, rng)
            blocks.append(shares[:, [x - 1 for x in xs]])
            expected.append(secrets.tolist())
        calls = []
        matmul = PrimeField.matmul_arrays

        def counting(self, a, b):
            calls.append(b.shape)
            return matmul(self, a, b)

        monkeypatch.setattr(PrimeField, "matmul_arrays", counting)
        got = reconstruct_secret_sets(point_sets, blocks, field, [3, 5, 3, 5])
        assert [g.tolist() for g in got] == expected
        # One product per set size: two sets of 3 points, two of 5.
        assert sorted(calls) == [(3, 2), (5, 2)]
        for xs, ys, secrets in zip(point_sets, blocks, expected):
            assert reconstruct_secrets(xs, ys, field).tolist() == secrets
        with pytest.raises(SecureAggregationError, match="needs >= 4 shares"):
            reconstruct_secret_sets(point_sets, blocks, field, [3, 5, 4, 5])


class TestLagrangeWeights:
    """The batched-inversion weights against the scalar interpolation."""

    # 200 distinct non-zero points need a modulus above 200.
    @pytest.mark.parametrize(
        "modulus, n_points",
        [(p, k) for p in (97, 2**31 - 1, 2**61 - 1) for k in (1, 2, 22, 200) if k < p],
    )
    def test_agree_with_scalar_reconstruct(self, modulus, n_points):
        field = PrimeField(modulus)
        draw = np.random.default_rng([modulus % 1000, n_points])
        t = n_points
        # Rounds interpolate at the first t survivors of 1..n after dropout,
        # which the excluded-point formula covers.  Points spread wider
        # than 2t, a point past the modulus and a point below 1 take each
        # weight's own products instead.
        n = min(modulus - 1, t + t // 2)
        dropped = set(draw.choice(n, int(draw.integers(0, n - t + 1)), replace=False) + 1)
        point_sets = [
            tuple(int(x) + 1 for x in draw.choice(modulus - 1, t, replace=False)),
            tuple(x for x in range(1, n + 1) if x not in dropped)[:t],
            tuple(range(1, 3 * t, 3)),
            tuple(range(1, t)) + (modulus + t,),
            (-2,) + tuple(range(1, t)),
        ]
        for xs in point_sets:
            weights = _lagrange_weights_at_zero(xs, modulus)
            # The weights are the interpolation's basis at zero, so any share
            # values combine through them exactly as the scalar twin does.
            for _ in range(3 if xs is point_sets[0] else 1):
                ys = [int(y) for y in draw.integers(0, modulus, t)]
                expected = reconstruct_secret([Share(x, y) for x, y in zip(xs, ys)], field)
                assert sum(w * y for w, y in zip(weights, ys)) % modulus == expected
            if t <= 22:
                for i in range(t):
                    unit = [Share(x, int(i == j)) for j, x in enumerate(xs)]
                    assert weights[i] == reconstruct_secret(unit, field)


class TestExpectedThreshold:
    def test_under_threshold_raises_instead_of_garbage(self):
        field = PrimeField()
        shares = split_secret(42, n_shares=5, threshold=3, field=field, rng=0)
        with pytest.raises(SecureAggregationError, match="needs >= 3 shares"):
            reconstruct_secret(shares[:2], field, expected_threshold=3)

    def test_at_threshold_reconstructs(self):
        field = PrimeField()
        shares = split_secret(42, n_shares=5, threshold=3, field=field, rng=0)
        assert reconstruct_secret(shares[:3], field, expected_threshold=3) == 42


class TestDefaultThreshold:
    @pytest.mark.parametrize("n", list(range(1, 200)))
    def test_single_formula_matches_both_historical_copies(self, n):
        # secure_sum used max(2, (2n + 2) // 3); _secure_collect used
        # max(2, ceil(2n / 3)).  The shared helper must equal both.
        assert default_threshold(n) == max(2, (2 * n + 2) // 3)
        assert default_threshold(n) == max(2, math.ceil(2 * n / 3))

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            default_threshold(0)


class TestSubmitBatch:
    def test_bit_identical_to_per_client_submits(self, rng):
        vecs = rng.integers(0, 1000, size=(6, 5))
        one = SecureAggregationSession(6, 5, threshold=4, rng=42)
        two = SecureAggregationSession(6, 5, threshold=4, rng=42)
        per_client = [one.submit(cid, [int(v) for v in vecs[cid]]) for cid in range(6)]
        batched = two.submit_batch(np.arange(6), vecs)
        assert [list(map(int, row)) for row in batched] == per_client
        assert one.finalize() == two.finalize()

    def test_rows_match_scalar_apply_masks_with_two_dropouts(self, rng):
        # Bool rows mask in the 8-bit ring, int64 rows in the 64-bit ring.
        for vecs, bits in ((rng.random((8, 6)) < 0.5, 8), (rng.integers(0, 1000, (8, 6)), 64)):
            session = SecureAggregationSession(8, 6, threshold=5, dtype=vecs.dtype, rng=11)
            assert session.ring.bits == bits
            ids = [0, 1, 3, 4, 6, 7]  # clients 2 and 5 drop out
            masked = session.submit_batch(ids, vecs[ids])
            assert masked.dtype == session.ring.lane
            for row, cid in zip(masked, ids):
                expected = apply_masks(
                    [int(v) for v in vecs[cid]],
                    session._batch.self_seeds[0, cid],
                    session.client_pairwise_seeds(cid),
                    cid,
                    session.ring.lane,
                )
                assert row.tolist() == expected
            assert session.finalize() == vecs[ids].sum(axis=0).tolist()

    def test_masked_rows_pinned_to_reference_values(self):
        # int64 rows: the 64-bit ring, whose masks are raw Philox words.
        vecs = np.random.default_rng(7).integers(0, 50, size=(9, 5))
        ids = [0, 1, 2, 4, 5, 7, 8]
        session = SecureAggregationSession(9, 5, threshold=6, rng=2024)
        rows = session.submit_batch(ids, vecs[ids])
        assert rows[0, :2].tolist() == [16326101864618923556, 15384935190768809353]
        digest = hashlib.sha256(rows.astype("<u8").tobytes()).hexdigest()
        assert digest.startswith("85aac1e01403cdc6")
        assert session.finalize() == [213, 224, 202, 107, 218]

    def test_one_mask_expansion_per_phase(self, monkeypatch, rng):
        calls = []

        def counting_expand_masks(seeds, length, field):
            calls.append(len(seeds))
            return expand_masks(seeds, length, field)

        monkeypatch.setattr(protocol, "expand_masks", counting_expand_masks)
        vecs = rng.integers(0, 50, size=(7, 3))
        session = SecureAggregationSession(7, 3, threshold=5, rng=9)
        ids = [0, 2, 3, 5, 6]
        session.submit_batch(ids, vecs[ids])
        # 5 self-masks and the 20 of 21 pairs touching a submitter.
        assert calls == [5 + 20]
        assert session.finalize() == vecs[ids].sum(axis=0).tolist()
        # 5 reconstructed self-masks and the 5 x 2 survivor-dropout pairs.
        assert calls == [5 + 20, 5 + 10]

    def test_partial_batch_then_finalize_recovers_dropouts(self, rng):
        vecs = rng.integers(0, 50, size=(7, 3))
        session = SecureAggregationSession(7, 3, threshold=5, rng=9)
        ids = [0, 2, 3, 5, 6]
        session.submit_batch(ids, vecs[ids])
        assert session.finalize() == vecs[ids].sum(axis=0).tolist()

    def test_duplicate_ids_in_batch_rejected(self):
        session = SecureAggregationSession(4, 2, threshold=3, rng=0)
        with pytest.raises(SecureAggregationError):
            session.submit_batch([1, 1], np.zeros((2, 2), dtype=np.int64))

    def test_shape_mismatch_rejected(self):
        session = SecureAggregationSession(4, 2, threshold=3, rng=0)
        with pytest.raises(ConfigurationError):
            session.submit_batch([0, 1], np.zeros((2, 3), dtype=np.int64))

    def test_empty_batch_is_noop(self):
        session = SecureAggregationSession(4, 2, threshold=2, rng=0)
        out = session.submit_batch([], np.zeros((0, 2), dtype=np.int64))
        assert out.shape == (0, 2)
        assert session.submitted_clients == ()


class TestPairIndex:
    @pytest.mark.parametrize("n", [2, 3, 7, 32, 33])
    def test_matches_triu_indices_order(self, n):
        i, j = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(_pair_index(i, j, n), np.arange(i.size))


class TestSetupMemory:
    def test_flat_session_setup_peak_stays_small(self):
        # Shamir setup must not materialize a (k, threshold, n_shares)
        # product: at 300 clients that alone would be ~140 MiB per copy.
        tracemalloc.start()
        try:
            SecureAggregationSession(300, 2, default_threshold(300), rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestFinalizeMetrics:
    """The failure counter respects the enabled guard and never double-counts."""

    def _failing_session(self):
        session = SecureAggregationSession(5, 2, threshold=4, rng=2)
        session.submit(0, [1, 1])
        session.submit(1, [1, 1])
        return session

    def test_failure_counted_once_across_repeated_finalize(self):
        registry = MetricsRegistry()
        configure(metrics=registry)
        try:
            session = self._failing_session()
            for _ in range(3):
                with pytest.raises(SecureAggregationError):
                    session.finalize()
            counters = registry.snapshot()["counters"]
            assert counters["secure_agg_failures_total"] == 1
            assert session.failed
        finally:
            disable()

    def test_failure_counter_respects_disabled_metrics(self):
        registry = MetricsRegistry()
        configure(metrics=registry)
        disable()  # NULL_METRICS: nothing may record, success or failure
        session = self._failing_session()
        with pytest.raises(SecureAggregationError):
            session.finalize()
        assert registry.snapshot()["counters"] == {}


class TestMaskRing:
    """The ring is the smallest lane that holds every sum of the session's entries."""

    @pytest.mark.parametrize("n, bits", [(2, 8), (255, 8), (256, 16)])
    def test_bool_rows(self, n, bits):
        ring = mask_ring(bool, n)
        assert (ring.bits, ring.signed, ring.low, ring.high) == (bits, False, 0, 1)
        assert ring.lane == np.dtype(f"uint{bits}")

    def test_uint8_rows_at_33_clients_take_16_bits(self):
        # 33 * 255 = 8415 needs 14 bits.
        assert mask_ring(np.uint8, 32).bits == 16
        assert mask_ring(np.uint8, 33).bits == 16
        assert mask_ring(np.uint8, 257).bits == 16
        assert mask_ring(np.uint8, 258).bits == 32

    def test_int16_rows_take_one_extra_bit(self):
        # Two entries of magnitude <= 32767 sum within 16 unsigned bits, but
        # their signed sum spans [-65536, 65534]: 17 bits, so the 32-bit ring.
        assert (2 * 32767).bit_length() == 16
        ring = mask_ring(np.int16, 2)
        assert (ring.bits, ring.signed) == (32, True)
        # The most negative sum is the binding end: 129 * -128 needs 16 bits.
        assert mask_ring(np.int8, 129).bits == 16

    def test_int64_rows_take_64_bits_with_entry_bound(self):
        ring = mask_ring(np.int64, 3)
        bound = (2**63 - 1) // 3
        assert (ring.bits, ring.signed, ring.low, ring.high) == (64, True, -bound, bound)
        vecs = np.array([[bound, -bound]] * 3)
        assert secure_sum(vecs, rng=0).tolist() == [3 * bound, -3 * bound]
        with pytest.raises(ConfigurationError, match="outside"):
            secure_sum(vecs + np.array([1, 0]), rng=0)

    def test_signed_totals_decode_centered(self):
        session = SecureAggregationSession(3, 2, 2, dtype=np.int16, rng=0)
        assert session.ring.bits == 32
        session.submit_batch([0, 1, 2], np.array([[-32768, 5], [-32768, -9], [7, 1]], np.int16))
        assert session.finalize() == [-65529, -3]

    def test_non_integer_dtype_rejected(self):
        with pytest.raises(ConfigurationError, match="integer or bool"):
            mask_ring(np.float64, 4)
        with pytest.raises(ConfigurationError, match="integer or bool"):
            SecureAggregationSession(3, 2, 2, dtype=np.float32)


def _submit_floats_then_finalize():
    session = SecureAggregationSession(3, 2, 2, rng=0)
    session.submit(0, [1.9, 2.5])
    session.submit(1, [1, 3])
    return session.finalize()


_FRACTIONAL_ROWS = np.array([[0.6, 1.2], [0.7, 0.1], [0.9, 0.9]])


class TestInexactInputRejected:
    """A secure sum never truncates a fractional entry or wraps an overflowing sum."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: secure_sum(_FRACTIONAL_ROWS, rng=0),
            lambda: hierarchical_secure_sum(_FRACTIONAL_ROWS, shard_size=2, rng=0),
            _submit_floats_then_finalize,
            lambda: secure_sum(np.array([[2**62, 0], [2**62, 0]]), rng=0),
        ],
        ids=["secure_sum-floats", "hierarchical-floats", "session-floats", "secure_sum-overflow"],
    )
    def test_raises_one_line_configuration_error(self, run):
        with pytest.raises(ConfigurationError) as info:
            run()
        assert str(info.value) and "\n" not in str(info.value)


class TestMaskedBytes:
    def test_int64_secure_sum_of_length_3_reads_24_bytes_per_client(self, rng):
        registry = MetricsRegistry()
        configure(metrics=registry)
        try:
            submitted = np.ones(7, dtype=bool)
            submitted[[1, 4]] = False
            secure_sum(rng.integers(0, 9, size=(7, 3)), submitted, rng=0)
            counters = registry.snapshot()["counters"]
        finally:
            disable()
        assert counters["secure_agg_masked_bytes_total"] == 5 * 24
