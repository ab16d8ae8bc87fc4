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
    pairwise_mask_sign,
    philox4x64,
    reconstruct_secret,
    reconstruct_secrets,
    secure_sum,
    split_secret,
    split_secrets,
)
from repro.federated.secure_agg import protocol
from repro.federated.secure_agg.protocol import _pair_index
from repro.observability import MetricsRegistry, configure, disable


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

    def test_vectors(self):
        f = PrimeField(97)
        assert f.add_vectors([96, 1], [2, 2]) == [1, 3]
        assert f.sub_vectors([0, 5], [1, 2]) == [96, 3]

    def test_vector_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            PrimeField(97).add_vectors([1], [1, 2])

    def test_centered_recovers_signed(self):
        f = PrimeField(97)
        assert f.centered(f.reduce(-5)) == -5
        assert f.centered(40) == 40

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
        field = PrimeField()
        assert expand_mask(123, 5, field) == expand_mask(123, 5, field)

    def test_different_seeds_differ(self):
        field = PrimeField()
        assert expand_mask(1, 5, field) != expand_mask(2, 5, field)

    def test_mask_values_in_field(self):
        field = PrimeField(97)
        assert all(0 <= v < 97 for v in expand_mask(9, 100, field))

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_mask(1, -1, PrimeField())

    def test_sign_convention_antisymmetric(self):
        assert pairwise_mask_sign(1, 2) == -pairwise_mask_sign(2, 1)

    def test_self_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            pairwise_mask_sign(3, 3)

    def test_pairwise_masks_cancel_in_sum(self):
        field = PrimeField()
        seeds = {(0, 1): 11, (0, 2): 22, (1, 2): 33}
        values = [[10, 20], [30, 40], [50, 60]]
        total = [0, 0]
        for me in range(3):
            pair_seeds = {
                other: seeds[(min(me, other), max(me, other))]
                for other in range(3) if other != me
            }
            masked = apply_masks(values[me], self_seed=0, pairwise_seeds=pair_seeds,
                                 my_id=me, field=field)
            total = field.add_vectors(total, masked)
        # Self-seeds were all 0 -> expand(0) identical for all three clients,
        # so subtract it three times to isolate the data sum.
        zero_mask = expand_mask(0, 2, field)
        for _ in range(3):
            total = field.sub_vectors(total, zero_mask)
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

    def test_add_sub_arrays_match_vectors(self, rng):
        field = PrimeField()
        a = field.reduce_array(rng.integers(0, 2**60, size=32))
        b = field.reduce_array(rng.integers(0, 2**60, size=32))
        assert field.add_arrays(a, b).tolist() == field.add_vectors(a.tolist(), b.tolist())
        assert field.sub_arrays(a, b).tolist() == field.sub_vectors(a.tolist(), b.tolist())

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 20, 50])
    def test_sum_rows_exact_for_any_block_count(self, k, rng):
        field = PrimeField()
        # Near-modulus rows stress the uint64 block-folding headroom.
        rows = field.reduce_array(
            rng.integers(field.modulus - 10, field.modulus, size=(k, 5))
        )
        expected = [
            int(sum(int(v) for v in rows[:, j]) % field.modulus) for j in range(5)
        ]
        assert field.sum_rows(rows).tolist() == expected

    def test_centered_array_matches_scalar(self):
        field = PrimeField(97)
        values = np.array([0, 1, 48, 49, 96], dtype=np.uint64)
        assert field.centered_array(values).tolist() == [
            field.centered(int(v)) for v in values
        ]

    def test_oversized_modulus_rejected_for_array_ops(self):
        # 2**89 - 1 is a Mersenne prime above the uint64 vectorization bound.
        field = PrimeField(2**89 - 1)
        with pytest.raises(ConfigurationError):
            field.reduce_array(np.zeros(3, dtype=np.int64))


class TestExpandMasks:
    def test_rows_bit_identical_to_expand_mask(self):
        field = PrimeField()
        seeds = [0, 1, 123, field.modulus - 1]
        batched = expand_masks(seeds, 16, field)
        assert batched.shape == (4, 16)
        assert batched.dtype == np.uint64
        for row, seed in zip(batched, seeds):
            assert [int(v) for v in row] == expand_mask(seed, 16, field)

    def test_zero_length(self):
        assert expand_masks([1, 2], 0, PrimeField()).shape == (2, 0)

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
        field = PrimeField()
        for seed in (0, 7, 123456789, field.modulus - 1):
            expected = np.random.Philox(key=seed).random_raw(12)[:11] % np.uint64(
                field.modulus
            )
            np.testing.assert_array_equal(
                expand_masks([seed], 11, field)[0], expected
            )

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
        # Inner dimensions straddle the 2**11 float64 block edge; all-(p-1)
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

    def test_generic_modulus_fallback(self, rng):
        field = PrimeField(97)
        a = field.reduce_array(rng.integers(0, 97, size=(4, 40)))
        b = field.reduce_array(rng.integers(0, 97, size=(40, 3)))
        out = field.matmul_arrays(a, b)
        assert out.dtype == np.uint64
        assert out.tolist() == _python_matmul(a, b, 97)


class TestSumIndexed:
    def test_matches_per_row_sums(self, rng):
        field = PrimeField()
        rows = field.reduce_array(
            rng.integers(field.modulus - 5, field.modulus, size=(7, 4))
        )
        indices = np.asarray([[0, 1, 2], [4, 5, 6]], dtype=np.intp)
        out = field.sum_indexed(rows, indices)
        for got, picks in zip(out, indices):
            expected = [
                int(sum(int(rows[i, j]) for i in picks) % field.modulus)
                for j in range(4)
            ]
            assert got.tolist() == expected

    def test_sentinel_zero_row_padding(self):
        # Ragged index lists are padded with the index of an all-zero
        # sentinel row; repeated sentinel picks must not change the sum.
        field = PrimeField()
        rows = np.vstack(
            [
                field.reduce_array(np.asarray([[5, 6], [7, 8]])),
                np.zeros((1, 2), dtype=np.uint64),
            ]
        )
        indices = np.asarray([[0, 2, 2, 2], [0, 1, 2, 2]], dtype=np.intp)
        out = field.sum_indexed(rows, indices)
        assert out.tolist() == [[5, 6], [12, 14]]


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
        vecs = rng.integers(0, 1000, size=(8, 6))
        session = SecureAggregationSession(8, 6, threshold=5, rng=11)
        ids = [0, 1, 3, 4, 6, 7]  # clients 2 and 5 drop out
        masked = session.submit_batch(ids, vecs[ids])
        for row, cid in zip(masked, ids):
            expected = apply_masks(
                [int(v) for v in vecs[cid]],
                session._self_seeds[cid],
                session.client_pairwise_seeds(cid),
                cid,
                session.field,
            )
            assert row.tolist() == expected
        assert session.finalize() == vecs[ids].sum(axis=0).tolist()

    def test_masked_rows_pinned_to_reference_values(self):
        vecs = np.random.default_rng(7).integers(0, 50, size=(9, 5))
        ids = [0, 1, 2, 4, 5, 7, 8]
        session = SecureAggregationSession(9, 5, threshold=6, rng=2024)
        rows = session.submit_batch(ids, vecs[ids])
        assert rows[0, :2].tolist() == [185200800123065923, 1549877135486645687]
        digest = hashlib.sha256(rows.astype("<u8").tobytes()).hexdigest()
        assert digest.startswith("b5a00fb66aa58ec3")
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
