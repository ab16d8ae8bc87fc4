"""Property-based tests on the privacy layer and secure aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.secure_agg import (
    PrimeField,
    SecureAggregationSession,
    default_threshold,
    reconstruct_secret,
    split_secret,
)
from repro.privacy import BitMeter, PrivacyAccountant, RandomizedResponse

FIELD = PrimeField()


class TestRandomizedResponseProperties:
    @given(epsilon=st.floats(min_value=0.01, max_value=10.0))
    def test_p_in_valid_range(self, epsilon):
        rr = RandomizedResponse(epsilon=epsilon)
        assert 0.5 < rr.p < 1.0

    @given(epsilon=st.floats(min_value=0.01, max_value=10.0))
    def test_unbias_inverts_expectation_map(self, epsilon):
        """unbias(p*m + (1-p)*(1-m)) == m for every true mean m."""
        rr = RandomizedResponse(epsilon=epsilon)
        for m in (0.0, 0.123, 0.5, 0.9, 1.0):
            reported_mean = rr.p * m + (1 - rr.p) * (1 - m)
            assert rr.unbias_bit_means(np.array([reported_mean]))[0] == pytest.approx(m)

    @given(
        epsilon=st.floats(min_value=0.1, max_value=8.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25)
    def test_perturbation_preserves_shape_and_binaryness(self, epsilon, seed):
        rng = np.random.default_rng(seed)
        rr = RandomizedResponse(epsilon=epsilon)
        bits = rng.integers(0, 2, size=(7, 3)).astype(np.uint8)
        out = rr.perturb_bits(bits, rng)
        assert out.shape == bits.shape
        assert set(np.unique(out)) <= {0, 1}

    @given(eps_small=st.floats(0.1, 2.0), gap=st.floats(0.5, 5.0))
    def test_variance_monotone_in_epsilon(self, eps_small, gap):
        small = RandomizedResponse(epsilon=eps_small)
        large = RandomizedResponse(epsilon=eps_small + gap)
        assert large.per_report_variance() < small.per_report_variance()


class TestAccountantProperties:
    @given(spends=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
    def test_ledger_total_is_sum(self, spends):
        acct = PrivacyAccountant()
        for s in spends:
            acct.spend(s)
        assert acct.spent_epsilon == pytest.approx(sum(spends))

    @given(
        budget=st.floats(min_value=0.5, max_value=10.0),
        spends=st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=30),
    )
    def test_budget_never_exceeded(self, budget, spends):
        from repro.exceptions import PrivacyBudgetExceeded

        acct = PrivacyAccountant(epsilon_budget=budget)
        for s in spends:
            try:
                acct.spend(s)
            except PrivacyBudgetExceeded:
                pass
        assert acct.spent_epsilon <= budget + 1e-9


class TestBitMeterProperties:
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=60
        )
    )
    def test_meter_counts_are_consistent(self, events):
        from repro.exceptions import PrivacyBudgetExceeded

        meter = BitMeter(max_bits_per_value=2, max_bits_per_client=5)
        accepted = []
        for client, value in events:
            try:
                meter.record(client, value)
                accepted.append((client, value))
            except PrivacyBudgetExceeded:
                pass
        # Caps hold for every client and value.
        for client in {c for c, _ in accepted}:
            assert meter.bits_disclosed_by(client) <= 5
            for value in {v for c, v in accepted if c == client}:
                assert meter.bits_disclosed_for(client, value) <= 2
        assert meter.total_bits == len(accepted)


class TestShamirProperties:
    @given(
        secret=st.integers(min_value=0, max_value=FIELD.modulus - 1),
        n_shares=st.integers(min_value=1, max_value=10),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_any_threshold_subset_reconstructs(self, secret, n_shares, data):
        threshold = data.draw(st.integers(min_value=1, max_value=n_shares))
        seed = data.draw(st.integers(0, 2**16))
        shares = split_secret(secret, n_shares, threshold, FIELD, seed)
        subset_idx = data.draw(
            st.permutations(range(n_shares)).map(lambda p: list(p)[:threshold])
        )
        picked = [shares[i] for i in subset_idx]
        assert reconstruct_secret(picked, FIELD) == secret


class TestSecureAggregationProperties:
    @given(
        n_clients=st.integers(min_value=2, max_value=8),
        length=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_sum_exact_for_any_survivor_set(self, n_clients, length, data):
        threshold = data.draw(st.integers(min_value=2, max_value=n_clients))
        n_submitting = data.draw(st.integers(min_value=threshold, max_value=n_clients))
        submitting = data.draw(
            st.permutations(range(n_clients)).map(lambda p: sorted(p[:n_submitting]))
        )
        vectors = {
            cid: data.draw(
                st.lists(st.integers(0, 10_000), min_size=length, max_size=length)
            )
            for cid in submitting
        }
        session = SecureAggregationSession(n_clients, length, threshold, rng=0)
        for cid in submitting:
            session.submit(cid, vectors[cid])
        expected = [sum(vectors[cid][i] for cid in submitting) for i in range(length)]
        assert session.finalize() == expected

    @given(
        dtype=st.sampled_from(["bool", "uint8", "int16", "int64"]),
        n_clients=st.integers(min_value=2, max_value=300),
        values=st.sampled_from(["random", "low", "high"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_ring_sum_exact_for_every_entry_type(self, dtype, n_clients, values, seed, data):
        """The masked sum equals the plaintext in every ring, entry bounds included."""
        threshold = default_threshold(n_clients)
        n_submitting = data.draw(st.integers(min_value=threshold, max_value=n_clients))
        session = SecureAggregationSession(n_clients, 3, threshold, dtype=dtype, rng=seed)
        ring = session.ring
        draw = np.random.default_rng(seed)
        if values == "random":
            vecs = draw.integers(ring.low, ring.high, size=(n_clients, 3), endpoint=True)
        else:
            vecs = np.full((n_clients, 3), ring.low if values == "low" else ring.high)
        vecs = vecs.astype(dtype)
        ids = np.sort(draw.permutation(n_clients)[:n_submitting])
        session.submit_batch(ids, vecs[ids])
        expected = vecs[ids].astype(object).sum(axis=0).tolist()
        assert session.finalize() == expected
