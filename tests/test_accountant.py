"""Privacy accounting: the epsilon ledger and the bit meter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, PrivacyBudgetExceeded
from repro.privacy import BitMeter, PrivacyAccountant
from repro.verification.invariants import check_bit_meter


class TestPrivacyAccountant:
    def test_spending_within_budget(self):
        acct = PrivacyAccountant(epsilon_budget=2.0)
        acct.spend(0.5)
        acct.spend(1.0)
        assert acct.spent_epsilon == pytest.approx(1.5)
        assert acct.remaining_epsilon == pytest.approx(0.5)

    def test_exceeding_epsilon_raises(self):
        acct = PrivacyAccountant(epsilon_budget=1.0)
        acct.spend(0.8)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(0.3)

    def test_rejected_spend_leaves_ledger_unchanged(self):
        acct = PrivacyAccountant(epsilon_budget=1.0)
        acct.spend(0.8)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(0.5)
        assert acct.spent_epsilon == pytest.approx(0.8)

    def test_delta_budget_enforced(self):
        acct = PrivacyAccountant(delta_budget=1e-6)
        acct.spend(0.1, delta=5e-7)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(0.1, delta=6e-7)

    def test_unlimited_budget_records_but_never_raises(self):
        acct = PrivacyAccountant()
        for _ in range(100):
            acct.spend(10.0)
        assert acct.spent_epsilon == pytest.approx(1000.0)
        assert acct.remaining_epsilon == float("inf")

    def test_exact_budget_spend_allowed(self):
        acct = PrivacyAccountant(epsilon_budget=1.0)
        acct.spend(0.5)
        acct.spend(0.5)   # exactly exhausts
        assert acct.remaining_epsilon == pytest.approx(0.0)

    def test_spent_totals_are_cached_running_sums(self):
        # The properties must agree with the ledger without re-summing it
        # (the running totals make a long-lived accountant O(1) per spend).
        acct = PrivacyAccountant()
        for i in range(50):
            acct.spend(0.1, delta=1e-6, note=f"round {i}")
        assert acct.spent_epsilon == pytest.approx(sum(e.epsilon for e in acct.entries))
        assert acct.spent_delta == pytest.approx(sum(e.delta for e in acct.entries))

    def test_rejected_spend_leaves_totals_unchanged(self):
        acct = PrivacyAccountant(epsilon_budget=1.0)
        acct.spend(0.75)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(0.5)
        assert acct.spent_epsilon == pytest.approx(0.75)
        assert acct.spent_delta == 0.0
        assert len(acct.entries) == 1

    def test_can_spend_does_not_record(self):
        acct = PrivacyAccountant(epsilon_budget=1.0)
        assert acct.can_spend(1.0)
        assert not acct.can_spend(1.1)
        assert acct.spent_epsilon == 0.0

    def test_entries_carry_notes(self):
        acct = PrivacyAccountant()
        acct.spend(0.3, note="round 1")
        assert acct.entries[0].note == "round 1"

    def test_negative_spend_rejected(self):
        with pytest.raises(ConfigurationError):
            PrivacyAccountant().spend(-0.1)

    def test_invalid_budgets(self):
        with pytest.raises(ConfigurationError):
            PrivacyAccountant(epsilon_budget=0.0)
        with pytest.raises(ConfigurationError):
            PrivacyAccountant(delta_budget=1.5)


class TestBitMeter:
    def test_single_bit_per_value_default(self):
        meter = BitMeter()
        meter.record("c1", "metric")
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record("c1", "metric")

    def test_different_values_independent(self):
        meter = BitMeter()
        meter.record("c1", "metric-a")
        meter.record("c1", "metric-b")
        assert meter.bits_disclosed_by("c1") == 2

    def test_different_clients_independent(self):
        meter = BitMeter()
        meter.record("c1", "m")
        meter.record("c2", "m")
        assert meter.total_bits == 2

    def test_per_client_cap(self):
        meter = BitMeter(max_bits_per_value=1, max_bits_per_client=2)
        meter.record("c1", "a")
        meter.record("c1", "b")
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record("c1", "c")

    def test_rejected_record_leaves_counters_unchanged(self):
        meter = BitMeter(max_bits_per_value=1)
        meter.record("c1", "m")
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record("c1", "m")
        assert meter.bits_disclosed_for("c1", "m") == 1
        assert meter.bits_disclosed_by("c1") == 1

    def test_rejected_record_inserts_no_entries(self):
        # Regression: defaultdict reads on the check path used to insert
        # zero entries for never-before-seen keys even when the disclosure
        # was rejected, so "leaves the meter unchanged" was violated at the
        # dict level (and total_bits iterated over ghost clients).  The
        # array books must not grow a zero entry either.
        meter = BitMeter(max_bits_per_value=1, max_bits_per_client=1)
        meter.record("c1", "a")
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record("c1", "b")  # per-client cap rejects this
        assert "b" not in meter._per_value
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record("c2", "a", n_bits=2)  # per-value cap rejects this
        assert meter._per_value["a"][0].tolist() == ["c1"]
        assert meter._per_value["a"][1].tolist() == [1]
        assert meter._per_client[0].tolist() == ["c1"]
        assert meter._per_client[1].tolist() == [1]
        assert meter.total_bits == 1

    def test_total_bits_counts_all_clients(self):
        meter = BitMeter(max_bits_per_value=2)
        meter.record("c1", "a", n_bits=2)
        meter.record("c2", "a")
        assert meter.total_bits == 3

    def test_multi_bit_disclosure(self):
        meter = BitMeter(max_bits_per_value=4)
        meter.record("c1", "m", n_bits=3)
        assert meter.bits_disclosed_for("c1", "m") == 3
        with pytest.raises(PrivacyBudgetExceeded):
            meter.record("c1", "m", n_bits=2)

    def test_unknown_client_has_zero(self):
        meter = BitMeter()
        assert meter.bits_disclosed_by("nobody") == 0
        assert meter.bits_disclosed_for("nobody", "m") == 0

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            BitMeter(max_bits_per_value=0)
        with pytest.raises(ConfigurationError):
            BitMeter(max_bits_per_client=0)
        with pytest.raises(ConfigurationError):
            BitMeter().record("c", "m", n_bits=0)


class ReferenceMeter:
    """The meter's books as two dicts, checked id by id in batch order."""

    def __init__(self, max_bits_per_value, max_bits_per_client):
        self.max_bits_per_value = max_bits_per_value
        self.max_bits_per_client = max_bits_per_client
        self.per_value = {}
        self.per_client = {}

    def record_batch(self, client_ids, value_id, n_bits):
        pending = {}
        for client in client_ids:
            pending[client] = pending.get(client, 0) + n_bits
        for client, added in pending.items():
            total = self.per_value.get((client, value_id), 0) + added
            if total > self.max_bits_per_value:
                raise PrivacyBudgetExceeded(
                    f"client {client!r} would disclose {total} bits of value "
                    f"{value_id!r} (cap {self.max_bits_per_value})"
                )
            total = self.per_client.get(client, 0) + added
            if self.max_bits_per_client is not None and total > self.max_bits_per_client:
                raise PrivacyBudgetExceeded(
                    f"client {client!r} would disclose {total} private bits in "
                    f"total (cap {self.max_bits_per_client})"
                )
        for client, added in pending.items():
            self.per_value[(client, value_id)] = self.per_value.get((client, value_id), 0) + added
            self.per_client[client] = self.per_client.get(client, 0) + added


INT_IDS = [-1, 0, 3, 7, 2**62]
STRING_IDS = ["", "7", "a", "device-7", "é"]
VALUE_IDS = ["m", 7, ("m", 2)]


def _books(meter):
    """A copy of the meter's books, for comparing before and after."""
    copy = lambda book: (book[0].tolist(), book[1].tolist())  # noqa: E731
    return {value: copy(book) for value, book in meter._per_value.items()}, copy(
        meter._per_client
    )


class TestBitMeterAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        ids=st.sampled_from([INT_IDS, STRING_IDS]),
        max_bits_per_value=st.integers(1, 3),
        max_bits_per_client=st.none() | st.integers(1, 6),
        calls=st.lists(
            st.tuples(
                st.booleans(),  # one record() call, or one record_batch() call
                st.lists(st.integers(0, 4), min_size=1, max_size=6),  # ids, duplicates allowed
                st.sampled_from(VALUE_IDS),
                st.integers(1, 3),
                st.booleans(),  # batch as an array, or as a list
            ),
            max_size=25,
        ),
    )
    def test_array_books_match_dict_books(
        self, ids, max_bits_per_value, max_bits_per_client, calls
    ):
        meter = BitMeter(max_bits_per_value, max_bits_per_client)
        reference = ReferenceMeter(max_bits_per_value, max_bits_per_client)
        for single, picks, value_id, n_bits, as_array in calls:
            batch = [ids[i] for i in (picks[:1] if single else picks)]
            before = _books(meter)
            try:
                reference.record_batch(batch, value_id, n_bits)
                expected = None
            except PrivacyBudgetExceeded as exc:
                expected = str(exc)
            try:
                if single:
                    meter.record(batch[0], value_id, n_bits)
                else:
                    meter.record_batch(np.array(batch) if as_array else batch, value_id, n_bits)
                got = None
            except PrivacyBudgetExceeded as exc:
                got = str(exc)
            assert got == expected
            if got is not None:
                assert _books(meter) == before
            for client in ids:
                assert meter.bits_disclosed_by(client) == reference.per_client.get(client, 0)
                for value in VALUE_IDS:
                    assert meter.bits_disclosed_for(client, value) == reference.per_value.get(
                        (client, value), 0
                    )
            assert meter.total_bits == sum(reference.per_client.values())
            check_bit_meter(meter)

    def test_first_offender_in_batch_order_value_cap_first(self):
        meter = BitMeter(max_bits_per_value=1, max_bits_per_client=2)
        meter.record_batch([5, 9], "a")
        meter.record_batch([5], "b")
        # 9 is over its value cap and 5 over its client cap; 9 comes first.
        with pytest.raises(PrivacyBudgetExceeded, match="^client 9 would disclose 2 bits of value 'a'"):
            meter.record_batch([9, 5], "a")
        with pytest.raises(PrivacyBudgetExceeded, match="^client 5 would disclose 3 private bits"):
            meter.record_batch([5, 9], "c")

    def test_int_and_string_ids_stay_apart(self):
        # HEAD's dicts booked 7 and "7" as two clients; the arrays must not
        # merge them by promoting ints to strings.
        meter = BitMeter()
        meter.record(7, "m")
        with pytest.raises(ConfigurationError) as info:
            meter.record("7", "m")
        assert str(info.value) == "this meter books int client ids, not string"
        with pytest.raises(ConfigurationError, match="all 64-bit ints or all strings"):
            BitMeter().record_batch([7, "7"], "m")
        assert meter.bits_disclosed_by(7) == 1
        assert meter.bits_disclosed_by("7") == 0
        assert meter.bits_disclosed_for("7", "m") == 0

    @pytest.mark.parametrize(
        "client_ids",
        [[("a", 1)], [("a", 1), ("b",)], [1.5], [None], [b"x"], [2**64], [[1, 2]]],
    )
    def test_other_ids_raise_one_line(self, client_ids):
        meter = BitMeter()
        with pytest.raises(ConfigurationError) as info:
            meter.record_batch(client_ids, "m")
        assert "\n" not in str(info.value)
        assert "all 64-bit ints or all strings" in str(info.value)
        assert meter.total_bits == 0
        assert meter._per_value == {}

    def test_record_is_a_one_id_batch(self):
        meter = BitMeter()
        meter.record(3, "m")
        assert meter._per_client[0].dtype == np.int64
        assert meter._per_value["m"][0].tolist() == [3]
        with pytest.raises(ConfigurationError, match="all 64-bit ints or all strings"):
            meter.record(("a", 1), "m")

    def test_empty_batch_books_nothing(self):
        meter = BitMeter()
        meter.record_batch([], "m")
        meter.record_batch(np.array([], dtype=np.int64), "m")
        assert meter._per_value == {}
        assert meter.total_bits == 0

    def test_books_are_sorted_arrays(self):
        meter = BitMeter(max_bits_per_value=2)
        meter.record_batch(np.array([9, 2, 5, 2]), "m")
        meter.record_batch([4, 9], "m")
        ids, bits = meter._per_value["m"]
        assert ids.tolist() == [2, 4, 5, 9] and bits.tolist() == [2, 1, 1, 2]
        assert meter._per_client[0].tolist() == [2, 4, 5, 9]
