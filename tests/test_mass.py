"""Belief mass assignment tests: construction, classification, discounting."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_conjunctive_intervals

from fusionkit import (
    AtomSet,
    Bba,
    Frame,
    NormClass,
    World,
    classify,
    conjunctive,
    conjunctive_intervals,
    discount,
    from_json,
    make_bba,
    normalize,
    vacuous,
)
from fusionkit.errors import (
    AlphaOutOfRange,
    FrameMismatch,
    InputError,
    IntervalNotSupported,
    MassAboveOne,
    NegativeMass,
    SchemaError,
    UnknownLabel,
    ZeroTotalMass,
)
from fusionkit.rules import MAX_TERMS


@pytest.fixture
def frame():
    return Frame(("A", "B"))


class TestConstruction:
    def test_lookup_by_expression_atomset_and_bits(self, frame):
        b = make_bba(frame, {"A": 0.4, "A|B": 0.6})
        a = frame.atoms_of("A")
        assert b.mass("A") == pytest.approx(0.4)
        assert b.mass(a) == pytest.approx(0.4)
        assert b.mass(a.bits) == pytest.approx(0.4)
        assert b.mass("B") == 0.0

    def test_equivalent_expressions_merge(self, frame):
        b = make_bba(frame, [("A", 0.25), ("A|(A&B)", 0.25), ("B", 0.5)])
        assert b.mass("A") == pytest.approx(0.5)
        assert len(b.focal_sets) == 2

    def test_zero_masses_are_dropped(self, frame):
        b = make_bba(frame, {"A": 1.0, "B": 0.0})
        assert frame.atoms_of("B") not in b.focal_sets

    def test_entries_sorted_and_hash_consistent(self, frame):
        b1 = make_bba(frame, [("A|B", 0.3), ("A", 0.7)])
        b2 = make_bba(frame, [("A", 0.7), ("A|B", 0.3)])
        assert b1 == b2
        assert hash(b1) == hash(b2)

    def test_validation(self, frame):
        with pytest.raises(NegativeMass):
            make_bba(frame, {"A": -0.1, "B": 1.1})
        with pytest.raises(MassAboveOne):
            make_bba(frame, {"A": 1.2})
        with pytest.raises(UnknownLabel):
            make_bba(frame, {"Q": 1.0})

    @pytest.mark.parametrize("value, error, message", [
        ((0.6, 0.4), NegativeMass, "interval [0.6, 0.4] is reversed"),
        ((-0.1, 0.4), NegativeMass, "mass lower bound -0.1 below 0"),
        ([0.5, 1.5], MassAboveOne, "mass upper bound 1.5 above 1"),
        ((2, 1), NegativeMass, "interval [2.0, 1.0] is reversed"),
    ])
    def test_reversed_and_out_of_range_intervals(self, frame, value, error, message):
        with pytest.raises(error) as exc:
            make_bba(frame, {"A": value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [
        "x", None, {}, math.nan, [math.nan, 0.5], [0.1, math.nan], ["x", 0.5],
    ])
    def test_non_numbers_and_nan_rejected(self, frame, value):
        with pytest.raises(SchemaError) as exc:
            make_bba(frame, {"A": value})
        assert exc.value.pointer == "/masses"

    def test_interval_masses(self, frame):
        b = make_bba(frame, {"A": (0.2, 0.4), "B": (0.5, 0.7)})
        assert not b.is_crisp
        assert b.total_bounds() == pytest.approx((0.7, 1.1))
        with pytest.raises(IntervalNotSupported):
            b.crisp_items()


class TestClassification:
    def test_crisp_classes(self, frame):
        assert classify(make_bba(frame, {"A": 0.4, "B": 0.6})) is NormClass.NORMALIZED
        assert classify(make_bba(frame, {"A": 0.4, "B": 0.5})) is NormClass.INCOMPLETE
        assert (
            classify(make_bba(frame, {"A": 0.6, "B": 0.6}))
            is NormClass.PARACONSISTENT
        )

    def test_interval_classes(self, frame):
        reachable = make_bba(frame, {"A": (0.4, 0.6), "B": (0.3, 0.5)})
        assert classify(reachable) is NormClass.NORMALIZED
        low = make_bba(frame, {"A": (0.1, 0.3), "B": (0.2, 0.4)})
        assert classify(low) is NormClass.INCOMPLETE
        high = make_bba(frame, {"A": (0.5, 0.6), "B": (0.6, 0.7)})
        assert classify(high) is NormClass.PARACONSISTENT

    def test_tolerance_band(self, frame):
        nearly = make_bba(frame, {"A": 0.5, "B": 0.5 - 1e-12})
        assert classify(nearly) is NormClass.NORMALIZED


class TestNormalizeAndDiscount:
    def test_normalize_scales_to_one(self, frame):
        b = normalize(make_bba(frame, {"A": 0.4, "B": 0.4}))
        assert b.total() == pytest.approx(1.0)
        assert b.mass("A") == pytest.approx(0.5)

    def test_normalize_zero_total(self, frame):
        with pytest.raises(ZeroTotalMass):
            normalize(make_bba(frame, {}))

    def test_discount_pours_mass_onto_ignorance(self):
        frame = Frame(("A", "B", "C", "D"))
        b = make_bba(frame, {"A": 0.4, "B": 0.4, "A|B": 0.2})
        d = discount(b, 0.8)
        assert d.mass("A") == pytest.approx(0.32)
        assert d.mass("B") == pytest.approx(0.32)
        assert d.mass("A|B") == pytest.approx(0.16)
        assert d.mass("A|B|C|D") == pytest.approx(0.20)
        assert d.total() == pytest.approx(1.0)

    def test_discount_endpoints(self, frame):
        b = make_bba(frame, {"A": 0.7, "B": 0.3})
        assert discount(b, 1.0) == b
        assert discount(b, 0.0) == vacuous(frame)

    def test_discount_validates_alpha(self, frame):
        b = make_bba(frame, {"A": 1.0})
        for alpha in (-0.1, 1.5):
            with pytest.raises(AlphaOutOfRange):
                discount(b, alpha)

    def test_vacuous(self, frame):
        v = vacuous(frame)
        assert v.mass(frame.universe_bits) == 1.0
        assert v.is_crisp


class TestSerialization:
    def test_round_trip(self):
        frame = Frame(("A", "B", "C"), world=World.OPEN)
        b = make_bba(frame, {"A&B": 0.5, "C": 0.2, "A|B|C": 0.3})
        assert from_json(b.to_json()) == b

    def test_round_trip_intervals(self, frame):
        b = make_bba(frame, {"A": (0.2, 0.4), "A|B": (0.6, 0.8)})
        assert from_json(b.to_json()) == b

    def test_unknown_world_rejected(self):
        with pytest.raises(SchemaError) as exc:
            from_json({"frame": ["A", "B"], "world": "flat", "masses": {"A": 1.0}})
        assert exc.value.pointer == "/world"

    def test_masses_must_be_an_object(self):
        with pytest.raises(SchemaError) as exc:
            from_json({"frame": ["A", "B"], "masses": 3})
        assert exc.value.pointer == "/masses"

    def test_frame_must_be_a_list_of_labels(self):
        with pytest.raises(SchemaError) as exc:
            from_json({"frame": "AB", "masses": {"A": 1.0}})
        assert exc.value.pointer == "/frame"

    def test_to_dict_uses_canonical_names(self, frame):
        b = make_bba(frame, {"B|A": 0.4, "A&B": 0.6})
        assert b.to_dict() == {
            "A|B": pytest.approx(0.4),
            "A&B": pytest.approx(0.6),
        }


class TestIntervalCombination:
    def test_degenerate_intervals_match_crisp(self, frame):
        c1 = make_bba(frame, {"A": 0.3, "A|B": 0.7})
        c2 = make_bba(frame, {"B": 0.6, "A|B": 0.4})
        i1 = make_bba(frame, {"A": (0.3, 0.3), "A|B": (0.7, 0.7)})
        i2 = make_bba(frame, {"B": (0.6, 0.6), "A|B": (0.4, 0.4)})
        crisp, _ = conjunctive(c1, c2)
        boxed = conjunctive_intervals(i1, i2)
        for bits, v in boxed.entries:
            lo, hi = v if isinstance(v, tuple) else (v, v)
            assert lo == pytest.approx(crisp.mass(bits))
            assert hi == pytest.approx(crisp.mass(bits))

    def test_interval_order_preserved(self, frame):
        i1 = make_bba(frame, {"A": (0.2, 0.5), "A|B": (0.5, 0.8)})
        i2 = make_bba(frame, {"B": (0.1, 0.6), "A|B": (0.4, 0.9)})
        out = conjunctive_intervals(i1, i2)
        for _, v in out.entries:
            lo, hi = v if isinstance(v, tuple) else (v, v)
            assert lo <= hi


@st.composite
def interval_bba_pairs(draw):
    """Two bbas over 2-4 labels mixing crisp and interval entries, with
    zero lower endpoints drawn on purpose."""
    frame = Frame(("A", "B", "C", "D")[:draw(st.integers(2, 4))])

    def value():
        lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
        if draw(st.booleans()):
            return lo or 0.5
        return (lo, draw(st.floats(lo, 1.0)))

    def bba():
        sets = draw(st.lists(st.integers(0, frame.universe_bits), min_size=1, max_size=6,
                             unique=True))
        return make_bba(frame, [(AtomSet(frame, b), value()) for b in sets])

    return bba(), bba()


class TestIntervalConjunctionOnTheEngine:
    @settings(max_examples=300, deadline=None)
    @given(interval_bba_pairs())
    def test_equals_the_loop_over_entries(self, pair):
        out, expected = conjunctive_intervals(*pair), reference_conjunctive_intervals(*pair)
        assert out == expected
        assert repr(out.entries) == repr(expected.entries)  # value types and zero signs too

    def test_frame_mismatch_message(self):
        b1 = make_bba(Frame(("A", "B")), {"A": (0.2, 0.4)})
        b2 = make_bba(Frame(("A", "C")), {"A": 1.0})
        with pytest.raises(FrameMismatch, match="^sources disagree on the frame$"):
            conjunctive_intervals(b1, b2)

    def test_refuses_more_than_max_terms(self):
        frame = Frame(("A", "B", "C", "D"))
        n = MAX_TERMS.bit_length() // 2 + 1  # (2**n)**2 > MAX_TERMS
        b = Bba(frame, tuple((bits, (0.0, 2.0 ** -n)) for bits in range(1, 2 ** n + 1)))
        with pytest.raises(InputError, match=f"product terms exceed the limit of {MAX_TERMS}"):
            conjunctive_intervals(b, b)


class TestNumbersOnly:
    """A mass is a real number or a pair of them; booleans and numeric
    strings are rejected with the mass's own message."""

    @pytest.mark.parametrize("value, shown", [
        (True, "True"), (False, "False"), ("0.5", "'0.5'"), (None, "None"),
        ((True, 0.5), "True"), ((0.1, "0.5"), "'0.5'"),
    ])
    def test_non_numbers_are_rejected(self, frame, value, shown):
        with pytest.raises(SchemaError) as info:
            make_bba(frame, {"A": value})
        assert str(info.value) == f"/masses: mass must be a number, got {shown}"

    @pytest.mark.parametrize("value", [np.float64(0.25), np.int64(0), Fraction(1, 4), 1])
    def test_other_real_numbers_are_accepted(self, frame, value):
        assert make_bba(frame, {"A": value, "B": 0.5}).mass("A") == float(value)

    @pytest.mark.parametrize("value, error, message", [
        (10 ** 400, MassAboveOne, "mass inf above 1"),
        (-10 ** 400, NegativeMass, "mass -inf below 0"),
    ])
    def test_an_int_too_large_for_a_float_is_out_of_range(self, frame, value, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            make_bba(frame, {"A": value})


class TestFrameMismatch:
    def test_cross_frame_combination_rejected(self):
        b1 = make_bba(Frame(("A", "B")), {"A": 1.0})
        b2 = make_bba(Frame(("A", "C")), {"A": 1.0})
        with pytest.raises(FrameMismatch):
            conjunctive(b1, b2)


class TestDiscountFactor:
    """``discount`` reads its factor as every mass is read: a real number
    other than a bool, refused with its own message otherwise."""

    @pytest.mark.parametrize("alpha", ["0.5", True, False, None, Decimal("0.5")], ids=repr)
    def test_a_factor_that_is_not_a_number_is_refused(self, frame, alpha):
        b = make_bba(frame, {"A": 0.6, "B": 0.4})
        with pytest.raises(AlphaOutOfRange) as info:
            discount(b, alpha)
        assert str(info.value) == f"discount factor {alpha!r} outside [0, 1]"

    @pytest.mark.parametrize("alpha", [np.float64(0.8), Fraction(4, 5)], ids=repr)
    def test_other_real_factors_give_the_float_result(self, frame, alpha):
        b = make_bba(frame, {"A": 0.6, "B": 0.4})
        assert discount(b, alpha) == discount(b, 0.8)

    def test_integer_factors_are_the_endpoints(self, frame):
        b = make_bba(frame, {"A": 0.6, "B": 0.4})
        assert discount(b, 1) == discount(b, 1.0) == b
        assert discount(b, 0) == vacuous(frame)


class TestSetKeys:
    """``Bba.mass`` reads its key through ``Frame.atoms_of``."""

    @pytest.fixture
    def b(self, frame):
        return make_bba(frame, {"A": 0.4, "A&B": 0.6})

    @pytest.mark.parametrize("key", ["A&B", np.uint64(4), np.int64(4), 4], ids=repr)
    def test_text_and_bitmask_keys(self, b, key):
        assert b.mass(key) == 0.6

    def test_an_atom_set_key(self, b, frame):
        assert b.mass(frame.atoms_of("A&B")) == 0.6
        with pytest.raises(FrameMismatch, match="^set belongs to a different frame$"):
            b.mass(Frame(("A", "C")).atoms_of("A"))

    @pytest.mark.parametrize("key", [1.9, None, True, [4]], ids=repr)
    def test_a_key_that_is_neither_text_nor_a_set_nor_an_int_is_refused(self, b, key):
        with pytest.raises(InputError) as info:
            b.mass(key)
        assert str(info.value) == f"bits must be an int, got {key!r}"

    def test_a_bitmask_outside_the_universe_is_refused(self, b):
        with pytest.raises(InputError) as info:
            b.mass(99)
        assert str(info.value) == "bits 0x63 outside the frame universe"

    def test_make_bba_reads_its_keys_the_same_way(self, frame):
        assert make_bba(frame, {4: 0.6, "A": 0.4}) == make_bba(frame, {"A&B": 0.6, "A": 0.4})
        with pytest.raises(InputError, match="^bits must be an int, got None$"):
            make_bba(frame, {None: 0.5})


class TestAssignmentPairs:
    @pytest.mark.parametrize("assignments", [("a",), [("A", 0.5, 1)], [5], 5, [("A",)]],
                             ids=repr)
    def test_entries_that_are_not_pairs_are_refused(self, frame, assignments):
        with pytest.raises(InputError) as info:
            make_bba(frame, assignments)
        assert type(info.value) is InputError
        assert str(info.value) == "assignments must be (expression, mass) pairs"

    def test_errors_inside_a_pair_keep_their_class(self, frame):
        with pytest.raises(UnknownLabel):
            make_bba(frame, [("Z", 0.5)])
        with pytest.raises(SchemaError, match="mass must be a number"):
            make_bba(frame, [("A", "0.5")])
