"""The one conversion from an outside enum value to a member, and the one
reader of an outside number."""

import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_is_real

from fusionkit.algebra import World
from fusionkit.errors import InputError, SchemaError, enum_member, real


@pytest.mark.parametrize("value", [World.OPEN, "open"])
def test_a_member_or_its_value_gives_the_member(value):
    assert enum_member(World, value, "world") is World.OPEN


@pytest.mark.parametrize("value", ["ajar", 3, None, ["open"], {"open": 1}])
def test_anything_else_raises_input_error_naming_the_value(value):
    with pytest.raises(InputError) as info:
        enum_member(World, value, "world")
    assert type(info.value) is InputError
    assert str(info.value) == f"unknown world {value!r}"


def test_a_pointer_gives_a_schema_error_there():
    with pytest.raises(SchemaError) as info:
        enum_member(World, "ajar", "world", "/world")
    assert info.value.pointer == "/world"
    assert str(info.value) == "/world: unknown world 'ajar'"


# --- the one number reader ---------------------------------------------------

def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1, 0, -1, 2 ** 53 + 1,
    True, False, np.float64(-0.0), np.float64(math.nan), np.int64(-7), np.bool_(True),
    Fraction(1, 3), Decimal("0.5"), "0.5", "", None, [0.5], (0.5,),
]

_VALUES = st.one_of(
    st.floats(), st.integers(), st.booleans(),
    st.integers(min_value=2 ** 1023).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats().map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.fractions(), st.decimals(), st.text(max_size=4),
    st.none(), st.lists(st.floats(), max_size=2),
)


def _check_real(value):
    x = real(value)
    assert (x is not None) == reference_is_real(value)
    if x is None:
        return
    try:
        want = float(value)
    except OverflowError:  # only an int or a Fraction beyond the largest float
        want = math.inf if value > 0 else -math.inf
    assert type(x) is float and _bits(x) == _bits(want)


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=repr)
def test_real_reads_exactly_the_reference_numbers_on_edge_values(value):
    _check_real(value)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_real_reads_exactly_the_reference_numbers(value):
    _check_real(value)


@pytest.mark.parametrize("value, want", [(10 ** 400, math.inf), (-10 ** 400, -math.inf)])
def test_an_int_too_large_for_a_float_reads_as_the_infinity_of_its_sign(value, want):
    assert real(value) == want
