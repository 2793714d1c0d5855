"""The one conversion from an outside enum value to a member."""

import pytest

from fusionkit.algebra import World
from fusionkit.errors import InputError, SchemaError, enum_member


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
