"""The engine's grid pooling against the per-term loop it replaced.

:func:`reference_pool` is that loop: it expands the cross product of
focal sets term by term, values and stars each term on Python numbers
and adds each kept term to its result set in term order.
:func:`fusionkit.rules._pool` does the same on whole NumPy grids, and
must agree with it exactly -- kept masses, ledger entries and ledger
total compared with ``==``, no tolerance.
"""

import itertools
import json
import math
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_tnorm

from fusionkit import (
    Bba,
    EmptinessModel,
    Frame,
    UftScenario,
    conjunctive,
    disjunctive,
    make_bba,
    uft_fuse,
)
from fusionkit.cli import main
from fusionkit.errors import InputError
from fusionkit.rules import (
    _AND,
    _NEVER,
    _OR,
    _PRODUCT,
    _XOR,
    MAX_TERMS,
    ConflictLedger,
    LedgerEntry,
    _grouping,
    _marks_empty,
    _marks_listed,
    _pool,
)
from fusionkit.tcn import TNorm, _valuation

LABELS = ("A", "B", "C", "D", "E", "F")
PROPERTY = settings(max_examples=150, deadline=None)


def reference_pool(sources, star, marked, value):
    """Expand, star and mark every term, one at a time: the kept mass by
    result set, and the ledger of marked terms."""
    items = [s.crisp_items() for s in sources]
    kept: dict = {}
    entries = []
    for ops, vs in zip(itertools.product(*[[b for b, _ in it] for it in items]),
                       itertools.product(*[[v for _, v in it] for it in items])):
        v = value(vs)
        if v == 0.0:
            continue
        bits = star(ops)
        if marked(bits):
            entries.append(LedgerEntry(ops, bits, v))
        else:
            kept[bits] = kept.get(bits, 0.0) + v
    return kept, ConflictLedger(sources[0].frame, tuple(entries))


# --- drawing pools -------------------------------------------------------------

#: Masses from 1 down into the subnormals, so products underflow to 0.
masses = st.one_of(st.floats(1e-320, 1.0), st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0]))


@st.composite
def tree(draw, leaves):
    """A random grouping tree over ``leaves``."""
    if len(leaves) == 1:
        return leaves[0]
    cut = draw(st.integers(1, len(leaves) - 1))
    op = draw(st.sampled_from(["and", "or"]))
    return (op, draw(tree(leaves[:cut])), draw(tree(leaves[cut:])))


@st.composite
def pools(draw):
    """(sources, scalar star, array star, scalar mark, array mark,
    scalar value, array value) of one random pooling."""
    frame = Frame(LABELS[:draw(st.integers(2, 6))])
    full = frame.universe_bits
    # Small set values collide often, so many terms share a result.
    focal = st.one_of(st.integers(0, min(full, 15)), st.integers(0, full))
    n = draw(st.integers(2, 6))
    sources = [Bba._from_masses(frame, draw(st.dictionaries(
        focal, masses, min_size=1, max_size=4 if n < 5 else 3))) for _ in range(n)]

    kind = draw(st.sampled_from(["and", "or", "xor", "tree"]))
    if kind == "tree":
        order = draw(st.permutations(range(n)))
        star = _grouping(draw(tree(list(order))), n)
    else:
        star = {"and": _AND, "or": _OR, "xor": _XOR}[kind]

    mark = draw(st.sampled_from(["empty", "never", "listed"]))
    if mark == "empty":
        forced = draw(st.integers(0, full))
        model = EmptinessModel(frame, forced)
        marks = (lambda bits: not bits & ~forced), _marks_empty(model)
    elif mark == "never":
        marks = (lambda bits: False), _NEVER
    else:
        listed = draw(st.lists(st.integers(0, min(full, 15)), max_size=4))
        marks = frozenset(listed).__contains__, _marks_listed(listed)

    norm = draw(st.sampled_from([None, *TNorm]))
    if norm is None:
        values = math.prod, _PRODUCT
    else:
        values = partial(reduce, partial(reference_tnorm, norm)), _valuation(norm)
    return sources, star, marks, values


@PROPERTY
@given(pools())
def test_grid_pooling_equals_the_term_loop(pool):
    sources, star, (mark, array_mark), (value, array_value) = pool
    kept, ledger = _pool(sources, star, array_mark, array_value)
    ref_kept, ref_ledger = reference_pool(sources, star, mark, value)
    assert kept == ref_kept
    assert all(type(b) is int and type(v) is float for b, v in kept.items())
    assert len(ledger) == len(ref_ledger.entries)
    assert ledger.total() == ref_ledger.total()
    assert ledger.entries == ref_ledger.entries


def test_the_63_bit_universe_keeps_its_top_bit():
    frame = Frame(LABELS)
    top = 1 << 62
    full = frame.universe_bits
    a = Bba._from_masses(frame, {full: 0.25, top: 0.75})
    b = Bba._from_masses(frame, {top | 1: 0.5, full: 0.5})
    model = EmptinessModel(frame, 1)
    kept, ledger = _pool((a, b), _AND, _marks_empty(model), _PRODUCT)
    ref_kept, ref_ledger = reference_pool(
        (a, b), _AND, lambda bits: not bits & ~1, math.prod)
    assert kept == ref_kept == {top | 1: 0.125, full: 0.125, top: 0.375 + 0.375}
    assert ledger.entries == ref_ledger.entries == ()


class TestLazyLedger:
    def test_length_and_total_do_not_build_the_entries(self):
        frame = Frame(("A", "B"))
        model = EmptinessModel.from_exprs(frame, ["A&B"])
        m1 = make_bba(frame, {"A": 0.2, "B": 0.5, "A|B": 0.3})
        m2 = make_bba(frame, {"A": 0.4, "B": 0.4, "A|B": 0.2})
        _, ledger = conjunctive(m1, m2, model=model)
        assert len(ledger) == 2
        assert ledger.total() == math.fsum([0.2 * 0.4, 0.5 * 0.4])
        assert ledger._entries is None
        a, b = frame.label_bits("A"), frame.label_bits("B")
        assert ledger.entries == (LedgerEntry((a, b), a & b, 0.2 * 0.4),
                                  LedgerEntry((b, a), a & b, 0.5 * 0.4))

    def test_an_eager_ledger_counts_its_entries(self):
        frame = Frame(("A", "B"))
        ledger = ConflictLedger(frame, [LedgerEntry((1, 2), 0, 0.5)])
        assert len(ledger) == 1 and ledger.total() == 0.5
        assert ledger == ConflictLedger(frame, (LedgerEntry((1, 2), 0, 0.5),))


class TestTermCap:
    """More than MAX_TERMS product terms raise InputError up front."""

    def sources(self):
        frame = Frame(("A", "B"))
        b = make_bba(frame, {"A": 0.5, "B": 0.5})
        count = MAX_TERMS.bit_length()  # 2**count > MAX_TERMS
        return frame, [b] * count

    def test_pooling_rejects_too_many_terms(self):
        _, sources = self.sources()
        with pytest.raises(InputError, match=f"product terms exceed the limit of {MAX_TERMS}"):
            disjunctive(*sources)

    def test_uft_rejects_too_many_terms(self):
        _, sources = self.sources()
        scenario = UftScenario(tuple(sources))
        with pytest.raises(InputError, match=f"product terms exceed the limit of {MAX_TERMS}"):
            uft_fuse(scenario)

    def test_the_cli_exits_1(self, tmp_path, capsys):
        _, sources = self.sources()
        doc = {"frame": ["A", "B"], "sources": [{"A": 0.5, "B": 0.5}] * len(sources)}
        path = tmp_path / "many.json"
        path.write_text(json.dumps(doc))
        assert main(["fuse", "--rule", "conjunctive", str(path)]) == 1
        assert "product terms exceed the limit" in capsys.readouterr().err
