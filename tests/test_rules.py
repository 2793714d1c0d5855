"""Combination rule tests.

Covers the conjunctive/disjunctive/exclusive cores, the grouping-tree
rule, and the conflict-handling catalog built on the shared ledger.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_grouping, two_label_sources

from fusionkit import (
    AtomSet,
    EmptinessModel,
    Frame,
    NsTriple,
    RedistContext,
    Reliability,
    RuleId,
    World,
    build_frame,
    combine,
    conjunctive,
    disjunctive,
    exclusive_disjunctive,
    fuse_many,
    make_bba,
    mixed,
    murphy_average,
    pcr5,
    product_terms,
    redistribute,
    vacuous,
)
from fusionkit.errors import BadGrouping, InputError, TotalConflict
from fusionkit.neutro import n_conorm, n_norm
from fusionkit.rules import _grouping

ALL_LABELS = ("A", "B", "C")


def random_bba(frame, rng, overlap=False):
    """Random normalized crisp bba over nonempty sets of the frame.

    With ``overlap`` every focal set contains the first atom, so any
    family of such sets has pairwise nonempty intersections.
    """
    n_focal = rng.randint(1, 4)
    universe = frame.universe_bits
    masses = {}
    for _ in range(n_focal):
        bits = rng.randrange(1, universe + 1)
        if overlap:
            bits |= 1
        masses[bits] = masses.get(bits, 0.0) + rng.random() + 1e-3
    total = sum(masses.values())
    return make_bba(
        frame, [(AtomSet(frame, b), v / total) for b, v in masses.items()]
    )


@pytest.fixture
def pair():
    frame, s1, s2 = two_label_sources()
    return frame, s1, s2


class TestConjunctive:
    def test_two_source_row(self, pair):
        frame, s1, s2 = pair
        out, ledger = conjunctive(s1, s2)
        assert out.mass("A") == pytest.approx(0.24)
        assert out.mass("B") == pytest.approx(0.42)
        assert out.mass("A|B") == pytest.approx(0.06)
        assert out.mass("A&B") == pytest.approx(0.28)
        assert ledger.total() == 0.0

    def test_ledger_collects_model_empty_terms(self, pair):
        frame, s1, s2 = pair
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        out, ledger = conjunctive(s1, s2, model=model)
        assert out.mass("A&B") == 0.0
        assert ledger.total() == pytest.approx(0.28)
        products = sorted(e.product for e in ledger.entries)
        assert products == pytest.approx([0.08, 0.20])
        assert out.total() + ledger.total() == pytest.approx(1.0)

    def test_ledger_entries_record_operands(self, pair):
        frame, s1, s2 = pair
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        _, ledger = conjunctive(s1, s2, model=model)
        a, b = frame.atoms_of("A").bits, frame.atoms_of("B").bits
        for e in ledger.entries:
            assert set(e.operands) == {a, b}
            assert e.result == a & b

    def test_vacuous_is_neutral(self, pair):
        frame, s1, _ = pair
        out, _ = conjunctive(s1, vacuous(frame))
        assert out == s1

    def test_product_terms_cover_all_pairs(self, pair):
        frame, s1, s2 = pair
        terms = list(product_terms((s1, s2)))
        assert len(terms) == 9
        assert math.fsum(p for _, p in terms) == pytest.approx(1.0)


class TestDisjunctive:
    def test_two_source_row(self, pair):
        frame, s1, s2 = pair
        out = disjunctive(s1, s2)
        assert out.mass("A") == pytest.approx(0.08)
        assert out.mass("B") == pytest.approx(0.20)
        assert out.mass("A|B") == pytest.approx(0.72)

    def test_vacuous_absorbs(self, pair):
        frame, s1, _ = pair
        assert disjunctive(s1, vacuous(frame)) == vacuous(frame)


class TestExclusiveDisjunctive:
    def test_two_source_masses(self, pair):
        frame, s1, s2 = pair
        out = exclusive_disjunctive(s1, s2)
        sym_diff = frame.atoms_of("(A\\B)|(B\\A)")
        assert out.mass(0) == pytest.approx(0.34)
        assert out.mass(sym_diff) == pytest.approx(0.28)
        assert out.mass("B\\A") == pytest.approx(0.16)
        assert out.mass("A\\B") == pytest.approx(0.22)
        assert out.total() == pytest.approx(1.0)


class TestMixedGrouping:
    def test_tree_equals_composed_rules(self):
        frame = Frame(ALL_LABELS)
        rng = random.Random(3)
        sources = [random_bba(frame, rng, overlap=True) for _ in range(3)]
        grouped = mixed(sources, ("and", 0, ("or", 1, 2)))
        composed, ledger = conjunctive(
            sources[0], disjunctive(sources[1], sources[2])
        )
        assert ledger.total() == 0.0
        for bits, v in grouped.entries:
            assert composed.mass(bits) == pytest.approx(v)
        assert grouped.total() == pytest.approx(1.0)

    def test_or_of_ands(self):
        frame = Frame(ALL_LABELS)
        rng = random.Random(4)
        sources = [random_bba(frame, rng, overlap=True) for _ in range(4)]
        grouped = mixed(sources, ("or", ("and", 0, 1), ("and", 2, 3)))
        left, _ = conjunctive(sources[0], sources[1])
        right, _ = conjunctive(sources[2], sources[3])
        composed = disjunctive(left, right)
        for bits, v in grouped.entries:
            assert composed.mass(bits) == pytest.approx(v)

    def test_structural_empty_stays_in_place(self):
        frame = Frame(("A", "B"))
        m0 = make_bba(frame, {"A\\B": 1.0})
        m1 = make_bba(frame, {"B\\A": 1.0})
        m2 = make_bba(frame, {"B\\A": 1.0})
        grouped = mixed((m0, m1, m2), ("and", 0, ("or", 1, 2)))
        assert grouped.mass(0) == pytest.approx(1.0)
        absorbed = mixed((m0, m1), ("or", 0, 1))
        assert absorbed.mass("(A\\B)|(B\\A)") == pytest.approx(1.0)

    def test_bad_groupings_rejected(self, pair):
        frame, s1, s2 = pair
        with pytest.raises(BadGrouping):
            mixed((s1, s2), ("and", 0, 0))
        with pytest.raises(BadGrouping):
            mixed((s1, s2), ("and", 0, 2))
        with pytest.raises(BadGrouping):
            mixed((s1, s2), 0)

    @pytest.mark.parametrize("tree, message", [
        (("and", 0, 0), "source index 0 used twice"),
        (("and", 0, 2), "source index 2 out of range"),
        (("and", 0, -1), "source index -1 out of range"),
    ])
    def test_library_groupings_name_0_based_indices(self, pair, tree, message):
        frame, s1, s2 = pair
        with pytest.raises(BadGrouping, match=f"^{message}$"):
            mixed((s1, s2), tree)

    def test_grouping_leaves_are_integers_but_not_bools(self, pair):
        frame, s1, s2 = pair
        with pytest.raises(BadGrouping, match="^bad grouping node True$"):
            mixed((s1, s2), ("and", True, 0))
        assert (mixed((s1, s2), ("and", np.int64(1), 0)).entries
                == mixed((s1, s2), ("and", 1, 0)).entries)

    def test_combine_has_no_default_grouping(self, pair):
        frame, s1, s2 = pair
        with pytest.raises(BadGrouping):
            combine(RuleId.MIXED, s1, s2)


# Library grouping trees: tuples and lists, leaves of every kind a caller
# may pass, and the malformed nodes the reader names.
_GROUPING_LEAVES = st.one_of(
    st.integers(-1, 5), st.integers(0, 4).map(np.int64), st.booleans(),
    st.sampled_from([0.0, 1.0, None, ["xor", 1, 2], ["and", 1], [["and"], 1, 2]]))
_GROUPING_TREES = st.recursive(
    _GROUPING_LEAVES,
    lambda kids: st.tuples(st.sampled_from(["and", "or"]), kids, kids).flatmap(
        lambda node: st.sampled_from([node, list(node)])),
    max_leaves=8)


def _outcome(call):
    """A call's value, or the class and text of what it raised."""
    try:
        return call()
    except Exception as exc:  # any class: it must match the oracle's
        return type(exc), str(exc)


def _deep_grouping(depth: int):
    """A grouping tree ``depth`` nodes deep over ``depth + 1`` sources:
    source k joins the tree below it by "and" from the right when k is
    odd, by "or" from the left when k is even."""
    tree = 0
    for k in range(1, depth + 1):
        tree = ("and", tree, k) if k % 2 else ("or", k, tree)
    return tree


class TestGroupingReader:
    @settings(max_examples=600, deadline=None)
    @given(_GROUPING_TREES, st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_one_stack_matches_the_recursive_reader(self, tree, n, seed):
        cols = list(np.random.default_rng(seed).integers(0, 2 ** 64, size=(n, 3),
                                                         dtype=np.uint64))

        def star_bits(read):
            return read(tree, n, " in the grouping")(cols).tolist()

        assert _outcome(lambda: star_bits(_grouping)) == _outcome(
            lambda: star_bits(reference_grouping))

    def test_depth_has_no_limit(self):
        tree = _deep_grouping(5_000)
        cols = [np.array([1 << (k % 64), k], np.uint64) for k in range(5_001)]
        expected = cols[0]
        for k in range(1, 5_001):
            expected = expected & cols[k] if k % 2 else cols[k] | expected
        assert _grouping(tree, 5_001)(cols).tolist() == expected.tolist()
        with pytest.raises(RecursionError):
            reference_grouping(tree, 5_001)

    def test_a_bad_node_over_a_deep_subtree_is_named_in_short(self):
        deep = _deep_grouping(3_000)
        with pytest.raises(BadGrouping) as info:
            _grouping(["and", deep, 1, 2], 3_000)
        text = str(info.value)
        assert text.startswith("bad grouping node ['and', ('or', 3000, ")
        assert text.endswith(", 1, 2]") and len(text) < 200

    def test_a_deep_mixed_call_meets_the_source_limit(self):
        a = _halves()
        with pytest.raises(InputError, match="^5001 sources exceed the limit of 32$"):
            mixed([a] * 5_001, _deep_grouping(5_000))


class TestSourceLimit:
    @pytest.mark.parametrize("call", [
        lambda srcs: conjunctive(*srcs),
        lambda srcs: disjunctive(*srcs),
        lambda srcs: exclusive_disjunctive(*srcs),
        lambda srcs: fuse_many(RuleId.CONJUNCTIVE, srcs),
        lambda srcs: mixed(srcs, _deep_grouping(len(srcs) - 1)),
    ], ids=["conjunctive", "disjunctive", "exclusive", "fuse_many", "mixed"])
    def test_more_sources_than_axes_are_refused(self, call):
        a = make_bba(Frame(("A", "B")), {"A": 1.0})
        call([a] * 32)
        for n in (33, 65):
            with pytest.raises(InputError, match=f"^{n} sources exceed the limit of 32$"):
                call([a] * n)

    @pytest.mark.parametrize("rule", [RuleId.DEMPSTER, RuleId.PCR5, RuleId.MURPHY_AVERAGE])
    def test_pairwise_folds_take_any_number(self, rule):
        a = make_bba(Frame(("A", "B")), {"A": 1.0})
        assert fuse_many(rule, [a] * 65).mass("A") == pytest.approx(1.0)


class TestDempster:
    def test_normalizes_surviving_mass(self, pair):
        frame, s1, s2 = pair
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        out = combine(RuleId.DEMPSTER, s1, s2, model=model)
        assert out.mass("A") == pytest.approx(0.24 / 0.72)
        assert out.mass("B") == pytest.approx(0.42 / 0.72)
        assert out.mass("A|B") == pytest.approx(0.06 / 0.72)
        assert out.total() == pytest.approx(1.0)

    def test_total_conflict_raises(self):
        frame = Frame(("A", "B"))
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        m1 = make_bba(frame, {"A": 1.0})
        m2 = make_bba(frame, {"B": 1.0})
        with pytest.raises(TotalConflict):
            combine(RuleId.DEMPSTER, m1, m2, model=model)

    def test_free_model_matches_conjunctive(self, pair):
        frame, s1, s2 = pair
        out = combine(RuleId.DEMPSTER, s1, s2)
        conj, _ = conjunctive(s1, s2)
        assert out == conj


class TestYagerAndOpenWorld:
    def test_yager_moves_conflict_to_ignorance(self, pair):
        frame, s1, s2 = pair
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        out = combine(RuleId.YAGER, s1, s2, model=model)
        assert out.mass("A") == pytest.approx(0.24)
        assert out.mass("B") == pytest.approx(0.42)
        assert out.mass("A|B") == pytest.approx(0.34)
        assert out.total() == pytest.approx(1.0)

    def test_smets_keeps_conflict_on_empty(self, pair):
        frame, s1, s2 = pair
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        out = combine(RuleId.SMETS_TBM, s1, s2, model=model)
        assert out.mass(0) == pytest.approx(0.28)
        assert out.mass("A") == pytest.approx(0.24)
        assert out.total() == pytest.approx(1.0)


class TestUnionEscalation:
    def test_partial_exclusivity_golden(self):
        frame = Frame(ALL_LABELS)
        m1 = make_bba(frame, {"A": 0.5, "B": 0.2, "C": 0.3})
        m2 = make_bba(frame, {"A": 0.4, "B": 0.4, "C": 0.2})
        model = EmptinessModel.from_exprs(frame, ("A&C", "B&C"))
        for rule in (RuleId.DSMH, RuleId.DUBOIS_PRADE):
            out = combine(rule, m1, m2, model=model)
            assert out.mass("A") == pytest.approx(0.20)
            assert out.mass("B") == pytest.approx(0.08)
            assert out.mass("C") == pytest.approx(0.06)
            assert out.mass("A&B") == pytest.approx(0.28)
            assert out.mass("A|C") == pytest.approx(0.22)
            assert out.mass("B|C") == pytest.approx(0.16)
            assert out.total() == pytest.approx(1.0)

    def test_escalates_to_universe_when_union_empty(self):
        frame = Frame(("A", "B", "C"))
        model = EmptinessModel.from_exprs(frame, ("A&B", "A\\B", "B\\A"))
        m1 = make_bba(frame, {"A": 1.0})
        m2 = make_bba(frame, {"B": 1.0})
        out = combine(RuleId.DSMH, m1, m2, model=model)
        assert out.mass(frame.universe_bits) == pytest.approx(1.0)

    def test_open_world_fallthrough_to_empty(self):
        frame = Frame(("A", "B"), world=World.OPEN)
        model = EmptinessModel.from_exprs(frame, ("A|B",))
        m1 = make_bba(frame, {"A": 1.0})
        m2 = make_bba(frame, {"B": 1.0})
        out = combine(RuleId.DSMH, m1, m2, model=model)
        assert out.mass(0) == pytest.approx(1.0)


class TestMurphy:
    def test_averages_masses(self, pair):
        frame, s1, s2 = pair
        out = murphy_average(s1, s2)
        assert out.mass("A") == pytest.approx(0.30)
        assert out.mass("B") == pytest.approx(0.45)
        assert out.mass("A|B") == pytest.approx(0.25)

    def test_n_ary_average(self):
        frame = Frame(ALL_LABELS)
        rng = random.Random(9)
        sources = [random_bba(frame, rng) for _ in range(4)]
        out = murphy_average(*sources)
        for bits, v in out.entries:
            expect = math.fsum(s.mass(bits) for s in sources) / 4
            assert v == pytest.approx(expect)


class TestPcr5:
    def test_two_source_row(self, pair):
        frame, s1, s2 = pair
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        out = pcr5(s1, s2, model=model)
        assert out.mass("A") == pytest.approx(0.356, abs=1e-3)
        assert out.mass("B") == pytest.approx(0.584, abs=1e-3)
        assert out.mass("A|B") == pytest.approx(0.06)
        assert out.total() == pytest.approx(1.0)

    def test_split_is_proportional_per_term(self, pair):
        frame, s1, s2 = pair
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        out = pcr5(s1, s2, model=model)
        gain_a = 0.2 * 0.08 / 0.6 + 0.4 * 0.20 / 0.9
        gain_b = 0.4 * 0.08 / 0.6 + 0.5 * 0.20 / 0.9
        assert out.mass("A") == pytest.approx(0.24 + gain_a)
        assert out.mass("B") == pytest.approx(0.42 + gain_b)

    def test_free_model_is_conjunctive(self, pair):
        frame, s1, s2 = pair
        conj, _ = conjunctive(s1, s2)
        assert pcr5(s1, s2) == conj


class TestRuleProperties:
    SYMMETRIC = (
        RuleId.CONJUNCTIVE,
        RuleId.DISJUNCTIVE,
        RuleId.EXCLUSIVE_DISJUNCTIVE,
        RuleId.DEMPSTER,
        RuleId.YAGER,
        RuleId.SMETS_TBM,
        RuleId.DUBOIS_PRADE,
        RuleId.DSMH,
        RuleId.MURPHY_AVERAGE,
        RuleId.PCR5,
    )

    def test_commutativity(self):
        frame = Frame(ALL_LABELS)
        rng = random.Random(17)
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        for _ in range(20):
            m1, m2 = random_bba(frame, rng), random_bba(frame, rng)
            for rule in self.SYMMETRIC:
                try:
                    left = combine(rule, m1, m2, model=model)
                    right = combine(rule, m2, m1, model=model)
                except TotalConflict:
                    continue
                ld, rd = dict(left.entries), dict(right.entries)
                assert ld.keys() == rd.keys(), rule
                for bits, v in ld.items():
                    assert rd[bits] == pytest.approx(v, abs=1e-12), rule

    def test_conservation(self):
        frame = Frame(ALL_LABELS)
        rng = random.Random(23)
        model = EmptinessModel.from_exprs(frame, ("A&C",))
        conserving = [r for r in self.SYMMETRIC if r is not RuleId.DEMPSTER]
        for _ in range(25):
            m1, m2 = random_bba(frame, rng), random_bba(frame, rng)
            for rule in conserving:
                out = combine(rule, m1, m2, model=model)
                if rule is RuleId.CONJUNCTIVE:
                    _, ledger = conjunctive(m1, m2, model=model)
                    assert out.total() + ledger.total() == pytest.approx(1.0)
                else:
                    assert out.total() == pytest.approx(1.0)

    def test_string_rule_ids_accepted(self, pair):
        frame, s1, s2 = pair
        assert combine("disjunctive", s1, s2) == combine(
            RuleId.DISJUNCTIVE, s1, s2
        )


class TestFuseMany:
    def test_symmetric_three_source_conjunctive(self):
        frame = Frame(ALL_LABELS)
        rng = random.Random(31)
        sources = [random_bba(frame, rng) for _ in range(3)]
        native = fuse_many(RuleId.CONJUNCTIVE, sources)
        folded, _ = conjunctive(sources[0], sources[1])
        folded, _ = conjunctive(folded, sources[2])
        for bits, v in native.entries:
            assert folded.mass(bits) == pytest.approx(v)

    def test_pcr5_folds_left(self):
        frame = Frame(ALL_LABELS)
        rng = random.Random(37)
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        sources = [random_bba(frame, rng) for _ in range(3)]
        native = fuse_many(RuleId.PCR5, sources, model=model)
        folded = pcr5(pcr5(sources[0], sources[1], model=model),
                      sources[2], model=model)
        assert native == folded

    def test_mixed_requires_grouping(self):
        frame = Frame(ALL_LABELS)
        rng = random.Random(41)
        sources = [random_bba(frame, rng) for _ in range(3)]
        out = fuse_many(RuleId.MIXED, sources, grouping=("or", 0, ("and", 1, 2)))
        assert out == mixed(sources, ("or", 0, ("and", 1, 2)))
        for rule in (RuleId.MIXED, "mixed"):
            with pytest.raises(BadGrouping, match="^the mixed rule needs a grouping tree$"):
                fuse_many(rule, sources)

    @pytest.mark.parametrize("rule", list(RuleId))
    def test_one_source_is_rejected(self, rule, pair):
        _, s1, _ = pair
        with pytest.raises(InputError, match="need at least two sources"):
            fuse_many(rule, [s1], grouping=0)


# --- the library boundary ----------------------------------------------------


def _halves():
    return make_bba(Frame(("A", "B")), {"A": 0.5, "B": 0.5})


def _redistribute_with_a_string_relationship():
    b = _halves()
    ctx = RedistContext(b.frame, EmptinessModel.free(b.frame), (b, b))
    redistribute(((1, 2), 0, 0.25), "consensus", ctx)


@pytest.mark.parametrize("call", [
    lambda: combine("bogus", _halves(), _halves()),
    lambda: fuse_many("bogus", [_halves(), _halves()]),
    lambda: build_frame(["A", "B"], "bogus"),
    _redistribute_with_a_string_relationship,
    lambda: n_norm("min", NsTriple(0.5, 0.2, 0.3), NsTriple(0.5, 0.2, 0.3)),
    lambda: n_conorm("min", NsTriple(0.5, 0.2, 0.3), NsTriple(0.5, 0.2, 0.3)),
    lambda: Reliability.discounts(["x"]),
], ids=["combine", "fuse_many", "build_frame", "redistribute", "n_norm", "n_conorm",
        "discounts"])
def test_bad_arguments_raise_input_error(call):
    with pytest.raises(InputError):
        call()
