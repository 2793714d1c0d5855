"""Set algebra tests: frames, atom encoding, parsing, naming, models.

The parser and canonical encoding are checked against an independent
truth-table oracle: an atom is a nonempty subset of labels, a label
holds on an atom exactly when it belongs to that subset, and an
expression denotes the set of atoms on which it evaluates true.
Canonical names are checked against ``reference_format_bits``, a
nested search that fixes which candidate name wins.
"""

import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_parse_bits
from fusionkit import (
    AtomSet,
    EmptinessModel,
    Frame,
    SetOpKind,
    World,
    atoms_of,
    build_frame,
    is_model_empty,
    make_bba,
    parse_expr,
    set_op,
    superpower_cardinality,
)
from fusionkit.errors import (
    DuplicateLabel,
    ExprSyntaxError,
    FrameMismatch,
    InputError,
    TooFewHypotheses,
    TooManyHypotheses,
    UnknownLabel,
)

LABELS3 = ("A", "B", "C")


def tree_bits(frame, node):
    """Truth-table evaluation of an expression tree, atom by atom."""
    bits = 0
    for s in range(1, 1 << frame.n):
        if _holds(frame, node, s):
            bits |= 1 << (s - 1)
    return bits


def _holds(frame, node, s):
    kind = node[0]
    if kind == "lab":
        return bool((s >> frame.label_index(node[1])) & 1)
    if kind == "not":
        return not _holds(frame, node[1], s)
    a = _holds(frame, node[1], s)
    b = _holds(frame, node[2], s)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    return a and not b


def render(node):
    """Expression text for a tree, fully parenthesised."""
    kind = node[0]
    if kind == "lab":
        return node[1]
    if kind == "not":
        return "~(" + render(node[1]) + ")"
    op = {"and": "&", "or": "|", "diff": "\\"}[kind]
    return "(" + render(node[1]) + op + render(node[2]) + ")"


def trees(labels):
    leaf = st.sampled_from([("lab", lab) for lab in labels])
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(st.just("not"), kids),
            st.tuples(st.sampled_from(["and", "or", "diff"]), kids, kids),
        ),
        max_leaves=8,
    )


def reference_format_bits(labels, bits, forced=0):
    """Canonical name by a three-stage nested search: unions and
    intersections of r literals for r = 1..n, then one literal joined to
    a group of others, then explicit atoms.  The library's candidate
    order must reproduce it name for name."""
    if bits == 0:
        return "empty"
    n = len(labels)
    masks = [0] * n
    for s in range(1, 1 << n):
        for i in range(n):
            if s >> i & 1:
                masks[i] |= 1 << (s - 1)
    universe = (1 << ((1 << n) - 1)) - 1
    live = universe & ~forced
    if forced and bits == live:
        return reference_format_bits(labels, universe)

    def literal(i, neg):
        if neg:
            return f"~{labels[i]}", universe & ~masks[i]
        return labels[i], masks[i]

    def candidates(r):
        # fewest complements first, so classes modulo a model keep
        # their positive representative where one exists
        for pols in sorted(product((False, True), repeat=r), key=sum):
            for idxs in combinations(range(n), r):
                yield [literal(i, neg) for i, neg in zip(idxs, pols)]

    for r in range(1, n + 1):
        for lits in candidates(r):
            m = 0
            for _, lm in lits:
                m |= lm
            if m & live == bits:
                return "|".join(s for s, _ in lits)
        if r >= 2:
            for lits in candidates(r):
                m = universe
                for _, lm in lits:
                    m &= lm
                if m & live == bits:
                    return "&".join(s for s, _ in lits)

    # one literal combined with a union / intersection of others
    for i in range(n):
        for neg in (False, True):
            ls, lm = literal(i, neg)
            for r in range(2, n):
                for idxs in combinations([j for j in range(n) if j != i], r):
                    for pols in product((False, True), repeat=r):
                        group = [literal(j, gneg) for j, gneg in zip(idxs, pols)]
                        um, im = 0, universe
                        for _, gm in group:
                            um |= gm
                            im &= gm
                        names = [s for s, _ in group]
                        if lm & um & live == bits:
                            return f"{ls}&({'|'.join(names)})"
                        if (lm | im) & live == bits:
                            return f"{ls}|({'&'.join(names)})"

    # fall back to explicit atoms
    parts = []
    for p in range((1 << n) - 1):
        if bits >> p & 1:
            s = p + 1
            conj = "&".join(
                lab if s >> i & 1 else f"~{lab}" for i, lab in enumerate(labels)
            )
            parts.append(f"({conj})")
    return "|".join(parts)


def assert_names_match_reference(frame, bits, forced=0):
    model = EmptinessModel(frame, forced)
    assert frame.name_of(bits) == reference_format_bits(frame.labels, bits)
    assert model.name_of(bits) == reference_format_bits(
        frame.labels, bits & ~forced, forced
    )


def label_built_bits(frame, rng):
    """A left-fold of random & and | over distinct, possibly
    complemented, labels: the shapes short names are made of."""
    bits = None
    for lab in rng.sample(frame.labels, rng.randint(1, frame.n)):
        m = frame.label_bits(lab)
        if rng.random() < 0.5:
            m = frame.universe_bits & ~m
        if bits is None:
            bits = m
        else:
            bits = bits | m if rng.random() < 0.5 else bits & m
    return bits


class TestCardinality:
    def test_small_frames(self):
        assert superpower_cardinality(2) == 8
        assert superpower_cardinality(3) == 128
        assert superpower_cardinality(4) == 2**15

    def test_matches_formula_up_to_limit(self):
        for n in range(2, 7):
            assert superpower_cardinality(n) == 2 ** (2**n - 1)

    @pytest.mark.parametrize("n", [2.5, None, "3", True], ids=repr)
    def test_cardinality_of_a_non_integer_is_an_input_error(self, n):
        with pytest.raises(InputError) as info:
            superpower_cardinality(n)
        assert str(info.value) == f"n must be an integer, got {n!r}"

    def test_cardinality_of_a_numpy_integer(self):
        assert superpower_cardinality(np.int64(6)) == 2**63

    def test_frame_size_limits(self):
        with pytest.raises(TooFewHypotheses):
            build_frame(("A",))
        with pytest.raises(TooManyHypotheses):
            build_frame(tuple("ABCDEFG"))
        with pytest.raises(TooFewHypotheses):
            superpower_cardinality(1)

    @pytest.mark.parametrize("n", [7, 14])
    def test_cardinality_beyond_the_frame_limit(self, n):
        with pytest.raises(TooManyHypotheses, match=f"got {n}$"):
            superpower_cardinality(n)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            build_frame(("A", "A"))


class TestParserAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(trees(LABELS3))
    def test_atoms_match_truth_table(self, node):
        frame = Frame(LABELS3)
        assert atoms_of(render(node), frame).bits == tree_bits(frame, node)

    @settings(max_examples=200, deadline=None)
    @given(trees(LABELS3), trees(LABELS3))
    def test_equivalence_matches_truth_table(self, left, right):
        frame = Frame(LABELS3)
        same_canonical = atoms_of(render(left), frame) == atoms_of(
            render(right), frame
        )
        same_semantics = tree_bits(frame, left) == tree_bits(frame, right)
        assert same_canonical == same_semantics

    def test_precedence_not_binds_tightest(self):
        frame = Frame(LABELS3)
        assert parse_expr(frame, "~A|B&C") == parse_expr(frame, "(~A)|(B&C)")
        assert parse_expr(frame, "~A&B") == parse_expr(frame, "(~A)&B")

    def test_union_and_difference_share_a_level(self):
        frame = Frame(LABELS3)
        assert parse_expr(frame, "A|B\\C") == parse_expr(frame, "(A|B)\\C")
        assert parse_expr(frame, "A\\B|C") == parse_expr(frame, "(A\\B)|C")

    def test_empty_keyword(self):
        frame = Frame(LABELS3)
        assert parse_expr(frame, "empty").is_empty_set
        assert parse_expr(frame, "empty").bits == 0

    def test_unknown_label(self):
        frame = Frame(LABELS3)
        with pytest.raises(UnknownLabel):
            parse_expr(frame, "A|Q")

    @pytest.mark.parametrize("text", ["", "A |", "(A", "A~B", "&A", "A B"])
    def test_syntax_errors(self, text):
        frame = Frame(LABELS3)
        with pytest.raises(ExprSyntaxError):
            parse_expr(frame, text)

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from([("A", "B"), LABELS3]),
           st.lists(st.sampled_from(["A", "B", "C", "Q", "empty", "A1", "_x", "&", "|", "\\",
                                     "~", "(", ")", " ", "\t", "\u00a0", "$", "\u00e9", "9"]),
                    max_size=14))
    def test_one_pass_matches_recursive_descent(self, labels, parts):
        frame, text = Frame(labels), "".join(parts)

        def outcome(parse):
            try:
                return parse(frame, text)
            except InputError as exc:
                return type(exc), str(exc)

        assert outcome(lambda f, t: parse_expr(f, t).bits) == outcome(reference_parse_bits)

    @pytest.mark.parametrize("text", ["(" * 10_000 + "A" + ")" * 10_000, "~" * 10_000 + "A"],
                             ids=["parentheses", "complements"])
    def test_nesting_has_no_depth_limit(self, text):
        frame = Frame(LABELS3)
        assert parse_expr(frame, text) == frame.atoms_of("A")
        assert parse_expr(frame, "~" + text) == frame.atoms_of("~A")
        with pytest.raises(ExprSyntaxError, match=r"^missing '\)' in "):
            parse_expr(frame, "(" + text)
        with pytest.raises(RecursionError):
            reference_parse_bits(frame, text)


class TestBooleanLaws:
    def all_sets(self, frame):
        return [
            AtomSet(frame, bits) for bits in range(1 << frame.atom_count)
        ]

    @pytest.mark.parametrize("labels", [("A", "B"), LABELS3])
    def test_de_morgan_exhaustive(self, labels):
        frame = Frame(labels)
        sets = self.all_sets(frame)
        for a in sets:
            for b in sets:
                assert ~(a | b) == ~a & ~b
                assert ~(a & b) == ~a | ~b

    @pytest.mark.parametrize("labels", [("A", "B"), LABELS3])
    def test_specificity_chain_exhaustive(self, labels):
        frame = Frame(labels)
        sets = self.all_sets(frame)
        full = frame.full()
        for a in sets:
            for b in sets:
                assert (a & b).issubset(a)
                assert a.issubset(a | b)
                assert (a | b).issubset(full)

    def test_difference_and_double_complement(self):
        frame = Frame(LABELS3)
        sets = self.all_sets(frame)
        for a in sets:
            assert ~~a == a
            for b in sets:
                assert a - b == a & ~b

    def test_atom_set_outside_the_universe_is_an_input_error(self):
        with pytest.raises(InputError, match="outside the frame universe"):
            AtomSet(Frame(("A", "B")), 8)

    def test_set_op_arity_is_an_input_error(self):
        a = Frame(LABELS3).atoms_of("A")
        with pytest.raises(InputError, match="union needs two operands"):
            set_op("union", a)
        with pytest.raises(InputError, match="complement is unary"):
            set_op("complement", a, a)

    def test_set_op_unknown_kind_is_an_input_error(self):
        a = Frame(LABELS3).atoms_of("A")
        with pytest.raises(InputError, match="unknown set operation 'xor'"):
            set_op("xor", a, a)

    def test_set_op_non_set_operand_is_an_input_error(self):
        a = Frame(LABELS3).atoms_of("A")
        with pytest.raises(InputError, match="operands must be AtomSets"):
            set_op("union", a, 3)

    def test_set_op_dispatch(self):
        frame = Frame(LABELS3)
        a, b = frame.atoms_of("A"), frame.atoms_of("B|C")
        assert set_op(SetOpKind.UNION, a, b) == a | b
        assert set_op("intersection", a, b) == a & b
        assert set_op("difference", a, b) == a - b
        assert set_op("complement", a) == ~a


class TestNaming:
    @pytest.mark.parametrize("labels", [("A", "B"), LABELS3])
    def test_round_trip_exhaustive(self, labels):
        frame = Frame(labels)
        for bits in range(1 << frame.atom_count):
            name = frame.name_of(bits)
            assert parse_expr(frame, name).bits == bits

    def test_prefers_plain_forms(self):
        frame = Frame(LABELS3)
        assert frame.atoms_of("A").name == "A"
        assert frame.full().name == "A|B|C"
        assert frame.empty().name == "empty"
        assert frame.atoms_of("A&B").name == "A&B"
        assert frame.atoms_of("A|B").name == "A|B"

    @pytest.mark.parametrize("bits", [8, 9, -1])
    def test_names_reject_bits_outside_the_universe(self, bits):
        frame = Frame(("A", "B"))
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        for name_of in (frame.name_of, model.name_of):
            with pytest.raises(InputError, match="outside the frame universe"):
                name_of(bits)

    def test_single_atom_names(self):
        frame = Frame(("A", "B"))
        only_a = AtomSet(frame, 0b001)
        both = AtomSet(frame, 0b100)
        assert parse_expr(frame, only_a.name) == only_a
        assert parse_expr(frame, both.name) == both
        assert only_a.name == "~B"
        assert both.name == "A&B"


class TestNamingAgainstReference:
    @pytest.mark.parametrize("labels", [("A", "B"), LABELS3])
    def test_every_element_under_three_models(self, labels):
        frame = Frame(labels)
        models = (
            EmptinessModel.free(frame),
            EmptinessModel.exclusive(frame),
            EmptinessModel.from_exprs(frame, ("A&B",)),
        )
        for model in models:
            for bits in range(1 << frame.atom_count):
                assert_names_match_reference(frame, bits, model.forced_empty_bits)

    @pytest.mark.parametrize("n, count", [(4, 60), (5, 20), (6, 8)])
    def test_random_masks_with_and_without_forced_atoms(self, n, count):
        frame = Frame(tuple("ABCDEF"[:n]))
        rng = random.Random(n)
        for _ in range(count):
            bits = rng.randrange(1 << frame.atom_count)
            forced = rng.randrange(1 << frame.atom_count)
            assert_names_match_reference(frame, bits)
            assert_names_match_reference(frame, bits, forced)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_label_built_masks(self, n):
        frame = Frame(tuple("ABCDEF"[:n]))
        rng = random.Random(100 + n)
        for _ in range(30):
            bits = label_built_bits(frame, rng)
            pair = rng.sample(frame.labels, 2)
            forced = rng.choice((0, frame.atoms_of("&".join(pair)).bits))
            assert_names_match_reference(frame, bits, forced)


class TestEmptinessModel:
    def test_free_model(self):
        frame = Frame(LABELS3)
        model = EmptinessModel.free(frame)
        assert model.is_free
        assert model.forced_empty_bits == 0
        assert not model.is_empty(frame.atoms_of("A&B"))

    def test_forced_bits_outside_the_universe_are_an_input_error(self):
        with pytest.raises(InputError, match="forced-empty bits outside"):
            EmptinessModel(Frame(("A", "B")), 99)

    def test_forced_intersections(self):
        frame = Frame(LABELS3)
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        assert model.is_empty(frame.atoms_of("A&B"))
        assert model.is_empty(frame.atoms_of("A&B&C"))
        assert not model.is_empty(frame.atoms_of("A&C"))
        assert is_model_empty(frame.atoms_of("A&B"), model)

    def test_exclusive_model(self):
        frame = Frame(LABELS3)
        model = EmptinessModel.exclusive(frame)
        for x in LABELS3:
            for y in LABELS3:
                if x != y:
                    assert model.is_empty(frame.atoms_of(f"{x}&{y}"))
            assert not model.is_empty(frame.atoms_of(x))

    def test_reduce_is_a_homomorphism(self):
        frame = Frame(LABELS3)
        model = EmptinessModel.from_exprs(frame, ("A&B", "B&C"))
        rng = random.Random(11)
        for _ in range(200):
            a = AtomSet(frame, rng.randrange(1 << frame.atom_count))
            b = AtomSet(frame, rng.randrange(1 << frame.atom_count))
            assert model.reduce(a & b) == model.reduce(
                model.reduce(a) & model.reduce(b)
            )
            assert model.reduce(a | b) == model.reduce(
                model.reduce(a) | model.reduce(b)
            )

    def test_model_aware_names_round_trip(self):
        frame = Frame(("A", "B"))
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        for bits in range(1 << frame.atom_count):
            reduced = model.reduce(AtomSet(frame, bits))
            name = model.name_of(reduced)
            assert model.reduce(parse_expr(frame, name)) == reduced

    def test_model_aware_names_stay_positive(self):
        frame = Frame(("A", "B"))
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        assert model.name_of(frame.atoms_of("A")) == "A"
        assert model.name_of(frame.atoms_of("B")) == "B"
        assert model.name_of(frame.atoms_of("A|B")) == "A|B"
        assert model.name_of(frame.atoms_of("A&B")) == "empty"

    def test_reduced_universe_keeps_its_name(self):
        frame = Frame(LABELS3)
        model = EmptinessModel.exclusive(frame)
        assert model.name_of(frame.full()) == "A|B|C"


class TestFrameBasics:
    def test_world_round_trip(self):
        assert Frame(("A", "B")).world is World.CLOSED
        assert build_frame(("A", "B"), "open").world is World.OPEN

    def test_atom_positions(self):
        frame = Frame(("A", "B"))
        a = frame.atoms_of("A")
        assert a.bits == frame.label_bits("A")
        assert set(a.atom_positions) == {0, 2}

    def test_singleton_and_indexing(self):
        frame = Frame(LABELS3)
        assert frame.singleton("B") == frame.atoms_of("B")
        assert frame.label_index("C") == 2


class TestBitmaskKeys:
    """A bitmask is an int (any Integral but a bool); anything else is an
    InputError, not a bare TypeError or a set that fails later."""

    @pytest.mark.parametrize("bits", ["3", 1.5, True, False, None, np.float64(1.0), [1]],
                             ids=repr)
    def test_atom_set_bits_that_are_not_an_int_are_refused(self, bits):
        with pytest.raises(InputError) as info:
            AtomSet(Frame(("A", "B")), bits)
        assert str(info.value) == f"bits must be an int, got {bits!r}"

    @pytest.mark.parametrize("bits", [1.5, True, "0"], ids=repr)
    def test_forced_empty_bits_that_are_not_an_int_are_refused(self, bits):
        with pytest.raises(InputError) as info:
            EmptinessModel(Frame(("A", "B")), bits)
        assert str(info.value) == f"forced-empty bits must be an int, got {bits!r}"

    @pytest.mark.parametrize("bits", [np.uint64(4), np.int64(4)], ids=repr)
    def test_numpy_ints_are_bitmasks(self, bits):
        frame = Frame(("A", "B"))
        assert AtomSet(frame, bits) == frame.atoms_of("A&B")
        assert EmptinessModel(frame, bits).is_empty(frame.atoms_of("A&B"))

    def test_numpy_masks_are_stored_as_ints(self):
        frame = Frame(("A", "B"))
        assert type(AtomSet(frame, np.uint64(3)).bits) is int
        exclusive = EmptinessModel.exclusive(frame)
        assert exclusive.reduce(np.uint64(7)) == AtomSet(frame, 3)
        assert exclusive.is_empty(np.uint64(4)) is True
        forced = EmptinessModel(frame, np.uint64(4))
        assert type(forced.forced_empty_bits) is int
        assert forced.is_empty("A&B") is True

    def test_atoms_of_reads_text_atom_sets_and_bitmasks(self):
        frame = Frame(LABELS3)
        a = frame.atoms_of("A&~B")
        assert frame.atoms_of(a) is a
        assert frame.atoms_of(a.bits) == a

    @pytest.mark.parametrize("key", [1.9, None, True], ids=repr)
    def test_atoms_of_refuses_other_keys(self, key):
        with pytest.raises(InputError, match="^bits must be an int"):
            Frame(LABELS3).atoms_of(key)

    def test_model_reduce_and_is_empty_read_any_set_key(self):
        frame = Frame(("A", "B"))
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        a_and_b = frame.atoms_of("A&B")
        for key in ("A&B", a_and_b, a_and_b.bits):
            assert model.is_empty(key)
            assert model.reduce(key) == frame.empty()
        with pytest.raises(FrameMismatch, match="^set belongs to a different frame$"):
            model.reduce(Frame(("A", "C")).atoms_of("A"))

    @pytest.mark.parametrize("bits", [True, False, 1.5, None, "3", np.float64(1.0)], ids=repr)
    def test_name_of_refuses_keys_that_are_not_an_int(self, bits):
        frame = Frame(("A", "B"))
        for name_of in (frame.name_of, EmptinessModel.free(frame).name_of,
                        EmptinessModel.exclusive(frame).name_of):
            with pytest.raises(InputError) as info:
                name_of(bits)
            assert str(info.value) == f"bits must be an int, got {bits!r}"

    def test_name_of_reads_ints_numpy_ints_and_atom_sets(self):
        frame = Frame(("A", "B"))
        a_or_b = frame.atoms_of("A|B")
        model = EmptinessModel.exclusive(frame)
        for key in (a_or_b, a_or_b.bits, np.int64(a_or_b.bits), np.uint64(a_or_b.bits)):
            assert frame.name_of(key) == "A|B"
            assert EmptinessModel.free(frame).name_of(key) == "A|B"
            assert model.name_of(key) == "A|B"
        assert frame.name_of(np.int64(3)) == frame.name_of(3) == "~A|~B"


class TestFrameReadsItsOwnValues:
    """``Frame`` converts its world by ``enum_member`` and its labels to a
    tuple, and refuses a single string or a label that is not one."""

    def test_a_world_by_name_is_the_member(self):
        frame = Frame(("A", "B"), "open")
        assert frame.world is World.OPEN
        assert frame == Frame(("A", "B"), World.OPEN)
        assert hash(frame) == hash(Frame(("A", "B"), World.OPEN))
        assert make_bba(frame, {"A": 0.5}).to_json()["world"] == "open"

    def test_an_unknown_world_is_refused(self):
        with pytest.raises(InputError, match="^unknown world 'ajar'$"):
            Frame(("A", "B"), "ajar")

    def test_a_label_list_is_stored_as_a_tuple(self):
        frame = Frame(["A", "B"])
        assert frame.labels == ("A", "B") and frame == Frame(("A", "B"))
        assert make_bba(frame, {"A": 1.0}).mass("A") == 1.0

    @pytest.mark.parametrize("labels, message", [
        ("AB", "labels must be a list or tuple of str, got str"),
        (1, "labels must be a list or tuple of str, got int"),
        ({"A", "B"}, "labels must be a list or tuple of str, got set"),
        (["A", 1], "label 1 is not a valid identifier"),
        (("A", None), "label None is not a valid identifier"),
    ], ids=repr)
    def test_labels_that_are_not_a_list_of_str_are_refused(self, labels, message):
        for make in (Frame, build_frame):
            with pytest.raises(InputError) as info:
                make(labels)
            assert str(info.value) == message

    def test_model_expressions_come_in_a_collection(self):
        frame = Frame(("A", "B"))
        with pytest.raises(InputError) as info:
            EmptinessModel.from_exprs(frame, "A&B")
        assert str(info.value) == "set expressions must come in a collection, got 'A&B'"
        assert EmptinessModel.from_exprs(frame, ["A&B"]).is_empty("A&B")
