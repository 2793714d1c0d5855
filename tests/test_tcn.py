"""Fuzzy-valued combination rules and the master formula.

The T-norm rules replace the product of masses with a fuzzy
conjunction, so most outputs are not normalised; the tests pin the raw
values.  The master formula tests check that the right parameter
choices collapse onto the classical rules.
"""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    exclusive_triple_sources,
    overlap_sources,
    reference_tconorm,
    reference_tnorm,
)

from fusionkit import (
    DUAL_CONORM,
    EmptinessModel,
    Frame,
    RuleId,
    StarOp,
    TConorm,
    TNorm,
    TransferPolicy,
    UfrConfig,
    combine,
    make_bba,
    pcr5,
    pcr5v2_tn,
    tcn_conjunctive,
    tcn_pcr5_original,
    tconorm,
    tn_family,
    tnorm,
    ufr_combine,
)
from fusionkit.errors import (
    DegenerateWeights,
    FrameMismatch,
    InputError,
    SchemaError,
    TotalConflict,
)
from fusionkit.tcn import _TCONORMS, _TNORMS

GRID = [round(0.05 * i, 2) for i in range(21)]


def random_bba(frame, rng, max_focal=4):
    universe = frame.universe_bits
    n = rng.randint(1, max_focal)
    masses = {}
    for _ in range(n):
        bits = rng.randrange(1, universe + 1)
        masses[bits] = masses.get(bits, 0.0) + rng.random() + 0.05
    total = sum(masses.values())
    from fusionkit import AtomSet

    return make_bba(
        frame, [(AtomSet(frame, b), v / total) for b, v in masses.items()]
    )


class TestOperatorAxioms:
    @pytest.mark.parametrize("kind", list(TNorm))
    def test_tnorm_boundary_and_commutativity(self, kind):
        for a in GRID:
            assert tnorm(kind, a, 1.0) == pytest.approx(a, abs=1e-12)
            assert tnorm(kind, a, 0.0) == pytest.approx(0.0, abs=1e-12)
            for b in GRID:
                assert tnorm(kind, a, b) == tnorm(kind, b, a)

    @pytest.mark.parametrize("kind", list(TConorm))
    def test_tconorm_boundary_and_commutativity(self, kind):
        for a in GRID:
            assert tconorm(kind, a, 0.0) == pytest.approx(a, abs=1e-12)
            assert tconorm(kind, a, 1.0) == pytest.approx(1.0, abs=1e-12)
            for b in GRID:
                assert tconorm(kind, a, b) == tconorm(kind, b, a)

    @pytest.mark.parametrize("kind", list(TNorm))
    def test_tnorm_monotone(self, kind):
        for b in GRID:
            prev = 0.0
            for a in GRID:
                cur = tnorm(kind, a, b)
                assert cur >= prev - 1e-12
                prev = cur

    @pytest.mark.parametrize("kind", list(TNorm))
    def test_tnorm_associative(self, kind):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = rng.random(), rng.random(), rng.random()
            left = tnorm(kind, tnorm(kind, a, b), c)
            right = tnorm(kind, a, tnorm(kind, b, c))
            assert left == pytest.approx(right, abs=1e-12)

    def test_duality(self):
        rng = random.Random(12)
        for kind, dual in DUAL_CONORM.items():
            for _ in range(200):
                a, b = rng.random(), rng.random()
                assert tconorm(dual, a, b) == pytest.approx(
                    1.0 - tnorm(kind, 1.0 - a, 1.0 - b), abs=1e-12
                )


#: Operands the one operator table is pinned at: both zeros (the
#: strategies below never draw -0.0 on their own), the least subnormal,
#: the float below 1, 1, and values above 1 (N-norm components may
#: exceed 1).
SPECIALS = [0.0, -0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0, 2.0, 3.0]
OPERANDS = st.one_of(st.sampled_from(SPECIALS), st.floats(0.0, 3.0))
OPERATORS = ([(tnorm, _TNORMS, reference_tnorm, kind) for kind in TNorm]
             + [(tconorm, _TCONORMS, reference_tconorm, kind) for kind in TConorm])
OPERATOR_IDS = [kind.value for kind in [*TNorm, *TConorm]]


def same_float(x, y) -> bool:
    """Equal bit for bit, the sign of zero included."""
    return type(x) is float and x.hex() == float(y).hex()


def check_both_forms(operator, pairs) -> None:
    """Both forms of ``operator`` equal its reference on ``pairs``: the
    scalar form pair by pair, the column form on all of them at once.
    A failure lists the pairs that differ."""
    scalar, table, reference, kind = operator
    expected = [reference(kind, x, y) for x, y in pairs]
    xs, ys = (np.array(c, np.float64) for c in zip(*pairs))
    for got in ([scalar(kind, x, y) for x, y in pairs], table[kind](xs, ys).tolist()):
        assert [p for p, g, e in zip(pairs, got, expected) if not same_float(g, e)] == []


class TestOneOperatorTable:
    """Each T-norm and T-conorm is one table entry serving floats and
    columns; both forms equal the written-out formulas exactly."""

    @pytest.mark.parametrize("operator", OPERATORS, ids=OPERATOR_IDS)
    def test_both_forms_on_every_pair_of_specials(self, operator):
        check_both_forms(operator, list(itertools.product(SPECIALS, repeat=2)))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(OPERATORS), st.lists(st.tuples(OPERANDS, OPERANDS), min_size=1))
    def test_both_forms_equal_the_reference(self, operator, pairs):
        check_both_forms(operator, pairs)

    @pytest.mark.parametrize("call, message", [
        (lambda: tnorm("min", 0.5, 0.5), "unknown T-norm 'min'"),
        (lambda: tconorm("max", 0.5, 0.5), "unknown T-conorm 'max'"),
        (lambda: tconorm(TNorm.MIN, 0.5, 0.5), "unknown T-conorm <TNorm.MIN: 'min'>"),
        (lambda: tnorm([], 0.5, 0.5), "unknown T-norm []"),
    ], ids=["norm_value", "conorm_value", "norm_as_conorm", "unhashable"])
    def test_unknown_kinds_name_themselves(self, call, message):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message


class TestMinConjunctive:
    def setup_method(self):
        self.frame, self.m1, self.m2, self.model = overlap_sources()

    def test_free_keeps_the_overlap_term(self):
        out, ledger = tcn_conjunctive(self.m1, self.m2, norm=TNorm.MIN)
        assert out.mass("A") == pytest.approx(0.3)
        assert out.mass("B") == pytest.approx(0.6)
        assert out.mass("A|B") == pytest.approx(0.4)
        assert out.mass("A&B") == pytest.approx(0.3)
        assert ledger.total() == 0.0

    def test_model_moves_the_overlap_to_the_ledger(self):
        out, ledger = tcn_conjunctive(
            self.m1, self.m2, norm=TNorm.MIN, model=self.model
        )
        assert out.mass("A&B") == 0.0
        assert ledger.total() == pytest.approx(0.3)
        (entry,) = ledger.entries
        assert set(entry.operands) == {
            self.frame.atoms_of("A").bits,
            self.frame.atoms_of("B").bits,
        }

    def test_product_norm_matches_the_classical_rule(self):
        out, ledger = tcn_conjunctive(
            self.m1, self.m2, norm=TNorm.PRODUCT, model=self.model
        )
        direct = combine(RuleId.SMETS_TBM, self.m1, self.m2,
                         model=self.model)
        assert out.mass("A") == pytest.approx(direct.mass("A"))
        assert ledger.total() == pytest.approx(direct.mass(0))

    def test_frame_mismatch(self):
        other = make_bba(Frame(("A", "C")), {"A": 1.0})
        with pytest.raises(FrameMismatch):
            tcn_conjunctive(self.m1, other)


class TestMinFamilies:
    def setup_method(self):
        (self.frame, self.m1, self.m2,
         self.model) = exclusive_triple_sources()

    def test_conjunctive_row_and_ledger(self):
        out, ledger = tcn_conjunctive(
            self.m1, self.m2, norm=TNorm.MIN, model=self.model
        )
        assert out.mass("O1") == pytest.approx(0.2)
        assert out.mass("O2") == pytest.approx(0.5)
        assert out.mass("O3") == pytest.approx(0.3)
        assert out.mass("O1|O3") == pytest.approx(0.3)
        assert sorted(e.product for e in ledger.entries) == \
            pytest.approx([0.2, 0.2, 0.3])

    def test_dempster_rescales_by_the_kept_total(self):
        out = tn_family(self.m1, self.m2, norm=TNorm.MIN,
                        variant="dempster", model=self.model)
        assert out.mass("O1") == pytest.approx(2 / 13)
        assert out.mass("O2") == pytest.approx(5 / 13)
        assert out.mass("O3") == pytest.approx(3 / 13)
        assert out.mass("O1|O3") == pytest.approx(3 / 13)
        assert out.total() == pytest.approx(1.0)

    def test_yager_hands_conflict_to_ignorance(self):
        out = tn_family(self.m1, self.m2, norm=TNorm.MIN,
                        variant="yager", model=self.model)
        assert out.mass("O1|O2|O3") == pytest.approx(0.7)
        assert out.mass("O2") == pytest.approx(0.5)

    def test_smets_leaves_conflict_on_empty(self):
        out = tn_family(self.m1, self.m2, norm=TNorm.MIN,
                        variant="smets", model=self.model)
        assert out.mass(0) == pytest.approx(0.7)

    def test_unknown_variant(self):
        with pytest.raises(InputError):
            tn_family(self.m1, self.m2, variant="median")

    def test_total_conflict(self):
        frame = Frame(("A", "B"))
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        m1 = make_bba(frame, {"A": 1.0})
        m2 = make_bba(frame, {"B": 1.0})
        with pytest.raises(TotalConflict):
            tn_family(m1, m2, variant="dempster", model=model)


class TestPcr5Original:
    def test_two_label_row(self):
        frame, m1, m2, model = overlap_sources()
        out = tcn_pcr5_original(m1, m2, norm=TNorm.MIN, model=model)
        assert out.mass("A") == pytest.approx(0.45 / 1.75, abs=1e-3)
        assert out.mass("B") == pytest.approx(0.90 / 1.75, abs=1e-3)
        assert out.mass("A|B") == pytest.approx(0.40 / 1.75, abs=1e-3)
        assert out.total() == pytest.approx(1.0)

    def test_conorm_defaults_to_the_dual(self):
        frame, m1, m2, model = overlap_sources()
        explicit = tcn_pcr5_original(
            m1, m2, norm=TNorm.MIN, conorm=TConorm.MAX, model=model
        )
        assert tcn_pcr5_original(m1, m2, norm=TNorm.MIN, model=model) == \
            explicit


class TestPcr5V2:
    def test_two_label_transfers(self):
        frame, m1, m2, model = overlap_sources()
        out = pcr5v2_tn(m1, m2, norm=TNorm.MIN, model=model)
        assert out.mass("A") == pytest.approx(0.4)
        assert out.mass("B") == pytest.approx(0.8)
        assert out.mass("A|B") == pytest.approx(0.4)
        assert out.total() == pytest.approx(1.6)

    def test_triple_transfers(self):
        frame, m1, m2, model = exclusive_triple_sources()
        out = pcr5v2_tn(m1, m2, norm=TNorm.MIN, model=model)
        assert out.mass("O1") == pytest.approx(0.2 + 0.04 / 0.6)
        assert out.mass("O2") == pytest.approx(
            0.5 + (0.2 - 0.04 / 0.6) + 0.05 + (0.3 - 0.09 / 0.7)
        )
        assert out.mass("O3") == pytest.approx(0.3 + 0.09 / 0.7)
        assert out.mass("O1|O3") == pytest.approx(0.45)
        assert out.total() == pytest.approx(2.0)

    def test_normalize_rescales(self):
        frame, m1, m2, model = exclusive_triple_sources()
        raw = pcr5v2_tn(m1, m2, norm=TNorm.MIN, model=model)
        scaled = pcr5v2_tn(m1, m2, norm=TNorm.MIN, model=model,
                           normalize=True)
        for bits, v in raw.entries:
            assert scaled.mass(bits) == pytest.approx(v / 2.0)

    def test_product_norm_equals_the_classical_transfer(self):
        rng = random.Random(31)
        frame = Frame(("A", "B", "C"))
        model = EmptinessModel.exclusive(frame)
        for _ in range(50):
            m1, m2 = random_bba(frame, rng), random_bba(frame, rng)
            via_tn = pcr5v2_tn(m1, m2, norm=TNorm.PRODUCT, model=model)
            direct = pcr5(m1, m2, model=model)
            assert dict(via_tn.entries) == pytest.approx(
                dict(direct.entries), abs=1e-12
            )


class TestMasterFormula:
    def pairs(self, count=40, seed=41):
        rng = random.Random(seed)
        frame = Frame(("A", "B", "C"))
        models = [
            EmptinessModel.free(frame),
            EmptinessModel.exclusive(frame),
            EmptinessModel.from_exprs(frame, ("A&B",)),
        ]
        for i in range(count):
            yield (frame, random_bba(frame, rng), random_bba(frame, rng),
                   models[i % len(models)])

    def test_default_config_is_the_proportional_rule(self):
        config = UfrConfig()
        for frame, m1, m2, model in self.pairs():
            got = ufr_combine(m1, m2, config, model=model)
            want = pcr5(m1, m2, model=model)
            assert dict(got.entries) == pytest.approx(
                dict(want.entries), abs=1e-12
            )

    def test_discard_normalize_is_the_normalised_rule(self):
        config = UfrConfig(transfer=TransferPolicy.DISCARD, normalize=True)
        for frame, m1, m2, model in self.pairs(seed=42):
            try:
                want = combine(RuleId.DEMPSTER, m1, m2, model=model)
            except TotalConflict:
                continue
            got = ufr_combine(m1, m2, config, model=model)
            assert dict(got.entries) == pytest.approx(
                dict(want.entries), abs=1e-12
            )

    def test_union_policy_is_the_union_transfer_rule(self):
        config = UfrConfig(transfer=TransferPolicy.UNION)
        for frame, m1, m2, model in self.pairs(seed=43):
            got = ufr_combine(m1, m2, config, model=model)
            want = combine(RuleId.DUBOIS_PRADE, m1, m2, model=model)
            assert dict(got.entries) == pytest.approx(
                dict(want.entries), abs=1e-12
            )

    def test_ignorance_policy_is_the_ignorance_rule(self):
        config = UfrConfig(transfer=TransferPolicy.IGNORANCE)
        for frame, m1, m2, model in self.pairs(seed=44):
            got = ufr_combine(m1, m2, config, model=model)
            want = combine(RuleId.YAGER, m1, m2, model=model)
            assert dict(got.entries) == pytest.approx(
                dict(want.entries), abs=1e-12
            )

    def test_constant_weights_split_evenly(self):
        frame, m1, m2, model = overlap_sources()
        config = UfrConfig(weight_1="constant:2", weight_2="constant:2")
        out = ufr_combine(m1, m2, config, model=model)
        # The only marked pair carries 0.18, split 0.09 each way.
        assert out.mass("A") == pytest.approx(0.3 * 0.4 + 0.09)
        assert out.mass("B") == pytest.approx(0.7 * 0.6 + 0.09)

    def test_zero_weights_raise(self):
        frame, m1, m2, model = overlap_sources()
        config = UfrConfig(weight_1="constant:0", weight_2="constant:0")
        with pytest.raises(DegenerateWeights):
            ufr_combine(m1, m2, config, model=model)

    def test_never_transferable_keeps_marked_terms(self):
        frame, m1, m2, model = exclusive_triple_sources()
        config = UfrConfig(transferable="never")
        out = ufr_combine(m1, m2, config, model=model)
        assert out.mass("O1&O2") == pytest.approx(0.2 * 0.4)
        assert out.total() == pytest.approx(1.0)

    def test_tuple_transferable_marks_only_listed_sets(self):
        frame, m1, m2, model = exclusive_triple_sources()
        config = UfrConfig(transferable=("O1&O2",))
        out = ufr_combine(m1, m2, config, model=model)
        assert out.mass("O1&O2") == 0.0
        # The other empty intersections are not marked, so they stay.
        assert out.mass("O2&(O1|O3)") == pytest.approx(0.2 * 0.6)

    def test_disjunctive_star(self):
        frame, m1, m2, model = overlap_sources()
        config = UfrConfig(star=StarOp.DISJUNCTIVE)
        got = ufr_combine(m1, m2, config)
        want = combine(RuleId.DISJUNCTIVE, m1, m2)
        assert dict(got.entries) == pytest.approx(dict(want.entries))

    def test_unknown_weight_spec(self):
        frame, m1, m2, model = overlap_sources()
        config = UfrConfig(weight_1="entropy")
        with pytest.raises(InputError):
            ufr_combine(m1, m2, config, model=model)

    @pytest.mark.parametrize("spec, message", [
        (3, "weight spec must be a string"),
        (None, "weight spec must be a string"),
        ("constant:nan", "must be finite and >= 0"),
        ("constant:inf", "must be finite and >= 0"),
        ("constant:-1", "must be finite and >= 0"),
    ])
    def test_bad_weight_spec(self, spec, message):
        frame, m1, m2, model = overlap_sources()
        for config in (UfrConfig(weight_1=spec), UfrConfig(weight_2=spec)):
            with pytest.raises(InputError, match=message):
                ufr_combine(m1, m2, config, model=model)

    def test_huge_constant_weights_still_combine(self):
        frame, m1, m2, model = overlap_sources()
        config = UfrConfig(weight_1="constant:1e308", weight_2="constant:1e308")
        out = ufr_combine(m1, m2, config, model=model)
        assert out.total() == pytest.approx(1.0)

    @pytest.mark.parametrize("member", [5, None, ["A", "B"]])
    def test_non_string_transferable_member(self, member):
        frame, m1, m2, model = overlap_sources()
        config = UfrConfig(transferable=("A&B", member))
        with pytest.raises(InputError, match="set expressions"):
            ufr_combine(m1, m2, config, model=model)


    @pytest.mark.parametrize("spec", ["always", "", 3, None], ids=repr)
    def test_unknown_transferable_spec(self, spec):
        frame, m1, m2, model = overlap_sources()
        message = f"^unknown transferable spec {re.escape(repr(spec))}$"
        with pytest.raises(InputError, match=message):
            ufr_combine(m1, m2, UfrConfig(transferable=spec), model=model)


class TestUfrConfigJson:
    def test_defaults(self):
        config = UfrConfig.from_json({})
        assert config == UfrConfig()

    def test_full_document(self):
        config = UfrConfig.from_json({
            "star": "disjunctive",
            "combiner": "min",
            "transfer": "ignorance",
            "transferable": ["A&B"],
            "weight_1": "constant:1",
            "weight_2": "source_mass",
            "normalize": True,
        })
        assert config.star is StarOp.DISJUNCTIVE
        assert config.combiner is TNorm.MIN
        assert config.transfer is TransferPolicy.IGNORANCE
        assert config.transferable == ("A&B",)
        assert config.weight_1 == "constant:1"
        assert config.normalize is True

    def test_bad_star_rejected(self):
        with pytest.raises(SchemaError):
            UfrConfig.from_json({"star": "xor"})

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            UfrConfig.from_json(["star"])

    @pytest.mark.parametrize("member", [5, None, ["A", "B"]])
    def test_non_string_transferable_rejected(self, member):
        with pytest.raises(SchemaError, match="^/transferable: "):
            UfrConfig.from_json({"transferable": [member]})

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None, [True]])
    def test_non_boolean_normalize_rejected(self, value):
        with pytest.raises(SchemaError) as info:
            UfrConfig.from_json({"transfer": "discard", "normalize": value})
        assert str(info.value) == "/normalize: normalize must be true or false"
        assert info.value.pointer == "/normalize"

    @pytest.mark.parametrize("value", [3, None, True, ["source_mass"]])
    @pytest.mark.parametrize("field", ["weight_1", "weight_2"])
    def test_non_string_weight_rejected_at_its_field(self, field, value):
        with pytest.raises(SchemaError) as info:
            UfrConfig.from_json({field: value})
        assert str(info.value) == f"/{field}: weight spec must be a string, got {value!r}"

    @pytest.mark.parametrize("field, value", [
        ("star", "xor"), ("combiner", "median"), ("transfer", "keep"),
    ])
    def test_bad_enum_names_its_field(self, field, value):
        with pytest.raises(SchemaError) as info:
            UfrConfig.from_json({field: value})
        assert str(info.value) == f"/{field}: unknown {field} {value!r}"


def _two_labels():
    return make_bba(Frame(("A", "B")), {"A": 0.5, "B": 0.3, "A|B": 0.2})


@pytest.mark.parametrize("call, message", [
    (lambda b: tcn_conjunctive(b, b, norm="min"), "unknown T-norm 'min'"),
    (lambda b: tcn_pcr5_original(b, b, norm="min"), "unknown T-norm 'min'"),
    (lambda b: tcn_pcr5_original(b, b, conorm="max"), "unknown T-conorm 'max'"),
    (lambda b: tn_family(b, b, variant="median"), "unknown variant 'median'"),
    (lambda b: tn_family(b, b, variant=["dempster"]), "unknown variant ['dempster']"),
    (lambda b: ufr_combine(b, b, UfrConfig(transfer="discard")), "unknown transfer 'discard'"),
    (lambda b: ufr_combine(b, b, UfrConfig(star="conjunctive")), "unknown star 'conjunctive'"),
], ids=["tcn_conjunctive", "tcn_pcr5_original", "tcn_pcr5_original_conorm",
        "tn_family_variant", "tn_family_unhashable_variant", "ufr_transfer", "ufr_star"])
def test_strict_enum_fields_reject_their_values(call, message):
    """Direct calls take members only; a value is named in an InputError,
    never leaked as a KeyError or read as another member."""
    with pytest.raises(InputError) as info:
        call(_two_labels())
    assert str(info.value) == message
