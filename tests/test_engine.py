"""Rule equivalences, pinned against textbook definitions.

Every named conflict rule is a disposal of the conjunctive ledger.  The
properties below recompute each rule from the public ``conjunctive()``
bba and ledger, adding the kept mass first and then the ledger entries
in order, and require the very same floats.  The T-norm and
master-formula rules with the product combiner must reproduce the
classical rules to 1e-12.  Inputs range over frames of two to four
hypotheses, three emptiness models and bbas of one to five focal sets.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_split

from fusionkit import (
    AtomSet,
    EmptinessModel,
    Frame,
    RuleId,
    TNorm,
    TransferPolicy,
    UfrConfig,
    World,
    combine,
    conjunctive,
    disjunctive,
    exclusive_disjunctive,
    fuse_many,
    make_bba,
    mixed,
    pcr5,
    pcr5v2_tn,
    product_terms,
    tcn_conjunctive,
    tcn_pcr5_original,
    tn_family,
    ufr_combine,
)
from fusionkit.errors import DegenerateWeights, TotalConflict, ZeroTotalMass
from fusionkit.rules import _split_columns

LABELS = ("A", "B", "C", "D")
FOLD_RULES = (RuleId.DEMPSTER, RuleId.YAGER, RuleId.SMETS_TBM,
              RuleId.DUBOIS_PRADE, RuleId.DSMH, RuleId.PCR5)
PROPERTY = settings(max_examples=150, deadline=None)


def model_of(frame: Frame, kind: str) -> EmptinessModel:
    if kind == "free":
        return EmptinessModel.free(frame)
    if kind == "exclusive":
        pairs = itertools.combinations(frame.labels, 2)
        return EmptinessModel.from_exprs(frame, [f"{x}&{y}" for x, y in pairs])
    return EmptinessModel.from_exprs(frame, ["A&B"])


@st.composite
def bbas(draw, frame: Frame):
    k = draw(st.integers(1, 5))
    bits = draw(st.lists(st.integers(1, frame.universe_bits),
                         min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    return make_bba(frame, [(AtomSet(frame, b), w / total)
                            for b, w in zip(bits, weights)])


@st.composite
def cases(draw, n_sources: int = 2):
    """(model, sources) on a random frame and emptiness model."""
    n = draw(st.integers(2, 4))
    frame = Frame(LABELS[:n], draw(st.sampled_from(World)))
    model = model_of(frame, draw(st.sampled_from(("free", "exclusive", "forced"))))
    return model, [draw(bbas(frame)) for _ in range(n_sources)]


@st.composite
def grouped(draw):
    """Three sources and a grouping tree using each exactly once."""
    model, sources = draw(cases(3))
    leaves = list(draw(st.permutations(range(3))))

    def build(items):
        if len(items) == 1:
            return items[0]
        cut = draw(st.integers(1, len(items) - 1))
        return (draw(st.sampled_from(("and", "or"))),
                build(items[:cut]), build(items[cut:]))

    return sources, build(leaves)


# --- textbook definitions ------------------------------------------------------


def add(out: dict, bits: int, v: float) -> None:
    out[bits] = out.get(bits, 0.0) + v


def escalate(frame: Frame, model: EmptinessModel, bits: int) -> int:
    """Union target: the union itself, else total ignorance, else (open
    world, everything forced empty) the empty set."""
    live = ~model.forced_empty_bits
    if bits & live:
        return bits
    if frame.universe_bits & live:
        return frame.universe_bits
    return 0 if frame.world is World.OPEN else frame.universe_bits


def textbook(rule: RuleId, m1, m2, model) -> dict:
    """The rule's masses, from the conjunctive bba and ledger; None
    when Dempster's normalisation is impossible."""
    fused, ledger = conjunctive(m1, m2, model=model)
    frame = m1.frame
    out = dict(fused.entries)
    k = ledger.total()
    if rule is RuleId.DEMPSTER:
        keep = math.fsum(out.values())
        return None if keep <= 1e-12 else {b: v / keep for b, v in out.items()}
    if rule is RuleId.YAGER and k:
        add(out, frame.universe_bits, k)
    elif rule is RuleId.SMETS_TBM and k:
        add(out, 0, k)
    elif rule in (RuleId.DUBOIS_PRADE, RuleId.DSMH):
        for e in ledger.entries:
            x, y = e.operands
            add(out, escalate(frame, model, x | y), e.product)
    elif rule is RuleId.PCR5:
        for e in ledger.entries:
            x, y = e.operands
            a, b = m1.mass(x), m2.mass(y)
            if a + b == 0.0:
                add(out, escalate(frame, model, x | y), e.product)
                continue
            share = a * e.product / (a + b)
            add(out, x, share)
            add(out, y, e.product - share)
    return out


def masses(b) -> dict:
    return dict(b.entries)


def nonzero(out: dict) -> dict:
    return {bits: v for bits, v in out.items() if v != 0.0}


def assert_close(a, b, tol=1e-12) -> None:
    da, db = masses(a), masses(b)
    for bits in da.keys() | db.keys():
        assert abs(da.get(bits, 0.0) - db.get(bits, 0.0)) <= tol, bits


# --- the classical rules ---------------------------------------------------------


@PROPERTY
@given(cases())
def test_fold_rules_match_their_textbook_definition(case):
    model, (m1, m2) = case
    for rule in FOLD_RULES:
        expected = textbook(rule, m1, m2, model)
        if expected is None:
            _, ledger = conjunctive(m1, m2, model=model)
            with pytest.raises(TotalConflict) as exc:
                combine(rule, m1, m2, model=model)
            assert str(exc.value) == (
                f"conflict mass {ledger.total()} leaves nothing to normalize")
            continue
        got = combine(rule, m1, m2, model=model)
        assert masses(got) == nonzero(expected), rule
        assert fuse_many(rule, [m1, m2], model) == got, rule
    if textbook(RuleId.PCR5, m1, m2, model) is not None:
        assert pcr5(m1, m2, model) == combine(RuleId.PCR5, m1, m2, model=model)


@PROPERTY
@given(cases(3))
def test_pooling_rules_match_brute_force(case):
    _, sources = case
    union, sym = {}, {}
    for ops, p in product_terms(sources):
        add(union, ops[0] | ops[1] | ops[2], p)
        add(sym, ops[0] ^ ops[1] ^ ops[2], p)
    assert masses(disjunctive(*sources)) == nonzero(union)
    assert masses(exclusive_disjunctive(*sources)) == nonzero(sym)


@PROPERTY
@given(grouped())
def test_mixed_matches_brute_force(case):
    sources, tree = case

    def ev(node, ops):
        if isinstance(node, int):
            return ops[node]
        op, left, right = node
        if op == "and":
            return ev(left, ops) & ev(right, ops)
        return ev(left, ops) | ev(right, ops)

    out = {}
    for ops, p in product_terms(sources):
        add(out, ev(tree, ops), p)
    assert masses(mixed(sources, tree)) == nonzero(out)


# --- T-norm and master-formula rules with the product combiner -------------------


@PROPERTY
@given(cases())
def test_product_tnorm_rules_equal_the_classical_rules(case):
    model, (m1, m2) = case
    fused, ledger = conjunctive(m1, m2, model=model)
    tn_fused, tn_ledger = tcn_conjunctive(m1, m2, norm=TNorm.PRODUCT, model=model)
    assert tn_fused == fused
    assert tn_ledger.entries == ledger.entries
    for variant, rule in (("dempster", RuleId.DEMPSTER), ("yager", RuleId.YAGER),
                          ("smets", RuleId.SMETS_TBM)):
        try:
            expected = combine(rule, m1, m2, model=model)
        except TotalConflict:
            with pytest.raises(TotalConflict):
                tn_family(m1, m2, norm=TNorm.PRODUCT, variant=variant, model=model)
            continue
        got = tn_family(m1, m2, norm=TNorm.PRODUCT, variant=variant, model=model)
        assert got == expected, variant
    assert_close(pcr5v2_tn(m1, m2, norm=TNorm.PRODUCT, model=model),
                 pcr5(m1, m2, model))


@PROPERTY
@given(cases())
def test_master_formula_policies_equal_the_classical_rules(case):
    model, (m1, m2) = case

    def ufr(transfer, normalize=False):
        config = UfrConfig(transfer=transfer, normalize=normalize)
        return ufr_combine(m1, m2, config, model)

    assert_close(ufr(TransferPolicy.PAIR_PROPORTIONAL), pcr5(m1, m2, model))
    assert_close(ufr(TransferPolicy.UNION), combine(RuleId.DSMH, m1, m2, model=model))
    assert_close(ufr(TransferPolicy.IGNORANCE),
                 combine(RuleId.YAGER, m1, m2, model=model))
    fused, _ = conjunctive(m1, m2, model=model)
    assert_close(ufr(TransferPolicy.DISCARD), fused)
    if fused.total() > 1e-12:
        assert_close(ufr(TransferPolicy.DISCARD, normalize=True),
                     combine(RuleId.DEMPSTER, m1, m2, model=model))


# --- failures keep their class and message ----------------------------------------


def conflicting_pair():
    frame = Frame(("A", "B"))
    model = EmptinessModel.from_exprs(frame, ["A&B"])
    return model, make_bba(frame, {"A": 1.0}), make_bba(frame, {"B": 1.0})


def test_total_conflict_messages():
    model, m1, m2 = conflicting_pair()
    message = "conflict mass 1.0 leaves nothing to normalize"
    with pytest.raises(TotalConflict) as exc:
        combine(RuleId.DEMPSTER, m1, m2, model=model)
    assert str(exc.value) == message
    with pytest.raises(TotalConflict) as exc:
        fuse_many(RuleId.DEMPSTER, [m1, m2], model)
    assert str(exc.value) == message
    with pytest.raises(TotalConflict) as exc:
        tn_family(m1, m2, norm=TNorm.PRODUCT, variant="dempster", model=model)
    assert str(exc.value) == "all combined mass fell on empty sets"
    with pytest.raises(ZeroTotalMass) as exc:
        ufr_combine(m1, m2, UfrConfig(transfer=TransferPolicy.DISCARD,
                                      normalize=True), model)
    assert str(exc.value) == "nothing to rescale"


def test_zero_valued_terms_leave_nothing_to_rescale():
    frame = Frame(("A", "B"))
    m = make_bba(frame, {"A": 0.5, "B": 0.5})
    with pytest.raises(ZeroTotalMass) as exc:
        pcr5v2_tn(m, m, norm=TNorm.BOUNDED, normalize=True)
    assert str(exc.value) == "nothing to rescale"
    with pytest.raises(ZeroTotalMass) as exc:
        tcn_pcr5_original(m, m, norm=TNorm.BOUNDED)
    assert str(exc.value) == "nothing to rescale"


def test_zero_routing_weights_message():
    model, m1, m2 = conflicting_pair()
    config = UfrConfig(weight_1="constant:0", weight_2="constant:0")
    with pytest.raises(DegenerateWeights) as exc:
        ufr_combine(m1, m2, config, model)
    assert str(exc.value) == "marked value with zero total routing weight"


# --- the proportional split ------------------------------------------------------

split_weights = st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=2, max_size=6)
split_values = st.floats(1e-300, 1.0, allow_subnormal=False)


@given(split_values, split_weights)
@PROPERTY
def test_split_sums_to_the_value_within_one_ulp_per_remainder_step(v, weights):
    parts = list(enumerate(weights))
    shares = reference_split(v, parts)
    if math.fsum(weights) == 0.0:
        assert shares is None
        return
    assert [t for t, _ in shares] == [t for t, _ in parts]
    k = len(parts)
    assert abs(math.fsum(x for _, x in shares) - v) <= (k - 1) * math.ulp(v)


@given(split_values, st.lists(st.floats(9e307, 1.7e308), min_size=2, max_size=6),
       st.lists(st.floats(0.0, 1.0), max_size=3))
@PROPERTY
def test_overflowing_weights_split_by_their_ratio(v, big, small):
    weights = big + small
    shares = reference_split(v, list(enumerate(weights)))
    assert [t for t, _ in shares] == list(range(len(weights)))
    top = max(weights)
    scaled = math.fsum(w / top for w in weights)
    for (_, x), w in zip(shares, weights):
        assert x == pytest.approx(v * (w / top) / scaled, rel=1e-12,
                                  abs=len(weights) * math.ulp(v))


def test_zero_weights_split_nothing():
    assert reference_split(0.5, [("a", 0.0), ("b", 0.0)]) is None


@given(st.integers(2, 5).flatmap(lambda k: st.lists(
    st.tuples(split_values, st.lists(st.sampled_from([0.0, 1e-300, 0.25, 3.0, 1e308])
                                     | st.floats(0.0, 1.0), min_size=k, max_size=k)),
    min_size=1, max_size=8)))
@PROPERTY
def test_column_split_is_the_row_split(rows):
    values = np.array([v for v, _ in rows])
    weights = [np.array(col) for col in zip(*[ws for _, ws in rows])]
    shares, spread = _split_columns(values, weights)
    want = [reference_split(v, list(enumerate(ws))) for v, ws in rows]
    assert spread.tolist() == [w is not None for w in want]
    got = list(zip(*[x.tolist() for x in shares]))
    assert got == [tuple(x for _, x in w) for w in want if w is not None]
