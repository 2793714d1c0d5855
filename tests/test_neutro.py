"""Triple-valued logic: connectives, graded allocation, k-law sums."""

import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_combine_graded,
    reference_klaw3,
    reference_klaw_mixed,
    reference_tconorm,
    reference_tnorm,
)

from fusionkit import (
    NS_ONE,
    NS_ZERO,
    NormPolicy,
    NsClass,
    NsRecipe,
    NsTriple,
    NsVector,
    c3_tif,
    c_itf,
    c_tif,
    classify_ns,
    d3_fti,
    d_fti,
    d_fti_pessimistic,
    klaw3,
    klaw_mixed,
    klaw_same,
    klaw_term_count,
    norm_target,
    ns_and_interval,
    ns_combine_graded,
    ns_contains,
    ns_leq,
    ns_negate,
    ns_normalize,
    ns_not,
    ns_or_interval,
    vector_norm,
)
from fusionkit.errors import (
    InputError,
    IntervalNotSupported,
    LengthMismatch,
    OutOfRange,
    ZeroNorm,
)
from fusionkit.neutro import n_conorm, n_norm
from fusionkit.tcn import TConorm, TNorm

GRID = [round(0.05 * i, 2) for i in range(21)]
PROPERTY = settings(max_examples=60, deadline=None)
#: Fixed from the arithmetic, not from observed errors: each answer is
#: a difference of products, so its absolute error scales with the
#: product of all the component sums.
REL_TOL = 1e-12

components = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)


@contextlib.contextmanager
def finishes_within(seconds: float):
    """Fail, instead of hanging, when the body outlives ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tolerance(full: float) -> float:
    return REL_TOL * max(1.0, full)


def oracle_selections(*vectors):
    """Sum over the selections that use every vector at least once, one
    factor per index: the 2^k - 2 or 3^k - 3*2^k + 3 terms one by one."""
    total = 0.0
    for picks in itertools.product(range(len(vectors)), repeat=len(vectors[0])):
        if len(set(picks)) != len(vectors):
            continue
        v = 1.0
        for idx, p in enumerate(picks):
            v *= vectors[p][idx]
        total += v
    return total


def random_triple(rng, normalized=False):
    t, i, f = rng.random(), rng.random(), rng.random()
    if normalized:
        s = t + i + f
        return NsTriple(t / s, i / s, f / s)
    return NsTriple(t, i, f)


class TestTripleType:
    def test_components_and_crispness(self):
        x = NsTriple(0.5, 0.3, 0.2)
        assert x.is_crisp
        assert x.crisp_components() == (0.5, 0.3, 0.2)

    def test_interval_components(self):
        x = NsTriple((0.2, 0.4), 0.3, (0.1, 0.1))
        assert not x.is_crisp
        assert x.intervals == ((0.2, 0.4), (0.3, 0.3), (0.1, 0.1))
        with pytest.raises(IntervalNotSupported):
            x.crisp_components()

    def test_a_list_pair_is_stored_as_a_tuple(self):
        x = NsTriple([0.1, 0.2], 0, 0)
        assert x.t == (0.1, 0.2)
        assert x == NsTriple((0.1, 0.2), 0, 0)
        assert hash(x) == hash(NsTriple((0.1, 0.2), 0, 0))

    def test_negative_component_rejected(self):
        with pytest.raises(OutOfRange):
            NsTriple(-0.1, 0.2, 0.3)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(InputError):
            NsTriple((0.5, 0.2), 0.1, 0.1)

    def test_values_above_one_allowed(self):
        x = NsTriple(0.8, 0.7, 0.9)
        assert vector_norm(x) == pytest.approx(2.4)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            NsTriple(float("nan"), 0.1, 0.1)

    def test_json_round_trip_crisp(self):
        x = NsTriple(0.5, 0.3, 0.2)
        assert NsTriple.from_json(x.to_json()) == x
        assert x.to_json() == [0.5, 0.3, 0.2]

    def test_json_round_trip_interval(self):
        x = NsTriple((0.2, 0.4), 0.3, (0.1, 0.5))
        doc = x.to_json()
        assert doc["t"] == [0.2, 0.4]
        back = NsTriple.from_json(doc)
        assert back.intervals == x.intervals

    def test_bad_json_rejected(self):
        with pytest.raises(InputError):
            NsTriple.from_json("0.5, 0.3")
        with pytest.raises(InputError):
            NsTriple.from_json({"t": 0.5, "i": [1, 2, 3], "f": 0.1})

    def test_list_component_that_is_not_a_number(self):
        with pytest.raises(InputError, match="bad component 't'"):
            NsTriple.from_json(["x", 1, 2])

    def test_list_component_that_is_null(self):
        with pytest.raises(InputError, match="bad component 't'"):
            NsTriple.from_json([None, 1, 2])

    def test_interval_endpoint_that_is_not_a_number(self):
        with pytest.raises(InputError, match="bad component 'i'"):
            NsTriple.from_json({"t": 0.5, "i": ["x", 0.2], "f": 0.1})

    @pytest.mark.parametrize("doc, message", [
        ([True, 0, False], "bad component 't': True"),
        ([0.5, 0, False], "bad component 'f': False"),
        ({"t": 0.5, "i": [0.1, True], "f": 0.1}, "bad component 'i': True"),
    ])
    def test_boolean_json_component_rejected(self, doc, message):
        with pytest.raises(InputError) as info:
            NsTriple.from_json(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("args, message", [
        ((True, 0, 0), "component t must be a number or a (lo, hi) pair, got True"),
        ((0.5, (0.1, False), 0), "component i must be a number or a (lo, hi) pair, "
                                 "got (0.1, False)"),
        (("ab", 0, 0), "component t must be a number or a (lo, hi) pair, got 'ab'"),
        ((0.5, 0.1, (0.1, 0.2, 0.3)), "component f must be a number or a (lo, hi) pair, "
                                      "got (0.1, 0.2, 0.3)"),
        ((0.5, None, 0.1), "component i must be a number or a (lo, hi) pair, got None"),
        ((10 ** 400, 0, 0), "component t is not finite"),
    ])
    def test_component_that_is_neither_number_nor_pair(self, args, message):
        with pytest.raises(InputError) as info:
            NsTriple(*args)
        assert str(info.value) == message

    def test_numpy_and_list_components_accepted(self):
        x = NsTriple(np.float64(0.5), [0.1, np.float64(0.2)], 1)
        assert x.intervals == ((0.5, 0.5), (0.1, 0.2), (1.0, 1.0))


class TestOrder:
    def test_zero_below_one(self):
        assert ns_leq(NS_ZERO, NS_ONE)
        assert not ns_leq(NS_ONE, NS_ZERO)

    def test_truth_up_indeterminacy_down(self):
        assert ns_leq(NsTriple(0.2, 0.5, 0.4), NsTriple(0.3, 0.4, 0.4))
        assert not ns_leq(NsTriple(0.2, 0.3, 0.4), NsTriple(0.3, 0.4, 0.4))

    def test_containment_is_the_order(self):
        x, y = NsTriple(0.2, 0.5, 0.4), NsTriple(0.3, 0.4, 0.4)
        assert ns_contains(x, y) == ns_leq(x, y)


class TestConnectives:
    @pytest.mark.parametrize("recipe", list(NsRecipe))
    def test_one_is_the_conjunction_unit(self, recipe):
        for t in GRID[::4]:
            for i in GRID[::4]:
                for f in GRID[::4]:
                    x = NsTriple(t, i, f)
                    down = n_norm(recipe, x, NS_ONE)
                    assert down.t == pytest.approx(t, abs=1e-12)
                    assert down.i == pytest.approx(i, abs=1e-12)
                    assert down.f == pytest.approx(f, abs=1e-12)
                    up = n_conorm(recipe, x, NS_ONE)
                    assert up.t == pytest.approx(1.0, abs=1e-12)
                    assert up.i == 0.0
                    assert up.f == 0.0

    @pytest.mark.parametrize("recipe", list(NsRecipe))
    def test_zero_laws_bound_the_input(self, recipe):
        for t in GRID[::4]:
            for i in GRID[::4]:
                for f in GRID[::4]:
                    x = NsTriple(t, i, f)
                    lo = n_norm(recipe, x, NS_ZERO)
                    assert lo.t == 0.0
                    assert lo.i == pytest.approx(i, abs=1e-12)
                    assert lo.f == pytest.approx(1.0, abs=1e-12)
                    assert ns_leq(lo, NsTriple(lo.t, i, f))
                    hi = n_conorm(recipe, x, NS_ZERO)
                    assert hi.t == pytest.approx(t, abs=1e-12)
                    assert hi.i == 0.0
                    assert hi.f == pytest.approx(f, abs=1e-12)
                    assert ns_leq(NsTriple(t, hi.i, hi.f), hi)

    @pytest.mark.parametrize("recipe", list(NsRecipe))
    def test_commutative(self, recipe):
        rng = random.Random(5)
        for _ in range(100):
            x, y = random_triple(rng), random_triple(rng)
            assert n_norm(recipe, x, y) == n_norm(recipe, y, x)
            assert n_conorm(recipe, x, y) == n_conorm(recipe, y, x)

    def test_min_recipe_componentwise(self):
        x = NsTriple(0.5, 0.3, 0.2)
        y = NsTriple(0.4, 0.6, 0.1)
        assert n_norm(NsRecipe.MIN, x, y) == NsTriple(0.4, 0.6, 0.2)
        assert n_conorm(NsRecipe.MIN, x, y) == NsTriple(0.5, 0.3, 0.1)

    def test_product_recipe_componentwise(self):
        x = NsTriple(0.5, 0.3, 0.2)
        y = NsTriple(0.4, 0.6, 0.1)
        out = n_norm(NsRecipe.ALGEBRAIC_PRODUCT, x, y)
        assert out.t == pytest.approx(0.2)
        assert out.i == pytest.approx(0.3 + 0.6 - 0.18)
        assert out.f == pytest.approx(0.2 + 0.1 - 0.02)

    def test_interval_connectives_endpointwise(self):
        x = NsTriple((0.2, 0.5), (0.1, 0.3), (0.2, 0.4))
        y = NsTriple((0.3, 0.4), (0.2, 0.2), (0.1, 0.5))
        both = ns_and_interval(x, y)
        assert both.intervals == (
            (0.2, 0.4), (0.2, 0.3), (0.2, 0.5)
        )
        either = ns_or_interval(x, y)
        assert either.intervals == (
            (0.3, 0.5), (0.1, 0.2), (0.1, 0.4)
        )


#: The recipe table written out by hand: the oracle for the table that
#: neutro derives from DUAL_CONORM.
REFERENCE_PAIR = {
    NsRecipe.MIN: (TNorm.MIN, TConorm.MAX),
    NsRecipe.ALGEBRAIC_PRODUCT: (TNorm.PRODUCT, TConorm.PROB_SUM),
    NsRecipe.BOUNDED: (TNorm.BOUNDED, TConorm.BOUNDED_SUM),
}


def reference_n_op(conjunction: bool, recipe, x, y):
    """n_norm (``conjunction``) or n_conorm, each its own body over
    REFERENCE_PAIR."""
    norm, conorm = REFERENCE_PAIR[recipe]

    def iv_op(fn, kind, a, b):
        corners = [fn(kind, p, q) for p in a for q in b]
        return (min(corners), max(corners))

    (t1, i1, f1), (t2, i2, f2) = x.intervals, y.intervals
    if conjunction:
        parts = (iv_op(reference_tnorm, norm, t1, t2),
                 iv_op(reference_tconorm, conorm, i1, i2),
                 iv_op(reference_tconorm, conorm, f1, f2))
    else:
        parts = (iv_op(reference_tconorm, conorm, t1, t2),
                 iv_op(reference_tnorm, norm, i1, i2),
                 iv_op(reference_tnorm, norm, f1, f2))
    return NsTriple(*(lo if lo == hi else (lo, hi) for lo, hi in parts))


intervals = st.tuples(components, components).map(lambda iv: tuple(sorted(iv)))
crisp_triples = st.builds(NsTriple, components, components, components)
interval_triples = st.builds(NsTriple, *[st.one_of(components, intervals)] * 3)


def outcome(call, *args):
    """The result, or the error type and message."""
    try:
        return call(*args)
    except InputError as exc:
        return type(exc), str(exc)


class TestAgainstTheReferenceTable:
    @PROPERTY
    @given(st.sampled_from(list(NsRecipe)), st.one_of(crisp_triples, interval_triples),
           st.one_of(crisp_triples, interval_triples))
    def test_n_norm_and_n_conorm_match_it_exactly(self, recipe, x, y):
        assert outcome(n_norm, recipe, x, y) == outcome(reference_n_op, True, recipe, x, y)
        assert outcome(n_conorm, recipe, x, y) == outcome(reference_n_op, False, recipe, x, y)


def endpointwise(fn, kind, a, b):
    return (fn(kind, a[0], b[0]), fn(kind, a[1], b[1]))


class TestIntervalBox:
    """On intervals each component is the least and greatest value over
    the four endpoint pairs, also where an operator is not monotone."""

    @PROPERTY
    @given(st.sampled_from(list(NsRecipe)), interval_triples, interval_triples)
    def test_no_interval_comes_out_reversed(self, recipe, x, y):
        for op in (n_norm, n_conorm):
            result = outcome(op, recipe, x, y)
            assert not (isinstance(result, tuple) and "reversed" in result[1])

    @PROPERTY
    @given(st.sampled_from(list(NsRecipe)), crisp_triples, crisp_triples)
    def test_crisp_triples_keep_the_endpointwise_values(self, recipe, x, y):
        """A crisp box has one corner: the value an endpointwise
        evaluation gives, bit for bit."""
        norm, conorm = REFERENCE_PAIR[recipe]
        (t1, i1, f1), (t2, i2, f2) = x.intervals, y.intervals
        norm_pair, conorm_pair = (reference_tnorm, norm), (reference_tconorm, conorm)
        for op, t_pair, rest_pair in ((n_norm, norm_pair, conorm_pair),
                                      (n_conorm, conorm_pair, norm_pair)):
            parts = (endpointwise(*t_pair, t1, t2), endpointwise(*rest_pair, i1, i2),
                     endpointwise(*rest_pair, f1, f2))
            expected = outcome(lambda: NsTriple(*(lo if lo == hi else (lo, hi)
                                                   for lo, hi in parts)))
            assert outcome(op, recipe, x, y) == expected

    def test_a_rounded_sum_below_1_is_not_reversed(self):
        """Rounding makes a + b - ab fall by an ulp as a rises, so the
        endpointwise bounds of these unit intervals come out reversed."""
        x = NsTriple(0.5, (0.7469653891501328, 0.746965389150133), 0.5)
        y = NsTriple(0.5, 0.8852550461906246, 0.5)
        lo, hi = (reference_tconorm(TConorm.PROB_SUM, i, 0.8852550461906246)
                  for i in x.intervals[1])
        assert lo > hi
        assert n_norm(NsRecipe.ALGEBRAIC_PRODUCT, x, y).intervals[1] == (hi, lo)

    def test_a_falling_probabilistic_sum_is_not_reversed(self):
        out = n_norm(NsRecipe.ALGEBRAIC_PRODUCT, NsTriple(0.5, (1.0, 2.0), 0.2),
                     NsTriple(0.4, 2.0, 0.1))
        # 1 + 2 - 2 = 1 and 2 + 2 - 4 = 0: the sum falls as i rises.
        assert out == NsTriple(0.5 * 0.4, (0.0, 1.0), 0.2 + 0.1 - 0.2 * 0.1)


class TestComplements:
    def test_complement_reflects_indeterminacy(self):
        assert ns_not(NsTriple(0.3, 0.4, 0.6)) == NsTriple(0.6, 0.6, 0.3)

    def test_complement_involution(self):
        rng = random.Random(6)
        for _ in range(100):
            x = random_triple(rng)
            back = ns_not(ns_not(x))
            assert back.t == pytest.approx(x.t, abs=1e-12)
            assert back.i == pytest.approx(x.i, abs=1e-12)
            assert back.f == pytest.approx(x.f, abs=1e-12)

    def test_complement_needs_reflectable_indeterminacy(self):
        with pytest.raises(OutOfRange):
            ns_not(NsTriple(0.3, 1.2, 0.4))

    def test_weak_negation_keeps_indeterminacy(self):
        x = NsTriple(0.3, 1.2, 0.4)
        assert ns_negate(x) == NsTriple(0.4, 1.2, 0.3)
        assert ns_negate(ns_negate(x)) == x


class TestGradedAllocation:
    def oracle(self, order, xs):
        rank = {c: k for k, c in enumerate(order)}
        acc = {"t": 0.0, "i": 0.0, "f": 0.0}
        comps = [dict(zip("tif", x.crisp_components())) for x in xs]
        for picks in itertools.product("tif", repeat=len(xs)):
            v = 1.0
            for m, c in zip(comps, picks):
                v *= m[c]
            acc[max(picks, key=rank.get)] += v
        return NsTriple(acc["t"], acc["i"], acc["f"])

    def test_golden_conjunction(self):
        out = c_tif(NsTriple(0.5, 0.3, 0.2), NsTriple(0.4, 0.4, 0.2))
        assert out.t == pytest.approx(0.20)
        assert out.i == pytest.approx(0.44)
        assert out.f == pytest.approx(0.36)

    def test_conjunction_closed_forms(self):
        rng = random.Random(7)
        for _ in range(200):
            x = random_triple(rng, normalized=True)
            y = random_triple(rng, normalized=True)
            tx, ix, fx = x.crisp_components()
            ty, iy, fy = y.crisp_components()
            out = c_tif(x, y)
            assert out.t == pytest.approx(tx * ty, abs=1e-12)
            assert out.f == pytest.approx(fx + fy - fx * fy, abs=1e-12)
            alt = c_itf(x, y)
            assert alt.t == pytest.approx(
                tx * ty + tx * iy + ix * ty, abs=1e-12
            )
            assert alt.i == pytest.approx(ix * iy, abs=1e-12)

    def test_disjunction_closed_forms(self):
        rng = random.Random(8)
        for _ in range(200):
            x = random_triple(rng, normalized=True)
            y = random_triple(rng, normalized=True)
            tx, ix, fx = x.crisp_components()
            ty, iy, fy = y.crisp_components()
            out = d_fti(x, y)
            assert out.t == pytest.approx(tx + ty - tx * ty, abs=1e-12)
            assert out.f == pytest.approx(fx * fy, abs=1e-12)
            pess = d_fti_pessimistic(x, y)
            assert pess.t == pytest.approx(
                tx * ty + tx * fy + fx * ty, abs=1e-12
            )
            assert pess.f == pytest.approx(fx * fy, abs=1e-12)
            assert pess.i == pytest.approx(
                1.0 - pess.t - pess.f, abs=1e-12
            )

    def test_matches_the_expansion_oracle(self):
        rng = random.Random(9)
        orders = [("t", "i", "f"), ("i", "t", "f"),
                  ("f", "i", "t"), ("f", "t", "i")]
        for _ in range(100):
            xs = (random_triple(rng), random_triple(rng))
            for order in orders:
                got = ns_combine_graded(order, *xs)
                want = self.oracle(order, xs)
                assert got.t == pytest.approx(want.t, abs=1e-12)
                assert got.i == pytest.approx(want.i, abs=1e-12)
                assert got.f == pytest.approx(want.f, abs=1e-12)

    def test_three_way_operators(self):
        rng = random.Random(10)
        xs = tuple(random_triple(rng) for _ in range(3))
        got = c3_tif(*xs)
        want = self.oracle(("t", "i", "f"), xs)
        assert got.t == pytest.approx(want.t, abs=1e-12)
        got = d3_fti(*xs)
        want = self.oracle(("f", "i", "t"), xs)
        assert got.f == pytest.approx(want.f, abs=1e-12)

    def test_component_sum_is_multiplicative(self):
        rng = random.Random(13)
        for _ in range(1000):
            x, y = random_triple(rng), random_triple(rng)
            out = c_tif(x, y)
            assert vector_norm(out) == pytest.approx(
                vector_norm(x) * vector_norm(y), abs=1e-12
            )

    def test_order_validation(self):
        x, y = NsTriple(0.5, 0.3, 0.2), NsTriple(0.4, 0.4, 0.2)
        with pytest.raises(InputError):
            ns_combine_graded(("t", "i", "i"), x, y)
        with pytest.raises(InputError):
            ns_combine_graded(("t", "i", "f"), x)

    @PROPERTY
    @given(st.permutations(("t", "i", "f")),
           st.lists(st.tuples(components, components, components),
                    min_size=2, max_size=8))
    def test_matches_the_oracle_up_to_eight_triples(self, order, rows):
        xs = [NsTriple(*row) for row in rows]
        got = ns_combine_graded(tuple(order), *xs)
        want = self.oracle(order, xs)
        tol = tolerance(math.prod(sum(row) for row in rows))
        for a, b in zip(got.crisp_components(), want.crisp_components()):
            assert abs(a - b) <= tol

    def test_two_hundred_triples_at_once(self):
        rng = random.Random(16)
        xs = [random_triple(rng) for _ in range(200)]
        with finishes_within(1.0):
            out = ns_combine_graded(("t", "i", "f"), *xs)
        full = math.prod(vector_norm(x) for x in xs)
        assert vector_norm(out) == pytest.approx(full, rel=REL_TOL)


class TestNormalization:
    def test_rescale_to_one(self):
        out = ns_normalize(NsTriple(0.2, 0.2, 0.1))
        assert out == NsTriple(0.4, 0.4, 0.2)

    def test_rescale_to_target(self):
        out = ns_normalize(NsTriple(0.2, 0.2, 0.1), target=2.0)
        assert out.t == pytest.approx(0.8)

    def test_zero_sum_rejected(self):
        with pytest.raises(ZeroNorm):
            ns_normalize(NsTriple(0.0, 0.0, 0.0))

    def test_target_policies(self):
        x, y = NsTriple(0.5, 0.3, 0.2), NsTriple(0.4, 0.4, 0.4)
        assert norm_target(NormPolicy.NONE, x, y) is None
        assert norm_target(NormPolicy.PRODUCT_OF_NORMS, x, y) == \
            pytest.approx(1.2)
        assert norm_target(NormPolicy.AVERAGE_OF_NORMS, x, y) == \
            pytest.approx(1.1)
        assert norm_target(
            NormPolicy.CUSTOM, x, y, custom=lambda a, b: 0.5
        ) == 0.5
        with pytest.raises(InputError):
            norm_target(NormPolicy.CUSTOM, x, y)


class TestClassification:
    def test_three_regimes(self):
        assert classify_ns(NsTriple(0.2, 0.3, 0.4)) == \
            frozenset({NsClass.INTUITIONISTIC})
        assert classify_ns(NsTriple(0.5, 0.4, 0.3)) == \
            frozenset({NsClass.PARACONSISTENT})
        assert classify_ns(NsTriple(0.5, 0.3, 0.2)) == \
            frozenset({NsClass.PLAUSIBLY_NORMALIZED})

    def test_interval_straddling_one(self):
        x = NsTriple((0.2, 0.6), 0.2, 0.2)
        assert classify_ns(x) == frozenset({NsClass.PLAUSIBLY_NORMALIZED})


class TestKLaw:
    def test_same_symbol_is_the_product(self):
        assert klaw_same((0.5, 0.4, 0.2)) == pytest.approx(0.04)
        with pytest.raises(LengthMismatch):
            klaw_same((0.5,))

    def test_mixed_matches_inclusion_exclusion(self):
        rng = random.Random(14)
        for k in (2, 3, 4, 5):
            z = [rng.random() for _ in range(k)]
            w = [rng.random() for _ in range(k)]
            want = (
                math.prod(a + b for a, b in zip(z, w))
                - math.prod(z) - math.prod(w)
            )
            assert klaw_mixed(z, w) == pytest.approx(want, abs=1e-12)

    def test_triple_matches_inclusion_exclusion(self):
        rng = random.Random(15)
        for k in (2, 3, 4):
            z = [rng.random() for _ in range(k)]
            w = [rng.random() for _ in range(k)]
            u = [rng.random() for _ in range(k)]
            want = (
                math.prod(a + b + c for a, b, c in zip(z, w, u))
                - math.prod(a + b for a, b in zip(z, w))
                - math.prod(b + c for b, c in zip(w, u))
                - math.prod(a + c for a, c in zip(z, u))
                + math.prod(z) + math.prod(w) + math.prod(u)
            )
            assert klaw3(z, w, u) == pytest.approx(want, abs=1e-12)

    @PROPERTY
    @given(st.lists(st.tuples(components, components, components),
                    min_size=2, max_size=10))
    def test_match_the_selection_oracles(self, rows):
        z, w, u = (list(col) for col in zip(*rows))
        assert abs(klaw_mixed(z, w) - oracle_selections(z, w)) <= tolerance(
            math.prod(a + b for a, b in zip(z, w)))
        assert abs(klaw3(z, w, u) - oracle_selections(z, w, u)) <= tolerance(
            math.prod(map(sum, rows)))

    def test_two_hundred_entries_at_once(self):
        rng = random.Random(17)
        z, w, u = ([rng.random() for _ in range(200)] for _ in range(3))
        with finishes_within(1.0):
            mixed = klaw_mixed(z, w)
            triple = klaw3(z, w, u)
            pairs = [klaw_mixed(x, y) for x, y in ((z, w), (z, u), (w, u))]
        sames = [klaw_same(z), klaw_same(w), klaw_same(u)]
        assert sames[0] + sames[1] + mixed == pytest.approx(
            math.prod(a + b for a, b in zip(z, w)), rel=REL_TOL)
        assert triple + sum(pairs) + sum(sames) == pytest.approx(
            math.prod(a + b + c for a, b, c in zip(z, w, u)), rel=REL_TOL)

    def test_ones_count_the_terms(self):
        for k in (2, 3, 4):
            ones = (1.0,) * k
            assert klaw_mixed(ones, ones) == 2 ** k - 2
            assert klaw3(ones, ones, ones) == 3 ** k - 3 * 2 ** k + 3

    def test_three_symbols_need_room(self):
        assert klaw3((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)) == 0.0
        assert klaw3((1.0,) * 3, (1.0,) * 3, (1.0,) * 3) == 6.0

    def test_term_counts(self):
        assert klaw_term_count("same", 5) == 1
        for k in (2, 3, 4):
            assert klaw_term_count("mixed", k) == 2 ** k - 2
            assert klaw_term_count("triple", k) == 3 ** k - 3 * 2 ** k + 3
        with pytest.raises(InputError):
            klaw_term_count("quad", 2)

    def test_length_validation(self):
        with pytest.raises(LengthMismatch):
            klaw_mixed((0.5, 0.4), (0.1,))
        with pytest.raises(LengthMismatch):
            klaw3((0.5,), (0.1,), (0.2,))


#: Entries over eighteen orders of magnitude, none of them subnormal, and 0.
spread = st.builds(lambda m, e: m * 10.0 ** -e, st.floats(1.0, 9.999), st.integers(0, 18)) \
    | st.just(0.0)
EXACT = settings(max_examples=500, deadline=None)


def assert_within_rounding(got: float, exact, k: int):
    """The bound was set before measuring: 2 k ulp of 1 for k steps.
    Each step of the pass rounds one product and a few sums of
    non-negative terms, so relative errors add up without cancelling;
    they reach the bound only if up to six roundings per step all err
    the same way.  Nothing is ever below 0."""
    assert got >= 0.0
    assert abs(Fraction(got) - exact) <= Fraction(2 * k * 2.0 ** -52) * exact


class TestNoCancellation:
    """The k-laws and the graded operators sum non-negative monomials
    without subtracting, so tiny entries keep their relative accuracy
    where the inclusion-exclusion forms (the conftest oracles, exact on
    Fractions) cancel."""

    def test_tiny_entries_keep_their_value(self):
        ones, tiny = (1.0,) * 3, (1e-18,) * 3
        assert reference_klaw_mixed(ones, tiny) < 0.0
        assert klaw_mixed(ones, tiny) == pytest.approx(3e-18, rel=1e-15, abs=0)
        x = NsTriple(1.0, 1e-18, 0.0)
        assert reference_combine_graded(("t", "i", "f"), [(1.0, 1e-18, 0.0)] * 2)[1] == 0.0
        assert c_tif(x, x).i == pytest.approx(2e-18, rel=1e-15, abs=0)

    @EXACT
    @given(st.lists(st.tuples(spread, spread, spread), min_size=2, max_size=10))
    def test_k_laws_are_within_rounding_of_the_exact_sums(self, rows):
        z, w, u = (list(col) for col in zip(*rows))
        exact = [[Fraction(x) for x in v] for v in (z, w, u)]
        assert_within_rounding(klaw_mixed(z, w), reference_klaw_mixed(*exact[:2]), len(rows))
        assert_within_rounding(klaw3(z, w, u), reference_klaw3(*exact), len(rows))

    @EXACT
    @given(st.permutations(("t", "i", "f")),
           st.lists(st.tuples(spread, spread, spread), min_size=2, max_size=8))
    def test_graded_components_are_within_rounding_of_the_exact_sums(self, order, rows):
        got = ns_combine_graded(tuple(order), *(NsTriple(*row) for row in rows))
        exact = reference_combine_graded(order, [[Fraction(x) for x in row] for row in rows])
        for a, b in zip(got.crisp_components(), exact):
            assert_within_rounding(a, b, len(rows))

    @PROPERTY
    @given(st.permutations(("t", "i", "f")),
           st.lists(st.tuples(components, components, components),
                    min_size=2, max_size=8))
    def test_agree_with_inclusion_exclusion_within_its_error(self, order, rows):
        z, w, u = (list(col) for col in zip(*rows))
        full = tolerance(math.prod(map(sum, rows)))
        assert abs(klaw_mixed(z, w) - reference_klaw_mixed(z, w)) <= full
        assert abs(klaw3(z, w, u) - reference_klaw3(z, w, u)) <= full
        got = ns_combine_graded(tuple(order), *(NsTriple(*row) for row in rows))
        for a, b in zip(got.crisp_components(), reference_combine_graded(order, rows)):
            assert abs(a - b) <= full


class TestVector:
    def test_component_views(self):
        v = NsVector((
            NsTriple(0.5, 0.3, 0.2),
            NsTriple(0.4, 0.4, 0.4),
            NsTriple(0.1, 0.2, 0.3),
        ))
        assert v.k == 3
        assert v.component("t") == (0.5, 0.4, 0.1)
        assert v.component("f") == (0.2, 0.4, 0.3)
        assert klaw_same(v.component("t")) == pytest.approx(0.02)

    def test_needs_two_triples(self):
        with pytest.raises(LengthMismatch):
            NsVector((NsTriple(0.5, 0.3, 0.2),))

    def test_interval_triples_rejected_in_components(self):
        v = NsVector((
            NsTriple((0.2, 0.4), 0.3, 0.2),
            NsTriple(0.4, 0.4, 0.4),
        ))
        with pytest.raises(IntervalNotSupported):
            v.component("t")


class TestOutsideNumbers:
    """Components and k-law entries are read by ``errors.real``: what it
    refuses is an InputError, and an int too large for a float is an
    infinity, refused as one."""

    @pytest.mark.parametrize("doc", [[10 ** 400, 0, 0], {"t": [0, 10 ** 400], "i": 0, "f": 0}],
                             ids=["list", "interval"])
    def test_an_int_too_large_for_a_float_is_not_finite(self, doc):
        with pytest.raises(InputError, match="^component t is not finite$"):
            NsTriple.from_json(doc)

    @pytest.mark.parametrize("call", [
        lambda: klaw_same([1, "2"]),
        lambda: klaw_same([True, 2]),
        lambda: klaw_mixed([1, 2], [None, 1]),
        lambda: klaw3([0.5, 0.2, 0.1], [0.1, 0.2, 0.3], [0.4, np.bool_(True), 0.1]),
    ], ids=["string", "bool", "none", "numpy-bool"])
    def test_k_law_entries_that_are_not_numbers_are_refused(self, call):
        with pytest.raises(InputError, match="^component vector entry must be a number, got "):
            call()

    @pytest.mark.parametrize("call", [
        lambda: klaw_same(5),
        lambda: klaw_mixed(5, 6),
        lambda: klaw_mixed({0: 1.0, 1: 2.0}, {0: 3.0, 1: 4.0}),
        lambda: klaw_same("12"),
        lambda: klaw3([0.5, 0.2], [0.1, 0.2], np.array([0.4, 0.1])),
    ], ids=["int", "ints", "dicts", "string", "array"])
    def test_k_law_vectors_are_lists_or_tuples(self, call):
        with pytest.raises(InputError, match="^component vector must be a list or tuple, got "):
            call()

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, 10 ** 400],
                             ids=["inf", "-inf", "nan", "10**400"])
    def test_k_law_entries_are_finite(self, entry):
        for call in (lambda v: klaw_same(v), lambda v: klaw_mixed((1.0, 1.0), v),
                     lambda v: klaw3((1.0, 1.0), (1.0, 1.0), v)):
            with pytest.raises(InputError, match=r"^component vector entry .* is not finite$"):
                call([1.0, entry])

    @pytest.mark.parametrize("entry", [-1e-300, -0.5, -2, np.float64(-1.0)], ids=repr)
    def test_k_law_entries_below_0_are_out_of_range(self, entry):
        for call in (lambda v: klaw_same(v), lambda v: klaw_mixed(v, (1.0, 1.0)),
                     lambda v: klaw3((1.0, 1.0), v, (1.0, 1.0))):
            with pytest.raises(OutOfRange, match="^component vector entry .* below 0$"):
                call([entry, 1.0])

    def test_k_law_keeps_integer_and_numpy_entries(self):
        assert klaw_same([1, 2]) == 2
        assert klaw_mixed([1, np.float64(0.5)], [np.int64(2), 0.25]) == klaw_mixed(
            [1.0, 0.5], [2.0, 0.25])

    @pytest.mark.parametrize("k", [2.5, 3.0, -1, 0, True, False, None, "3"], ids=repr)
    def test_term_count_refuses_a_k_that_is_not_a_positive_int(self, k):
        for kind in ("same", "mixed", "triple"):
            with pytest.raises(InputError) as info:
                klaw_term_count(kind, k)
            assert str(info.value) == f"k must be an integer >= 1, got {k!r}"

    def test_term_count_reads_any_positive_int(self):
        assert [klaw_term_count("mixed", k) for k in (1, np.int64(3))] == [0, 6]
        assert [klaw_term_count("triple", k) for k in (1, 2, np.uint8(3))] == [0, 0, 6]
        assert klaw_term_count("same", 1) == 1
