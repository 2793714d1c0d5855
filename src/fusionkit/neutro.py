"""Neutrosophic triples and their operators.

A proposition carries three degrees at once: truth T, indeterminacy I
and falsity F.  Components are crisp numbers or closed intervals and
the sum T+I+F is deliberately unconstrained, which lets the triple
express incomplete (sum < 1) and contradictory (sum > 1) information.

Internally every component is handled as an interval, a crisp value a
standing for [a, a]; that makes the interval formulas the single code
path.  Combination outputs are not normalised by default and their
components may exceed 1 when the inputs are over-specified; use
:func:`ns_normalize` (with a :class:`NormPolicy` target) to rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .algebra import _is_int
from .errors import InputError, IntervalNotSupported, LengthMismatch, OutOfRange, ZeroNorm, real
from .tcn import DUAL_CONORM, TNorm, _lookup, tconorm, tnorm


def _iv(c) -> tuple[float, float]:
    """Component as a (lo, hi) interval; crisp a becomes [a, a]."""
    if not isinstance(c, (tuple, list)):
        return (float(c), float(c))
    lo, hi = c
    return (float(lo), float(hi))


def _crisp(iv: tuple[float, float]):
    lo, hi = iv
    return lo if lo == hi else (lo, hi)


@dataclass(frozen=True)
class NsTriple:
    """Degrees of truth, indeterminacy and falsity.

    Each component is a float or a (lo, hi) pair with 0 <= lo <= hi.
    """

    t: float | tuple
    i: float | tuple
    f: float | tuple

    def __post_init__(self):
        for name in ("t", "i", "f"):
            c = getattr(self, name)
            pair = isinstance(c, (tuple, list)) and len(c) == 2
            lo, hi = map(real, c) if pair else (real(c),) * 2
            if lo is None or hi is None:
                raise InputError(f"component {name} must be a number or a (lo, hi) pair, "
                                 f"got {c!r}")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InputError(f"component {name} is not finite")
            if lo < 0.0:
                raise OutOfRange(f"component {name} below 0")
            if lo > hi:
                raise InputError(f"component {name} has reversed bounds")
            if pair:
                object.__setattr__(self, name, tuple(c))

    @property
    def is_crisp(self) -> bool:
        return all(lo == hi for lo, hi in self.intervals)

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return (_iv(self.t), _iv(self.i), _iv(self.f))

    def crisp_components(self) -> tuple[float, float, float]:
        if not self.is_crisp:
            raise IntervalNotSupported("operation needs crisp components")
        return tuple(lo for lo, _ in self.intervals)

    def to_json(self):
        if self.is_crisp:
            return list(self.crisp_components())
        (tl, th), (il, ih), (fl, fh) = self.intervals
        return {"t": [tl, th], "i": [il, ih], "f": [fl, fh]}

    @classmethod
    def from_json(cls, doc) -> "NsTriple":
        def number(key, v):
            x = real(v)
            if x is None:
                raise InputError(f"bad component {key!r}: {v!r}")
            return x

        if isinstance(doc, (list, tuple)) and len(doc) == 3:
            return cls(*(number(key, v) for key, v in zip("tif", doc)))
        if isinstance(doc, dict):
            def comp(key):
                v = doc.get(key)
                if isinstance(v, (list, tuple)) and len(v) == 2:
                    return (number(key, v[0]), number(key, v[1]))
                return number(key, v)

            return cls(comp("t"), comp("i"), comp("f"))
        raise InputError(f"bad triple document {doc!r}")


#: Designated false and true elements.
NS_ZERO = NsTriple(0.0, 0.0, 1.0)
NS_ONE = NsTriple(1.0, 0.0, 0.0)


def ns_leq(x: NsTriple, y: NsTriple) -> bool:
    """Partial order: truth may only rise, indeterminacy and falsity
    may only fall (endpointwise for intervals)."""
    (t1, i1, f1), (t2, i2, f2) = x.intervals, y.intervals
    return (
        t1[0] <= t2[0] and t1[1] <= t2[1]
        and i1[0] >= i2[0] and i1[1] >= i2[1]
        and f1[0] >= f2[0] and f1[1] >= f2[1]
    )


def ns_contains(a: NsTriple, b: NsTriple) -> bool:
    """Membership-wise containment; the pointwise condition coincides
    with the partial order."""
    return ns_leq(a, b)


class NsRecipe(Enum):
    """A T-norm paired with its dual T-conorm."""

    MIN = "min"
    ALGEBRAIC_PRODUCT = "product"
    BOUNDED = "bounded"


#: Each recipe's value names its T-norm; the T-conorm is that norm's dual.
_RECIPE_NORMS = {recipe: (TNorm(recipe.value), DUAL_CONORM[TNorm(recipe.value)])
                for recipe in NsRecipe}


def _box(op, kind, a: tuple[float, float], b: tuple[float, float]):
    """``op(kind, ., .)`` over the box ``a`` x ``b``: its least and
    greatest value, or the one value of a crisp pair.  Every T-norm and
    T-conorm is monotone or bilinear on a box, so both extremes sit at
    its four corners."""
    (a0, a1), (b0, b1) = a, b
    if a0 == a1 and b0 == b1:
        return op(kind, a0, b0)
    corners = (op(kind, a0, b0), op(kind, a0, b1), op(kind, a1, b0), op(kind, a1, b1))
    return _crisp((min(corners), max(corners)))


def _n_op(t_op, t_kind, rest_op, rest_kind, x: NsTriple, y: NsTriple) -> NsTriple:
    """T by ``t_op(t_kind, ...)``, I and F by ``rest_op(rest_kind, ...)``,
    over the box of interval endpoints."""
    (t1, i1, f1), (t2, i2, f2) = x.intervals, y.intervals
    return NsTriple(_box(t_op, t_kind, t1, t2), _box(rest_op, rest_kind, i1, i2),
                    _box(rest_op, rest_kind, f1, f2))


def n_norm(recipe: NsRecipe, x: NsTriple, y: NsTriple) -> NsTriple:
    """Neutrosophic conjunction: T by the recipe's T-norm, I and F by
    the dual T-conorm; on intervals, the least and greatest value over
    the endpoints."""
    norm, conorm = _lookup(_RECIPE_NORMS, recipe, "recipe")
    return _n_op(tnorm, norm, tconorm, conorm, x, y)


def n_conorm(recipe: NsRecipe, x: NsTriple, y: NsTriple) -> NsTriple:
    """Neutrosophic disjunction: T by the dual T-conorm, I and F by the
    recipe's T-norm."""
    norm, conorm = _lookup(_RECIPE_NORMS, recipe, "recipe")
    return _n_op(tconorm, conorm, tnorm, norm, x, y)


def ns_and_interval(x: NsTriple, y: NsTriple) -> NsTriple:
    """Interval conjunction with the min/max recipe."""
    return n_norm(NsRecipe.MIN, x, y)


def ns_or_interval(x: NsTriple, y: NsTriple) -> NsTriple:
    """Interval disjunction with the min/max recipe."""
    return n_conorm(NsRecipe.MIN, x, y)


def ns_not(x: NsTriple) -> NsTriple:
    """Complement: swap truth and falsity, reflect indeterminacy."""
    t, i, f = x.intervals
    if i[1] > 1.0:
        raise OutOfRange("indeterminacy above 1 cannot be reflected")
    return NsTriple(_crisp(f), _crisp((1.0 - i[1], 1.0 - i[0])), _crisp(t))


def ns_negate(x: NsTriple) -> NsTriple:
    """Weak negation: swap truth and falsity, keep indeterminacy."""
    t, i, f = x.intervals
    return NsTriple(_crisp(f), _crisp(i), _crisp(t))


# --- measures ----------------------------------------------------------------


def vector_norm(x: NsTriple) -> float:
    """Component sum T+I+F of a crisp triple."""
    t, i, f = x.crisp_components()
    return t + i + f


class NormPolicy(Enum):
    NONE = "none"
    PRODUCT_OF_NORMS = "product_of_norms"
    AVERAGE_OF_NORMS = "average_of_norms"
    CUSTOM = "custom"


def norm_target(policy: NormPolicy, x: NsTriple, y: NsTriple,
                custom=None) -> float | None:
    """Component-sum target for the combination of two triples, or None
    when the result should stay as computed."""
    if policy is NormPolicy.NONE:
        return None
    if policy is NormPolicy.PRODUCT_OF_NORMS:
        return vector_norm(x) * vector_norm(y)
    if policy is NormPolicy.AVERAGE_OF_NORMS:
        return (vector_norm(x) + vector_norm(y)) / 2.0
    if policy is NormPolicy.CUSTOM:
        if custom is None:
            raise InputError("custom policy needs a function")
        return float(custom(x, y))
    raise InputError(f"unknown policy {policy!r}")


def ns_normalize(x: NsTriple, target: float = 1.0) -> NsTriple:
    """Rescale a crisp triple so its component sum equals ``target``."""
    s = vector_norm(x)
    if s <= 0.0:
        raise ZeroNorm("component sum is zero")
    t, i, f = x.crisp_components()
    k = target / s
    return NsTriple(t * k, i * k, f * k)


class NsClass(Enum):
    INTUITIONISTIC = "intuitionistic"
    PARACONSISTENT = "paraconsistent"
    PLAUSIBLY_NORMALIZED = "plausibly_normalized"


def classify_ns(x: NsTriple) -> frozenset:
    """Which of the sum-of-components regimes the triple can satisfy.

    The labels can overlap: an interval triple whose component sum
    straddles 1 admits a normalized selection while also admitting
    sub- or over-selections.
    """
    sup_sum = math.fsum(hi for _, hi in x.intervals)
    inf_sum = math.fsum(lo for lo, _ in x.intervals)
    labels = set()
    if sup_sum < 1.0:
        labels.add(NsClass.INTUITIONISTIC)
    if inf_sum > 1.0:
        labels.add(NsClass.PARACONSISTENT)
    if inf_sum <= 1.0 <= sup_sum:
        labels.add(NsClass.PLAUSIBLY_NORMALIZED)
    return frozenset(labels)


# --- graded allocation operators ---------------------------------------------


def _crisp_map(x: NsTriple) -> dict:
    t, i, f = x.crisp_components()
    return {"t": t, "i": i, "f": f}


def _by_state(columns, step, states: int) -> list:
    """The sums, by state 0 .. states-1, of the monomials that take one
    entry from each column: each starts in state 0, and its entry j of a
    column moves it from state s to ``step(s, j)``.  Only products and
    sums of the entries occur, so non-negative entries never cancel."""
    moves = [(s, j, step(s, j)) for s in range(states) for j in range(len(columns[0]))]
    sums = [1.0] + [0.0] * (states - 1)
    for column in columns:
        new = [0.0] * states
        for s, j, t in moves:
            new[t] += sums[s] * column[j]
        sums = new
    return sums


def ns_combine_graded(order: tuple[str, str, str], *xs: NsTriple) -> NsTriple:
    """Combine crisp triples by prevailing-component allocation.

    Expand the product (T1+I1+F1)(T2+I2+F2)... and send every monomial
    to the strongest component it mentions, ``order`` listing the
    components weakest first.  Because each monomial lands in exactly
    one component, the component sum of the output is the product of
    the inputs' component sums.  One pass over the triples keeps the
    sum of the monomials by their strongest component so far.
    """
    if sorted(order) != ["f", "i", "t"]:
        raise InputError(f"order must permute t, i, f: {order!r}")
    if len(xs) < 2:
        raise InputError("need at least two triples")
    columns = list(map(itemgetter(*order), map(_crisp_map, xs)))
    acc = dict(zip(order, _by_state(columns, max, 3)))
    return NsTriple(acc["t"], acc["i"], acc["f"])


def c_tif(x: NsTriple, y: NsTriple) -> NsTriple:
    """Conjunction where falsity prevails over indeterminacy over truth:
    (T1T2, I1I2+I1T2+T1I2, all monomials touching an F)."""
    return ns_combine_graded(("t", "i", "f"), x, y)


def c_itf(x: NsTriple, y: NsTriple) -> NsTriple:
    """Conjunction where truth absorbs the truth-indeterminacy cross
    terms: (T1T2+T1I2+T2I1, I1I2, all monomials touching an F)."""
    return ns_combine_graded(("i", "t", "f"), x, y)


def d_fti(x: NsTriple, y: NsTriple) -> NsTriple:
    """Disjunction where truth prevails over indeterminacy over
    falsity: (all monomials touching a T, I1I2+I1F2+I2F1, F1F2)."""
    return ns_combine_graded(("f", "i", "t"), x, y)


def d_fti_pessimistic(x: NsTriple, y: NsTriple) -> NsTriple:
    """Disjunction focused on indeterminacy: I also absorbs the
    truth-indeterminacy cross terms, leaving T = T1T2+T1F2+T2F1."""
    return ns_combine_graded(("f", "t", "i"), x, y)


def c3_tif(x: NsTriple, y: NsTriple, z: NsTriple) -> NsTriple:
    """Three-way conjunction under the falsity-prevails order."""
    return ns_combine_graded(("t", "i", "f"), x, y, z)


def d3_fti(x: NsTriple, y: NsTriple, z: NsTriple) -> NsTriple:
    """Three-way disjunction under the truth-prevails order."""
    return ns_combine_graded(("f", "i", "t"), x, y, z)


# --- k-law composition --------------------------------------------------------


@dataclass(frozen=True)
class NsVector:
    """k aligned triples, exposing the T, I and F component vectors."""

    triples: tuple[NsTriple, ...]

    def __post_init__(self):
        if len(self.triples) < 2:
            raise LengthMismatch("a vector needs k >= 2 triples")

    @property
    def k(self) -> int:
        return len(self.triples)

    def component(self, name: str) -> tuple[float, ...]:
        return tuple(_crisp_map(x)[name] for x in self.triples)


def _check_lengths(*vectors):
    """Refuse k-law vectors that are not lists or tuples of k >= 2 equal
    lengths, and entries that are not finite numbers >= 0."""
    for v in vectors:
        if not isinstance(v, (list, tuple)):
            raise InputError(f"component vector must be a list or tuple, got {type(v).__name__}")
    k = len(vectors[0])
    if k < 2:
        raise LengthMismatch("component vectors need k >= 2 entries")
    for v in vectors[1:]:
        if len(v) != k:
            raise LengthMismatch("component vectors differ in length")
    for x in (x for v in vectors for x in v):
        y = x if type(x) is float else real(x)
        if y is None:
            raise InputError(f"component vector entry must be a number, got {x!r}")
        if not math.isfinite(y):
            raise InputError(f"component vector entry {y!r} is not finite")
        if y < 0.0:
            raise OutOfRange(f"component vector entry {y!r} below 0")


def klaw_same(z) -> float:
    """Same-symbol composition: the plain product z1 z2 ... zk."""
    _check_lengths(z)
    return math.prod(z)


def klaw_mixed(z, w) -> float:
    """Two-symbol composition: sum over the 2^k - 2 selections that use
    both symbols, each selection contributing one factor per index."""
    _check_lengths(z, w)
    return _by_state(list(zip(z, w)), lambda s, j: s | 1 << j, 4)[0b11]


def klaw3(z, w, u) -> float:
    """Three-symbol composition: sum over selections using all three
    symbols at least once (for k = 3, the six permutations; none for
    k < 3)."""
    _check_lengths(z, w, u)
    return _by_state(list(zip(z, w, u)), lambda s, j: s | 1 << j, 8)[0b111]


def klaw_term_count(kind: str, k: int) -> int:
    """Number of monomials the composition of ``k >= 1`` factors expands to."""
    if not _is_int(k) or k < 1:
        raise InputError(f"k must be an integer >= 1, got {k!r}")
    if kind == "same":
        return 1
    if kind == "mixed":
        return (1 << k) - 2
    if kind == "triple":
        return 3 ** k - 3 * (1 << k) + 3
    raise InputError(f"unknown kind {kind!r}")
