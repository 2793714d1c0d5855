"""Combination rules for crisp belief assignments, and the engine every
pooling and conflict rule runs on.

One pipeline evaluates every rule: *expand* each cross product of focal
sets, one per source, into a term valued by the product of its masses
(or by a T-norm); *star* the term's operands into its result set by
intersection, union, symmetric difference or a grouping tree; *mark*
the results that may not keep mass, normally those the emptiness model
forces empty; pool unmarked terms on their result sets and record
marked ones in a :class:`ConflictLedger`; then *dispose* of the
ledger's mass and optionally rescale.

The first four steps run on whole NumPy grids, not term by term.  Each
source is a column of focal-set bitmasks (uint64) and one of masses
(float64) along its own axis, so the value and the star broadcast them
to the grid of all F1 x ... x FN terms, whose C order is the order of
:func:`itertools.product`; the mark is one boolean column over the
results.  The kept mass of a set is the sum of its terms, added from
0.0 in term order, which is how a loop over the terms adds them: every
mass is bit-identical to that loop's, not merely close to it.  The
ledger keeps the product column and builds its entries only when they
are read.  A pooling of more than :data:`MAX_TERMS` terms is refused
before any grid is allocated.

Each named rule is one call of :func:`_rule`, the pipeline with its
configuration:

* conjunctive     -- intersection, model-empty marked, ledger returned;
* disjunctive, exclusive disjunctive, mixed
                  -- union, symmetric difference, grouping tree; nothing
                     is marked;
* Dempster        -- discard the ledger, rescale the kept mass;
* Yager / Smets   -- the ledger total onto total ignorance / the empty
                     set (open world);
* Dubois-Prade /
  DSm hybrid      -- each entry onto the union of its operands,
                     escalated to total ignorance when that union is
                     itself empty;
* PCR5            -- each entry split between its operands in
                     proportion to those operands' own masses.

:mod:`fusionkit.tcn` configures the same engine for the T-norm rules
and the master formula; :mod:`fusionkit.uft` expands and stars terms
here, routes each one itself, and takes its four pessimism brackets as
the ignorance, empty, union and split disposals of one ledger.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce

import numpy as np

from .algebra import EmptinessModel, Frame, World
from .errors import BadGrouping, FrameMismatch, InputError, TotalConflict, enum_member
from .mass import Bba

_TOTAL_CONFLICT_TOL = 1e-12


class RuleId(Enum):
    CONJUNCTIVE = "conjunctive"
    DISJUNCTIVE = "disjunctive"
    EXCLUSIVE_DISJUNCTIVE = "exclusive_disjunctive"
    MIXED = "mixed"
    DEMPSTER = "dempster"
    YAGER = "yager"
    SMETS_TBM = "smets_tbm"
    DUBOIS_PRADE = "dubois_prade"
    DSMH = "dsmh"
    MURPHY_AVERAGE = "murphy_average"
    PCR5 = "pcr5"


@dataclass(frozen=True)
class LedgerEntry:
    """One product term whose result set is marked (by default: model-empty)."""

    operands: tuple[int, ...]  # one focal-set bitmask per source
    result: int
    product: float


class ConflictLedger:
    """Audit trail of marked product terms.

    The ledger plus the surviving output always account for the full raw
    combined mass, so any disposal policy can be replayed from it.  A
    ledger the engine pools builds its :attr:`entries` on first read;
    its length and :meth:`total` come from the product column alone.
    """

    __slots__ = ("frame", "_entries", "_products", "_build")

    def __init__(self, frame: Frame, entries=()):
        self.frame = frame
        self._entries = tuple(entries)
        self._products = None
        self._build = None

    @classmethod
    def _lazy(cls, frame: Frame, products, build) -> "ConflictLedger":
        """Ledger of the terms valued by the float array ``products``,
        whose entries ``build()`` makes, in the same order."""
        ledger = cls(frame)
        ledger._entries, ledger._products, ledger._build = None, products, build
        return ledger

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        if self._entries is None:
            self._entries, self._build = self._build(), None
        return self._entries

    def __len__(self) -> int:
        if self._products is not None:
            return len(self._products)
        return len(self._entries)

    def __eq__(self, other):
        return (isinstance(other, ConflictLedger) and self.frame == other.frame
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.frame, self.entries))

    def __repr__(self):
        return f"ConflictLedger(frame={self.frame!r}, entries={self.entries!r})"

    def total(self) -> float:
        if self._products is not None:
            return math.fsum(self._products.tolist())
        return math.fsum(e.product for e in self._entries)

    def to_json(self) -> list:
        name = self.frame.name_of
        return [
            {
                "operands": [name(b) for b in e.operands],
                "result": name(e.result),
                "mass": e.product,
            }
            for e in self.entries
        ]


# --- the engine --------------------------------------------------------------

# Stars: a term's operand bitmasks -> its result set, on Python ints
# or elementwise on uint64 grids.  Operands are subsets of the universe,
# so folding without a start value equals folding from the identity
# (universe for "and", empty set otherwise).
_AND = partial(reduce, operator.and_)
_OR = partial(reduce, operator.or_)
_XOR = partial(reduce, operator.xor)

#: Term value of the classical rules: the product of the masses, on
#: floats or elementwise on float grids, multiplied left to right as
#: :func:`math.prod` multiplies them.
_PRODUCT = partial(reduce, operator.mul)

#: Most product terms one pooling or UFT fusion expands.
MAX_TERMS = 1 << 20


def _NEVER(results):
    """Mark predicate that marks nothing."""
    return None


def _check_sources(sources) -> Frame:
    if len(sources) < 2:
        raise InputError("need at least two sources")
    frame = sources[0].frame
    for s in sources[1:]:
        if s.frame != frame:
            raise FrameMismatch("sources disagree on the frame")
    return frame


def _check_terms(sources) -> None:
    """Raise ``InputError`` when the sources expand to more than
    :data:`MAX_TERMS` product terms."""
    n = math.prod(len(s.entries) for s in sources)
    if n > MAX_TERMS:
        raise InputError(f"{n} product terms exceed the limit of {MAX_TERMS}")


def _grouping(tree, n: int, where: str = ""):
    """Star for a grouping tree of ``("and"|"or", left, right)`` nodes
    whose leaves are 0-based source indices, each of ``range(n)``
    exactly once."""
    seen: set = set()

    def build(node):
        if isinstance(node, int):
            if not 0 <= node < n:
                raise BadGrouping(f"source index {node} out of range")
            if node in seen:
                raise BadGrouping(f"source index {node} used twice")
            seen.add(node)
            return operator.itemgetter(node)
        if not (isinstance(node, (list, tuple)) and len(node) == 3
                and node[0] in ("and", "or")):
            raise BadGrouping(f"bad grouping node {node!r}")
        op = operator.and_ if node[0] == "and" else operator.or_
        left, right = build(node[1]), build(node[2])
        return lambda ops: op(left(ops), right(ops))

    star = build(tree)
    if len(seen) != n:
        raise BadGrouping("every source must appear exactly once" + where)
    return star


def _marks_empty(model: EmptinessModel):
    """Mark predicate for results the model forces empty."""
    live = np.uint64(model.frame.universe_bits & ~model.forced_empty_bits)
    return lambda results: (results & live) == 0


def _marks_listed(listed):
    """Mark predicate for the result sets in ``listed`` (bitmasks)."""
    return partial(np.isin, test_elements=np.array(listed, np.uint64), kind="sort")


def product_terms(sources):
    """All cross products of focal sets: (operand bitmasks, product mass)."""
    items = [s.crisp_items() for s in sources]
    for ops, vs in zip(itertools.product(*[[b for b, _ in it] for it in items]),
                       itertools.product(*[[v for _, v in it] for it in items])):
        p = math.prod(vs)
        if p != 0.0:
            yield ops, p


def _sums(results: list, values: list) -> dict:
    """Sum of the nonzero ``values`` by result set.  Each set's values
    are added from 0.0 in input order, as a loop over the terms adds
    them, so every sum is bit-identical to that loop's."""
    kept: dict = {}
    for bits, v in zip(results, values):
        if v != 0.0:
            kept[bits] = kept.get(bits, 0.0) + v
    return kept


def _pool(sources, star, marked, value):
    """Expand, star and mark every term: the kept mass by result set,
    and the ledger of marked terms.

    Source k's focal sets and masses are uint64 and float64 columns
    along axis k, so ``star`` and ``value`` broadcast them to the grid
    of all terms, flattened in C order, the order of
    :func:`itertools.product`.  ``marked`` maps the result column to a
    boolean column, or to None when it marks nothing.  Terms valued 0.0
    are dropped.
    """
    _check_terms(sources)
    n = len(sources)
    bits, values = [], []
    for k, s in enumerate(sources):
        items = s.crisp_items()
        shape = (1,) * k + (len(items),) + (1,) * (n - k - 1)
        bits.append(np.array([b for b, _ in items], np.uint64).reshape(shape))
        values.append(np.array([v for _, v in items], np.float64).reshape(shape))
    vals = value(values).ravel()
    results = star(bits).ravel()
    marks = marked(results)
    frame = sources[0].frame
    if marks is None:
        return _sums(results.tolist(), vals.tolist()), ConflictLedger(frame)
    free = ~marks
    kept = _sums(results[free].tolist(), vals[free].tolist())
    hit = (marks & (vals != 0.0)).nonzero()[0]
    if not len(hit):
        return kept, ConflictLedger(frame)
    products = vals[hit]

    def build():
        ops = zip(*[col.ravel()[i].tolist() for col, i in
                    zip(bits, np.unravel_index(hit, [c.size for c in bits]))])
        return tuple(map(LedgerEntry, ops, results[hit].tolist(), products.tolist()))

    return kept, ConflictLedger._lazy(frame, products, build)


def _split(v: float, parts):
    """``v`` shared over ``parts`` ((target, weight), ...) in proportion
    to the weights, targets in input order, or None when the weights sum
    to zero.  Weights whose sum overflows are split by their ratios to
    the largest.  The last target takes the remainder, so the k shares
    sum to ``v`` within (k-1) ulp(v): one rounding per remainder step.
    """
    try:
        den = math.fsum(w for _, w in parts)
    except OverflowError:
        top = max(w for _, w in parts)
        parts = [(target, w / top) for target, w in parts]
        den = math.fsum(w for _, w in parts)
    if den == 0.0:
        return None
    last = len(parts) - 1
    out, left = [], v
    for i, (target, w) in enumerate(parts):
        x = left if i == last else w * v / den
        out.append((target, x))
        left -= x
    return out


def _union_escalate(frame: Frame, bits: int, model: EmptinessModel) -> int:
    """Union target for a conflicting term, escalated until non-empty."""
    if bits & ~model.forced_empty_bits:
        return bits
    full = frame.universe_bits
    if full & ~model.forced_empty_bits:
        return full
    # Degenerate model where even total ignorance is declared empty.
    return 0 if frame.world is World.OPEN else full


def _mass_table(sources) -> tuple[dict, ...]:
    """Each source's masses by focal set."""
    return tuple(dict(s.entries) for s in sources)


def _source_masses(masses, constants=None):
    """Weights of a ledger entry, one per operand: the operand's own mass
    in ``masses`` (one dict per source), or its source's entry of
    ``constants`` where that is not None."""
    if constants is None:
        return lambda e: [m[b] for m, b in zip(masses, e.operands)]
    return lambda e: [m[b] if k is None else k
                      for m, b, k in zip(masses, e.operands, constants)]


def _dispose(out: dict, ledger: ConflictLedger, how: str, model=None, *,
             weights=None, conorm=None, on_zero=None, rescale=None) -> dict:
    """Route the ledger's mass into the kept masses ``out`` (updated and
    returned): ``"discard"`` it; the ledger total onto total
    ``"ignorance"`` or the ``"empty"`` set; each entry onto the escalated
    ``"union"`` of its operands; ``"split"`` it onto its operands in
    proportion to ``ws = weights(entry)``, one weight per operand; or give
    each operand its weight times the ``"ratio"`` of value to ``conorm(*ws)``.
    A zero split or ratio denominator raises ``on_zero``, or falls back to the union.
    ``rescale=(floor, error)`` then divides by the total, raising
    ``error(ledger)`` when the total is at most ``floor``."""
    frame = ledger.frame
    if how in ("ignorance", "empty"):
        k = ledger.total()
        if k:
            target = frame.universe_bits if how == "ignorance" else 0
            out[target] = out.get(target, 0.0) + k
    elif how != "discard":
        for e in ledger.entries:
            v, ops = e.product, e.operands
            shares = None
            if how == "split":
                shares = _split(v, tuple(zip(ops, weights(e))))
            elif how == "ratio":
                ws = weights(e)
                den = conorm(*ws)
                if den != 0.0:
                    shares = [(b, w * (v / den)) for b, w in zip(ops, ws)]
            if shares is None:
                if how != "union" and on_zero is not None:
                    raise on_zero
                shares = ((_union_escalate(frame, _OR(ops), model), v),)
            for b, x in shares:
                out[b] = out.get(b, 0.0) + x
    if rescale is not None:
        floor, error = rescale
        total = math.fsum(out.values())
        if total <= floor:
            raise error(ledger)
        out = {b: v / total for b, v in out.items()}
    return out


def _rule(sources, model: EmptinessModel | None = None, how: str = "discard", *,
          star=_AND, marked=None, value=_PRODUCT, weights=None, **dispose):
    """Run one configuration of the pipeline: ``(bba, ledger)``.

    Checks the sources, defaults ``model`` to the free one, pools the
    terms valued by ``value`` on their ``star`` results, marking those
    ``marked`` selects (by default: model-empty), and disposes of the
    ledger as ``how`` says (see :func:`_dispose`, which also takes the
    ``dispose`` keywords).  Split and ratio disposals weigh each operand
    by its own source mass, or by that source's entry of ``weights``
    where it is not None.
    """
    frame = _check_sources(sources)
    model = model or EmptinessModel.free(frame)
    marked = _marks_empty(model) if marked is None else marked
    kept, ledger = _pool(sources, star, marked, value)
    if how in ("split", "ratio"):
        weights = _source_masses(_mass_table(sources), weights)
    out = _dispose(kept, ledger, how, model, weights=weights, **dispose)
    return Bba._from_masses(frame, out), ledger


# --- the rules ---------------------------------------------------------------


def conjunctive(*sources, model: EmptinessModel | None = None):
    """N-ary conjunctive rule.

    Returns ``(bba, ledger)``: masses on model-empty intersections go to
    the ledger, everything else to the bba.  Under the free model the
    ledger only ever holds mass landing on the structurally empty set.
    """
    return _rule(sources, model)


def disjunctive(*sources) -> Bba:
    """N-ary disjunctive rule: products land on unions, no conflict."""
    return _rule(sources, star=_OR, marked=_NEVER)[0]


def exclusive_disjunctive(*sources) -> Bba:
    """Products land on symmetric differences ("exactly one of them").

    Identical focal pairs land on the empty set; that mass is reported
    on the empty set and left to the caller's world mode.  For more than
    two sources the symmetric difference folds pairwise (bitmask xor is
    associative, so the fold order is immaterial).
    """
    return _rule(sources, star=_XOR, marked=_NEVER)[0]


def mixed(sources, grouping) -> Bba:
    """Mixed conjunctive/disjunctive rule driven by a grouping tree.

    ``grouping`` is a binary tree of ``("and", left, right)`` /
    ``("or", left, right)`` nodes with 0-based source indices as leaves;
    every source must appear exactly once.  Masses are combined in the
    free algebra; a term landing on the structurally empty set stays
    there (with an or-node at the root this cannot happen unless a
    source already carries mass on the empty set).
    """
    star = _grouping(grouping, len(sources), " in the grouping")
    return _rule(sources, star=star, marked=_NEVER)[0]


def murphy_average(*sources) -> Bba:
    """Plain arithmetic mean of the sources' masses."""
    frame = _check_sources(sources)
    out: dict = {}
    k = len(sources)
    for s in sources:
        for bits, v in s.crisp_items():
            out[bits] = out.get(bits, 0.0) + v / k
    return Bba._from_masses(frame, out)


def pcr5(m1: Bba, m2: Bba, model: EmptinessModel | None = None) -> Bba:
    """Proportional conflict redistribution, variant 5.

    Each conflicting product ``m1(X) * m2(Y)`` is split back onto X and
    Y in proportion to ``m1(X)`` and ``m2(Y)``.  A zero denominator
    (possible only for degenerate inputs) sends the term to ``X | Y``.
    More than two sources are handled by :func:`fuse_many` as a left
    fold; the fold is quasi-associative, not associative.
    """
    return _rule((m1, m2), model, "split")[0]


#: Disposal of the conjunctive ledger for each two-source conflict rule.
_DISPOSALS = {
    RuleId.DEMPSTER: "discard",
    RuleId.YAGER: "ignorance",
    RuleId.SMETS_TBM: "empty",
    RuleId.DUBOIS_PRADE: "union",
    RuleId.DSMH: "union",
    RuleId.PCR5: "split",
}

#: Dempster's rescale: K is computed only for the error message.
_DEMPSTER_RESCALE = (_TOTAL_CONFLICT_TOL, lambda ledger: TotalConflict(
    f"conflict mass {ledger.total()} leaves nothing to normalize"))


def combine(rule: RuleId | str, m1: Bba, m2: Bba,
            model: EmptinessModel | None = None) -> Bba:
    """Dispatch a two-source combination by rule id."""
    rule = enum_member(RuleId, rule, "rule")
    if rule is RuleId.MIXED:
        raise BadGrouping("the mixed rule needs a grouping tree; call mixed()")
    if rule not in _DISPOSALS:
        return fuse_many(rule, (m1, m2), model)
    rescale = _DEMPSTER_RESCALE if rule is RuleId.DEMPSTER else None
    return _rule((m1, m2), model, _DISPOSALS[rule], rescale=rescale)[0]


def fuse_many(rule: RuleId | str, sources, model: EmptinessModel | None = None,
              grouping=None) -> Bba:
    """N-ary fusion: native for symmetric rules, left fold otherwise."""
    rule = enum_member(RuleId, rule, "rule")
    sources = list(sources)
    if rule is RuleId.MIXED:
        if grouping is None:
            raise BadGrouping("the mixed rule needs a grouping tree")
        return mixed(sources, grouping)
    if rule is RuleId.CONJUNCTIVE:
        return conjunctive(*sources, model=model)[0]
    if rule is RuleId.DISJUNCTIVE:
        return disjunctive(*sources)
    if rule is RuleId.EXCLUSIVE_DISJUNCTIVE:
        return exclusive_disjunctive(*sources)
    if rule is RuleId.MURPHY_AVERAGE:
        return murphy_average(*sources)
    _check_sources(sources)
    acc = sources[0]
    for nxt in sources[1:]:
        acc = combine(rule, acc, nxt, model)
    return acc
