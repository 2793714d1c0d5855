"""Combination rules for crisp belief assignments, and the engine every
pooling and conflict rule runs on.

One pipeline evaluates every rule: *expand* each cross product of focal
sets, one per source, into a term valued by the product of its masses
(or by a T-norm); *star* the term's operands into its result set by
intersection, union, symmetric difference or a grouping tree; *mark*
the results that may not keep mass, normally those the emptiness model
forces empty; pool unmarked terms on their result sets and record
marked ones in a :class:`ConflictLedger`; then *dispose* of the
ledger's mass and optionally rescale.  Each named rule is one call of
:func:`_rule`, the pipeline with its configuration:

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


@dataclass(frozen=True)
class ConflictLedger:
    """Audit trail of marked product terms.

    The ledger plus the surviving output always account for the full raw
    combined mass, so any disposal policy can be replayed from it.
    """

    frame: Frame
    entries: tuple[LedgerEntry, ...]

    def total(self) -> float:
        return math.fsum(e.product for e in self.entries)

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

# Stars: a term's operand bitmasks -> its result set.  Operands are
# subsets of the universe, so folding without a start value equals
# folding from the identity (universe for "and", empty set otherwise).
_AND = partial(reduce, operator.and_)
_OR = partial(reduce, operator.or_)
_XOR = partial(reduce, operator.xor)

#: Mark predicate that marks nothing.
_NEVER = frozenset().__contains__


def _check_sources(sources) -> Frame:
    if len(sources) < 2:
        raise InputError("need at least two sources")
    frame = sources[0].frame
    for s in sources[1:]:
        if s.frame != frame:
            raise FrameMismatch("sources disagree on the frame")
    return frame


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
    live = ~model.forced_empty_bits
    return lambda bits: not bits & live


def _expand(sources):
    """(operand bitmasks, source masses) of every cross product of focal
    sets, the two products walked in lockstep."""
    items = [s.crisp_items() for s in sources]
    return zip(itertools.product(*[[b for b, _ in it] for it in items]),
               itertools.product(*[[v for _, v in it] for it in items]))


def product_terms(sources):
    """All cross products of focal sets: (operand bitmasks, product mass)."""
    for ops, vs in _expand(sources):
        p = math.prod(vs)
        if p != 0.0:
            yield ops, p


def _pool(sources, star, marked, value):
    """Expand, star and mark every term: the kept mass by result set,
    and the ledger of marked terms."""
    kept: dict = {}
    entries = []
    for ops, vs in _expand(sources):
        v = value(vs)
        if v == 0.0:
            continue
        bits = star(ops)
        if marked(bits):
            entries.append(LedgerEntry(ops, bits, v))
        else:
            kept[bits] = kept.get(bits, 0.0) + v
    return kept, ConflictLedger(sources[0].frame, tuple(entries))


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
          star=_AND, marked=None, value=math.prod, weights=None, **dispose):
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
