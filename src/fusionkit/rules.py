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
:func:`itertools.product`.  :func:`_terms` builds that grid once into
the *term table*: the terms valued nonzero with their results and
values as columns.  It is the only owner of term order: pooling,
:func:`product_terms` and :mod:`fusionkit.uft` all read it.  The mark
is one boolean column over the results.  The kept mass of a set is the
sum of its terms, added from 0.0 in term order, which is how a loop
over the terms adds them: every mass is bit-identical to that loop's,
not merely close to it.  The ledger keeps its rows of the table and
builds its entries only when they are read; the disposals read its
columns, and :func:`_split_columns` splits every entry at once.
A table of more than :data:`MAX_TERMS` terms or :data:`MAX_SOURCES`
sources is refused before any grid is allocated.

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
and the master formula; :mod:`fusionkit.uft` routes the columns of a
term table by what is known about each result, and takes its four
pessimism brackets as the ignorance, empty, union and split disposals
of one ledger over the same table.
"""

from __future__ import annotations

import math
import operator
import reprlib
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .algebra import EmptinessModel, Frame, World, _is_int
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
    ledger the engine pools is a set of rows of a term table: it builds
    its :attr:`entries` on first read, and its length, :meth:`total`
    and the disposals read the table's columns.
    """

    __slots__ = ("frame", "_entries", "_terms", "_rows")

    def __init__(self, frame: Frame, entries=()):
        self.frame = frame
        self._entries = tuple(entries)
        self._terms = self._rows = None

    @classmethod
    def _lazy(cls, frame: Frame, terms: "_Terms", rows) -> "ConflictLedger":
        """Ledger of the terms at the positions ``rows`` (ascending) of
        the term table ``terms``."""
        ledger = cls(frame)
        ledger._entries, ledger._terms, ledger._rows = None, terms, rows
        return ledger

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        if self._entries is None:
            ops = zip(*[c.tolist() for c in self._operands()])
            results = self._terms.results[self._rows].tolist()
            self._entries = tuple(map(LedgerEntry, ops, results,
                                      self._products().tolist()))
        return self._entries

    def _operands(self) -> list:
        """Source k's operand of every entry, one uint64 column per source."""
        return self._terms.columns(self._terms.bits, self._rows)

    def _masses(self) -> list:
        """Each entry's operand masses, one float64 column per source."""
        return self._terms.columns(self._terms.masses, self._rows)

    def _products(self):
        return self._terms.values[self._rows]

    def __len__(self) -> int:
        if self._terms is not None:
            return len(self._rows)
        return len(self._entries)

    def __eq__(self, other):
        return (isinstance(other, ConflictLedger) and self.frame == other.frame
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.frame, self.entries))

    def __repr__(self):
        return f"ConflictLedger(frame={self.frame!r}, entries={self.entries!r})"

    def total(self) -> float:
        if self._terms is not None:
            return math.fsum(self._products().tolist())
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

#: Most sources one expansion takes: one grid axis each, 32 in NumPy 1.x.
MAX_SOURCES = 32


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
    """Raise ``InputError`` for more than :data:`MAX_SOURCES` sources or
    :data:`MAX_TERMS` product terms."""
    if len(sources) > MAX_SOURCES:
        raise InputError(f"{len(sources)} sources exceed the limit of {MAX_SOURCES}")
    n = math.prod(len(s.entries) for s in sources)
    if n > MAX_TERMS:
        raise InputError(f"{n} product terms exceed the limit of {MAX_TERMS}")


def _tree_nodes(tree, ptr: str = "", kinds=(list, tuple)):
    """Each node of a grouping tree in prefix order, read over one stack,
    with its JSON pointer below ``ptr`` (none if ``ptr`` is empty) and its
    join: ``operator.and_`` or ``operator.or_`` for an ``("and"|"or",
    left, right)`` node of ``kinds``, None for a node the reader checks."""
    stack = [(tree, ptr)]
    while stack:
        node, ptr = stack.pop()
        join = None
        if isinstance(node, kinds) and len(node) == 3 and node[0] in ("and", "or"):
            join = operator.and_ if node[0] == "and" else operator.or_
            stack += (node[2], ptr and ptr + "/2"), (node[1], ptr and ptr + "/1")
        yield node, ptr, join


def _fold_tree(prefix: list, operands):
    """A grouping tree's value from its prefix list, over one stack:
    ``operands[k]`` at a leaf k, a join on its two subtrees' values."""
    stack = []
    for item in reversed(prefix):
        stack.append(item(stack.pop(), stack.pop()) if callable(item) else operands[item])
    return stack.pop()


def _grouping(tree, n: int, where: str = ""):
    """Star for a grouping tree of ``("and"|"or", left, right)`` nodes
    whose leaves are 0-based source indices, each of ``range(n)``
    exactly once: it folds the operand columns with ``&`` and ``|``."""
    seen: set = set()
    prefix = []
    for node, _, join in _tree_nodes(tree):
        if _is_int(node):
            if not 0 <= node < n:
                raise BadGrouping(f"source index {node} out of range")
            if node in seen:
                raise BadGrouping(f"source index {node} used twice")
            seen.add(node)
        elif join is None:
            # reprlib bounds the depth: the node may hold a deep subtree.
            raise BadGrouping(f"bad grouping node {reprlib.repr(node)}")
        prefix.append(join or node)
    if len(seen) != n:
        raise BadGrouping("every source must appear exactly once" + where)
    return partial(_fold_tree, prefix)


def _marks_empty(model: EmptinessModel):
    """Mark predicate for results the model forces empty."""
    live = np.uint64(model.frame.universe_bits & ~model.forced_empty_bits)
    return lambda results: (results & live) == 0


def _marks_listed(listed):
    """Mark predicate for the result sets in ``listed`` (bitmasks)."""
    return partial(np.isin, test_elements=np.array(listed, np.uint64), kind="sort")


class _Terms(NamedTuple):
    """The term table: every product term valued nonzero, in the order
    of :func:`itertools.product`.

    ``bits[k]`` and ``masses[k]`` are source k's focal sets and masses,
    uint64 and float64 columns along axis k of the F1 x ... x FN grid;
    ``index`` is each term's flat position in that grid, and
    ``results`` and ``values`` are its result set and value.
    """

    bits: list
    masses: list
    index: np.ndarray
    results: np.ndarray
    values: np.ndarray

    def columns(self, axes: list, rows=slice(None)) -> list:
        """Source k's entry of ``axes[k]`` (``bits`` or ``masses``) for
        each term at the positions ``rows``: one column per source."""
        at = np.unravel_index(self.index[rows], [c.size for c in axes])
        return [c.ravel()[i] for c, i in zip(axes, at)]


def _terms(sources, star, value) -> _Terms:
    """The term table of ``sources``: ``star`` and ``value`` broadcast
    the per-source columns to the grid of all terms, flattened in C
    order, and the terms valued 0.0 are dropped."""
    _check_terms(sources)
    n = len(sources)
    bits, masses = [], []
    for k, s in enumerate(sources):
        items = s.crisp_items()
        shape = (1,) * k + (len(items),) + (1,) * (n - k - 1)
        bits.append(np.array([b for b, _ in items], np.uint64).reshape(shape))
        masses.append(np.array([v for _, v in items], np.float64).reshape(shape))
    values = value(masses).ravel()
    index = values.nonzero()[0]
    return _Terms(bits, masses, index, star(bits).ravel()[index], values[index])


def product_terms(sources):
    """All cross products of focal sets valued nonzero: (operand
    bitmasks, product mass), in the order of :func:`itertools.product`.
    Like every expansion, refuses more than :data:`MAX_TERMS` terms."""
    terms = _terms(sources, _AND, _PRODUCT)
    ops = zip(*[c.tolist() for c in terms.columns(terms.bits)])
    yield from zip(ops, terms.values.tolist())


def _sums(keys: list, values: list, acc=None) -> dict:
    """``acc`` (default: a new dict) plus the ``values`` summed by key.
    Each key's values are added from 0.0 in input order, as a loop over
    the terms adds them, so every sum is bit-identical to that loop's."""
    acc = {} if acc is None else acc
    for bits, v in zip(keys, values):
        acc[bits] = acc.get(bits, 0.0) + v
    return acc


def _pool(sources, star, marked, value):
    """Expand, star and mark every term: the kept mass by result set,
    and the ledger of marked terms.

    ``marked`` maps the term table's result column to a boolean column,
    or to None when it marks nothing.
    """
    terms = _terms(sources, star, value)
    results, values = terms.results, terms.values
    marks = marked(results)
    frame = sources[0].frame
    if marks is None:
        return _sums(results.tolist(), values.tolist()), ConflictLedger(frame)
    free = ~marks
    kept = _sums(results[free].tolist(), values[free].tolist())
    hit = marks.nonzero()[0]
    if not len(hit):
        return kept, ConflictLedger(frame)
    return kept, ConflictLedger._lazy(frame, terms, hit)


def _weights_sum(ws):
    """``(ws, math.fsum(ws))``, or, when that sum overflows, the same
    for the weights' ratios to the largest."""
    try:
        return ws, math.fsum(ws)
    except OverflowError:
        top = max(ws)
        ws = [w / top for w in ws]
        return ws, math.fsum(ws)


def _split_columns(v, weights: list):
    """The one proportional split: ``v[i]`` shared over the weights
    ``weights[k][i]`` in proportion to them, one float column per
    target.  Returns the share columns of the rows whose weights do not
    sum to zero, and the boolean column of those rows.  The denominator
    is each row's ``math.fsum`` (of the ratios to the largest weight
    where it overflows); the last target takes the remainder, so a
    row's k shares sum to its value within (k-1) ulp."""
    rows = list(zip(*[w.tolist() for w in weights]))
    try:
        den = list(map(math.fsum, rows))
    except OverflowError:
        rows, den = zip(*map(_weights_sum, rows))
        weights = [np.array(w, np.float64) for w in zip(*rows)]
    den = np.array(den, np.float64)
    ok = den != 0.0
    if not ok.all():
        v, den, weights = v[ok], den[ok], [w[ok] for w in weights]
    shares, left = [], v
    for w in weights[:-1]:
        x = w * v / den
        shares.append(x)
        left = left - x
    return shares + [left], ok


def _union_escalate(frame: Frame, bits: int, model: EmptinessModel) -> int:
    """Union target for a conflicting term, escalated until non-empty."""
    if bits & ~model.forced_empty_bits:
        return bits
    full = frame.universe_bits
    if full & ~model.forced_empty_bits:
        return full
    # Degenerate model where even total ignorance is declared empty.
    return 0 if frame.world is World.OPEN else full


def _escalate(frame: Frame, ops: list, model: EmptinessModel) -> list:
    """:func:`_union_escalate` of the union of each row of the operand
    columns ``ops``, called once per distinct union."""
    unions = _OR(ops).tolist()
    memo = {b: _union_escalate(frame, b, model) for b in set(unions)}
    return list(map(memo.__getitem__, unions))


class _Routed:
    """Where the mass of each of ``n`` terms goes: term i's first
    ``count[i]`` (target, share) pairs, targets in order."""

    def __init__(self, n: int, width: int):
        self.targets = np.zeros((n, width), np.uint64)
        self.shares = np.zeros((n, width), np.float64)
        self.count = np.zeros(n, np.intp)
        self._pairs = None

    def put(self, rows, targets, shares) -> None:
        """Give the terms ``rows`` (an index, a boolean column or a
        slice) one pair per target; each target and share is a column
        over those rows, or one value for all of them."""
        for k, (t, x) in enumerate(zip(targets, shares)):
            self.targets[rows, k] = t
            self.shares[rows, k] = x
        self.count[rows] = len(targets)

    def pairs(self) -> tuple[list, list]:
        """Every (target, share) pair, term by term: two lists, made
        once after the last :meth:`put`."""
        if self._pairs is None:
            targets, shares = self.targets, self.shares
            if self.count.min(initial=targets.shape[1]) < targets.shape[1]:
                used = np.arange(targets.shape[1]) < self.count[:, None]
                targets, shares = targets[used], shares[used]
            self._pairs = targets.ravel().tolist(), shares.ravel().tolist()
        return self._pairs


def _split_or_union(routed, rows, ops, v, shares, spread, frame, model) -> None:
    """Route the terms ``rows`` (an index column, or ``slice(None)`` for
    all) with values ``v`` and operands ``ops[k][rows]``: those where
    ``spread`` holds take the ``shares`` of :func:`_split_columns` on
    their operands, the others go to their operands' escalated union."""
    if not spread.all():
        if isinstance(rows, slice):
            rows = np.arange(len(spread))
        union = rows[~spread]
        routed.put(union, [_escalate(frame, [o[union] for o in ops], model)], [v[~spread]])
        rows = rows[spread]
    routed.put(rows, [o[rows] for o in ops], shares)


def _dispose(out: dict, ledger: ConflictLedger, how: str, model=None, *,
             weights=None, conorm=None, on_zero=None, rescale=None) -> dict:
    """Route the ledger's mass into the kept masses ``out`` (updated and
    returned): ``"discard"`` it; the ledger total onto total
    ``"ignorance"`` or the ``"empty"`` set; each entry onto the escalated
    ``"union"`` of its operands; ``"split"`` it onto its operands in
    proportion to their weights ws; or give each operand its weight times
    the ``"ratio"`` of value to ``conorm(*ws)``, a function of columns.
    An operand weighs its own source mass, or its source's entry of
    ``weights`` where that is not None.  A zero split or ratio
    denominator raises ``on_zero``, or falls back to the union.  Entries
    are routed as columns and added to ``out`` entry by entry, targets
    in operand order.
    ``rescale=(floor, error)`` then divides by the total, raising
    ``error(ledger)`` when the total is at most ``floor``."""
    frame = ledger.frame
    if how in ("ignorance", "empty"):
        k = ledger.total()
        if k:
            target = frame.universe_bits if how == "ignorance" else 0
            out[target] = out.get(target, 0.0) + k
    elif how != "discard" and len(ledger):
        ops, v = ledger._operands(), ledger._products()
        if how == "union":
            _sums(_escalate(frame, ops, model), v.tolist(), out)
        else:
            ws = [m if k is None else np.full(len(v), k)
                  for m, k in zip(ledger._masses(), weights or [None] * len(ops))]
            if how == "split":
                shares, spread = _split_columns(v, ws)
            else:
                den = conorm(*ws)
                spread = den != 0.0
                shares = [w[spread] * (v[spread] / den[spread]) for w in ws]
            if on_zero is not None and not spread.all():
                raise on_zero
            routed = _Routed(len(v), len(ops))
            _split_or_union(routed, slice(None), ops, v, shares, spread, frame, model)
            _sums(*routed.pairs(), out)
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
    items = [(bits, v / len(sources)) for s in sources for bits, v in s.crisp_items()]
    return Bba._from_masses(frame, _sums([b for b, _ in items], [v for _, v in items]))


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
