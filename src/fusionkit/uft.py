"""Scenario-driven unified fusion.

A :class:`UftScenario` bundles the sources with everything known about
the problem: which intersections the emptiness model rules out, how the
sources' reliability should shape the combination step, and optional
per-pair relationship annotations saying where the mass landing on each
contested intersection must go.  :func:`uft_fuse` expands the
combination into the term table of :mod:`fusionkit.rules`, routes every
term through its relationship, and returns the fused assignment
together with pessimism brackets and a complete transfer audit.

Routing runs on the table's columns.  Each distinct result is one
route, resolved once by :func:`_route` and applied by
:func:`_route_terms` (:func:`redistribute` routes a one-row table): a
fixed target, the escalated union of the term's own operands, a split
over the operands by their source masses, or a split over fixed
targets by fixed weights.  Splits take every share from
:func:`fusionkit.rules._split_columns`, and the fused masses add the
(target, share) pairs term by term, so every mass equals the per-term
loop's bit for bit.  The audit keeps those columns;
:class:`TransferRecord` objects are built only when it is read record
by record, and the JSON and text writers format the columns.

Routing policy for a term with operands (X from source 1, Y from
source 2, ...) and result R:

* an annotation is looked up by the canonical set its pair intersects
  to; union-style targets are built from the annotated pair, while
  proportional splits follow the term's own operands and their masses;
* unannotated terms keep their mass when R is not model-empty and fall
  back to the pessimistic union of the operands when it is.

The pessimism brackets ignore annotations and the model: every genuine
intersection term (result below all of its operands) goes to one
conflict ledger, disposed of onto total ignorance (closed-world floor),
the empty set (open-world floor), the union of its operands (middle),
or split back onto the operands proportionally to their masses (upper).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .algebra import AtomSet, EmptinessModel, Frame, World, _is_int
from .errors import (
    FrameMismatch,
    InputError,
    LengthMismatch,
    NoOtherHypotheses,
    SchemaError,
    enum_member,
    real,
)
from .mass import Bba, _is_strings, discount, make_bba
from .rules import (_AND, _OR, _PRODUCT, _XOR, ConflictLedger, _check_sources, _dispose,
                    _escalate, _fold_tree, _grouping, _Routed, _split_columns,
                    _split_or_union, _sums, _Terms, _terms, _tree_nodes, _union_escalate)


class Relationship(Enum):
    """What is known about the pair behind a contested intersection."""

    CONSENSUS = "consensus"
    NEITHER_INTERSECTION_NOR_UNION_INTEREST = "neither_intersection_nor_union_interest"
    OPTIMISTIC_BOTH = "optimistic_both"
    ONE_RIGHT_UNKNOWN = "one_right_unknown"
    RIGHT_IS = "right_is"
    PESSIMISTIC_BOTH = "pessimistic_both"
    VERY_PESSIMISTIC_CLOSED = "very_pessimistic_closed"
    VERY_PESSIMISTIC_OPEN = "very_pessimistic_open"
    NEITHER_RIGHT = "neither_right"
    NEITHER_RIGHT_NO_OTHERS = "neither_right_no_others"
    UNKNOWN_DEFAULT = "unknown_default"


_PROPORTIONAL = (
    Relationship.NEITHER_INTERSECTION_NOR_UNION_INTEREST,
    Relationship.OPTIMISTIC_BOTH,
)


@dataclass(frozen=True)
class Annotation:
    """Relationship annotation for the intersection of a pair of sets."""

    pair: tuple[AtomSet, AtomSet]
    rel: Relationship
    side: AtomSet | None = None

    def __post_init__(self):
        x, y = self.pair
        if x.frame != y.frame:
            raise FrameMismatch("annotation pair spans two frames")
        if self.rel is Relationship.RIGHT_IS:
            if self.side is None:
                raise InputError("right_is needs a side")
            if self.side.bits not in (x.bits, y.bits):
                raise InputError("side must be one of the annotated pair")
        elif self.side is not None:
            raise InputError(f"{self.rel.value} does not take a side")

    @property
    def subject_bits(self) -> int:
        x, y = self.pair
        return x.bits & y.bits

    @property
    def union_bits(self) -> int:
        x, y = self.pair
        return x.bits | y.bits


_JOIN_NAMES = {operator.and_: "and", operator.or_: "or"}


class ReliabilityKind(Enum):
    ALL_RELIABLE = "all_reliable"
    SOME_UNKNOWN_UNRELIABLE = "some_unknown_unreliable"
    EXACTLY_ONE_RELIABLE_UNKNOWN = "exactly_one_reliable_unknown"
    MIXED_GROUPING = "mixed_grouping"
    DISCOUNTS = "discounts"


@dataclass(frozen=True, eq=False)
class Reliability:
    """How much the sources are trusted, deciding the combination step.

    All reliable -> conjunctive; some sources of unknown/unreliable
    standing -> disjunctive; exactly one reliable but unknown which ->
    exclusive disjunctive; a grouping tree mixes and/or per subgroup;
    explicit discount factors shade each source toward ignorance and
    then combine conjunctively.
    """

    kind: ReliabilityKind = ReliabilityKind.ALL_RELIABLE
    grouping: tuple | None = None
    alphas: tuple[float, ...] | None = None

    @classmethod
    def all_reliable(cls):
        return cls(ReliabilityKind.ALL_RELIABLE)

    @classmethod
    def some_unknown_unreliable(cls):
        return cls(ReliabilityKind.SOME_UNKNOWN_UNRELIABLE)

    @classmethod
    def exactly_one_reliable_unknown(cls):
        return cls(ReliabilityKind.EXACTLY_ONE_RELIABLE_UNKNOWN)

    @classmethod
    def mixed_grouping(cls, tree):
        return cls(ReliabilityKind.MIXED_GROUPING, grouping=tree)

    @classmethod
    def discounts(cls, alphas):
        alphas = tuple(map(real, alphas)) if isinstance(alphas, Iterable) else None
        if alphas is None or None in alphas:
            raise InputError("discount factors must be numbers")
        return cls(ReliabilityKind.DISCOUNTS, alphas=alphas)

    def _key(self) -> tuple:
        """The fields, with the grouping tree as its flat prefix list, so
        that equality, hashing, repr and pickling do not recurse on the
        tree's depth."""
        tree = self.grouping
        if tree is not None:
            tree = tuple(join or node for node, _, join in _tree_nodes(tree, "", tuple))
        return self.kind, tree, self.alphas

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        tree = self.grouping
        if tree is not None:
            tree = _unfold(self._key()[1], "({!r}, {}, {})".format, repr)
        return f"Reliability(kind={self.kind!r}, grouping={tree}, alphas={self.alphas!r})"

    def __reduce__(self):
        return _reliability, self._key()


def _unfold(prefix, join, leaf):
    """The tree of a ``Reliability._key`` prefix list, folded over one
    stack: ``join(name, left, right)`` at a node, ``leaf(node)`` at a
    leaf."""
    return _fold_tree(
        [partial(join, _JOIN_NAMES[x]) if callable(x) else k for k, x in enumerate(prefix)],
        [leaf(x) for x in prefix])


def _reliability(kind, prefix, alphas) -> Reliability:
    """The ``Reliability`` whose ``_key`` is ``(kind, prefix, alphas)``."""
    if prefix is not None:
        prefix = _unfold(prefix, lambda *node: node, lambda x: x)
    return Reliability(kind, prefix, alphas)


@dataclass(frozen=True)
class UftOptions:
    #: Split "neither right" mass proportionally to the other
    #: hypotheses' summed source masses instead of equally.
    neither_right_proportional: bool = False
    #: Report the middle bracket as the mean of the two extreme
    #: brackets instead of the union-transfer estimate.
    middle_from_average: bool = False


@dataclass(frozen=True)
class UftScenario:
    sources: tuple[Bba, ...]
    model: EmptinessModel | None = None
    reliability: Reliability = field(default_factory=Reliability.all_reliable)
    annotations: tuple[Annotation, ...] = ()
    options: UftOptions = field(default_factory=UftOptions)

    def __post_init__(self):
        frame = _check_sources(self.sources)
        if self.model is not None and self.model.frame != frame:
            raise FrameMismatch("model belongs to a different frame")
        if self.reliability.kind is ReliabilityKind.DISCOUNTS:
            if len(self.reliability.alphas or ()) != len(self.sources):
                raise LengthMismatch("one discount factor per source required")
        seen: dict = {}
        for ann in self.annotations:
            if ann.pair[0].frame != frame:
                raise FrameMismatch("annotation belongs to a different frame")
            if ann.subject_bits in seen:
                raise InputError(
                    "two annotations target the same intersection "
                    f"({frame.name_of(ann.subject_bits)})"
                )
            seen[ann.subject_bits] = ann

    @property
    def frame(self) -> Frame:
        return self.sources[0].frame


@dataclass(frozen=True)
class TransferRecord:
    """Audit entry: one product term and where its mass went."""

    operands: tuple[int, ...]
    result: int
    mass: float
    relationship: Relationship | None  # None = kept without annotation
    targets: tuple[tuple[int, float], ...]

    def to_json(self, frame: Frame) -> dict:
        rel = self.relationship.value if self.relationship else "kept"
        return {
            "operands": [frame.name_of(b) for b in self.operands],
            "result": frame.name_of(self.result),
            "mass": self.mass,
            "relationship": rel,
            "targets": [[frame.name_of(b), v] for b, v in self.targets],
        }


class _Audit(Sequence):
    """The transfer audit of one fusion, kept as the router's columns.

    Its length and :meth:`rows` read the columns; the
    :class:`TransferRecord` tuple is built on the first read of a
    record.  It compares equal to the tuple of its records.
    """

    def __init__(self, ops, results, values, rels, routes, routed: _Routed):
        self._ops, self._results, self._values = ops, results, values
        self._rels, self._routes, self._routed = rels, routes, routed
        self._records = None

    def rows(self):
        """(operands, result, mass, relationship, targets) of every
        record, in term order, as plain tuples."""
        ops = zip(*[c.tolist() for c in self._ops])
        rels = map(self._rels.__getitem__, self._routes.tolist())
        return zip(ops, self._results.tolist(), self._values.tolist(), rels,
                   self._routed.rows())

    def _built(self) -> tuple:
        if self._records is None:
            self._records = tuple(itertools.starmap(TransferRecord, self.rows()))
        return self._records

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other):
        if isinstance(other, (tuple, _Audit)):
            return self._built() == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._built())

    def __repr__(self):
        return repr(self._built())


def _audit_rows(audit):
    """The rows of an audit, built by the router or by hand."""
    if isinstance(audit, _Audit):
        return audit.rows()
    return ((t.operands, t.result, t.mass, t.relationship, t.targets) for t in audit)


@dataclass(frozen=True)
class UftResult:
    m_uft: Bba
    m_lower_closed: Bba
    m_lower_open: Bba
    m_middle: Bba
    m_upper: Bba
    audit: Sequence[TransferRecord]
    deferred: tuple[tuple[int, float], ...] = ()
    model: EmptinessModel | None = None

    def mass(self, key) -> float:
        """Fused mass of a set, looked up modulo the scenario model.

        The fused assignment lives on equivalence classes, so a query
        for any member of a class (say A when A and B are disjoint)
        returns the class mass.  The key is read by :meth:`Frame.atoms_of`:
        expression text, an AtomSet of the frame, or a bitmask.
        """
        return self.m_uft.mass(key if self.model is None else self.model.reduce(key))

    def _uft_masses_json(self) -> dict:
        doc = self.m_uft.to_json()
        if self.model is not None:
            doc["masses"] = {self.model.name_of(bits): v for bits, v in self.m_uft.entries}
        return doc

    def _bba_sections(self) -> dict:
        return {
            "m_uft": self._uft_masses_json(),
            "m_lower_closed": self.m_lower_closed.to_json(),
            "m_lower_open": self.m_lower_open.to_json(),
            "m_middle": self.m_middle.to_json(),
            "m_upper": self.m_upper.to_json(),
        }

    def to_json(self) -> dict:
        frame = self.m_uft.frame
        return {
            **self._bba_sections(),
            "audit": [t.to_json(frame) for t in self.audit],
            "deferred": [[frame.name_of(b), v] for b, v in self.deferred],
        }

    def write_json(self) -> str:
        """``json.dumps(self.to_json(), indent=2)``, byte for byte.

        The bba sections go through ``json.dumps``; each audit record
        and deferred pair is written by one template, with every set
        named and quoted once per call.
        """
        name_of = self.m_uft.frame.name_of
        name = _NameMemo(lambda b: _quote(name_of(b)))

        def record(operands, result, mass, rel, targets) -> str:
            ops = _json_list([name[b] for b in operands], 6)
            targets = _json_list([_json_pair(name[b], v, 8) for b, v in targets], 6)
            return (f'{{\n      "operands": {ops},\n      "result": {name[result]},'
                    f'\n      "mass": {_json_number(mass)},'
                    f'\n      "relationship": {_REL_JSON[rel]},'
                    f'\n      "targets": {targets}\n    }}')

        head = json.dumps(self._bba_sections(), indent=2)  # ends "\n}"
        audit = _json_list(list(itertools.starmap(record, _audit_rows(self.audit))), 2)
        deferred = _json_list([_json_pair(name[b], v, 4) for b, v in self.deferred], 2)
        return f'{head[:-2]},\n  "audit": {audit},\n  "deferred": {deferred}\n}}'


class _NameMemo(dict):
    """``memo[bits]`` is ``namer(bits)``, computed once per key."""

    def __init__(self, namer):
        super().__init__()
        self.namer = namer

    def __missing__(self, bits):
        name = self[bits] = self.namer(bits)
        return name


_REL_JSON = {None: '"kept"', **{r: _quote(r.value) for r in Relationship}}


def _json_number(v) -> str:
    """A mass as ``json.dumps`` spells it."""
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    return json.dumps(v)


def _json_list(items: list, indent: int) -> str:
    """Already-encoded ``items`` as an indent-2 JSON list whose closing
    bracket sits ``indent`` spaces in."""
    if not items:
        return "[]"
    pad = " " * (indent + 2)
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


def _json_pair(quoted: str, v, indent: int) -> str:
    """A ``[name, mass]`` pair as an indent-2 JSON list."""
    pad = " " * (indent + 2)
    return f"[\n{pad}{quoted},\n{pad}{_json_number(v)}\n{pad[:-2]}]"


# --- term expansion ----------------------------------------------------------


#: Star of the combination step for each reliability kind without a
#: grouping tree; every other kind is conjunctive.
_STEP_STARS = {
    ReliabilityKind.SOME_UNKNOWN_UNRELIABLE: _OR,
    ReliabilityKind.EXACTLY_ONE_RELIABLE_UNKNOWN: _XOR,
}


def _step(scenario: UftScenario):
    """Sources and star of the reliability-selected combination."""
    rel = scenario.reliability
    sources = scenario.sources
    if rel.kind is ReliabilityKind.DISCOUNTS:
        sources = tuple(discount(s, a) for s, a in zip(sources, rel.alphas))
    if rel.kind is ReliabilityKind.MIXED_GROUPING:
        return sources, _grouping(rel.grouping, len(sources))
    return sources, _STEP_STARS.get(rel.kind, _AND)


# --- redistribution ----------------------------------------------------------


@dataclass(frozen=True)
class RedistContext:
    """Everything :func:`redistribute` needs besides the term itself."""

    frame: Frame
    model: EmptinessModel
    sources: tuple[Bba, ...]
    annotation: Annotation | None = None
    options: UftOptions = field(default_factory=UftOptions)

    def __post_init__(self):
        if any(x.frame != self.frame for x in (self.model, *self.sources)):
            raise FrameMismatch("model or source belongs to a different frame")

    @cached_property
    def _masses(self) -> tuple[dict, ...]:
        """Each source's masses by focal set."""
        return tuple(dict(s.entries) for s in self.sources)


def _other_singletons(ctx: RedistContext, sides):
    """Hypotheses not covered by either discarded side.

    Tested side by side rather than against the union: a hypothesis
    jointly covered by the two sides together still counts as other
    when neither side contains it on its own.
    """
    frame = ctx.frame
    out = []
    for lab in frame.labels:
        bits = frame.label_bits(lab)
        if all(bits & ~s for s in sides):
            out.append(bits)
    return out


#: Routes that are not one fixed target: the escalated union of the
#: term's own operands, or a split over those operands in proportion to
#: their source masses (falling back to that union when they sum to 0).
_UNION = "union of the operands"
_OPERANDS = "split over the operands"


def _route(rel: Relationship, ctx: RedistContext, result: int, ops=()):
    """Where the terms of ``result`` go under ``rel``: one target
    bitmask, :data:`_UNION`, :data:`_OPERANDS`, or ``(targets, weights)``
    to split over.  ``ops`` is needed only when ``ctx`` has no annotation
    and ``rel`` is ``NEITHER_RIGHT``."""
    ann = ctx.annotation
    frame, model = ctx.frame, ctx.model
    if rel is Relationship.CONSENSUS:
        return result
    if rel in _PROPORTIONAL:
        return _OPERANDS
    if rel in (Relationship.ONE_RIGHT_UNKNOWN, Relationship.PESSIMISTIC_BOTH) or (
            rel is Relationship.UNKNOWN_DEFAULT and model.is_empty(AtomSet(frame, result))):
        return _UNION if ann is None else _union_escalate(frame, ann.union_bits, model)
    if rel is Relationship.UNKNOWN_DEFAULT:
        return result
    if rel is Relationship.RIGHT_IS:
        if ann is None or ann.side is None:
            raise InputError("right_is needs an annotated side")
        return ann.side.bits
    if rel is Relationship.VERY_PESSIMISTIC_CLOSED:
        return frame.universe_bits
    if rel in (Relationship.VERY_PESSIMISTIC_OPEN, Relationship.NEITHER_RIGHT_NO_OTHERS):
        return 0
    if rel is Relationship.NEITHER_RIGHT:
        sides = tuple(a.bits for a in ann.pair) if ann is not None else tuple(ops)
        targets = tuple(_other_singletons(ctx, sides))
        if not targets:
            union_bits = ann.union_bits if ann is not None else _OR(ops)
            raise NoOtherHypotheses(
                f"no hypothesis outside {frame.name_of(union_bits)} to receive the mass")
        weights = (1.0,) * len(targets)
        if ctx.options.neither_right_proportional:
            mass = tuple(math.fsum(m.get(t, 0.0) for m in ctx._masses) for t in targets)
            if any(mass):
                weights = mass
        return targets, weights
    raise InputError(f"unknown relationship {rel!r}")


def redistribute(term, rel: Relationship, ctx: RedistContext):
    """Route one product term (ops, result, mass) as :func:`uft_fuse`
    routes a table of them: :func:`_route` and :func:`_route_terms` on a
    one-row term table.  Returns [(target bits, mass), ...] whose k
    masses sum to the term's mass within (k-1) ulp of it.  The operands
    (one or more) and the result must be bitmasks inside the frame's
    universe, and the mass a finite number."""
    if not (isinstance(term, (tuple, list)) and len(term) == 3):
        raise InputError(f"term must be (operands, result, mass), got {term!r}")
    ops, result, p = term
    full = ctx.frame.universe_bits
    masks = [*ops, result] if isinstance(ops, (tuple, list)) and ops else [None]
    if not all(_is_int(b) and 0 <= b <= full for b in masks):
        raise InputError(f"term operands and result must be bitmasks in 0..{full}")
    x = real(p)
    if x is None or not math.isfinite(x):
        raise InputError(f"term mass must be a finite number, got {p!r}")
    route = _route(rel, ctx, result, ops)
    if route is _OPERANDS and len(ops) != len(ctx.sources):
        raise InputError("a proportional split needs one operand per source")
    bits = [np.array([b], np.uint64) for b in ops]
    masses = [np.array([m.get(b, 0.0)]) for m, b in zip(ctx._masses, ops)]  # _OPERANDS only
    row = np.zeros(1, np.intp)
    table = _Terms(bits, masses, row, np.array([result], np.uint64), np.array([x], np.float64))
    return list(zip(*_route_terms(table, bits, [route], row, ctx).pairs()))


def _route_terms(terms, ops: list, routes: list, inverse, ctx: RedistContext) -> _Routed:
    """Every term of the table ``terms`` (operand columns ``ops``) sent
    along ``routes[inverse[i]]``, the route of its result, in ``ctx``'s frame and model."""
    frame, model = ctx.frame, ctx.model
    splits = {i: r for i, r in enumerate(routes) if isinstance(r, tuple)}
    values = terms.values
    routed = _Routed(len(values), max([len(ops)] + [len(t) for t, _ in splits.values()]))
    fixed = [isinstance(r, int) for r in routes]
    rows = np.array(fixed, bool)[inverse]
    target = np.array([r if f else 0 for r, f in zip(routes, fixed)], np.uint64)
    routed.put(rows, [target[inverse[rows]]], [values[rows]])
    rows = np.array([r is _OPERANDS for r in routes], bool)[inverse].nonzero()[0]
    if len(rows):
        v = values[rows]
        shares, spread = _split_columns(v, terms.columns(terms.masses, rows))
        _split_or_union(routed, rows, ops, v, shares, spread, frame, model)
    union = np.array([r is _UNION for r in routes], bool)[inverse]
    if union.any():
        routed.put(union, [_escalate(frame, [o[union] for o in ops], model)],
                   [values[union]])
    for i, (targets, weights) in splits.items():
        rows = (inverse == i).nonzero()[0]
        shares, _ = _split_columns(values[rows], [np.full(len(rows), w) for w in weights])
        routed.put(rows, targets, shares)
    return routed


# --- the fusion itself -------------------------------------------------------


def uft_fuse(scenario: UftScenario) -> UftResult:
    frame = scenario.frame
    model = scenario.model or EmptinessModel.free(frame)
    sources, star = _step(scenario)
    plain = RedistContext(frame, model, sources, None, scenario.options)
    contexts = {a.subject_bits: replace(plain, annotation=a)
                for a in scenario.annotations}

    terms = _terms(sources, star, _PRODUCT)
    ops, results, values = terms.columns(terms.bits), terms.results, terms.values
    distinct, first, inverse = np.unique(results, return_index=True, return_inverse=True)

    # One route per distinct result, resolved in the order of its first
    # term, so that the first route to fail is the loop's.
    live = ~model.forced_empty_bits
    rels, routes = [None] * len(distinct), [None] * len(distinct)
    for i in np.argsort(first).tolist():
        result = int(distinct[i])
        ctx = contexts.get(result, plain)
        if ctx.annotation is not None:
            rels[i] = ctx.annotation.rel
        elif not result & live:
            rels[i] = Relationship.PESSIMISTIC_BOTH
        routes[i] = result if rels[i] is None else _route(rels[i], ctx, result)

    routed = _route_terms(terms, ops, routes, inverse, plain)
    fused = _sums(*routed.pairs())

    reduced = _sums([b & live for b in fused], list(fused.values()))
    defers = [rel is Relationship.UNKNOWN_DEFAULT and route == result
              for rel, route, result in zip(rels, routes, distinct.tolist())]
    rows = np.array(defers, bool)[inverse]
    deferred = _sums(results[rows].tolist(), values[rows].tolist())

    # pessimism brackets: free-algebra view, annotations ignored
    genuine = results == _AND(ops)
    for o in ops:
        genuine &= o != results
    kept = _sums(results[~genuine].tolist(), values[~genuine].tolist())
    ledger = ConflictLedger._lazy(frame, terms, genuine.nonzero()[0])
    free = EmptinessModel.free(frame)
    lower_closed = _dispose(dict(kept), ledger, "ignorance")
    upper = _dispose(dict(kept), ledger, "split", free)
    if scenario.options.middle_from_average:
        both = [*lower_closed.items(), *upper.items()]
        middle = _sums([b for b, _ in both], [v / 2 for _, v in both])
    else:
        # Never escalated: a genuine intersection's operands are not all empty.
        middle = _dispose(dict(kept), ledger, "union", free)

    return UftResult(
        m_uft=Bba._from_masses(frame, reduced),
        m_lower_closed=Bba._from_masses(frame, lower_closed),
        m_lower_open=Bba._from_masses(frame, _dispose(kept, ledger, "empty")),
        m_middle=Bba._from_masses(frame, middle),
        m_upper=Bba._from_masses(frame, upper),
        audit=_Audit(ops, results, values, rels, inverse, routed),
        deferred=tuple(sorted(deferred.items())),
        model=model,
    )


def reroute_mass(b: Bba, source_set, targets) -> Bba:
    """Move all mass from one set onto weighted targets.

    Supports the deferred-decision workflow: mass kept on an
    intersection under an unknown relationship can be re-routed once the
    model is settled.  ``targets`` is a list of (set, weight) pairs;
    each weight is a finite number >= 0, and they sum to more than 0.
    """
    frame = b.frame
    src = frame.atoms_of(source_set)
    weighted = [(frame.atoms_of(t).bits, _target_weight(w)) for t, w in targets]
    p = b.mass(src)
    if p == 0.0:
        return b
    shares, spread = _split_columns(np.array([p]), [np.array([w]) for _, w in weighted])
    if not spread.any():
        raise InputError("target weights must sum to a positive value")
    out = {bits: v for bits, v in b.entries if bits != src.bits}
    _sums([bits for bits, _ in weighted], [x.item() for x in shares], out)
    return Bba._from_masses(frame, out)


def _target_weight(w) -> float:
    x = real(w)
    if x is not None and math.isfinite(x) and x >= 0:
        return x
    raise InputError(f"target weight must be a finite number >= 0, got {w!r}")


def uft_fuse_dynamic(initial: Bba, stream, *, model: EmptinessModel | None = None,
                     annotations: tuple = (), options: UftOptions | None = None,
                     decay: float = 1.0) -> Bba:
    """Fold a stream of reports into a running fused assignment.

    Before each step the running assignment is discounted by ``decay``
    (1.0 keeps it untouched).  Stream items are either bbas or
    ``(bba, updates)`` pairs where ``updates`` may carry per-step
    ``model``, ``annotations`` or ``options`` overrides.
    """
    running = initial
    options = options or UftOptions()
    for item in stream:
        if isinstance(item, tuple):
            nxt, updates = item
        else:
            nxt, updates = item, {}
        scen = UftScenario(
            sources=(discount(running, decay), nxt),
            model=updates.get("model", model),
            annotations=tuple(updates.get("annotations", annotations)),
            options=updates.get("options", options),
        )
        running = uft_fuse(scen).m_uft
    return running


# --- JSON loading ------------------------------------------------------------


def fusion_inputs_from_json(doc: dict):
    """Frame, sources and emptiness model from a scenario document.

    The document needs "frame" (labels) and "sources" (one object of
    expression -> mass each); "world" and "model" (list of expressions
    forced empty) are optional.
    """
    if not isinstance(doc, dict):
        raise SchemaError("/", "scenario must be an object")
    for key in ("frame", "sources"):
        if key not in doc:
            raise SchemaError(f"/{key}", "missing required field")
    world = enum_member(World, doc.get("world", "closed"), "world", "/world")
    if not _is_strings(doc["frame"]):
        raise SchemaError("/frame", "frame must be a list of labels")
    frame = Frame(tuple(doc["frame"]), world)
    if not isinstance(doc["sources"], list):
        raise SchemaError("/sources", "sources must be a list")
    sources = []
    for i, masses in enumerate(doc["sources"]):
        if not isinstance(masses, dict):
            raise SchemaError(f"/sources/{i}", "source must be an object of masses")
        try:
            sources.append(make_bba(frame, masses.items()))
        except InputError as exc:
            raise SchemaError(f"/sources/{i}", str(exc)) from exc
    model = doc.get("model", [])
    if not _is_strings(model):
        raise SchemaError("/model", "model must be a list of set expressions")
    model = EmptinessModel.from_exprs(frame, model)
    return frame, tuple(sources), model


def scenario_from_json(doc: dict) -> UftScenario:
    """Build a scenario from its JSON document form."""
    frame, sources, model = fusion_inputs_from_json(doc)

    rdoc = doc.get("reliability", {"kind": "all_reliable"})
    if not isinstance(rdoc, dict):
        raise SchemaError("/reliability", "reliability must be an object")
    kind = enum_member(ReliabilityKind, rdoc.get("kind", "all_reliable"), "kind",
                       "/reliability/kind")
    grouping = None
    if kind is ReliabilityKind.MIXED_GROUPING:
        grouping = _tree_from_json(rdoc.get("tree"), "/reliability/tree", len(sources))
    alphas = None
    if kind is ReliabilityKind.DISCOUNTS:
        alphas = rdoc.get("alphas")
        alphas = tuple(map(real, alphas)) if isinstance(alphas, list) else None
        if alphas is None or None in alphas:
            raise SchemaError("/reliability/alphas",
                              "discounts need a list of numbers")
    reliability = Reliability(kind, grouping=grouping, alphas=alphas)

    annotations = []
    adocs = doc.get("annotations", [])
    if not isinstance(adocs, list):
        raise SchemaError("/annotations", "annotations must be a list")
    for i, adoc in enumerate(adocs):
        ptr = f"/annotations/{i}"
        if not isinstance(adoc, dict):
            raise SchemaError(ptr, "annotation must be an object")
        for key in ("pair", "rel"):
            if key not in adoc:
                raise SchemaError(f"{ptr}/{key}", "missing required field")
        if not (_is_strings(adoc["pair"]) and len(adoc["pair"]) == 2):
            raise SchemaError(f"{ptr}/pair", "pair must be a list of two set expressions")
        x, y = adoc["pair"]
        rel = enum_member(Relationship, adoc["rel"], "relationship", f"{ptr}/rel")
        side = adoc.get("side")
        if side is not None and not isinstance(side, str):
            raise SchemaError(f"{ptr}/side", "side must be a set expression")
        side = None if side is None else frame.atoms_of(side)
        annotations.append(
            Annotation((frame.atoms_of(x), frame.atoms_of(y)), rel, side)
        )

    odoc = doc.get("options", {})
    if not isinstance(odoc, dict):
        raise SchemaError("/options", "options must be an object")
    for key in ("neither_right_proportional", "middle_from_average"):
        if not isinstance(odoc.get(key, False), bool):
            raise SchemaError(f"/options/{key}", "option must be true or false")
    options = UftOptions(
        neither_right_proportional=odoc.get("neither_right_proportional", False),
        middle_from_average=odoc.get("middle_from_average", False),
    )
    return UftScenario(sources, model, reliability, tuple(annotations), options)


def _tree_from_json(tree, ptr: str, n: int):
    """Grouping trees arrive as ["and"|"or", left, right] with 1-based
    leaves in documents, each of the ``n`` source numbers exactly once;
    internally leaves are 0-based indices.  Errors name the numbers as
    written and point at the offending node, or at the tree for the
    lowest source it leaves out."""
    seen: set = set()
    prefix = []
    for node, at, join in _tree_nodes(tree, ptr, list):
        if isinstance(node, bool):
            raise SchemaError(at, "grouping leaf must be a source number, got "
                              + json.dumps(node))
        if isinstance(node, int):
            if node in seen or not 1 <= node <= n:
                raise SchemaError(at, f"source {node} " + (
                    "used twice" if node in seen else f"out of range 1..{n}"))
            seen.add(node)
            prefix.append(node - 1)
        elif join is None:
            raise SchemaError(at, f"bad grouping node {node!r}")
        else:
            prefix.append(lambda left, right, op=node[0]: (op, left, right))
    missing = min(set(range(1, n + 1)) - seen, default=None)
    if missing is not None:
        raise SchemaError(ptr, f"source {missing} missing")
    return _fold_tree(prefix, range(n))
