"""Scenario-driven unified fusion.

A :class:`UftScenario` bundles the sources with everything known about
the problem: which intersections the emptiness model rules out, how the
sources' reliability should shape the combination step, and optional
per-pair relationship annotations saying where the mass landing on each
contested intersection must go.  :func:`uft_fuse` expands the
combination into individual product terms, routes every term through
its relationship, and returns the fused assignment together with
pessimism brackets and a complete transfer audit.

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

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote

from .algebra import AtomSet, EmptinessModel, Frame, World
from .errors import (
    FrameMismatch,
    InputError,
    LengthMismatch,
    NoOtherHypotheses,
    SchemaError,
    enum_member,
)
from .mass import Bba, _is_strings, discount, make_bba
from .rules import (_AND, _OR, _XOR, ConflictLedger, LedgerEntry, _check_sources, _check_terms,
                    _dispose, _grouping, _mass_table, _source_masses, _split, _union_escalate,
                    product_terms)


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


class ReliabilityKind(Enum):
    ALL_RELIABLE = "all_reliable"
    SOME_UNKNOWN_UNRELIABLE = "some_unknown_unreliable"
    EXACTLY_ONE_RELIABLE_UNKNOWN = "exactly_one_reliable_unknown"
    MIXED_GROUPING = "mixed_grouping"
    DISCOUNTS = "discounts"


@dataclass(frozen=True)
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
        try:
            alphas = tuple(float(a) for a in alphas)
        except (TypeError, ValueError, OverflowError):
            raise InputError("discount factors must be numbers") from None
        return cls(ReliabilityKind.DISCOUNTS, alphas=alphas)


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


@dataclass(frozen=True)
class UftResult:
    m_uft: Bba
    m_lower_closed: Bba
    m_lower_open: Bba
    m_middle: Bba
    m_upper: Bba
    audit: tuple[TransferRecord, ...]
    deferred: tuple[tuple[int, float], ...] = ()
    model: EmptinessModel | None = None

    def mass(self, key) -> float:
        """Fused mass of a set, looked up modulo the scenario model.

        The fused assignment lives on equivalence classes, so a query
        for any member of a class (say A when A and B are disjoint)
        returns the class mass.
        """
        frame = self.m_uft.frame
        a = frame.atoms_of(key) if not isinstance(key, int) else AtomSet(frame, key)
        bits = a.bits if isinstance(a, AtomSet) else a
        if self.model is not None:
            bits &= ~self.model.forced_empty_bits
        return self.m_uft.mass(bits)

    def _uft_masses_json(self) -> dict:
        b = self.m_uft
        if self.model is None:
            return b.to_json()
        doc = b.to_json()
        doc["masses"] = {self.model.name_of(bits): v for bits, v in b.entries}
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

        def record(t: TransferRecord) -> str:
            ops = _json_list([name[b] for b in t.operands], 6)
            targets = _json_list([_json_pair(name[b], v, 8) for b, v in t.targets], 6)
            return (f'{{\n      "operands": {ops},\n      "result": {name[t.result]},'
                    f'\n      "mass": {_json_number(t.mass)},'
                    f'\n      "relationship": {_REL_JSON[t.relationship]},'
                    f'\n      "targets": {targets}\n    }}')

        head = json.dumps(self._bba_sections(), indent=2)  # ends "\n}"
        audit = _json_list([record(t) for t in self.audit], 2)
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

    @cached_property
    def _masses(self) -> tuple[dict, ...]:
        """Each source's masses by focal set."""
        return _mass_table(self.sources)


def _proportional_split(ops, p, ctx: RedistContext):
    if len(ops) != len(ctx.sources):
        raise InputError("a proportional split needs one operand per source")
    shares = _split(p, [(b, m.get(b, 0.0)) for m, b in zip(ctx._masses, ops)])
    if shares is None:
        return [(_union_escalate(ctx.frame, _OR(ops), ctx.model), p)]
    return shares


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


def redistribute(term, rel: Relationship, ctx: RedistContext):
    """Route one product term (ops, result, mass); returns
    [(target bits, mass), ...] whose k masses sum to the term's mass
    within (k-1) ulp of it (see :func:`fusionkit.rules._split`)."""
    ops, result, p = term
    ann = ctx.annotation
    union_bits = ann.union_bits if ann is not None else _OR(ops)

    if rel is Relationship.CONSENSUS:
        return [(result, p)]
    if rel in _PROPORTIONAL:
        return _proportional_split(ops, p, ctx)
    if rel in (Relationship.ONE_RIGHT_UNKNOWN, Relationship.PESSIMISTIC_BOTH):
        return [(_union_escalate(ctx.frame, union_bits, ctx.model), p)]
    if rel is Relationship.RIGHT_IS:
        if ann is None or ann.side is None:
            raise InputError("right_is needs an annotated side")
        return [(ann.side.bits, p)]
    if rel is Relationship.VERY_PESSIMISTIC_CLOSED:
        return [(ctx.frame.universe_bits, p)]
    if rel is Relationship.VERY_PESSIMISTIC_OPEN:
        return [(0, p)]
    if rel is Relationship.NEITHER_RIGHT:
        sides = (
            tuple(a.bits for a in ann.pair) if ann is not None else tuple(ops)
        )
        targets = _other_singletons(ctx, sides)
        if not targets:
            raise NoOtherHypotheses(
                "no hypothesis outside "
                f"{ctx.frame.name_of(union_bits)} to receive the mass"
            )
        shares = None
        if ctx.options.neither_right_proportional:
            shares = _split(p, [(t, math.fsum(m.get(t, 0.0) for m in ctx._masses))
                                for t in targets])
        return shares or _split(p, [(t, 1.0) for t in targets])
    if rel is Relationship.NEITHER_RIGHT_NO_OTHERS:
        return [(0, p)]
    if rel is Relationship.UNKNOWN_DEFAULT:
        if ctx.model.is_empty(AtomSet(ctx.frame, result)):
            return [(_union_escalate(ctx.frame, union_bits, ctx.model), p)]
        return [(result, p)]
    raise InputError(f"unknown relationship {rel!r}")


# --- the fusion itself -------------------------------------------------------


def uft_fuse(scenario: UftScenario) -> UftResult:
    frame = scenario.frame
    model = scenario.model or EmptinessModel.free(frame)
    sources, star = _step(scenario)
    plain = RedistContext(frame, model, sources, None, scenario.options)
    contexts = {a.subject_bits: replace(plain, annotation=a)
                for a in scenario.annotations}

    fused: dict = {}
    audit = []
    deferred: dict = {}
    kept: dict = {}
    conflict = []

    live = ~model.forced_empty_bits
    routes: dict = {}  # result -> (context, relationship), one per result

    _check_terms(sources)
    for ops, p in product_terms(sources):
        result = star(ops)
        route = routes.get(result)
        if route is None:
            ctx = contexts.get(result, plain)
            ann = ctx.annotation
            if ann is not None:
                rel = ann.rel
            elif not result & live:
                rel = Relationship.PESSIMISTIC_BOTH
            else:
                rel = None
            route = routes[result] = (ctx, rel)
        ctx, rel = route

        if rel is None:
            targets = ((result, p),)
        else:
            targets = tuple(redistribute((ops, result, p), rel, ctx))
            if rel is Relationship.UNKNOWN_DEFAULT and targets == ((result, p),):
                deferred[result] = deferred.get(result, 0.0) + p
        for b, v in targets:
            fused[b] = fused.get(b, 0.0) + v
        audit.append(TransferRecord(ops, result, p, rel, targets))

        # pessimism brackets: free-algebra view, annotations ignored
        if result == _AND(ops) and result not in ops:
            conflict.append(LedgerEntry(ops, result, p))
        else:
            kept[result] = kept.get(result, 0.0) + p

    reduced: dict = {}
    for b, v in fused.items():
        rb = b & ~model.forced_empty_bits
        reduced[rb] = reduced.get(rb, 0.0) + v

    ledger = ConflictLedger(frame, tuple(conflict))
    free = EmptinessModel.free(frame)
    lower_closed = _dispose(dict(kept), ledger, "ignorance")
    upper = _dispose(dict(kept), ledger, "split", free,
                     weights=_source_masses(plain._masses))
    if scenario.options.middle_from_average:
        middle: dict = {}
        for acc in (lower_closed, upper):
            for b, v in acc.items():
                middle[b] = middle.get(b, 0.0) + v / 2
    else:
        # Never escalated: a genuine intersection's operands are not all empty.
        middle = _dispose(dict(kept), ledger, "union", free)

    return UftResult(
        m_uft=Bba._from_masses(frame, reduced),
        m_lower_closed=Bba._from_masses(frame, lower_closed),
        m_lower_open=Bba._from_masses(frame, _dispose(kept, ledger, "empty")),
        m_middle=Bba._from_masses(frame, middle),
        m_upper=Bba._from_masses(frame, upper),
        audit=tuple(audit),
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
    shares = _split(p, weighted)
    if shares is None:
        raise InputError("target weights must sum to a positive value")
    out = {bits: v for bits, v in b.entries if bits != src.bits}
    for bits, x in shares:
        out[bits] = out.get(bits, 0.0) + x
    return Bba._from_masses(frame, out)


def _target_weight(w) -> float:
    if isinstance(w, numbers.Real):
        try:
            x = float(w)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and x >= 0:
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
        grouping = _tree_from_json(rdoc.get("tree"), "/reliability/tree")
    alphas = None
    if kind is ReliabilityKind.DISCOUNTS:
        alphas = rdoc.get("alphas")
        if not (isinstance(alphas, list)
                and all(isinstance(a, (int, float)) for a in alphas)):
            raise SchemaError("/reliability/alphas",
                              "discounts need a list of numbers")
        alphas = tuple(alphas)
    reliability = Reliability(kind, grouping=grouping, alphas=alphas)

    annotations = []
    adocs = doc.get("annotations", [])
    if not isinstance(adocs, list):
        raise SchemaError("/annotations", "annotations must be a list")
    for i, adoc in enumerate(adocs):
        ptr = f"/annotations/{i}"
        try:
            x, y = adoc["pair"]
            rel = adoc["rel"]
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(ptr, f"bad annotation: {exc}") from None
        rel = enum_member(Relationship, rel, "relationship", f"{ptr}/rel")
        side = adoc.get("side")
        if not _is_strings([x, y] if side is None else [x, y, side]):
            raise SchemaError(ptr, "pair and side must be set expressions")
        side = None if side is None else frame.atoms_of(side)
        annotations.append(
            Annotation((frame.atoms_of(x), frame.atoms_of(y)), rel, side)
        )

    odoc = doc.get("options", {})
    if not isinstance(odoc, dict):
        raise SchemaError("/options", "options must be an object")
    options = UftOptions(
        neither_right_proportional=bool(odoc.get("neither_right_proportional", False)),
        middle_from_average=bool(odoc.get("middle_from_average", False)),
    )
    return UftScenario(sources, model, reliability, tuple(annotations), options)


def _tree_from_json(node, ptr: str):
    """Grouping trees arrive as ["and"|"or", left, right] with 1-based
    leaves in documents; internally leaves are 0-based indices."""
    if isinstance(node, int):
        return node - 1
    if isinstance(node, list) and len(node) == 3 and node[0] in ("and", "or"):
        return (node[0], _tree_from_json(node[1], ptr), _tree_from_json(node[2], ptr))
    raise SchemaError(ptr, f"bad grouping node {node!r}")
