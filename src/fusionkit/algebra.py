"""Canonical set algebra over a finite frame of hypotheses.

The frame's hypotheses need not be exclusive, so the working universe is
the closure of the hypothesis sets under union, intersection and
complement.  Every element of that closure is represented canonically as
a bitmask over the ``2**n - 1`` nonempty regions of the n-set Venn
diagram (the "atoms": for each nonempty subset S of hypotheses, the
region inside every member of S and outside every non-member).  The
region outside all hypotheses is not part of the universe: complement is
taken relative to the union of all hypotheses, and an open world is
expressed by allowing mass on the empty set rather than by an extra
outside region.

Bitmask equality is therefore semantic set equality, and the whole
algebra has ``2**(2**n - 1)`` distinct elements.

All types here are immutable and safe to share across threads.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product

from .errors import (
    DuplicateLabel,
    ExprSyntaxError,
    FrameMismatch,
    InputError,
    TooFewHypotheses,
    TooManyHypotheses,
    UnknownLabel,
    enum_member,
)

#: Hard cap on frame size: atom bitmasks must stay cheap machine integers
#: and the algebra has 2**(2**n - 1) elements, which is already 2**63 at
#: n = 6.
MAX_HYPOTHESES = 6

#: Reserved spelling of the empty set in the expression grammar.
EMPTY_NAME = "empty"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class World(Enum):
    """Closed world: total mass lives on nonempty sets.  Open world:
    mass on the empty set is meaningful (absent/unknown hypothesis)."""

    CLOSED = "closed"
    OPEN = "open"


@lru_cache(maxsize=None)
def _label_masks(n: int) -> tuple[int, ...]:
    # Atom for label-subset s (1 <= s < 2**n) sits at bit position s - 1.
    masks = [0] * n
    for s in range(1, 1 << n):
        for i in range(n):
            if s >> i & 1:
                masks[i] |= 1 << (s - 1)
    return tuple(masks)


@lru_cache(maxsize=256)
def _label_table(labels: tuple[str, ...]) -> dict[str, int]:
    """``{label: bits}`` over ``labels``, with ``empty`` as 0: the
    expression parser's one lookup per token.  Shared; never changed."""
    return {EMPTY_NAME: 0, **dict(zip(labels, _label_masks(len(labels))))}


@dataclass(frozen=True)
class Frame:
    """An ordered tuple of hypothesis labels plus a world mode."""

    labels: tuple[str, ...]
    world: World = World.CLOSED

    def __post_init__(self):
        if not isinstance(self.labels, (list, tuple)):
            raise InputError("labels must be a list or tuple of str, got "
                             + type(self.labels).__name__)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "world", enum_member(World, self.world, "world"))
        if len(self.labels) < 2:
            raise TooFewHypotheses("a frame needs at least 2 hypotheses")
        if len(self.labels) > MAX_HYPOTHESES:
            raise TooManyHypotheses(
                f"at most {MAX_HYPOTHESES} hypotheses supported, got {len(self.labels)}"
            )
        seen = set()
        for lab in self.labels:
            if not isinstance(lab, str) or not _IDENT_RE.fullmatch(lab):
                raise UnknownLabel(f"label {lab!r} is not a valid identifier")
            if lab == EMPTY_NAME:
                raise UnknownLabel(f"label {EMPTY_NAME!r} is reserved")
            if lab in seen:
                raise DuplicateLabel(f"label {lab!r} repeated")
            seen.add(lab)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def atom_count(self) -> int:
        return (1 << self.n) - 1

    @property
    def universe_bits(self) -> int:
        return (1 << self.atom_count) - 1

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown hypothesis {label!r}") from None

    def label_bits(self, label: str) -> int:
        return _label_masks(self.n)[self.label_index(label)]

    def singleton(self, label: str) -> "AtomSet":
        return AtomSet(self, self.label_bits(label))

    def empty(self) -> "AtomSet":
        return AtomSet(self, 0)

    def full(self) -> "AtomSet":
        """Total ignorance: the union of every hypothesis."""
        return AtomSet(self, self.universe_bits)

    def atoms_of(self, key: "str | AtomSet | int") -> "AtomSet":
        """The one reader of a set key: expression text, an AtomSet of this
        frame, or a bitmask read as ``AtomSet(self, key)``."""
        if isinstance(key, str):
            return parse_expr(self, key)
        if isinstance(key, AtomSet):
            if key.frame != self:
                raise FrameMismatch("set belongs to a different frame")
            return key
        return AtomSet(self, key)

    def name_of(self, a: "AtomSet | int") -> str:
        return _format_bits(self.labels, _key_bits(a))


def _is_int(bits) -> bool:
    """Any :class:`numbers.Integral` but a bool.  Hot callers test
    ``type(bits) is int`` first: the ABC check alone costs more."""
    return isinstance(bits, numbers.Integral) and not isinstance(bits, bool)


def _key_bits(a: "AtomSet | int") -> int:
    """The mask of an AtomSet, or ``a`` itself if it is an int by
    :class:`AtomSet`'s rule; anything else raises ``InputError``."""
    if type(a) is int:
        return a
    if isinstance(a, AtomSet):
        return a.bits
    if _is_int(a):
        return int(a)
    raise InputError(f"bits must be an int, got {a!r}")


def build_frame(labels, world: World | str = World.CLOSED) -> Frame:
    """Validate labels and return a frame."""
    return Frame(labels, world)


@dataclass(frozen=True, order=False)
class AtomSet:
    """A canonical element of the frame's set algebra (bitmask of atoms)."""

    frame: Frame
    bits: int

    def __post_init__(self):
        if type(self.bits) is not int:
            if not _is_int(self.bits):
                raise InputError(f"bits must be an int, got {self.bits!r}")
            object.__setattr__(self, "bits", int(self.bits))
        if not 0 <= self.bits <= self.frame.universe_bits:
            raise InputError(f"bits {self.bits:#x} outside the frame universe")

    @property
    def is_empty_set(self) -> bool:
        """Structurally empty (no atoms), as opposed to model-empty."""
        return self.bits == 0

    def _check(self, other: "AtomSet") -> None:
        if self.frame != other.frame:
            raise FrameMismatch("operands belong to different frames")

    def __or__(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        return AtomSet(self.frame, self.bits | other.bits)

    def __and__(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        return AtomSet(self.frame, self.bits & other.bits)

    def __sub__(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        return AtomSet(self.frame, self.bits & ~other.bits)

    def __invert__(self) -> "AtomSet":
        return AtomSet(self.frame, self.frame.universe_bits & ~self.bits)

    def issubset(self, other: "AtomSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: "AtomSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "AtomSet") -> bool:
        return self.issubset(other) and self.bits != other.bits

    @property
    def atom_positions(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.frame.atom_count) if self.bits >> p & 1)

    @property
    def name(self) -> str:
        return self.frame.name_of(self)

    def __repr__(self):
        return f"AtomSet({self.name!r})"


class SetOpKind(Enum):
    UNION = "union"
    INTERSECTION = "intersection"
    COMPLEMENT = "complement"
    DIFFERENCE = "difference"


def set_op(kind: SetOpKind | str, a: AtomSet, b: AtomSet | None = None) -> AtomSet:
    """Functional dispatch over the four set operations."""
    kind = enum_member(SetOpKind, kind, "set operation")
    if not isinstance(a, AtomSet) or not isinstance(b, (AtomSet, type(None))):
        raise InputError("set operands must be AtomSets")
    if kind is SetOpKind.COMPLEMENT:
        if b is not None:
            raise InputError("complement is unary")
        return ~a
    if b is None:
        raise InputError(f"{kind.value} needs two operands")
    if kind is SetOpKind.UNION:
        return a | b
    if kind is SetOpKind.INTERSECTION:
        return a & b
    return a - b


def superpower_cardinality(n: int) -> int:
    """Number of distinct sets generated by n hypotheses under
    union/intersection/complement (empty set included)."""
    if not _is_int(n):
        raise InputError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise TooFewHypotheses("need at least 2 hypotheses")
    if n > MAX_HYPOTHESES:
        raise TooManyHypotheses(f"at most {MAX_HYPOTHESES} hypotheses supported, got {n}")
    return 1 << ((1 << int(n)) - 1)


# --- emptiness models -------------------------------------------------------


@dataclass(frozen=True)
class EmptinessModel:
    """Declares which Venn atoms are known to be empty.

    The free model declares nothing; a fully exclusive (Shafer-style)
    model declares every atom shared by two or more hypotheses empty.
    """

    frame: Frame
    forced_empty_bits: int = 0

    def __post_init__(self):
        if type(self.forced_empty_bits) is not int:
            if not _is_int(self.forced_empty_bits):
                raise InputError(
                    f"forced-empty bits must be an int, got {self.forced_empty_bits!r}")
            object.__setattr__(self, "forced_empty_bits", int(self.forced_empty_bits))
        if not 0 <= self.forced_empty_bits <= self.frame.universe_bits:
            raise InputError("forced-empty bits outside the frame universe")

    @classmethod
    def free(cls, frame: Frame) -> "EmptinessModel":
        return cls(frame, 0)

    @classmethod
    def from_exprs(cls, frame: Frame, exprs) -> "EmptinessModel":
        """Model in which each given set expression is declared empty."""
        if isinstance(exprs, str):
            raise InputError(f"set expressions must come in a collection, got {exprs!r}")
        bits = 0
        for e in exprs:
            bits |= frame.atoms_of(e).bits
        return cls(frame, bits)

    @classmethod
    def exclusive(cls, frame: Frame) -> "EmptinessModel":
        """All distinct hypotheses pairwise disjoint."""
        bits = 0
        for p in range(frame.atom_count):
            s = p + 1
            if s & (s - 1):  # atom belongs to two or more hypotheses
                bits |= 1 << p
        return cls(frame, bits)

    @property
    def is_free(self) -> bool:
        return self.forced_empty_bits == 0

    def is_empty(self, a: AtomSet) -> bool:
        return self.frame.atoms_of(a).bits & ~self.forced_empty_bits == 0

    def reduce(self, a: "AtomSet | str | int") -> AtomSet:
        """Drop forced-empty atoms, mapping a set (any key
        :meth:`Frame.atoms_of` reads) to its model equivalence-class
        representative."""
        return AtomSet(self.frame, self.frame.atoms_of(a).bits & ~self.forced_empty_bits)

    def name_of(self, a: "AtomSet | int") -> str:
        """Readable name for an equivalence class modulo this model.

        Picks the simplest set expression whose reduction equals the
        class, so reduced masks keep familiar names (the class of A
        under a model where A and B are disjoint prints as A, not as
        the free-algebra complement form).
        """
        bits = _key_bits(a) & ~self.forced_empty_bits
        return _format_bits(self.frame.labels, bits, self.forced_empty_bits)


def is_model_empty(a: AtomSet, model: EmptinessModel) -> bool:
    """True when every atom of ``a`` is declared empty by ``model``.

    The structurally empty set is model-empty under every model.
    """
    return model.is_empty(a)


# --- expression parsing -----------------------------------------------------

#: One token per match: a label, ``empty`` or an operator in group 1, any
#: other non-space character in group 2.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[()&|~\\])|(\S))")

#: How tightly each binary operator binds; all are left-associative.
_BINDING = {"&": 2, "|": 1, "\\": 1}


def _parse_bits(frame: Frame, text: str) -> int:
    """The mask of ``text`` by Dijkstra's operator-precedence method: one
    pass over the tokens with a stack of values and a stack of pending
    ``(``, ``~`` and binary operators, so nesting costs no recursion."""
    pairs = _TOKEN_RE.findall(text)
    if not pairs:
        raise ExprSyntaxError("empty expression")
    tokens, bad = zip(*pairs)
    if any(bad):
        raise ExprSyntaxError(f"bad character {''.join(bad)[0]!r} in {text!r}")
    table, full = _label_table(frame.labels), frame.universe_bits
    values, pending = [], []
    depth, operand = 0, True  # open parentheses; whether an operand comes next
    for tok in tokens + (None,):  # None ends the text
        if operand:
            if tok == "~" or tok == "(":
                pending.append(tok)
                depth += tok == "("
                continue
            if tok is None:
                raise ExprSyntaxError(f"unexpected end of expression in {text!r}")
            if tok in _BINDING or tok == ")":
                raise ExprSyntaxError(f"unexpected token {tok!r} in {text!r}")
            bits = table.get(tok)
            if bits is None:
                frame.label_index(tok)  # raises UnknownLabel
        else:
            # apply the pending operators that bind at least as tightly as
            # ``tok``; anything but an operator applies all down to a "("
            binding = _BINDING.get(tok, 1)
            while pending and _BINDING.get(pending[-1], 0) >= binding:
                op, rhs, lhs = pending.pop(), values.pop(), values.pop()
                values.append(lhs | rhs if op == "|" else lhs & (rhs if op == "&" else ~rhs))
            if tok in _BINDING:
                pending.append(tok)
                operand = True
                continue
            if tok == ")" and depth:
                pending.pop()
                depth -= 1
                bits = values.pop()
            elif depth:
                raise ExprSyntaxError(f"missing ')' in {text!r}")
            elif tok is None:
                return values[0]
            else:
                raise ExprSyntaxError(f"trailing input at {tok!r} in {text!r}")
        while pending and pending[-1] == "~":  # the complements written before
            pending.pop()
            bits = full & ~bits
        values.append(bits)
        operand = False


def parse_expr(frame: Frame, text: str) -> AtomSet:
    """The set ``text`` names over ``frame``: labels and ``empty`` under
    ``~`` (tightest), ``&``, then ``|`` and ``\\`` (one left-associative
    level), grouped by parentheses to any depth."""
    return AtomSet(frame, _parse_bits(frame, text))


def atoms_of(expr: str | AtomSet, frame: Frame) -> AtomSet:
    """Canonicalize a set expression over the frame's hypotheses."""
    return frame.atoms_of(expr)


# --- canonical display names ------------------------------------------------


def _shapes(n: int):
    """Candidate names over n labels as ``(head, joiner, literals)``, in the
    order that decides which name wins.  A literal is ``(label index,
    negated)``; a head is ``None`` or a literal joined by the other operator."""
    for r in range(1, n + 1):
        # fewest complements first, so classes modulo a model keep
        # their positive representative where one exists
        flat = [tuple(zip(idxs, pols))
                for pols in sorted(product((False, True), repeat=r), key=sum)
                for idxs in combinations(range(n), r)]
        for joiner in ("|", "&") if r >= 2 else ("|",):
            for lits in flat:
                yield None, joiner, lits
    # one literal combined with a union / intersection of others
    for head in product(range(n), (False, True)):
        for r in range(2, n):
            for idxs in combinations([j for j in range(n) if j != head[0]], r):
                for pols in product((False, True), repeat=r):
                    lits = tuple(zip(idxs, pols))
                    yield head, "|", lits
                    yield head, "&", lits


@lru_cache(maxsize=None)
def _format_bits(labels: tuple[str, ...], bits: int, forced: int = 0) -> str:
    """Deterministic, re-parseable display name for a canonical set.

    Tries the short forms of :func:`_shapes` in order: unions of
    (possibly complemented) hypotheses, then intersections, then
    two-level mixes; falls back to the disjunction of explicit Venn atoms.

    With a nonzero ``forced`` mask of model-empty atoms, ``bits`` is a
    reduced equivalence-class mask and the returned name is the first
    candidate whose reduction equals it, so classes keep the readable
    representative (A rather than A-minus-forced-atoms).
    """
    n = len(labels)
    universe = (1 << ((1 << n) - 1)) - 1
    if not 0 <= bits <= universe:
        raise InputError(f"bits {bits:#x} outside the frame universe")
    if bits == 0:
        return EMPTY_NAME
    live = universe & ~forced
    if forced and bits == live:
        return _format_bits(labels, universe)

    lit = [(m, universe & ~m) for m in _label_masks(n)]
    names = [(lab, f"~{lab}") for lab in labels]
    for head, joiner, lits in _shapes(n):
        if joiner == "|":
            m = 0
            for i, neg in lits:
                m |= lit[i][neg]
        else:
            m = universe
            for i, neg in lits:
                m &= lit[i][neg]
        if head is not None:
            m = m & lit[head[0]][head[1]] if joiner == "|" else m | lit[head[0]][head[1]]
        if m & live == bits:
            inner = joiner.join(names[i][neg] for i, neg in lits)
            op = "&" if joiner == "|" else "|"
            return inner if head is None else f"{names[head[0]][head[1]]}{op}({inner})"

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
