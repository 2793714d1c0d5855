"""Basic belief assignments over the frame's set algebra.

A :class:`Bba` maps canonical sets to masses.  Masses are either crisp
floats in [0, 1] or closed intervals ``(lo, hi)`` within [0, 1].  A bba
need not sum to one: it is classified as normalized, incomplete (sums
below one) or paraconsistent (sums above one).  Interval bbas are
classified by whether some selection of point values inside the
intervals can reach one; they are never renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .algebra import AtomSet, Frame, World
from .errors import (
    AlphaOutOfRange,
    InputError,
    IntervalNotSupported,
    MassAboveOne,
    NegativeMass,
    SchemaError,
    ZeroTotalMass,
    enum_member,
    real,
)

#: Tolerance for crisp classification decisions.
CLASSIFY_TOL = 1e-9


class NormClass(Enum):
    NORMALIZED = "normalized"
    INCOMPLETE = "incomplete"
    PARACONSISTENT = "paraconsistent"


def _number(v) -> float:
    """A mass read by :func:`errors.real`; too large an int is an infinity."""
    x = real(v)
    if x is None:
        raise SchemaError("/masses", f"mass must be a number, got {v!r}")
    if math.isnan(x):
        raise SchemaError("/masses", "mass is NaN")
    return x


def _check_value(v):
    """Validate one mass value, returning either a float or a (lo, hi) pair."""
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise SchemaError("/masses", f"interval must have 2 endpoints, got {v!r}")
        lo, hi = _number(v[0]), _number(v[1])
        if lo > hi:
            raise NegativeMass(f"interval [{lo}, {hi}] is reversed")
        if lo < 0:
            raise NegativeMass(f"mass lower bound {lo} below 0")
        if hi > 1:
            raise MassAboveOne(f"mass upper bound {hi} above 1")
        return (lo, hi)
    v = _number(v)
    if v < 0:
        raise NegativeMass(f"mass {v} below 0")
    if v > 1:
        raise MassAboveOne(f"mass {v} above 1")
    return v


def _add(a, b):
    a_iv, b_iv = isinstance(a, tuple), isinstance(b, tuple)
    if not a_iv and not b_iv:
        return a + b
    alo, ahi = a if a_iv else (a, a)
    blo, bhi = b if b_iv else (b, b)
    return (alo + blo, ahi + bhi)


@dataclass(frozen=True)
class Bba:
    """Immutable mass function keyed by canonical sets.

    Entries with exactly zero mass are dropped; ``mass`` returns 0.0 for
    any set not stored.  Construct through :func:`make_bba` or the JSON
    helpers so validation and canonical merging always run.
    """

    frame: Frame
    entries: tuple  # ((bits, value), ...) sorted by bits

    @classmethod
    def _from_masses(cls, frame: Frame, masses: dict) -> "Bba":
        items = tuple(
            (bits, v) for bits, v in sorted(masses.items()) if v != 0.0 and v != (0.0, 0.0)
        )
        return cls(frame, items)

    def mass(self, key) -> "float | tuple[float, float]":
        """Mass of a set given by any key :meth:`Frame.atoms_of` reads: text,
        an AtomSet of this frame, or a bitmask inside the frame's universe."""
        bits = self.frame.atoms_of(key).bits
        for b, v in self.entries:
            if b == bits:
                return v
        return 0.0

    def items(self):
        for bits, v in self.entries:
            yield AtomSet(self.frame, bits), v

    @property
    def focal_sets(self) -> tuple[AtomSet, ...]:
        return tuple(AtomSet(self.frame, b) for b, _ in self.entries)

    @property
    def is_crisp(self) -> bool:
        return all(not isinstance(v, tuple) for _, v in self.entries)

    def crisp_items(self):
        if not self.is_crisp:
            raise IntervalNotSupported("operation requires crisp masses")
        return [(b, v) for b, v in self.entries]

    def total(self) -> float:
        if not self.is_crisp:
            raise IntervalNotSupported("use total_bounds for interval masses")
        return math.fsum(v for _, v in self.entries)

    def total_bounds(self) -> tuple[float, float]:
        lo = math.fsum(v[0] if isinstance(v, tuple) else v for _, v in self.entries)
        hi = math.fsum(v[1] if isinstance(v, tuple) else v for _, v in self.entries)
        return lo, hi

    def to_dict(self) -> dict:
        return {self.frame.name_of(b): v for b, v in self.entries}

    def to_json(self) -> dict:
        masses = {}
        for bits, v in self.entries:
            masses[self.frame.name_of(bits)] = list(v) if isinstance(v, tuple) else v
        return {
            "frame": list(self.frame.labels),
            "world": self.frame.world.value,
            "masses": masses,
        }

    def __repr__(self):
        body = ", ".join(f"{self.frame.name_of(b)}: {v}" for b, v in self.entries)
        return f"Bba({{{body}}})"


def make_bba(frame: Frame, assignments) -> Bba:
    """Build a bba from (set expression, mass) pairs or a mapping.

    Duplicate expressions that canonicalize to the same set are merged
    by summation.  Values may be floats or (lo, hi) interval pairs.
    """
    if hasattr(assignments, "items"):
        assignments = assignments.items()
    masses: dict = {}
    try:
        for expr, value in assignments:
            bits = frame.atoms_of(expr).bits
            v = _check_value(value)
            if bits in masses:
                v = _check_value(_add(masses[bits], v))
            masses[bits] = v
    except InputError:
        raise
    except (TypeError, ValueError):  # an entry that is not a pair, or no iterable
        raise InputError("assignments must be (expression, mass) pairs") from None
    return Bba._from_masses(frame, masses)


def _is_strings(node) -> bool:
    return isinstance(node, list) and all(isinstance(x, str) for x in node)


def from_json(doc: dict) -> Bba:
    """Inverse of :meth:`Bba.to_json`."""
    try:
        labels = doc["frame"]
        world = doc.get("world", "closed")
        masses = doc["masses"]
    except (KeyError, TypeError) as exc:
        raise SchemaError("/", f"missing field {exc}") from None
    world = enum_member(World, world, "world", "/world")
    if not _is_strings(labels):
        raise SchemaError("/frame", "frame must be a list of labels")
    if not isinstance(masses, dict):
        raise SchemaError("/masses", "masses must be an object")
    frame = Frame(tuple(labels), world)
    return make_bba(frame, masses.items())


def classify(b: Bba, tol: float = CLASSIFY_TOL) -> NormClass:
    """Normalization class of a bba.

    Interval bbas are normalized when some in-interval selection of
    point masses sums to one, incomplete when even the upper endpoints
    cannot reach one, and paraconsistent when even the lower endpoints
    exceed one.
    """
    lo, hi = b.total_bounds()
    if hi < 1 - tol:
        return NormClass.INCOMPLETE
    if lo > 1 + tol:
        return NormClass.PARACONSISTENT
    return NormClass.NORMALIZED


def normalize(b: Bba) -> Bba:
    """Scale a crisp bba so it sums to one."""
    total = b.total()
    if total <= 0:
        raise ZeroTotalMass("cannot normalize a bba with zero total mass")
    return Bba._from_masses(b.frame, {bits: v / total for bits, v in b.entries})


def discount(b: Bba, alpha: float) -> Bba:
    """Source reliability discounting.

    Every focal mass is scaled by ``alpha`` and the removed mass is
    poured onto total ignorance, so the total is preserved.  ``alpha``
    of 1 is the identity; 0 yields the vacuous bba.  It is read by :func:`errors.real`.
    """
    a = real(alpha)
    if a is None or not 0 <= a <= 1:
        raise AlphaOutOfRange(f"discount factor {alpha!r} outside [0, 1]")
    total = b.total()  # crisp only
    out = {bits: v * a for bits, v in b.entries}
    full = b.frame.universe_bits
    out[full] = out.get(full, 0.0) + (1 - a) * total
    return Bba._from_masses(b.frame, out)


def vacuous(frame: Frame) -> Bba:
    """Total ignorance: all mass on the union of every hypothesis."""
    return Bba._from_masses(frame, {frame.universe_bits: 1.0})


def conjunctive_intervals(m1: Bba, m2: Bba) -> Bba:
    """Conjunctive combination of interval bbas by endpoint products.

    Free-model only: every product lands on the plain intersection.
    Crisp entries are treated as degenerate intervals.  Each endpoint
    pools the sources' crisp bbas of that endpoint on the engine.
    """
    from .rules import _AND, _NEVER, _PRODUCT, _check_sources, _pool  # rules imports mass

    frame = _check_sources((m1, m2))

    def endpoints(m: Bba, end: int) -> Bba:
        return Bba._from_masses(frame, {b: v[end] if isinstance(v, tuple) else v
                                        for b, v in m.entries})

    lo, hi = (_pool([endpoints(m1, end), endpoints(m2, end)], _AND, _NEVER, _PRODUCT)[0]
              for end in (0, 1))
    ends = ((bits, lo.get(bits, 0.0), v) for bits, v in hi.items())
    return Bba._from_masses(frame, {bits: a if a == b else (a, b) for bits, a, b in ends})
