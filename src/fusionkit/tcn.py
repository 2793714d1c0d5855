"""Fuzzy-valued combination rules and the configurable master rule.

The classical rules weight every pair of focal sets by the *product* of
the two masses.  The rules in this module replace that product with a
T-norm (and, where a renormalising denominator is needed, the dual
T-conorm), each written once in a table per family that serves floats
and float64 columns alike.  Because T-norms other than the product are
not bilinear, the raw outputs generally do not sum to one; each rule
documents how it deals with that.

:func:`ufr_combine` is the master formula the fixed rules are special
cases of: pick a set operation for the results, a combiner for the pair
values, a predicate marking which results may not keep mass, and a
routing policy (with per-side weights) for the marked mass.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce

import numpy as np

from .algebra import EmptinessModel
from .errors import (
    DegenerateWeights,
    InputError,
    SchemaError,
    TotalConflict,
    ZeroDenominator,
    ZeroTotalMass,
    enum_member,
)
from .mass import Bba
from .rules import _AND, _NEVER, _OR, _TOTAL_CONFLICT_TOL, _marks_listed, _rule


class TNorm(Enum):
    MIN = "min"
    PRODUCT = "product"
    BOUNDED = "bounded"


class TConorm(Enum):
    MAX = "max"
    PROB_SUM = "prob_sum"
    BOUNDED_SUM = "bounded_sum"


#: Each T-norm with the T-conorm it is dual to under x -> 1-x.
DUAL_CONORM = {
    TNorm.MIN: TConorm.MAX,
    TNorm.PRODUCT: TConorm.PROB_SUM,
    TNorm.BOUNDED: TConorm.BOUNDED_SUM,
}


def _lookup(table: dict, key, what: str):
    """``table[key]`` for a member key; anything else, its value included,
    raises ``InputError("unknown <what> <key>")``."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise InputError(f"unknown {what} {key!r}") from None


#: Each T-norm and T-conorm on floats or float64 columns.  MIN and MAX
#: swap their operands because on a tie NumPy returns the second and
#: Python the first: ``tnorm(MIN, 0.0, -0.0)`` is ``min``'s ``0.0``.
_TNORMS = {
    TNorm.MIN: lambda a, b: np.minimum(b, a),
    TNorm.PRODUCT: operator.mul,
    TNorm.BOUNDED: lambda a, b: np.maximum(a + b - 1.0, 0.0),
}
_TCONORMS = {
    TConorm.MAX: lambda a, b: np.maximum(b, a),
    TConorm.PROB_SUM: lambda a, b: a + b - a * b,
    TConorm.BOUNDED_SUM: lambda a, b: np.minimum(a + b, 1.0),
}


def tnorm(kind: TNorm, a: float, b: float) -> float:
    return float(_lookup(_TNORMS, kind, "T-norm")(a, b))


def tconorm(kind: TConorm, a: float, b: float) -> float:
    return float(_lookup(_TCONORMS, kind, "T-conorm")(a, b))


def _valuation(norm: TNorm):
    """Term valuation for the engine: the T-norm folded over the mass
    columns."""
    return partial(reduce, _lookup(_TNORMS, norm, "T-norm"))


def tcn_conjunctive(m1: Bba, m2: Bba, *, norm: TNorm = TNorm.MIN,
                    model: EmptinessModel | None = None):
    """Conjunctive rule with T-norm-valued terms.

    Returns the (generally unnormalised) combined assignment plus the
    ledger of terms whose intersection the model forces empty.
    """
    return _rule((m1, m2), model, value=_valuation(norm))


_VARIANTS = {"dempster": "discard", "yager": "ignorance", "smets": "empty"}

_DEMPSTER_RESCALE = (_TOTAL_CONFLICT_TOL,
                     lambda _: TotalConflict("all combined mass fell on empty sets"))


def tn_family(m1: Bba, m2: Bba, *, norm: TNorm = TNorm.MIN,
              variant: str = "dempster",
              model: EmptinessModel | None = None) -> Bba:
    """Dempster/Yager/open-world analogues on T-norm-valued terms.

    ``dempster`` rescales the surviving sets by their own total,
    ``yager`` hands the conflict to total ignorance, ``smets`` leaves it
    on the empty set.  Only ``dempster`` returns a normalised result.
    """
    how = _lookup(_VARIANTS, variant, "variant")
    rescale = _DEMPSTER_RESCALE if variant == "dempster" else None
    return _rule((m1, m2), model, how, value=_valuation(norm), rescale=rescale)[0]


def _unit_total(normalize: bool = True):
    """Final rescale of the T-norm rules and the master formula."""
    return (0.0, lambda _: ZeroTotalMass("nothing to rescale")) if normalize else None


def tcn_pcr5_original(m1: Bba, m2: Bba, *, norm: TNorm = TNorm.MIN,
                      conorm: TConorm | None = None,
                      model: EmptinessModel | None = None) -> Bba:
    """Proportional conflict transfer where each side of a conflicting
    pair gets its mass times T-norm over T-conorm of the pair, then the
    whole assignment is rescaled to sum to one."""
    return _rule(
        (m1, m2), model, "ratio", value=_valuation(norm),
        conorm=_lookup(_TCONORMS, conorm or _lookup(DUAL_CONORM, norm, "T-norm"),
                       "T-conorm"),
        rescale=_unit_total(),
        on_zero=ZeroDenominator("conflicting pair with zero T-conorm value"))[0]


def pcr5v2_tn(m1: Bba, m2: Bba, *, norm: TNorm = TNorm.MIN,
              model: EmptinessModel | None = None,
              normalize: bool = False) -> Bba:
    """Conflict transfer that splits each conflicting pair's T-norm
    value between the two sides proportionally to their masses.

    The split of value ``v`` carried by the pair (X, Y) is
    ``m1(X) v / (m1(X)+m2(Y))`` to X and the remainder to Y, so the two
    shares sum to ``v`` within one ulp.  Pass ``normalize=True`` to
    rescale the result by its own total at the end.
    """
    return _rule((m1, m2), model, "split", value=_valuation(norm),
                 rescale=_unit_total(normalize))[0]


# --- master formula ----------------------------------------------------------


class StarOp(Enum):
    CONJUNCTIVE = "conjunctive"
    DISJUNCTIVE = "disjunctive"


class TransferPolicy(Enum):
    #: Split the marked value back onto the pair, per side weights.
    PAIR_PROPORTIONAL = "pair_proportional"
    #: Drop the marked value (combine with normalize=True for the
    #: classical normalised rule).
    DISCARD = "discard"
    #: Send the marked value to the union of the pair.
    UNION = "union"
    #: Send the marked value to total ignorance.
    IGNORANCE = "ignorance"


@dataclass(frozen=True)
class UfrConfig:
    """Parameters of the master combination formula.

    ``combiner`` values every pair of focal sets, ``star`` maps the pair
    to a result set, ``transferable`` marks results that may not keep
    mass, and ``transfer`` says where that mass goes instead.  Weights
    apply per side under ``pair_proportional``: either the literal
    string ``"source_mass"`` or ``"constant:K"`` for a fixed K.
    """

    star: StarOp = StarOp.CONJUNCTIVE
    combiner: TNorm = TNorm.PRODUCT
    transferable: str | tuple = "model_empty"
    transfer: TransferPolicy = TransferPolicy.PAIR_PROPORTIONAL
    weight_1: str = "source_mass"
    weight_2: str = "source_mass"
    normalize: bool = False

    @classmethod
    def from_json(cls, doc: dict) -> "UfrConfig":
        if not isinstance(doc, dict):
            raise SchemaError("/", "config must be an object")
        star = enum_member(StarOp, doc.get("star", "conjunctive"), "star", "/star")
        combiner = enum_member(TNorm, doc.get("combiner", "product"), "combiner", "/combiner")
        transfer = enum_member(TransferPolicy, doc.get("transfer", "pair_proportional"),
                               "transfer", "/transfer")
        transferable = doc.get("transferable", "model_empty")
        if isinstance(transferable, list):
            if not all(isinstance(e, str) for e in transferable):
                raise SchemaError("/transferable", "transferable sets must be set expressions")
            transferable = tuple(transferable)
        weights = {key: doc.get(key, "source_mass") for key in ("weight_1", "weight_2")}
        for key, spec in weights.items():
            if not isinstance(spec, str):
                raise SchemaError(f"/{key}", f"weight spec must be a string, got {spec!r}")
        if not isinstance(doc.get("normalize", False), bool):
            raise SchemaError("/normalize", "normalize must be true or false")
        return cls(star=star, combiner=combiner, transferable=transferable, transfer=transfer,
                   normalize=doc.get("normalize", False), **weights)


def _weight(spec: str) -> float | None:
    """The constant of a weight spec, or None for the operand's source mass."""
    if not isinstance(spec, str):
        raise InputError(f"weight spec must be a string, got {spec!r}")
    if spec == "source_mass":
        return None
    if spec.startswith("constant:"):
        try:
            k = float(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad weight constant in {spec!r}") from None
        if not (math.isfinite(k) and k >= 0):
            raise InputError(f"weight constant must be finite and >= 0 in {spec!r}")
        return k
    raise InputError(f"unknown weight spec {spec!r}")


#: Disposal of the marked mass for each transfer policy.
_TRANSFERS = {
    TransferPolicy.PAIR_PROPORTIONAL: "split",
    TransferPolicy.DISCARD: "discard",
    TransferPolicy.UNION: "union",
    TransferPolicy.IGNORANCE: "ignorance",
}

#: Set operation of each star.
_STARS = {StarOp.CONJUNCTIVE: _AND, StarOp.DISJUNCTIVE: _OR}


def ufr_combine(m1: Bba, m2: Bba, config: UfrConfig,
                model: EmptinessModel | None = None) -> Bba:
    """Evaluate the master combination formula.

    With the product combiner, conjunctive star, ``"model_empty"``
    marking and source-mass weights, each transfer policy is a classical
    rule run on the same engine, and equals it to rounding:
    ``PAIR_PROPORTIONAL`` is PCR5, ``DISCARD`` with ``normalize=True`` is
    Dempster (without it, the conjunctive rule's kept mass), ``UNION``
    is Dubois-Prade / DSm hybrid, and ``IGNORANCE`` is Yager.
    """
    if isinstance(config.transferable, tuple):
        if not all(isinstance(e, str) for e in config.transferable):
            raise InputError("transferable sets must be set expressions")
        marked = _marks_listed([m1.frame.atoms_of(e).bits for e in config.transferable])
    elif config.transferable == "model_empty":
        marked = None
    elif config.transferable == "never":
        marked = _NEVER
    else:
        raise InputError(f"unknown transferable spec {config.transferable!r}")

    return _rule(
        (m1, m2), model, _lookup(_TRANSFERS, config.transfer, "transfer"),
        star=_lookup(_STARS, config.star, "star"),
        marked=marked, value=_valuation(config.combiner),
        weights=(_weight(config.weight_1), _weight(config.weight_2)),
        rescale=_unit_total(config.normalize),
        on_zero=DegenerateWeights("marked value with zero total routing weight"))[0]
