"""Exception hierarchy shared by all fusionkit modules.

Two branches matter to callers: :class:`InputError` (bad labels, masses,
parameters, schemas -- CLI exit code 1) and :class:`ComputationError`
(well-formed input on which the requested operation is undefined -- CLI
exit code 2).  :func:`real` is the one reader of a number from outside
the library; each boundary keeps its own message and range check.
"""

import math
import numbers


class FusionKitError(Exception):
    """Base class for every error raised by fusionkit."""


class InputError(FusionKitError, ValueError):
    """Invalid input: labels, masses, parameters, file contents."""


class ComputationError(FusionKitError, ArithmeticError):
    """Operation undefined for the given (valid) input."""


# --- frame / set algebra ---------------------------------------------------

class DuplicateLabel(InputError):
    pass


class TooFewHypotheses(InputError):
    pass


class TooManyHypotheses(InputError):
    """Frame size is capped so atom bitmasks fit in a machine word."""


class UnknownLabel(InputError):
    pass


class FrameMismatch(InputError):
    """Operands belong to different frames."""


class ExprSyntaxError(InputError):
    """Set expression failed to parse."""


# --- mass functions --------------------------------------------------------

class NegativeMass(InputError):
    pass


class MassAboveOne(InputError):
    pass


class ZeroTotalMass(ComputationError):
    pass


class IntervalNotSupported(InputError):
    """Operation requires crisp masses."""


class AlphaOutOfRange(InputError):
    pass


# --- combination rules -----------------------------------------------------

class TotalConflict(ComputationError):
    """Dempster normalization impossible: all mass is conflicting."""


class BadGrouping(InputError):
    """Mixed-rule grouping tree malformed or source indices wrong."""


class NoOtherHypotheses(ComputationError):
    """No hypothesis outside the conflicting pair to receive the mass."""


class ZeroDenominator(ComputationError):
    pass


class DegenerateWeights(ComputationError):
    """Both proportionality weights vanish for a transfer pair."""


class ZeroNorm(ComputationError):
    """Triple with zero component sum cannot be rescaled."""


class OutOfRange(InputError):
    """Scalar argument outside [0, 1]."""


class LengthMismatch(InputError):
    pass


# --- images ----------------------------------------------------------------

class BadMagic(InputError):
    pass


class BadDimensions(InputError):
    pass


class TruncatedData(InputError):
    pass


class BadWindow(InputError):
    pass


class BadParams(InputError):
    pass


class DegenerateHistogram(ComputationError):
    """Image has too few distinct intensities to fit thresholds."""


# --- CLI -------------------------------------------------------------------

class UsageError(InputError):
    pass


class SchemaError(InputError):
    """Scenario JSON invalid; ``pointer`` locates the offending node."""

    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def enum_member(kind, value, what: str, pointer: str | None = None):
    """``kind(value)`` for a member or its value; anything else raises
    ``InputError("unknown <what> <value>")``, a :class:`SchemaError` at
    ``pointer`` when one is given."""
    try:
        return kind(value)
    except ValueError:
        message = f"unknown {what} {value!r}"
        raise (InputError(message) if pointer is None
               else SchemaError(pointer, message)) from None


def real(value) -> float | None:
    """``value`` as a float if it is a :class:`numbers.Real` but not a bool,
    else None; an int too large for a float is the infinity of its sign.
    Floats and ints are tested first: the ABC check alone is slower."""
    if type(value) in (float, int) or (isinstance(value, numbers.Real)
                                       and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    return None
