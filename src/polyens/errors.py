"""Exception types raised by polyens, and the one rule for integer arguments.

Every failure that callers may want to distinguish gets its own class; all
inherit from PolyensError so the CLI can map them to a single exit code.
Every count, order, index and seed an entry point reads goes through _integer.
"""

import operator

import numpy as np


class PolyensError(Exception):
    """Base class for all polyens errors."""


class EvaluationError(PolyensError):
    """A function or kernel could not be evaluated (non-finite value,
    unsupported point, or no evaluable representation)."""


class InvalidIntervalError(PolyensError):
    """An interval was empty or reversed (alpha >= beta)."""


class DegenerateDensityError(PolyensError):
    """A density vanished identically where a draw was requested."""


class NegativityError(PolyensError):
    """A density was negative beyond the clamping tolerance."""


class PositivityViolationError(PolyensError):
    """A kernel minor or joint density was negative beyond tolerance,
    e.g. an invalid tilt."""


class CoefficientRangeError(PolyensError):
    """A recurrence coefficient outside the stored pad range was needed.
    Tables never extrapolate."""


class RankError(PolyensError):
    """A discrete measure has too few distinct atoms for the requested
    number of orthonormal polynomials."""


class OrthogonalityError(PolyensError):
    """Orthonormality drifted beyond tolerance during orthogonalization."""


class NumericalBreakdownError(PolyensError):
    """A factorization or eigensolve degenerated (zero pivot, failed
    convergence, inconsistent cross-check)."""


class ConfigError(PolyensError):
    """A JSON config failed schema validation."""


def _integer(n, what, least=None, hint=""):
    """n as a Python int, for an integer of Python or numpy that is >= least
    (when given). A bool, a float or a string is a ValueError naming `what`,
    never truncated, and so is a value below least."""
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        shown = n.item() if isinstance(n, np.generic) else n
        raise ValueError(f"{what} {shown!r} is not an integer{hint}") from None
    if least is not None and n < least:
        raise ValueError(f"{what} must be >= {least}, got {n}")
    return n
