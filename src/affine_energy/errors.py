"""Error types raised across the package.

Every error about input or configuration subclasses ValueError so callers
that do not care about the specific failure can catch one base class.
InvariantViolation is the exception: it reports a broken internal invariant,
not bad input, and stays raised under `python -O`.
"""


class ZeroInverse(ValueError):
    """Multiplicative inverse of zero requested."""


class ParseError(ValueError):
    """Malformed scalar / set / instance text."""


class ZeroDenominator(ValueError):
    """Literal denominator is the integer zero."""


class NotInField(ValueError):
    """Literal denominator vanishes in the target prime field."""


class SlopeZero(ValueError):
    """Affine map with slope 0 (not a group element)."""


class OracleCapExceeded(ValueError):
    """Brute-force oracle asked to run above its configured cap."""


class ZeroC(ValueError):
    """Slice parameter C must be nonzero."""


class TooFewPoints(ValueError):
    """At least two points are needed to span lines."""


class TooFewLines(ValueError):
    """At least two lines are needed for a pencil."""


class LineMeetsP(ValueError):
    """Shadow line passes through a point of the set."""


class EqualLines(ValueError):
    """Two-line normalization needs two distinct lines."""


class PointOnYAxis(ValueError):
    """Planar set for quadrangle counting must avoid the y-axis."""


class InvalidSpec(ValueError):
    """Generator specification violates its invariants."""


class CannotFill(ValueError):
    """Field too small to hold the requested number of distinct elements."""


class InvariantViolation(Exception):
    """A computed quantity broke an identity or inequality the code relies on."""
