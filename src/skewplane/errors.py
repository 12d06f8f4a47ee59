"""Exception hierarchy shared by every skewplane module.

Degenerate inputs are distinct, named errors rather than silent results:
the geometric constructions assume genericity, and a violated assumption
must surface with the offending values attached.

Every concrete error derives from exactly one of two bases, and the base
alone decides how the CLI ends: a :class:`UsageError` is a malformed
request (exit 2), a :class:`DegenerateInputError` is well-formed input
on which the mathematics is undefined (exit 3).  An exception outside
this hierarchy is a bug.
"""


class SkewPlaneError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(SkewPlaneError):
    """A malformed request: bad grammar, backend or output (CLI exit 2)."""


class DegenerateInputError(SkewPlaneError):
    """Singular or degenerate mathematical input (CLI exit 3)."""


class BackendMismatchError(UsageError):
    """Two scalars from different field backends met in one operation."""


class ZeroInverseError(DegenerateInputError):
    """Multiplicative inverse of the zero element was requested."""


class CoincidentPointsError(DegenerateInputError):
    """An operation needed two distinct points but got equal ones."""


class ParallelLinesError(DegenerateInputError):
    """Intersection of two parallel (disjoint) lines was requested."""


class IdenticalLinesError(DegenerateInputError):
    """Intersection of a line with itself was requested."""


class PointOffBaseLineError(DegenerateInputError):
    """A point that must lie on the distinguished line does not."""


class AuxOnBaseLineError(DegenerateInputError):
    """The auxiliary construction point must lie off the base line."""


class InvalidConfigurationError(DegenerateInputError):
    """A Desargues configuration violates the axiom's hypotheses."""


class ZeroDenominatorPointError(DegenerateInputError):
    """The two-point ratio r(A:B) needs B distinct from the zero point."""


class SingularCrossRatioError(DegenerateInputError):
    """A cross-ratio was requested with a vanishing inverted difference.

    ``which`` names the offending difference, either ``"A-D"`` or ``"B-C"``.
    """

    def __init__(self, which, value=None):
        self.which = which
        self.value = value
        detail = f" (both points equal {value})" if value is not None else ""
        super().__init__(f"cross-ratio difference {which} vanishes{detail}")


class InvalidBaseError(DegenerateInputError):
    """Cross-ratio map base points must be pairwise distinct and nonzero."""


class SingularArgumentError(DegenerateInputError):
    """A cross-ratio map was evaluated at its forbidden (singular) point."""

    def __init__(self, family, point):
        self.family = family
        self.point = point
        super().__init__(
            f"family {family} map is undefined at its singular point {point}"
        )


class ZeroValueNotInvertibleError(DegenerateInputError):
    """inverse_value was requested where the map takes the zero value."""


class UnsupportedBackendError(UsageError):
    """The operation (e.g. SVG drawing) supports the rational backend only."""


class ExpressionSyntaxError(UsageError):
    """An expression or literal failed to parse.

    ``position`` is the 0-based character offset of the failure and
    ``message`` the text before the offset.
    """

    def __init__(self, message, position):
        self.message = message
        self.position = position
        super().__init__(f"{message} at offset {position}")
