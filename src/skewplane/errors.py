"""Exception hierarchy shared by every skewplane module.

Degenerate inputs are distinct, named errors rather than silent results:
the geometric constructions assume genericity, and a violated assumption
must surface with the offending values attached.
"""


class SkewPlaneError(Exception):
    """Base class for all errors raised by this package."""


class BackendMismatchError(SkewPlaneError):
    """Two scalars from different field backends met in one operation."""


class ZeroInverseError(SkewPlaneError):
    """Multiplicative inverse of the zero element was requested."""


class CoincidentPointsError(SkewPlaneError):
    """An operation needed two distinct points but got equal ones."""


class ParallelLinesError(SkewPlaneError):
    """Intersection of two parallel (disjoint) lines was requested."""


class IdenticalLinesError(SkewPlaneError):
    """Intersection of a line with itself was requested."""


class PointOffBaseLineError(SkewPlaneError):
    """A point that must lie on the distinguished line does not."""


class AuxOnBaseLineError(SkewPlaneError):
    """The auxiliary construction point must lie off the base line."""


class DegenerateConstructionError(SkewPlaneError):
    """An intermediate step of a geometric construction degenerated."""


class InvalidConfigurationError(SkewPlaneError):
    """A Desargues configuration violates the axiom's hypotheses."""


class ZeroDenominatorPointError(SkewPlaneError):
    """The two-point ratio r(A:B) needs B distinct from the zero point."""


class SingularCrossRatioError(SkewPlaneError):
    """A cross-ratio was requested with a vanishing inverted difference.

    ``which`` names the offending difference, either ``"A-D"`` or ``"B-C"``.
    """

    def __init__(self, which, value=None):
        self.which = which
        self.value = value
        detail = f" (both points equal {value})" if value is not None else ""
        super().__init__(f"cross-ratio difference {which} vanishes{detail}")


class InvalidBaseError(SkewPlaneError):
    """Cross-ratio map base points must be pairwise distinct and nonzero."""


class SingularArgumentError(SkewPlaneError):
    """A cross-ratio map was evaluated at its forbidden (singular) point."""

    def __init__(self, family, point):
        self.family = family
        self.point = point
        super().__init__(
            f"family {family} map is undefined at its singular point {point}"
        )


class ZeroValueNotInvertibleError(SkewPlaneError):
    """inverse_value was requested where the map takes the zero value."""


class UnsupportedBackendError(SkewPlaneError):
    """The operation (e.g. SVG drawing) supports the rational backend only."""


class ExpressionSyntaxError(SkewPlaneError):
    """An expression or literal failed to parse.

    ``position`` is the 0-based character offset of the failure.
    """

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} at offset {position}")
