"""Two-point ratio, three-point ratio and four-point cross-ratio.

These operate on line coordinates (scalars of the active backend).  The
factor order of each formula is load-bearing over a non-commutative
field and is never rearranged:

    ratio2(A, B)            = B^-1 * A
    ratio3(A, B, C)         = (B - C)^-1 * (A - C)
    cross_ratio(A, B, C, D) = [(A - D)^-1 * (B - D)] * [(B - C)^-1 * (A - C)]

The cross-ratio precondition is exactly that the two inverted
differences are nonzero (A != D and B != C), not the stricter classical
condition that no three of the four points coincide.

The cross-ratio is unchanged by a left-affine map t -> m t + c of the
coordinates, and conjugated to m^-1 cr m by a right-affine t -> t m + c,
the kind a change of frame makes: reading the line in the frame whose O
and I sit at t0 and t1 conjugates it by t1 - t0, so over the quaternions
only its real part and norm are frame-free.
"""

from __future__ import annotations

from .errors import (
    CoincidentPointsError,
    SingularCrossRatioError,
    ZeroDenominatorPointError,
)
from .scalars import SkewScalar


def ratio2(a: SkewScalar, b: SkewScalar) -> SkewScalar:
    """The ratio point B^-1 * A; B must differ from the zero point."""
    if b.is_zero():
        raise ZeroDenominatorPointError("ratio2 needs B distinct from the zero point")
    return b.inverse() * a


def ratio3(a: SkewScalar, b: SkewScalar, c: SkewScalar) -> SkewScalar:
    """The unique R with (B - C) * R = A - C, i.e. (B - C)^-1 * (A - C)."""
    if b == c:
        raise CoincidentPointsError("ratio3 needs B distinct from C")
    return (b - c).inverse() * (a - c)


def cross_ratio(a: SkewScalar, b: SkewScalar, c: SkewScalar,
                d: SkewScalar) -> SkewScalar:
    """The cross-ratio point [(A-D)^-1 (B-D)] * [(B-C)^-1 (A-C)]."""
    if a == d:
        raise SingularCrossRatioError("A-D", a)
    if b == c:
        raise SingularCrossRatioError("B-C", b)
    return (a - d).inverse() * (b - d) * ((b - c).inverse() * (a - c))
