"""Coordinate model of the affine plane over the active skew field.

Points are coordinate pairs; lines are parametric: a base point plus a
normalized direction, with the scalar parameter acting on the LEFT,

    points of the line = { base + t * direction : t in the field }.

Left action is one of the two legal conventions over a skew field; fixing
it here fixes it for every other module.  Directions are normalized by
left-multiplying with the inverse of the leading nonzero coordinate (so
dx = 1, or dx = 0 and dy = 1), which turns parallelism into a plain
equality test instead of a proportionality search in a non-commutative
ring.  Lines additionally re-anchor their base point to a canonical
representative, so structural equality of PlaneLine values coincides with
geometric equality of the lines.

Intersections are closed forms on those canonical lines (see
``intersect``); each intersection point is re-checked against both lines
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import CoincidentPointsError, IdenticalLinesError, ParallelLinesError
from .scalars import Immutable, SkewScalar, ensure_same_backend

Direction = Tuple[SkewScalar, SkewScalar]


@dataclass(frozen=True)
class PlanePoint:
    """A point of the plane; both coordinates from the same backend."""

    x: SkewScalar
    y: SkewScalar

    def __post_init__(self):
        ensure_same_backend(self.x, self.y)

    def displacement_to(self, other: "PlanePoint") -> Direction:
        """The direction vector other - self."""
        return (other.x - self.x, other.y - self.y)

    def translate(self, direction: Direction) -> "PlanePoint":
        return PlanePoint(self.x + direction[0], self.y + direction[1])

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def scale_direction(t: SkewScalar, direction: Direction) -> Direction:
    """Left scalar action on a direction vector: t * (dx, dy)."""
    return (t * direction[0], t * direction[1])


class PlaneLine(Immutable):
    """A line in parametric form with canonical direction and anchor.

    The normalized direction is either (1, m) or (0, 1).  The anchor is
    the unique point of the line with x = 0 (when the line is not
    vertical) or with y = 0 (vertical lines), so two PlaneLine values
    compare equal exactly when they denote the same set of points.
    """

    __slots__ = ("base", "direction")

    def __init__(self, base: PlanePoint, direction: Direction):
        dx, dy = direction
        ensure_same_backend(base.x, base.y, dx, dy)
        if dx.is_zero() and dy.is_zero():
            raise ValueError("line direction must be nonzero")
        if not dx.is_zero():
            inv = dx.inverse()
            norm_dir = (inv * dx, inv * dy)  # (1, dx^-1 * dy)
            # anchor at x = 0: parameter t = -base.x
            t = -base.x
            anchor = PlanePoint(base.x + t * norm_dir[0], base.y + t * norm_dir[1])
        else:
            inv = dy.inverse()
            norm_dir = (dx - dx, inv * dy)  # (0, 1)
            anchor = PlanePoint(base.x, base.y - base.y)
        object.__setattr__(self, "base", anchor)
        object.__setattr__(self, "direction", norm_dir)

    def point_at(self, t: SkewScalar) -> PlanePoint:
        """The point base + t * direction."""
        return PlanePoint(self.base.x + t * self.direction[0],
                          self.base.y + t * self.direction[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneLine):
            return NotImplemented
        return self.base == other.base and self.direction == other.direction

    def __hash__(self):
        return hash((self.base, self.direction))

    def __str__(self) -> str:
        return f"{{base={self.base}, dir=({self.direction[0]},{self.direction[1]})}}"

    def __repr__(self) -> str:
        return f"PlaneLine(base={self.base!r}, direction={self.direction!r})"


def line_through(p: PlanePoint, q: PlanePoint) -> PlaneLine:
    """The unique line containing the two distinct points p and q."""
    if p == q:
        raise CoincidentPointsError(f"no unique line through coincident point {p}")
    return PlaneLine(p, p.displacement_to(q))


def parallel_through(p: PlanePoint, line: PlaneLine) -> PlaneLine:
    """The unique line through p with line's direction (line itself if p is on it)."""
    return PlaneLine(p, line.direction)


def is_parallel(l1: PlaneLine, l2: PlaneLine) -> bool:
    """True iff normalized directions agree; every line is parallel to itself."""
    return l1.direction == l2.direction


def on_line(p: PlanePoint, line: PlaneLine) -> bool:
    """True iff base + t * direction = p is solvable for t."""
    dx, dy = line.direction
    if not dx.is_zero():  # dx == 1
        t = p.x - line.base.x
        return line.base.y + t * dy == p.y
    return p.x == line.base.x


def collinear(p: PlanePoint, q: PlanePoint, r: PlanePoint) -> bool:
    """True iff the three points admit a common line (coincidences count)."""
    if p == q or p == r or q == r:
        return True
    return on_line(r, line_through(p, q))


def intersect(l1: PlaneLine, l2: PlaneLine) -> PlanePoint:
    """The unique common point of two distinct non-parallel lines.

    A vertical line x = c meets the other line at that line's point
    with parameter c.  Otherwise b1 + x*m1 = b2 + x*m2 gives
    x = (b2 - b1) * (m1 - m2)^-1: the parameter acts on the left, so the
    inverse divides on the right.
    """
    if l1 == l2:
        raise IdenticalLinesError(f"line {l1} intersected with itself")
    if is_parallel(l1, l2):
        raise ParallelLinesError(f"{l1} and {l2} are parallel and disjoint")
    if l1.direction[0].is_zero():
        point = l2.point_at(l1.base.x)
    elif l2.direction[0].is_zero():
        point = l1.point_at(l2.base.x)
    else:
        x = (l2.base.y - l1.base.y) * (l1.direction[1] - l2.direction[1]).inverse()
        point = l1.point_at(x)
    if not (on_line(point, l1) and on_line(point, l2)):  # pragma: no cover
        raise AssertionError("intersection point failed containment check")
    return point
