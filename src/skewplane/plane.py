"""Coordinate model of the affine plane over the active skew field.

Points are coordinate pairs; lines are parametric: a base point plus a
normalized direction, with the scalar parameter acting on the LEFT,

    points of the line = { base + t * direction : t in the field }.

Left action is one of the two legal conventions over a skew field; fixing
it here fixes it for every other module.  Every line is stored in closed
canonical form: a non-vertical line is y = b + x*m, with direction (1, m)
for the left slope m = dx^-1 * dy and anchor (0, b), b = base.y - base.x*m;
a vertical line x = c has direction (0, 1) and anchor (c, 0).  So
parallelism is a plain equality of directions instead of a
proportionality search in a non-commutative ring, and structural equality
of PlaneLine values coincides with geometric equality of the lines.

Intersections are closed forms on those canonical lines (see
``intersect``); each intersection point is re-checked against both lines
before it is returned.

Only the public constructors, ``PlanePoint(x, y)`` and
``PlaneLine(base, direction)``, validate their arguments: every
coordinate and direction component must be a scalar (anything else,
plain ints included, is a TypeError, since a point has no backend to
embed an int in), and all of one backend (else BackendMismatchError).
The primitives build each point and line in one step from their own
arithmetic, which already raises BackendMismatchError on mixed backends:
``_point`` writes a point's slots, and ``PlaneLine._canonical`` a line's,
past the constructors' checks.  ``parallel_through`` checks the backends
only for a vertical line, which needs no arithmetic there.
"""

from __future__ import annotations

from typing import Tuple

from .errors import CoincidentPointsError, IdenticalLinesError, ParallelLinesError
from .scalars import Immutable, Record, SkewScalar, ensure_same_backend

_new = object.__new__

Direction = Tuple[SkewScalar, SkewScalar]


class PlanePoint(Immutable, Record):
    """A point of the plane; both coordinates scalars of one backend."""

    __slots__ = ("x", "y")

    # written out rather than derived: every construction step calls these
    def __init__(self, x: SkewScalar, y: SkewScalar):
        ensure_same_backend(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def displacement_to(self, other: "PlanePoint") -> Direction:
        """The direction vector other - self."""
        return (other.x - self.x, other.y - self.y)

    def translate(self, direction: Direction) -> "PlanePoint":
        return _point(self.x + direction[0], self.y + direction[1])

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


_set_x = PlanePoint.x.__set__
_set_y = PlanePoint.y.__set__


def _point(x: SkewScalar, y: SkewScalar) -> PlanePoint:
    """The point (x, y) of two same-backend scalars, without the check."""
    point = _new(PlanePoint)
    _set_x(point, x)
    _set_y(point, y)
    return point


def scale_direction(t: SkewScalar, direction: Direction) -> Direction:
    """Left scalar action on a direction vector: t * (dx, dy)."""
    return (t * direction[0], t * direction[1])


class PlaneLine(Immutable):
    """A line in canonical form, so two PlaneLine values compare equal
    exactly when they denote the same set of points.

    A non-vertical line y = b + x*m has direction (1, m), m = dx^-1 * dy
    (the left action), and anchor (0, b) with b = base.y - base.x*m; a
    vertical line x = c has direction (0, 1) and anchor (c, 0).
    """

    __slots__ = ("base", "direction")

    def __init__(self, base: PlanePoint, direction: Direction):
        dx, dy = direction
        ensure_same_backend(base.x, base.y, dx, dy)
        if dx.is_zero() and dy.is_zero():
            raise ValueError("line direction must be nonzero")
        self._canonical(base.x, base.y, dx, dy)

    def _canonical(self, x: SkewScalar, y: SkewScalar,
                   dx: SkewScalar, dy: SkewScalar) -> "PlaneLine":
        """Write the canonical form of the line through (x, y) with the
        nonzero direction (dx, dy), all four from one backend."""
        if dx.is_zero():
            return self._set(_point(x, dx), (dx, dy._from_int(1)))
        m = dx.inverse() * dy
        return self._set(_point(dx._from_int(0), y - x * m), (dx._from_int(1), m))

    def _set(self, anchor: PlanePoint, direction: Direction) -> "PlaneLine":
        """Write the slots; anchor and direction are already canonical."""
        object.__setattr__(self, "base", anchor)
        object.__setattr__(self, "direction", direction)
        return self

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
    dx, dy = q.x - p.x, q.y - p.y
    if dx.is_zero() and dy.is_zero():
        raise CoincidentPointsError(f"no unique line through coincident point {p}")
    return _new(PlaneLine)._canonical(p.x, p.y, dx, dy)


def parallel_through(p: PlanePoint, line: PlaneLine) -> PlaneLine:
    """The line through p with line's canonical direction, reused as it is:
    anchor (0, p.y - p.x*m), or (p.x, 0) for a vertical line."""
    dx, m = line.direction
    if dx.is_zero():
        ensure_same_backend(p.x, m)
        x, y = p.x, line.base.y
    else:
        x, y = line.base.x, p.y - p.x * m
    return _new(PlaneLine)._set(_point(x, y), line.direction)


def is_parallel(l1: PlaneLine, l2: PlaneLine) -> bool:
    """True iff normalized directions agree; every line is parallel to itself."""
    return l1.direction == l2.direction


def on_line(p: PlanePoint, line: PlaneLine) -> bool:
    """True iff p lies on the line: p.y == b + p.x*m for the line
    y = b + x*m with anchor (0, b), or p.x == c for a vertical line x = c."""
    dx, m = line.direction
    if dx.is_zero():
        return p.x == line.base.x
    return p.y == line.base.y + p.x * m


def collinear(p: PlanePoint, q: PlanePoint, r: PlanePoint) -> bool:
    """True iff the three points admit a common line (coincidences count)."""
    if p == q or p == r or q == r:
        return True
    return on_line(r, line_through(p, q))


def intersect(l1: PlaneLine, l2: PlaneLine) -> PlanePoint:
    """The unique common point of two distinct non-parallel lines.

    With l1 the non-vertical line y = b1 + x*m1 (swapped in if needed),
    the point is (x, b1 + x*m1): x = c if l2 is the vertical line x = c,
    otherwise b1 + x*m1 = b2 + x*m2 gives
    x = (b2 - b1) * (m1 - m2)^-1: the parameter acts on the left, so the
    inverse divides on the right.
    """
    if l1.direction == l2.direction:
        if l1.base == l2.base:
            raise IdenticalLinesError(f"line {l1} intersected with itself")
        raise ParallelLinesError(f"{l1} and {l2} are parallel and disjoint")
    if l1.direction[0].is_zero():
        l1, l2 = l2, l1
    b1, m1 = l1.base.y, l1.direction[1]
    if l2.direction[0].is_zero():
        x = l2.base.x
    else:
        x = (l2.base.y - b1) * (m1 - l2.direction[1]).inverse()
    point = _point(x, b1 + x * m1)
    # the point is solved exactly from both lines, so only a bug misses one
    if not (on_line(point, l1) and on_line(point, l2)):  # pragma: no cover
        raise AssertionError("intersection point failed containment check")
    return point
