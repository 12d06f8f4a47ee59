"""Coordinate model of the affine plane over the active skew field.

Points are coordinate pairs; lines are parametric: a base point plus a
normalized direction, with the scalar parameter acting on the LEFT,

    points of the line = { base + t * direction : t in the field }.

Left action is one of the two legal conventions over a skew field; fixing
it here fixes it for every other module.  Every line is stored in closed
canonical form, as two scalars: y = b + x*m keeps b and the left slope
m = dx^-1 * dy, and x = c keeps c and the slope None.  The anchor, (0, b)
or (c, 0), and the direction, (1, m) or (0, 1), are derived when read.
So parallelism is a plain equality of slopes instead of a proportionality
search in a non-commutative ring, and structural equality of PlaneLine
values coincides with geometric equality of the lines.

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
``_point``, ``PlaneLine._canonical`` and ``parallel_through`` write the
slots through the slot descriptors, past the constructors' checks.
``parallel_through`` and ``is_parallel`` check the backends only for a
vertical line, which needs no arithmetic.  Internal draws are built
values too, like ``_from_int``: a field's ``random_element`` returns a
canonical scalar, and the Desargues generator builds its random points
with ``_point`` from two draws of one field.
"""

from __future__ import annotations

from .errors import CoincidentPointsError, IdenticalLinesError, ParallelLinesError
from .scalars import Immutable, Record, SkewScalar, ensure_same_backend

_new = object.__new__

Direction = tuple[SkewScalar, SkewScalar]


class PlanePoint(Immutable, Record):
    """A point of the plane; both coordinates scalars of one backend."""

    __slots__ = ("x", "y")

    # written out rather than derived: every construction step calls these
    def __init__(self, x: SkewScalar, y: SkewScalar):
        ensure_same_backend(x, y)
        _set_x(self, x)
        _set_y(self, y)

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

    Two slots are stored: a non-vertical line y = b + x*m keeps ``_b`` = b
    and ``_m`` = m = dx^-1 * dy, the left slope; a vertical line x = c
    keeps ``_b`` = c and ``_m`` = None.  ``base``, the anchor (0, b) or
    (c, 0), and ``direction``, (1, m) or (0, 1), are derived when read.
    """

    __slots__ = ("_b", "_m")

    def __init__(self, base: PlanePoint, direction: Direction):
        if not isinstance(base, PlanePoint):
            raise TypeError(f"expected a PlanePoint, got {type(base).__name__}")
        dx, dy = direction
        ensure_same_backend(base.x, base.y, dx, dy)
        if self._canonical(base.x, base.y, dx, dy) is None:
            raise ValueError("line direction must be nonzero")

    def _canonical(self, x: SkewScalar, y: SkewScalar,
                   dx: SkewScalar, dy: SkewScalar) -> "PlaneLine | None":
        """Write the canonical form of the line through (x, y) with direction
        (dx, dy), all four of one backend; None, writing nothing, if (dx, dy) = 0."""
        if dx.is_zero():
            if dy.is_zero():
                return None
            b, m = x, None
        else:
            m = dx.inverse() * dy
            b = y - x * m
        _set_b(self, b)
        _set_m(self, m)
        return self

    @property
    def base(self) -> PlanePoint:
        zero = self._b._from_int(0)
        return _point(self._b, zero) if self._m is None else _point(zero, self._b)

    @property
    def direction(self) -> Direction:
        one = self._b._from_int(1)
        return (self._b._from_int(0), one) if self._m is None else (one, self._m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneLine):
            return NotImplemented
        return is_parallel(self, other) and self._b == other._b

    def __hash__(self):
        return hash((self._b, self._m))  # equal lines have equal slots

    def __str__(self) -> str:
        return f"{{base={self.base}, dir=({self.direction[0]},{self.direction[1]})}}"

    def __repr__(self) -> str:
        return f"PlaneLine(base={self.base!r}, direction={self.direction!r})"


_set_b = PlaneLine._b.__set__
_set_m = PlaneLine._m.__set__


def line_through(p: PlanePoint, q: PlanePoint) -> PlaneLine:
    """The unique line containing the two distinct points p and q."""
    line = _new(PlaneLine)._canonical(p.x, p.y, q.x - p.x, q.y - p.y)
    if line is None:
        raise CoincidentPointsError(f"no unique line through coincident point {p}")
    return line


def parallel_through(p: PlanePoint, line: PlaneLine) -> PlaneLine:
    """The line through p with line's slope, reused as it is:
    y = (p.y - p.x*m) + x*m, or x = p.x for a vertical line."""
    m = line._m
    through = _new(PlaneLine)
    if m is None:
        ensure_same_backend(p.x, line._b)
        _set_b(through, p.x)
    else:
        _set_b(through, p.y - p.x * m)
    _set_m(through, m)
    return through


def is_parallel(l1: PlaneLine, l2: PlaneLine) -> bool:
    """True iff both lines are vertical or their slopes agree."""
    if l1._m is None or l2._m is None:
        ensure_same_backend(l1._b, l2._b)
        return l1._m is l2._m
    return l1._m == l2._m


def on_line(p: PlanePoint, line: PlaneLine) -> bool:
    """True iff p lies on the line: p.y == b + p.x*m for the line
    y = b + x*m, or p.x == c for a vertical line x = c."""
    m = line._m
    if m is None:
        return p.x == line._b
    return p.y == line._b + p.x * m


def intersect(l1: PlaneLine, l2: PlaneLine) -> PlanePoint:
    """The unique common point of two distinct non-parallel lines.

    With l1 the non-vertical line y = b1 + x*m1 (swapped in if needed),
    the point is (x, b1 + x*m1): x = c if l2 is the vertical line x = c,
    otherwise b1 + x*m1 = b2 + x*m2 gives
    x = (b2 - b1) * (m1 - m2)^-1: the parameter acts on the left, so the
    inverse divides on the right.
    """
    if is_parallel(l1, l2):
        if l1._b == l2._b:
            raise IdenticalLinesError(f"line {l1} intersected with itself")
        raise ParallelLinesError(f"{l1} and {l2} are parallel and disjoint")
    if l1._m is None:
        l1, l2 = l2, l1
    b1, m1 = l1._b, l1._m
    if l2._m is None:
        x = l2._b
    else:
        x = (l2._b - b1) * (m1 - l2._m).inverse()
    point = _point(x, b1 + x * m1)
    # the point is solved exactly from both lines, so only a bug misses one
    if not (on_line(point, l1) and on_line(point, l2)):  # pragma: no cover
        raise AssertionError("intersection point failed containment check")
    return point
