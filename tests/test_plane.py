"""Plane primitives: lines, parallels, incidence and closed-form intersections."""

import copy
import pickle
from fractions import Fraction
from itertools import product

import pytest

from skewplane.errors import (
    BackendMismatchError,
    CoincidentPointsError,
    IdenticalLinesError,
    ParallelLinesError,
)
from skewplane.plane import (
    PlaneLine,
    PlanePoint,
    intersect,
    is_parallel,
    line_through,
    on_line,
    parallel_through,
)
from skewplane.scalars import PrimeField, QuaternionField, Rational, RationalField


def rp(x, y):
    return PlanePoint(Rational(x), Rational(y))


def rational_line(p, q):
    return line_through(rp(*p), rp(*q))


X_AXIS = rational_line((0, 0), (1, 0))


class TestLineThrough:
    def test_x_axis(self):
        assert X_AXIS.base == rp(0, 0)
        assert X_AXIS.direction == (Rational(1), Rational(0))

    def test_vertical_normalizes_to_unit_dy(self):
        line = rational_line((2, 0), (2, 1))
        assert line.direction == (Rational(0), Rational(1))
        assert line.base == rp(2, 0)

    def test_left_normalization_of_slope(self):
        line = rational_line((0, 0), (3, 1))
        assert line.direction == (Rational(1), Rational(1, 3))

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPointsError):
            rational_line((1, 2), (1, 2))

    def test_contains_both_endpoints(self):
        p, q = rp(-3, 7), PlanePoint(Rational(5), Rational(1, 2))
        line = line_through(p, q)
        assert on_line(p, line) and on_line(q, line)

    def test_equality_is_geometric(self):
        assert rational_line((0, 0), (2, 2)) == rational_line((3, 3), (-1, -1))
        assert hash(rational_line((0, 0), (2, 2))) == hash(rational_line((3, 3), (-1, -1)))
        assert rational_line((0, 0), (1, 1)) != rational_line((0, 1), (1, 2))
        assert (X_AXIS == 3) is False and X_AXIS.__eq__(3) is NotImplemented

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="^line direction must be nonzero$"):
            PlaneLine(rp(1, 2), (Rational(0), Rational(0)))

    @pytest.mark.parametrize("backend", ["rational", "quaternion"])
    def test_copy_and_pickle(self, backend):
        if backend == "rational":
            line = rational_line((0, 0), (1, 2))
        else:
            field = QuaternionField()
            line = line_through(PlanePoint(field.i(), field.one()),
                                PlanePoint(field.j(), -field.k()))
        key = hash(line)
        for twin in (copy.deepcopy(line), pickle.loads(pickle.dumps(line))):
            assert twin == line and hash(twin) == key
            assert str(twin) == str(line) and on_line(twin.base, line)
        with pytest.raises(AttributeError, match="immutable"):
            line.base = line.base
        with pytest.raises(AttributeError, match="immutable"):
            del line.base

    def test_quaternion_direction_normalization(self):
        field = QuaternionField()
        zero, i, j = field.zero(), field.i(), field.j()
        line = line_through(PlanePoint(zero, zero), PlanePoint(i, j))
        # left-normalize (i, j) by i^-1 = -i:  (-i)*j = -k
        assert line.direction == (field.one(), -field.k())
        assert on_line(PlanePoint(i, j), line)


class TestParallelThrough:
    def test_translate_x_axis(self):
        line = parallel_through(rp(0, 1), X_AXIS)
        assert line.direction == X_AXIS.direction
        assert on_line(rp(0, 1), line)

    def test_point_on_line_returns_same_line(self):
        assert parallel_through(rp(7, 0), X_AXIS) == X_AXIS

    def test_vertical_copy(self):
        vertical = rational_line((0, 0), (0, 1))
        through = parallel_through(rp(2, 0), vertical)
        assert through.direction == (Rational(0), Rational(1))
        assert on_line(rp(2, 0), through)
        assert through == rational_line((2, 0), (2, 5))


class TestIsParallel:
    def test_horizontal_pair(self):
        assert is_parallel(X_AXIS, rational_line((0, 1), (1, 1)))

    def test_axis_vs_vertical(self):
        assert not is_parallel(X_AXIS, rational_line((2, 0), (2, 1)))

    def test_quaternion_equal_directions(self):
        field = QuaternionField()
        one, j = field.one(), field.j()
        l1 = PlaneLine(PlanePoint(field.zero(), field.zero()), (one, j))
        l2 = PlaneLine(PlanePoint(one, one), (one, j))
        assert is_parallel(l1, l2)

    def test_reflexive(self):
        assert is_parallel(X_AXIS, X_AXIS)

    def test_equivalence_relation_over_gf3(self):
        field = PrimeField(3)
        values = list(field.elements())
        points = [PlanePoint(x, y) for x in values for y in values]
        lines = sorted({line_through(p, q) for p in points for q in points if p != q},
                       key=str)
        for a in lines:
            assert is_parallel(a, a)
            for b in lines:
                assert is_parallel(a, b) == is_parallel(b, a)
                for c in lines:
                    if is_parallel(a, b) and is_parallel(b, c):
                        assert is_parallel(a, c)


class TestIntersect:
    def test_vertical_meets_horizontal(self):
        vertical = rational_line((2, 0), (2, 1))
        horizontal = rational_line((0, 1), (1, 1))
        assert intersect(vertical, horizontal) == rp(2, 1)

    def test_horizontal_meets_vertical(self):
        vertical = rational_line((2, 0), (2, 1))
        horizontal = rational_line((0, 1), (1, 1))
        assert intersect(horizontal, vertical) == rp(2, 1)

    def test_quaternion_parameter_divides_on_the_right(self):
        # y = x*i meets y = j where x * i = j, i.e. x = j * i^-1 = k;
        # the other factor order, i^-1 * j = -k, is not on the second line
        field = QuaternionField()
        zero, one, i, j, k = field.zero(), field.one(), field.i(), field.j(), field.k()
        l1 = PlaneLine(PlanePoint(zero, zero), (one, i))
        l2 = PlaneLine(PlanePoint(zero, j), (one, zero))
        b_diff, m_diff = l2.base.y - l1.base.y, l1.direction[1] - l2.direction[1]
        assert b_diff * m_diff.inverse() != m_diff.inverse() * b_diff
        assert intersect(l1, l2) == PlanePoint(k, j)
        assert intersect(l2, l1) == PlanePoint(k, j)

    def test_parallel_lines_error(self):
        with pytest.raises(ParallelLinesError):
            intersect(X_AXIS, rational_line((0, 1), (1, 1)))

    def test_identical_lines_error(self):
        with pytest.raises(IdenticalLinesError):
            intersect(X_AXIS, rational_line((5, 0), (9, 0)))

    def test_intersection_lies_on_both(self, rng):
        field = QuaternionField()
        for _ in range(25):
            points = [PlanePoint(field.random_element(rng), field.random_element(rng))
                      for _ in range(4)]
            try:
                l1 = line_through(points[0], points[1])
                l2 = line_through(points[2], points[3])
                meet = intersect(l1, l2)
            except (CoincidentPointsError, ParallelLinesError, IdenticalLinesError):
                continue
            assert on_line(meet, l1) and on_line(meet, l2)


#: Pairs of distinct backends, GF(5) and GF(7) counting as two.
MIXED = [(RationalField(), PrimeField(5)), (PrimeField(5), PrimeField(7)),
         (QuaternionField(), RationalField()), (PrimeField(7), QuaternionField())]


def frame_points(field):
    """(0, 0), (1, 0), (0, 1) and (2, 3) of one backend."""
    return [PlanePoint(field.from_int(x), field.from_int(y))
            for x, y in ((0, 0), (1, 0), (0, 1), (2, 3))]


@pytest.mark.parametrize("first, second", MIXED, ids=lambda f: f.name)
class TestMixedBackends:
    """Every primitive refuses points and lines of two backends, also where
    it builds its result without the constructors' check."""

    def test_line_through(self, first, second):
        p, q = frame_points(first)[0], frame_points(second)[3]
        with pytest.raises(BackendMismatchError):
            line_through(p, q)
        with pytest.raises(BackendMismatchError):
            line_through(q, p)

    def test_intersect(self, first, second):
        o, i, j, _ = frame_points(first)
        o2, _, j2, r2 = frame_points(second)
        for l2 in (line_through(o2, r2), line_through(o2, j2)):  # slanted, vertical
            with pytest.raises(BackendMismatchError):
                intersect(line_through(o, i), l2)
            with pytest.raises(BackendMismatchError):
                intersect(l2, line_through(j, i))

    def test_vertical_lines(self, first, second):
        o, i, j, r = frame_points(first)
        o2, i2, j2, r2 = frame_points(second)
        vertical = line_through(o, j)
        for other in (line_through(o2, j2), line_through(o2, r2), line_through(o2, i2)):
            for l1, l2 in ((vertical, other), (other, vertical)):
                for compare in (is_parallel, intersect, PlaneLine.__eq__):
                    with pytest.raises(BackendMismatchError):
                        compare(l1, l2)
        with pytest.raises(BackendMismatchError):
            on_line(r2, vertical)

    def test_translate(self, first, second):
        p, q = frame_points(first)[3], frame_points(second)[3]
        with pytest.raises(BackendMismatchError):
            p.translate((q.x, q.y))

    @pytest.mark.parametrize("vertical", [False, True])
    def test_parallel_through(self, first, second, vertical):
        o, i, j, r = frame_points(first)
        line = line_through(o, j if vertical else r)
        assert line.direction[0].is_zero() == vertical
        with pytest.raises(BackendMismatchError):
            parallel_through(frame_points(second)[3], line)

    def test_constructors(self, first, second):
        p, q = frame_points(first)[3], frame_points(second)[3]
        with pytest.raises(BackendMismatchError):
            PlaneLine(p, (q.x, q.y))
        with pytest.raises(BackendMismatchError):
            PlaneLine(p, (p.x, q.y))
        with pytest.raises(BackendMismatchError):
            PlanePoint(p.x, q.y)


#: Coordinates a point or line refuses: no scalar, or an int, which has no
#: backend to be embedded in.
NOT_SCALARS = [2, 0, True, 2.5, "x", None, Fraction(1, 2)]


class TestConstructorsTakeScalarsOnly:
    @pytest.mark.parametrize("bad", NOT_SCALARS, ids=repr)
    def test_point(self, bad):
        for x, y in ((Rational(1), bad), (bad, Rational(1)), (bad, bad)):
            with pytest.raises(TypeError, match="^expected a scalar, got "):
                PlanePoint(x, y)

    @pytest.mark.parametrize("bad", NOT_SCALARS, ids=repr)
    def test_line(self, bad):
        for direction in ((Rational(1), bad), (bad, Rational(1)), (bad, bad)):
            with pytest.raises(TypeError, match="^expected a scalar, got "):
                PlaneLine(rp(1, 2), direction)

    def test_line_base_must_be_a_point(self):
        for base in ((Rational(1), Rational(2)), Rational(1), None):
            with pytest.raises(TypeError, match="^expected a PlanePoint, got "):
                PlaneLine(base, (Rational(1), Rational(0)))


class TestIncidence:
    def test_on_line_examples(self):
        assert on_line(rp(5, 0), X_AXIS)
        assert not on_line(rp(5, 1), X_AXIS)

    def test_noncollinear_witness_every_backend(self, any_field):
        zero, one = any_field.zero(), any_field.one()
        assert not on_line(PlanePoint(zero, one),
                           line_through(PlanePoint(zero, zero), PlanePoint(one, zero)))


def _gf3_points_and_lines():
    field = PrimeField(3)
    values = list(field.elements())
    points = [PlanePoint(x, y) for x in values for y in values]
    lines = sorted({line_through(p, q) for p in points for q in points if p != q},
                   key=str)
    return points, lines


_GF3_POINTS, _GF3_LINES = _gf3_points_and_lines()


class TestAffineAxiomsGF3:
    """Exhaustive incidence axioms over the 9-point plane."""

    points = _GF3_POINTS
    lines = _GF3_LINES

    def test_line_count(self):
        assert len(self.lines) == 12  # p^2 + p

    def test_axiom_one_existence_and_uniqueness(self):
        for p, q in product(self.points, self.points):
            if p == q:
                continue
            joining = line_through(p, q)
            assert on_line(p, joining) and on_line(q, joining)
            containing = [l for l in self.lines if on_line(p, l) and on_line(q, l)]
            assert containing == [joining]

    def test_intersect_is_the_enumerated_common_point(self):
        for l1, l2 in product(self.lines, self.lines):
            if is_parallel(l1, l2):
                continue
            common = [p for p in self.points if on_line(p, l1) and on_line(p, l2)]
            assert common == [intersect(l1, l2)]

    def test_playfair_parallel_misses_and_is_unique(self):
        for line in self.lines:
            for p in self.points:
                if on_line(p, line):
                    continue
                parallel = parallel_through(p, line)
                with pytest.raises(ParallelLinesError):
                    intersect(parallel, line)
                disjoint = [l for l in self.lines
                            if on_line(p, l) and not any(
                                on_line(q, l) and on_line(q, line) for q in self.points)]
                assert disjoint == [parallel]
