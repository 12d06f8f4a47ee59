"""Canonical lines built from slope and intercept, and the scalar-op cost
of the construction path.

The canonical form is pinned against the normalization it replaced
(left-multiply the direction by the inverse of its leading nonzero
coordinate, then re-anchor at parameter -base.x), and the op counts pin
that no arithmetic whose answer is already known comes back.
"""

from collections import Counter

import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import quaternions, rationals
from skewplane.constructions import (
    CONCURRENT,
    PARALLEL,
    DesarguesConfig,
    LineFrame,
    check_desargues,
    geometric_add,
    geometric_mul,
)
from skewplane.plane import PlaneLine, PlanePoint, line_through, parallel_through, scale_direction
from skewplane.scalars import PrimeFieldElement, Rational, RationalField

SCALARS = {
    "rational": rationals(),
    "gfp5": st.integers(0, 4).map(lambda r: PrimeFieldElement(r, 5)),
    "quaternion": quaternions(),
}


def reference_canonical(base, direction):
    """The former normalization, step by step: anchor and direction."""
    dx, dy = direction
    if not dx.is_zero():
        inv = dx.inverse()
        norm = (inv * dx, inv * dy)
        t = -base.x
        return PlanePoint(base.x + t * norm[0], base.y + t * norm[1]), norm
    inv = dy.inverse()
    return PlanePoint(base.x, base.y - base.y), (dx - dx, inv * dy)


@st.composite
def line_cases(draw, vertical):
    """A base point, a nonzero direction that is not already canonical,
    and one more point, all from one backend."""
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    base, other = (PlanePoint(draw(scalars), draw(scalars)) for _ in range(2))
    dx, dy = draw(scalars), draw(scalars)
    if vertical:
        dx = dx - dx
        assume(not dy.is_zero() and dy != 1)
    else:
        assume(not dx.is_zero() and dx != 1)
    return base, (dx, dy), other


#: A vertical GF(5) case of ``line_cases``, which its derandomized draws miss.
GF5_VERTICAL = (PlanePoint(PrimeFieldElement(3, 5), PrimeFieldElement(4, 5)),
                (PrimeFieldElement(0, 5), PrimeFieldElement(2, 5)), None)


def assert_same_line(line, anchor, direction):
    assert line.base == anchor and line.direction == direction
    assert hash(line) == hash(PlaneLine(anchor, direction))  # equal lines hash alike
    assert str(line) == f"{{base={anchor}, dir=({direction[0]},{direction[1]})}}"
    assert repr(line) == f"PlaneLine(base={anchor!r}, direction={direction!r})"


class TestCanonicalForm:
    @given(line_cases(vertical=False))
    def test_non_vertical_matches_reference(self, case):
        base, direction, _ = case
        anchor, norm = reference_canonical(base, direction)
        assert anchor.x.is_zero() and norm[0] == 1
        assert_same_line(PlaneLine(base, direction), anchor, norm)

    @given(line_cases(vertical=True))
    def test_vertical_matches_reference(self, case):
        base, direction, _ = case
        anchor, norm = reference_canonical(base, direction)
        assert anchor.y.is_zero() and norm[0].is_zero() and norm[1] == 1
        assert_same_line(PlaneLine(base, direction), anchor, norm)

    @given(st.booleans().flatmap(lambda vertical: line_cases(vertical)))
    @example(GF5_VERTICAL)
    def test_line_through_matches_the_constructor(self, case):
        base, (dx, dy), _ = case
        q = PlanePoint(base.x + dx, base.y + dy)
        expected = PlaneLine(base, base.displacement_to(q))
        assert expected.direction[0].is_zero() == dx.is_zero()
        assert_same_line(line_through(base, q), expected.base, expected.direction)

    @given(st.booleans().flatmap(lambda vertical: line_cases(vertical)))
    def test_parallel_through_reuses_the_direction(self, case):
        base, direction, p = case
        line = PlaneLine(base, direction)
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = count_ops(monkeypatch, type(p.x))
            through = parallel_through(p, line)
        # the slope is reused: one product and one difference for the
        # intercept of a non-vertical line, no arithmetic for a vertical one
        vertical = direction[0].is_zero()
        assert counts == (Counter() if vertical else Counter({"__mul__": 1, "__sub__": 1}))
        expected = PlaneLine(p, line.direction)
        assert through.direction == line.direction
        assert_same_line(through, expected.base, expected.direction)


def count_ops(monkeypatch, scalar_class):
    """Count the operator calls of one scalar class, whichever class
    defines them."""
    counts = Counter()
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "inverse"):
        original = getattr(scalar_class, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(scalar_class, name, counted)
    return counts


def count_rational_ops(monkeypatch):
    """Count the Rational operator calls, whichever class defines them."""
    return count_ops(monkeypatch, Rational)


q = Rational


class TestOpCounts:
    def test_parallel_through_non_vertical_needs_no_inverse(self, monkeypatch):
        line = line_through(PlanePoint(q(1, 2), q(3)), PlanePoint(q(-2), q(5, 7)))
        p = PlanePoint(q(4, 3), q(-1, 5))
        counts = count_rational_ops(monkeypatch)
        parallel_through(p, line)
        assert counts == Counter({"__mul__": 1, "__sub__": 1})

    def test_parallel_through_vertical_needs_no_arithmetic(self, monkeypatch):
        line = line_through(PlanePoint(q(1, 2), q(3)), PlanePoint(q(1, 2), q(5, 7)))
        counts = count_rational_ops(monkeypatch)
        parallel_through(PlanePoint(q(4, 3), q(-1, 5)), line)
        assert counts == Counter()

    # add: three on_line input checks (3 mul, 3 add); two line_through
    # (2 sub for the displacement, then inverse, mul, mul, sub each); three
    # parallel_through (mul, sub each); two intersect (sub, sub, inverse,
    # mul for x, mul, add for y, and the guard's two on_line: 2 mul, 2 add).
    # mul builds one more line_through and one fewer parallel_through.
    @pytest.mark.parametrize("construct, expected", [
        (geometric_add, {"__mul__": 18, "__add__": 9, "__sub__": 13, "inverse": 4}),
        (geometric_mul, {"__mul__": 19, "__add__": 9, "__sub__": 15, "inverse": 5}),
    ])
    def test_canonical_frame_construction(self, monkeypatch, construct, expected):
        frame = LineFrame.canonical(RationalField())
        a, b = frame.embed(q(2, 3)), frame.embed(q(-5, 7))
        aux = PlanePoint(q(1, 2), q(3))
        counts = count_rational_ops(monkeypatch)
        result = construct(frame, a, b, aux)
        assert dict(counts) == expected
        monkeypatch.undo()
        assert frame.extract(result) == (q(2, 3) + q(-5, 7) if construct is geometric_add
                                         else q(2, 3) * q(-5, 7))

    # nine line_through, none vertical (2 sub for the displacement, then
    # inverse, mul, mul, sub each) and on_line(C, AB) (mul, add); the line
    # comparisons read slopes and intercepts only.  The concurrent variant
    # adds on_line(P, axis) for each of the three joining lines.
    @pytest.mark.parametrize("variant, expected", [
        (PARALLEL, {"__sub__": 27, "__mul__": 19, "__add__": 1, "inverse": 9}),
        (CONCURRENT, {"__sub__": 27, "__mul__": 22, "__add__": 4, "inverse": 9}),
    ])
    def test_desargues_check(self, monkeypatch, variant, expected):
        a, b, c = (PlanePoint(q(1, 2), q(1, 3)), PlanePoint(q(2), q(-1, 4)),
                   PlanePoint(q(-3, 5), q(7, 2)))
        if variant == PARALLEL:
            shift = (q(3, 4), q(-2, 3))
            cfg = DesarguesConfig(a, b, c, *(p.translate(shift) for p in (a, b, c)), variant)
        else:
            center = PlanePoint(q(1, 7), q(-1, 2))
            cfg = DesarguesConfig(a, b, c, *(
                center.translate(scale_direction(q(-3, 2), center.displacement_to(p)))
                for p in (a, b, c)), variant, center)
        counts = count_rational_ops(monkeypatch)
        assert check_desargues(cfg) is True
        assert dict(counts) == expected
