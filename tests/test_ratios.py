"""Ratio operations: factor order is exact and never rearranged."""

import pytest
from hypothesis import assume, given, strategies as st

from conftest import quaternions, rationals
from skewplane.constructions import LineFrame
from skewplane.errors import (
    CoincidentPointsError,
    SingularCrossRatioError,
    ZeroDenominatorPointError,
)
from skewplane.maps import CrossRatioBase, Family, omitted_value
from skewplane.plane import PlanePoint
from skewplane.ratios import cross_ratio, ratio2, ratio3
from skewplane.scalars import (
    PrimeField,
    PrimeFieldElement,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
)


class TestRatio2:
    def test_rational_example(self):
        assert ratio2(Rational(6), Rational(3)) == Rational(2)

    def test_equal_points_give_unit(self):
        a = Rational(-5, 7)
        assert ratio2(a, a) == Rational(1)

    def test_quaternion_order(self):
        field = QuaternionField()
        # j^-1 * i = (-j) * i = k
        assert ratio2(field.i(), field.j()) == field.k()

    def test_zero_denominator_point(self):
        with pytest.raises(ZeroDenominatorPointError):
            ratio2(Rational(1), Rational(0))


class TestRatio3:
    def test_rational_example(self):
        # (3-1)^-1 * (5-1) = 4/2
        assert ratio3(Rational(5), Rational(3), Rational(1)) == Rational(2)

    def test_first_equal_third_gives_zero(self):
        assert ratio3(Rational(4), Rational(9), Rational(4)) == Rational(0)

    def test_first_equal_second_gives_unit(self):
        assert ratio3(Rational(9), Rational(9), Rational(4)) == Rational(1)

    def test_coincident_divisor_points(self):
        with pytest.raises(CoincidentPointsError):
            ratio3(Rational(1), Rational(2), Rational(2))

    @given(rationals(), rationals(), rationals())
    def test_defining_equation_rational(self, a, b, c):
        assume(b != c)
        r = ratio3(a, b, c)
        assert (b - c) * r == a - c

    @given(quaternions(), quaternions(), quaternions())
    def test_defining_equation_quaternion(self, a, b, c):
        assume(b != c)
        r = ratio3(a, b, c)
        assert (b - c) * r == a - c

    def test_defining_equation_gf5_exhaustive(self):
        from itertools import product

        from skewplane.scalars import PrimeField

        gf5 = PrimeField(5)
        values = list(gf5.elements())
        for a, b, c in product(values, values, values):
            if b == c:
                continue
            assert (b - c) * ratio3(a, b, c) == a - c


class TestCrossRatio:
    def test_worked_rational_value(self):
        # ((2-5)^-1 (3-5)) ((3-1)^-1 (2-1)) = (2/3)(1/2) = 1/3
        assert cross_ratio(Rational(2), Rational(3), Rational(1), Rational(5)) \
            == Rational(1, 3)

    def test_first_equals_third_gives_zero(self):
        assert cross_ratio(Rational(2), Rational(3), Rational(2), Rational(5)) \
            == Rational(0)

    def test_second_equals_fourth_gives_zero(self):
        assert cross_ratio(Rational(2), Rational(3), Rational(1), Rational(3)) \
            == Rational(0)

    def test_first_equals_second_gives_unit(self):
        assert cross_ratio(Rational(7), Rational(7), Rational(1), Rational(5)) \
            == Rational(1)

    def test_singular_differences_are_named(self):
        with pytest.raises(SingularCrossRatioError) as excinfo:
            cross_ratio(Rational(5), Rational(3), Rational(1), Rational(5))
        assert excinfo.value.which == "A-D"
        with pytest.raises(SingularCrossRatioError) as excinfo:
            cross_ratio(Rational(2), Rational(3), Rational(3), Rational(5))
        assert excinfo.value.which == "B-C"

    def test_structural_factorization(self):
        a, b, c, d = (Rational(n) for n in (2, 3, 1, 5))
        first, second = ratio3(b, a, d), ratio3(a, b, c)
        assert first == (a - d).inverse() * (b - d)
        assert second == (b - c).inverse() * (a - c)
        assert cross_ratio(a, b, c, d) == first * second

    @given(rationals(), rationals(), rationals(), rationals())
    def test_commutative_backend_matches_classical_formula(self, a, b, c, d):
        assume(a != d and b != c)
        classical = ((a - c) * (b - d)) * ((b - c) * (a - d)).inverse()
        assert cross_ratio(a, b, c, d) == classical

    def test_factor_order_sensitivity_witness(self):
        # Over the quaternions there are inputs where swapping the two
        # bracketed factors changes the value.
        field = QuaternionField()
        a, b = field.i(), field.j()
        c, d = field.zero(), field.one()
        first, second = ratio3(b, a, d), ratio3(a, b, c)
        assert cross_ratio(a, b, c, d) == first * second
        assert first * second != second * first

    def test_quaternion_value_against_hand_reduction(self):
        # (i-1)^-1 = (-1-i)/2, so the first factor is (1+i-j-k)/2 and the
        # second is j^-1 i = k; the product is (1-i-j+k)/2.
        from skewplane.scalars import RationalQuaternion

        field = QuaternionField()
        value = cross_ratio(field.i(), field.j(), field.zero(), field.one())
        half = Rational(1, 2)
        assert value == RationalQuaternion(half, -half, -half, half)


#: Each backend with a strategy for its scalars.
BACKENDS = {
    "rational": (RationalField(), rationals()),
    "gfp101": (PrimeField(101), st.builds(PrimeFieldElement, st.integers(0, 100), st.just(101))),
    "quaternion": (QuaternionField(), quaternions()),
}


class TestFrames:
    """A frame's coordinates are right-affine in any other frame's.

    Reading the line in the frame (t0, t1), with t0 and t1 the new O and I
    in the old frame's coordinates, maps t to (t - t0)(t1 - t0)^-1.  The
    cross-ratio is unchanged by t -> m t + c and conjugated to m^-1 cr m by
    t -> t m + c, so a change of frame conjugates it, and the omega of
    families B, C and D, by t1 - t0: over the quaternions only their real
    parts and norms are frame-free.
    """

    @staticmethod
    def points(data, backend, kind):
        """A frame of ``kind`` and four coordinates on its line, read back
        from the points they embed to, with A != D and B != C."""
        field, scalars = BACKENDS[backend]
        if kind == "canonical":
            frame = LineFrame.canonical(field)
        else:
            origin = PlanePoint(data.draw(scalars), data.draw(scalars))
            unit = data.draw(st.builds(PlanePoint, scalars, scalars).filter(
                lambda p: p != origin))
            frame = LineFrame(origin, unit)
        a, b, c, d = (frame.extract(frame.embed(data.draw(scalars))) for _ in range(4))
        assume(a != d and b != c)
        return frame, (a, b, c, d)

    @pytest.mark.parametrize("kind", ["canonical", "skew"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(data=st.data())
    def test_left_affine_maps_keep_the_cross_ratio(self, backend, kind, data):
        _, scalars = BACKENDS[backend]
        _, coordinates = self.points(data, backend, kind)
        m = data.draw(scalars.filter(lambda v: not v.is_zero()))
        shift = data.draw(scalars)
        assert (cross_ratio(*(m * t + shift for t in coordinates))
                == cross_ratio(*coordinates))

    @pytest.mark.parametrize("kind", ["canonical", "skew"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(data=st.data())
    def test_right_affine_maps_conjugate_the_cross_ratio(self, backend, kind, data):
        _, scalars = BACKENDS[backend]
        _, coordinates = self.points(data, backend, kind)
        m = data.draw(scalars.filter(lambda v: not v.is_zero()))
        shift = data.draw(scalars)
        assert (cross_ratio(*(t * m + shift for t in coordinates))
                == m.inverse() * cross_ratio(*coordinates) * m)

    @pytest.mark.parametrize("kind", ["canonical", "skew"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(data=st.data())
    def test_a_change_of_frame_conjugates_by_the_new_unit_step(self, backend, kind, data):
        _, scalars = BACKENDS[backend]
        frame, coordinates = self.points(data, backend, kind)
        a, b, _, d = coordinates
        t0 = data.draw(scalars)
        t1 = data.draw(scalars.filter(lambda v: v != t0))
        second = LineFrame(frame.embed(t0), frame.embed(t1))
        read = [second.extract(frame.embed(t)) for t in coordinates]
        assert read == [(t - t0) * (t1 - t0).inverse() for t in coordinates]
        cr, step = cross_ratio(*coordinates), t1 - t0
        assert cross_ratio(*read) == step * cr * step.inverse()
        if backend != "quaternion":
            assert cross_ratio(*read) == cr
        base, read_base = (a, b, d), (read[0], read[1], read[3])
        if len({t._v for t in base}) == 3 and not any(t.is_zero() for t in base + read_base):
            for family in (Family.B, Family.C, Family.D):
                omega = omitted_value(CrossRatioBase(family, base))
                assert (omitted_value(CrossRatioBase(family, read_base))
                        == step * omega * step.inverse())

    def test_a_quaternion_cross_ratio_and_omega_differ_between_frames(self):
        """i, j, k, 1 on the canonical frame, read again in the frame
        O = (2, 0), I = (3 + i, 0), so t1 - t0 = 1 + i: the cross-ratio and
        family C's omega on (i, j, 1) change, their real part and norm do not."""
        field = QuaternionField()
        frame = LineFrame.canonical(field)
        second = LineFrame(frame.embed(field.from_int(2)),
                           frame.embed(RationalQuaternion(3, 1, 0, 0)))
        first = (field.i(), field.j(), field.k(), field.one())
        read = tuple(second.extract(frame.embed(t)) for t in first)
        half = Rational(1, 2)
        assert read == (RationalQuaternion(-half, Rational(3, 2), 0, 0),
                        RationalQuaternion(-1, 1, half, half),
                        RationalQuaternion(-1, 1, -half, half),
                        RationalQuaternion(-half, half, 0, 0))
        crs = cross_ratio(*first), cross_ratio(*read)
        assert crs == (RationalQuaternion(half, half, -half, half),
                       RationalQuaternion(half, half, -half, -half))
        omegas = tuple(omitted_value(CrossRatioBase(Family.C, (a, b, d)))
                       for a, b, _, d in (first, read))
        assert omegas == (RationalQuaternion(half, half, -half, -half),
                          RationalQuaternion(half, half, half, -half))
        for pair in (crs, omegas):
            assert len({v + v.conjugate() for v in pair}) == 1  # twice the real part
            assert len({v * v.conjugate() for v in pair}) == 1  # the norm
