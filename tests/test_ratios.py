"""Ratio operations: factor order is exact and never rearranged."""

import pytest
from hypothesis import assume, given

from conftest import quaternions, rationals
from skewplane.errors import (
    CoincidentPointsError,
    SingularCrossRatioError,
    ZeroDenominatorPointError,
)
from skewplane.ratios import cross_ratio, ratio2, ratio3
from skewplane.scalars import QuaternionField, Rational


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
