"""Direct subtraction on every backend, and rationals against a reference.

Each backend subtracts in one operation; the result must be exactly the
sum with the negation, with ints embedded on either side, aliens refused
and backends never mixed.  ``Rational`` does its arithmetic on two plain
ints; ``fractions.Fraction`` is the reference every operation and printed
form must match, and the hash is that of the reduced pair.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import quaternions, rationals
from skewplane.errors import BackendMismatchError
from skewplane.scalars import (
    PrimeField,
    PrimeFieldElement,
    QuaternionField,
    Rational,
    RationalField,
)

SCALARS = {
    "rational": rationals(),
    "gfp5": st.integers(0, 4).map(lambda r: PrimeFieldElement(r, 5)),
    "quaternion": quaternions(),
}
FIELDS = [RationalField(), PrimeField(5), PrimeField(7), QuaternionField()]


def pairs():
    return st.sampled_from(sorted(SCALARS)).flatmap(
        lambda name: st.tuples(SCALARS[name], SCALARS[name]))


@given(pairs())
def test_difference_is_sum_with_negation(pair):
    a, b = pair
    difference = a - b
    assert type(difference) is type(a)
    assert difference == a + (-b) and hash(difference) == hash(a + (-b))
    assert str(difference) == str(a + (-b)) and repr(difference) == repr(a + (-b))
    assert (a - a).is_zero() and (b - b).is_zero()


@given(st.sampled_from(sorted(SCALARS)).flatmap(lambda name: SCALARS[name]),
       st.integers(-9, 9) | st.booleans())
def test_int_operands_on_both_sides(a, n):
    assert a - n == a + (-n) == a + a._from_int(-n)
    assert n - a == (-a) + n == a._from_int(n) - a
    assert hash(a - n) == hash(a - a._from_int(n))
    assert hash(n - a) == hash(a._from_int(n) - a)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_alien_operands_are_not_implemented(field):
    three = field.from_int(3)
    for alien in ("3", 3.0, None, Fraction(1, 2)):
        assert three.__sub__(alien) is NotImplemented
        assert three.__rsub__(alien) is NotImplemented
        with pytest.raises(TypeError):
            three - alien
        with pytest.raises(TypeError):
            alien - three


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_cross_backend_subtraction_raises(field):
    three = field.from_int(3)
    for other_field in FIELDS:
        if other_field == field:
            continue
        other = other_field.one()
        if isinstance(other, PrimeFieldElement) and isinstance(three, PrimeFieldElement):
            message = f"GF({three.modulus}) and GF({other.modulus}) elements cannot mix"
        else:
            message = (f"cannot combine {type(three).__name__} with "
                       f"{type(other).__name__} value {other!r}")
        with pytest.raises(BackendMismatchError) as caught:
            three - other
        assert str(caught.value) == message


#: Numerators and denominators of up to about 40 digits.
BIG = 10 ** 40
FRACTIONS = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
MODULUS = sys.hash_info.modulus  # a denominator without an inverse for Fraction's hash


@given(FRACTIONS, FRACTIONS, st.integers(-BIG, BIG) | st.booleans())
@example(Fraction(1, MODULUS), Fraction(-3, 2 * MODULUS), -1)
@example(Fraction(-1), Fraction(2), True)
def test_rational_matches_fraction(x, y, n):
    a, b = Rational(x), Rational(y)
    results = [(a + b, x + y), (a - b, x - y), (-a, -x), (a * b, x * y),
               (a + n, x + n), (n + a, n + x), (a - n, x - n), (n - a, n - x),
               (a * n, x * n), (n * a, n * x), (Rational(n), Fraction(n))]
    if x:
        results.append((a.inverse(), 1 / x))
    for value, reference in results:
        assert type(value) is Rational
        assert type(value.numerator) is int and type(value.denominator) is int
        assert (value.numerator, value.denominator) == \
            (reference.numerator, reference.denominator)
        assert str(value) == str(reference) and repr(value) == f"Rational({reference})"
        assert hash(value) == hash((reference.numerator, reference.denominator))
    assert (a == b) == (x == y) and (a == n) == (x == n) and (n == b) == (n == y)
    assert a == Rational(x.numerator, x.denominator)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_subtraction_is_one_operation(field, monkeypatch):
    cls = type(field.one())
    assert "__sub__" in cls.__dict__
    for name in ("__add__", "__neg__"):
        monkeypatch.setattr(cls, name, lambda *args: pytest.fail("subtraction added"))
    assert field.from_int(5) - field.from_int(3) == 2
    assert field.from_int(5) - 3 == 2
