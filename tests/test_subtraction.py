"""Direct subtraction on every backend, and the rational engines.

Each backend subtracts in one operation; the result must be exactly the
sum with the negation, with ints embedded on either side, aliens refused
and backends never mixed.  The rational type runs on gmpy2 ``mpq`` when it
is installed and on ``fractions.Fraction`` otherwise; forcing the
fallback must not change a printed value or an equality.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import quaternions, rationals
from skewplane import scalars
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


def rational_results():
    """A fixed set of Rational results: every operator, ints mixed in."""
    a, b, c = Rational(7, 3), Rational(-5, 4), Rational(0)
    return [
        a + b, a - b, b - a, a * b, -a, a.inverse(), b.inverse(),
        (a - b).inverse(), a - 3, 3 - a, a - True, True - a, 2 + b, b * -6,
        c - a, a - a, Rational(2, 4), Rational(-6, 3), Rational(10 ** 30, 7) - b,
        (a * b - c).inverse() * (b - 1),
    ]


def test_fraction_engine_matches_the_default(monkeypatch):
    default = rational_results()
    monkeypatch.setattr(scalars, "_RAT", Fraction)
    fallback = rational_results()
    assert all(type(value._v) is Fraction for value in fallback)
    assert [str(value) for value in fallback] == [str(value) for value in default]
    assert fallback == default
    assert [hash(value) for value in fallback] == [hash(value) for value in default]
    assert [x == y for x in fallback for y in fallback] == \
        [x == y for x in default for y in default]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_subtraction_is_one_operation(field, monkeypatch):
    cls = type(field.one())
    assert "__sub__" in cls.__dict__
    for name in ("__add__", "__neg__"):
        monkeypatch.setattr(cls, name, lambda *args: pytest.fail("subtraction added"))
    assert field.from_int(5) - field.from_int(3) == 2
    assert field.from_int(5) - 3 == 2
