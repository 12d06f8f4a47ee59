"""Shared fixtures and hypothesis strategies for the test suite."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from skewplane.scalars import (
    PrimeField,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def rationals(max_abs=50, max_den=30):
    return st.builds(Rational, st.integers(-max_abs, max_abs), st.integers(1, max_den))


def nonzero_rationals():
    return rationals().filter(lambda r: not r.is_zero())


def quaternions(max_abs=6, max_den=4):
    component = st.tuples(st.integers(-max_abs, max_abs), st.integers(1, max_den))
    return st.builds(
        lambda cw, cx, cy, cz: RationalQuaternion(
            Rational(*cw), Rational(*cx), Rational(*cy), Rational(*cz)),
        component, component, component, component)


def nonzero_quaternions():
    return quaternions().filter(lambda q: not q.is_zero())


def fractions_of(q):
    """The components of quaternion ``q`` as Fractions, the test reference,
    after checking each is a Rational in lowest terms."""
    parts = q.components()
    assert all(type(c) is Rational and c.denominator > 0
               and math.gcd(c.numerator, c.denominator) == 1 for c in parts)
    return tuple(Fraction(c.numerator, c.denominator) for c in parts)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(params=["rational", "gfp5", "quaternion"])
def any_field(request):
    return {
        "rational": RationalField(),
        "gfp5": PrimeField(5),
        "quaternion": QuaternionField(),
    }[request.param]


@pytest.fixture
def rational_field():
    return RationalField()


@pytest.fixture
def quaternion_field():
    return QuaternionField()


@pytest.fixture
def gf5():
    return PrimeField(5)
