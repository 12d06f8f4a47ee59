"""Tests of the benchmark's reference arithmetic.

    python3 -m pytest bench/test_refarith.py
"""

import random
from fractions import Fraction

import pytest

import refarith as ref
from workloads import _rq

Q = ref.QuaternionRing
ONE, I, J, K = (tuple(Fraction(int(i == n)) for i in range(4)) for n in range(4))


def neg(q):
    return tuple(-c for c in q)


def test_hamilton_table():
    assert ref.qmul(I, J) == K
    assert ref.qmul(J, I) == neg(K)
    assert ref.qmul(J, K) == I
    assert ref.qmul(K, I) == J
    for unit in (I, J, K):
        assert ref.qmul(unit, unit) == neg(ONE)


def test_quaternion_inverse_is_two_sided():
    rng = random.Random(7)
    for _ in range(50):
        q = _rq(rng)
        if q == Q.zero:
            continue
        assert ref.qmul(q, ref.qinv(q)) == Q.one
        assert ref.qmul(ref.qinv(q), q) == Q.one
    with pytest.raises(ZeroDivisionError):
        ref.qinv(Q.zero)


def test_quaternion_product_is_associative_not_commutative():
    rng = random.Random(8)
    a, b, c = _rq(rng), _rq(rng), _rq(rng)
    assert ref.qmul(ref.qmul(a, b), c) == ref.qmul(a, ref.qmul(b, c))
    assert ref.qmul(I, J) != ref.qmul(J, I)


def test_rational_cross_ratio():
    cr = ref.cross_ratio(ref.RationalRing, *map(Fraction, (2, 3, 1, 5)))
    assert cr == Fraction(1, 3)


def test_mod_ring_inverse_and_parse():
    ring = ref.ModRing(1_000_003)
    for a in (1, 2, 999, 1_000_002):
        assert ring.mul(a, ring.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        ring.inv(0)
    assert ring.parse("17 mod 1000003") == 17
    with pytest.raises(ValueError):
        ring.parse("17 mod 5")


@pytest.mark.parametrize("family", "ABCD")
@pytest.mark.parametrize("ring", [ref.RationalRing, ref.ModRing(101), Q],
                         ids=["rational", "gfp", "quaternion"])
def test_map_zero_and_unit_points(ring, family):
    rng = random.Random(family)
    draw = {ref.RationalRing: lambda r: Fraction(r.randint(1, 9), r.randint(1, 4)),
            Q: _rq}.get(ring, lambda r: r.randrange(1, 101))
    points = []
    while len(points) < 3:
        p = draw(rng)
        if p != ring.zero and p not in points:
            points.append(p)
    zero = points[ref.ZERO_INDEX[family]]
    unit = points[ref.UNIT_INDEX[family]]
    assert ref.map_value(ring, family, points, zero) == ring.zero
    assert ref.map_value(ring, family, points, unit) == ring.one
    with pytest.raises(ZeroDivisionError):
        ref.map_value(ring, family, points, points[ref.SINGULAR_INDEX[family]])


def test_parsers_read_printed_values():
    assert Q.parse("(1/2,-3,0,7/4)") == (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 4))
    assert Q.parse(Q.show(ref.qinv(I))) == neg(I)
    assert ref.parse_point(ref.RationalRing, "(-2, 1/3)") == (Fraction(-2), Fraction(1, 3))
    assert ref.parse_point(Q, "((0,1,0,0), (1,0,0,0))") == (I, ONE)
    assert ref.parse_point(ref.ModRing(7), "(3 mod 7, 0 mod 7)") == (3, 0)


def test_frame_embedding_and_directions():
    ring = ref.RationalRing
    origin, unit = (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3))
    assert ref.embed(ring, origin, unit, Fraction(2)) == (Fraction(3), Fraction(5))
    assert ref.line_direction(ring, origin, unit) == (1, 2)
    assert ref.line_direction(ring, origin, (Fraction(1), Fraction(4))) == (0, 1)
    assert ref.cross2(ring, (1, 2), (2, 4)) == 0
    assert ref.parallel(ring, origin, unit, (0, 0), (1, 2))
    assert not ref.parallel(ring, origin, unit, (0, 0), (1, 3))
