"""Reference arithmetic the benchmark checks the program against.

Independent of skewplane: rationals are ``fractions.Fraction``, GF(p)
values are plain ints in [0, p), quaternions are 4-tuples of Fractions
multiplied by the Hamilton table.  Each ring is a small object with
add/sub/mul/inv so that one cross-ratio routine serves all three.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

Quat = Tuple[Fraction, Fraction, Fraction, Fraction]

#: Free slot of each cross-ratio map family (A frees the first slot).
FREE_SLOT = {"A": 0, "B": 1, "C": 2, "D": 3}
#: Indices into the three base points of the singular, zero and unit
#: arguments of each family.
SINGULAR_INDEX = {"A": 2, "B": 1, "C": 1, "D": 0}
ZERO_INDEX = {"A": 1, "B": 2, "C": 0, "D": 1}
UNIT_INDEX = {"A": 0, "B": 0, "C": 2, "D": 2}


class RationalRing:
    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return 1 / a

    @staticmethod
    def parse(text: str) -> Fraction:
        return Fraction(text.strip())

    @staticmethod
    def show(a: Fraction) -> str:
        return str(a)


class ModRing:
    """Integers mod a prime p."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        self.p = p
        self.name = f"gfp({p})"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 mod {self.p} has no inverse")
        return pow(a, self.p - 2, self.p)

    def parse(self, text: str) -> int:
        residue, sep, modulus = text.strip().partition(" mod ")
        if not sep or int(modulus) != self.p:
            raise ValueError(f"not a residue mod {self.p}: {text!r}")
        return int(residue)

    def show(self, a: int) -> str:
        return f"{a} mod {self.p}"


def qmul(a: Quat, b: Quat) -> Quat:
    """Hamilton product: i*j = k, j*k = i, k*i = j, i*i = j*j = k*k = -1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def qinv(a: Quat) -> Quat:
    """conj(a) / |a|^2."""
    norm = sum(c * c for c in a)
    if norm == 0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return (a[0] / norm, -a[1] / norm, -a[2] / norm, -a[3] / norm)


class QuaternionRing:
    name = "quaternion"
    zero = (Fraction(0),) * 4
    one = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    @staticmethod
    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    @staticmethod
    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    mul = staticmethod(qmul)
    inv = staticmethod(qinv)

    @staticmethod
    def parse(text: str) -> Quat:
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"not a quaternion: {text!r}")
        parts = body[1:-1].split(",")
        if len(parts) != 4:
            raise ValueError(f"not a quaternion: {text!r}")
        return tuple(Fraction(part.strip()) for part in parts)

    @staticmethod
    def show(a: Quat) -> str:
        return "(" + ",".join(str(c) for c in a) + ")"


def cross_ratio(ring, a, b, c, d):
    """[(A-D)^-1 (B-D)] [(B-C)^-1 (A-C)], factors never commuted."""
    first = ring.mul(ring.inv(ring.sub(a, d)), ring.sub(b, d))
    second = ring.mul(ring.inv(ring.sub(b, c)), ring.sub(a, c))
    return ring.mul(first, second)


def map_value(ring, family: str, points, x):
    """The family's cross-ratio map at x: x fills the family's free slot."""
    slots = list(points)
    slots.insert(FREE_SLOT[family], x)
    return cross_ratio(ring, *slots)


def parse_point(ring, text: str):
    """A printed plane point ``(x, y)``; coordinates may nest parentheses."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a point: {text!r}")
    body = body[1:-1]
    depth = 0
    for index, char in enumerate(body):
        depth += (char == "(") - (char == ")")
        if char == "," and depth == 0:
            return ring.parse(body[:index]), ring.parse(body[index + 1:])
    raise ValueError(f"not a point: {text!r}")


def embed(ring, origin, unit, c):
    """The point O + c (I - O) of the frame line through O and I."""
    return tuple(ring.add(o, ring.mul(c, ring.sub(u, o))) for o, u in zip(origin, unit))


def cross2(ring, u, v):
    """u.x v.y - u.y v.x (commutative rings only): zero iff u, v are parallel."""
    return ring.sub(ring.mul(u[0], v[1]), ring.mul(u[1], v[0]))


def diff(ring, p, q):
    """The vector q - p."""
    return (ring.sub(q[0], p[0]), ring.sub(q[1], p[1]))


def parallel(ring, p, q, r, s) -> bool:
    """True iff the line pq is parallel to the line rs (or one is a point)."""
    return cross2(ring, diff(ring, p, q), diff(ring, r, s)) == ring.zero


def line_direction(ring, p, q):
    """Normalized direction of the line pq: (1, m) or (0, 1)."""
    dx, dy = diff(ring, p, q)
    if dx != ring.zero:
        return ring.one, ring.mul(ring.inv(dx), dy)
    return ring.zero, ring.one
