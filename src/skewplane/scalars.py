"""Exact scalar arithmetic for three interchangeable skew-field backends.

The three backends are

* :class:`Rational` -- arbitrary-precision rationals (commutative),
* :class:`PrimeFieldElement` -- integers mod a prime p (commutative, finite),
* :class:`RationalQuaternion` -- quaternions with rational coefficients,
  the canonical desk-scale *non-commutative* skew field.

Every operation is exact; floating point is banned from the core, so all
comparisons are exact structural equality on canonical forms.  Values are
immutable and safe to share.  :class:`SkewScalar` states the rules all
backends share: plain ``int`` operands are accepted everywhere (the
integers embed canonically in any skew field), and scalars from different
backends never mix: any cross-backend operation raises
:class:`BackendMismatchError`.  A backend supplies only its storage, its
arithmetic, a canonical ``_key`` and ``_from_int``.

Every scalar hashes its canonical ``_key``.  ``==`` embeds an ``int``, but
no scalar hashes like the embedded ``int`` (for GF(p) no hash could agree
with every int of a residue class), so ints and scalars never share dicts
or sets: ``3 in {Rational(3)}`` is False although ``Rational(3) == 3``.

Rationals, and quaternions too, do their arithmetic on plain integers: a
rational is a numerator over a positive denominator with no common
factor, a quaternion four numerators over one positive common
denominator that shares no factor with all of them (canonical forms).
Only the quaternion component views import ``fractions``.

Only the public constructors validate their arguments.  Arithmetic builds
each result in one step: it computes the canonical form itself, writes
the slots through their slot descriptors, past both the constructor's
checks and :class:`Immutable`'s guard, and takes an operand of its own
class as it is, without the ``_coerce`` call that an ``int`` or an
alien operand goes through.  ``_from_int``, the embedding of an int into
a value's backend, builds without validating too.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, Union

from .errors import BackendMismatchError, UsageError, ZeroInverseError

if TYPE_CHECKING:
    from fractions import Fraction

RationalLike = Union[int, "Fraction"]

_new = object.__new__


def _ratio(value, denominator=1) -> tuple:
    """``value / denominator`` as a reduced ``(n, d)`` pair of ints, d > 0.

    Both are ints, bools or exact rationals with int ``numerator`` and
    ``denominator`` (``Fraction``); floats (the exactness ban) and all
    else are a TypeError."""
    try:
        n, d = value.numerator * denominator.denominator, \
            value.denominator * denominator.numerator
    except AttributeError:
        n = d = None
    if not (isinstance(n, int) and isinstance(d, int)):
        raise TypeError("exact scalars take ints and exact rationals, got "
                        f"{type(value).__name__} and {type(denominator).__name__}")
    if not d:
        raise ZeroDivisionError("zero denominator")
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return n // g, d // g


def _ratio_str(n: int, d: int) -> str:
    """``n / d`` for d > 0 in lowest terms, ``n`` or ``n/d``, reduced with
    one gcd; beyond the interpreter's digit limit, which the parser cannot
    read past either, a UsageError."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        raise _too_long_to_print() from None


def _too_long_to_print() -> UsageError:
    """The error for a value whose digits exceed the interpreter's limit."""
    return UsageError("value too long to print: more than "
                      f"{sys.get_int_max_str_digits()} digits")


class Immutable:
    """Slotted values that refuse assignment and deletion of attributes.

    Constructors and arithmetic write their slots past the guard, through
    the slot descriptors' ``__set__`` or ``object.__setattr__``; copy and
    pickle restore them through ``__setstate__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Record:
    """Slotted records whose ``__slots__`` name the fields in constructor order.

    Derives ``==`` (records of the same class, field by field, else
    ``NotImplemented``), a hash over the field tuple and the repr
    ``Name(field=value, ...)``.  A frozen record also derives from
    :class:`Immutable`; a mutable one sets ``__hash__ = None``.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        """Write a frozen record's fields, past :class:`Immutable`'s guard."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class SkewScalar(Immutable, ABC):
    """An element of the active skew field.

    A backend implements ``+``, ``-``, unary ``-``, ``*``, ``inverse``,
    ``is_zero``, ``_key`` and ``_from_int``; this class derives the
    reflected operators, ``==`` and ``hash`` over ``_key``, an identity
    ``conjugate``, and ``_coerce``, the one operand rule, which embeds ints
    by ``_from_int``.
    Multiplication is NOT assumed commutative anywhere.
    """

    __slots__ = ()

    @abstractmethod
    def __add__(self, other): ...

    @abstractmethod
    def __sub__(self, other): ...

    @abstractmethod
    def __neg__(self): ...

    @abstractmethod
    def __mul__(self, other): ...

    @abstractmethod
    def inverse(self):
        """Two-sided multiplicative inverse; raises ZeroInverseError on 0."""

    @abstractmethod
    def is_zero(self) -> bool: ...

    @abstractmethod
    def _key(self):
        """The canonical form: two values are equal iff their keys are."""

    @abstractmethod
    def _from_int(self, n: int):
        """The int ``n`` (or a bool) embedded in this value's backend."""

    def conjugate(self):
        """The standard involution: quaternion conjugation, identity on
        commutative backends.  Satisfies conj(a*b) = conj(b)*conj(a)."""
        return self

    def _coerce(self, other):
        """Return ``other`` as a same-backend scalar, ``None`` if alien.

        Raises BackendMismatchError when ``other`` is a scalar of a
        different backend (mixing is a hard error, never a silent cast).
        """
        if isinstance(other, self.__class__):
            return other
        if isinstance(other, int):
            return self._from_int(other)
        if isinstance(other, SkewScalar):
            raise BackendMismatchError(
                f"cannot combine {self.__class__.__name__} with "
                f"{other.__class__.__name__} value {other!r}")
        return None

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._key() == coerced._key()

    def __hash__(self):
        return hash(self._key())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced * self

    def __bool__(self) -> bool:
        return not self.is_zero()


class Rational(SkewScalar):
    """An exact rational number in canonical reduced form.

    Invariants: denominator > 0, gcd(|numerator|, denominator) = 1, the
    canonical zero is 0/1.  Canonicalization happens at construction, so
    ``Rational(2, 4) == Rational(1, 2)`` structurally.
    """

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator: RationalLike = 0, denominator: RationalLike = 1):
        n, d = _ratio(numerator, denominator)
        out = _new(cls)
        _set_numerator(out, n)
        _set_denominator(out, d)
        return out

    @staticmethod
    def _wrap(n: int, d: int) -> "Rational":
        """The value n / d, which must already be canonical."""
        out = _new(Rational)
        _set_numerator(out, n)
        _set_denominator(out, d)
        return out

    @staticmethod
    def _reduce(n: int, d: int) -> "Rational":
        """The value n / d for d > 0, divided by their gcd."""
        g = math.gcd(n, d)
        out = _new(Rational)
        _set_numerator(out, n // g)
        _set_denominator(out, d // g)
        return out

    def _key(self):
        return (self.numerator, self.denominator)

    def _from_int(self, n: int) -> "Rational":
        return Rational._wrap(int(n), 1)  # canonical as it is

    def __add__(self, other):
        if other.__class__ is not Rational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.denominator, other.denominator
        return Rational._reduce(self.numerator * d2 + other.numerator * d1, d1 * d2)

    def __sub__(self, other):
        if other.__class__ is not Rational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.denominator, other.denominator
        return Rational._reduce(self.numerator * d2 - other.numerator * d1, d1 * d2)

    def __neg__(self):
        return Rational._wrap(-self.numerator, self.denominator)

    def __mul__(self, other):
        if other.__class__ is not Rational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return Rational._reduce(self.numerator * other.numerator,
                                self.denominator * other.denominator)

    def inverse(self) -> "Rational":
        n, d = self.numerator, self.denominator
        if not n:
            raise ZeroInverseError("0 has no multiplicative inverse")
        return Rational._wrap(d, n) if n > 0 else Rational._wrap(-d, -n)

    def is_zero(self) -> bool:
        return not self.numerator

    def __eq__(self, other) -> bool:
        if isinstance(other, Rational):  # fast path of the base rule
            return self.numerator == other.numerator and self.denominator == other.denominator
        return super().__eq__(other)

    __hash__ = SkewScalar.__hash__

    def __str__(self) -> str:
        return _ratio_str(self.numerator, self.denominator)

    def __repr__(self) -> str:
        return f"Rational({self})"


_set_numerator = Rational.numerator.__set__
_set_denominator = Rational.denominator.__set__


class PrimeFieldElement(SkewScalar):
    """A residue in GF(p), 0 <= residue < p, with p prime.

    The modulus is part of the value's backend identity: elements of
    GF(5) and GF(7) never mix.
    """

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        if not isinstance(residue, int) or isinstance(residue, bool):
            raise TypeError("residue must be an int")
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        _set_modulus(self, modulus)
        _set_residue(self, residue % modulus)

    @staticmethod
    def _wrap(residue: int, modulus: int) -> "PrimeFieldElement":
        """The residue class of ``residue``, which must already be in [0, modulus)."""
        out = _new(PrimeFieldElement)
        _set_residue(out, residue)
        _set_modulus(out, modulus)
        return out

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise BackendMismatchError(
                    f"GF({self.modulus}) and GF({other.modulus}) elements cannot mix"
                )
            return other
        return super()._coerce(other)

    def _key(self):
        return (self.residue, self.modulus)

    def _from_int(self, n: int) -> "PrimeFieldElement":
        m = self.modulus
        return PrimeFieldElement._wrap(int(n) % m, m)

    def __add__(self, other):
        m = self.modulus
        if other.__class__ is not PrimeFieldElement or other.modulus != m:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return PrimeFieldElement._wrap((self.residue + other.residue) % m, m)

    def __sub__(self, other):
        m = self.modulus
        if other.__class__ is not PrimeFieldElement or other.modulus != m:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return PrimeFieldElement._wrap((self.residue - other.residue) % m, m)

    def __neg__(self):
        m = self.modulus
        return PrimeFieldElement._wrap(-self.residue % m, m)

    def __mul__(self, other):
        m = self.modulus
        if other.__class__ is not PrimeFieldElement or other.modulus != m:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return PrimeFieldElement._wrap(self.residue * other.residue % m, m)

    def inverse(self) -> "PrimeFieldElement":
        m = self.modulus
        if self.residue == 0:
            raise ZeroInverseError(f"0 mod {m} has no inverse")
        return PrimeFieldElement._wrap(pow(self.residue, -1, m), m)

    def is_zero(self) -> bool:
        return self.residue == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PrimeFieldElement) and other.modulus == self.modulus:
            return self.residue == other.residue  # fast path of the base rule
        return super().__eq__(other)

    __hash__ = SkewScalar.__hash__

    def __str__(self) -> str:
        return f"{self.residue} mod {self.modulus}"

    def __repr__(self) -> str:
        return f"PrimeFieldElement({self.residue}, {self.modulus})"


_set_residue = PrimeFieldElement.residue.__set__
_set_modulus = PrimeFieldElement.modulus.__set__


class RationalQuaternion(SkewScalar):
    """A quaternion w + x*i + y*j + z*k with exact rational coefficients.

    The value is stored as four integers ``_n`` over one positive
    denominator ``_d`` whose gcd with all four is 1 (zero is
    ``((0, 0, 0, 0), 1)``), so the form is canonical and equality compares
    integers.  Each operation reduces its result with at most one gcd.
    ``w``, ``x``, ``y``, ``z`` and ``components()`` are exact rational
    views; the hash is that of the canonical ``(_n, _d)``.  The norm
    w^2 + x^2 + y^2 + z^2 vanishes only at zero, which guarantees every
    nonzero element is invertible: q^-1 = conjugate(q) / norm(q), exactly.
    Multiplication follows the Hamilton table (i*j = k, j*i = -k, ...)
    and is the package's working witness of non-commutativity.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, w: RationalLike = 0, x: RationalLike = 0,
                 y: RationalLike = 0, z: RationalLike = 0):
        parts = [_ratio(c) for c in (w, x, y, z)]
        # reduced components: the lcm of their denominators is already canonical
        d = math.lcm(*(q for _, q in parts))
        _set_quaternion_n(self, tuple(p * (d // q) for p, q in parts))
        _set_quaternion_d(self, d)

    @staticmethod
    def _wrap(n, d) -> "RationalQuaternion":
        """The value n / d, which must already be canonical."""
        out = _new(RationalQuaternion)
        _set_quaternion_n(out, n)
        _set_quaternion_d(out, d)
        return out

    @staticmethod
    def _reduce(a, b, c, e, d) -> "RationalQuaternion":
        """The value (a, b, c, e) / d for d > 0, divided by their one gcd."""
        g = math.gcd(a, b, c, e, d)
        if g != 1:
            a, b, c, e, d = a // g, b // g, c // g, e // g, d // g
        out = _new(RationalQuaternion)
        _set_quaternion_n(out, (a, b, c, e))
        _set_quaternion_d(out, d)
        return out

    w = property(lambda self: self.components()[0], doc="The real part.")
    x = property(lambda self: self.components()[1], doc="The i coefficient.")
    y = property(lambda self: self.components()[2], doc="The j coefficient.")
    z = property(lambda self: self.components()[3], doc="The k coefficient.")

    def components(self):
        """The (w, x, y, z) coefficients as exact rationals."""
        from fractions import Fraction
        return tuple(Fraction(a, self._d) for a in self._n)

    def _key(self):
        return (self._n, self._d)

    def _from_int(self, n: int) -> "RationalQuaternion":
        return RationalQuaternion._wrap((int(n), 0, 0, 0), 1)  # canonical as it is

    def __add__(self, other):
        if other.__class__ is not RationalQuaternion:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._n
        f, g, h, k = other._n
        d1, d2 = self._d, other._d
        return RationalQuaternion._reduce(a * d2 + f * d1, b * d2 + g * d1,
                                          c * d2 + h * d1, e * d2 + k * d1, d1 * d2)

    def __sub__(self, other):
        if other.__class__ is not RationalQuaternion:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._n
        f, g, h, k = other._n
        d1, d2 = self._d, other._d
        return RationalQuaternion._reduce(a * d2 - f * d1, b * d2 - g * d1,
                                          c * d2 - h * d1, e * d2 - k * d1, d1 * d2)

    def __neg__(self):
        a, b, c, e = self._n
        return RationalQuaternion._wrap((-a, -b, -c, -e), self._d)

    def __mul__(self, other):
        if other.__class__ is not RationalQuaternion:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self._n
        e, f, g, h = other._n
        return RationalQuaternion._reduce(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
            self._d * other._d,
        )

    def norm(self):
        """The reduced norm w^2 + x^2 + y^2 + z^2 (an exact rational)."""
        from fractions import Fraction
        a, b, c, e = self._n
        return Fraction(a * a + b * b + c * c + e * e, self._d * self._d)

    def conjugate(self) -> "RationalQuaternion":
        a, b, c, e = self._n
        return RationalQuaternion._wrap((a, -b, -c, -e), self._d)

    def inverse(self) -> "RationalQuaternion":
        a, b, c, e = self._n
        n = a * a + b * b + c * c + e * e
        if not n:
            raise ZeroInverseError("zero quaternion has no inverse")
        d = self._d
        return RationalQuaternion._reduce(a * d, -b * d, -c * d, -e * d, n)

    def is_zero(self) -> bool:
        return not any(self._n)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalQuaternion):  # fast path of the base rule
            return self._d == other._d and self._n == other._n
        return super().__eq__(other)

    __hash__ = SkewScalar.__hash__

    def __str__(self) -> str:
        """``(w,x,y,z)``, each component as ``_ratio_str`` prints it."""
        d = self._d
        try:
            if d == 1:
                return "({},{},{},{})".format(*self._n)
            return "({},{},{},{})".format(*(
                f"{a // g}/{d // g}" if (g := math.gcd(a, d)) != d else str(a // g)
                for a in self._n))
        except ValueError:
            raise _too_long_to_print() from None

    def __repr__(self) -> str:
        return f"RationalQuaternion{self.components()}"


_set_quaternion_n = RationalQuaternion._n.__set__
_set_quaternion_d = RationalQuaternion._d.__set__


def ensure_same_backend(first: SkewScalar, *rest: SkewScalar) -> None:
    """Raise BackendMismatchError unless all scalars share one backend."""
    for other in rest:
        first._coerce(other)


#: The first 13 primes, the Miller-Rabin witnesses of :func:`is_prime`.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
#: every base in ``_WITNESSES`` (Sorenson & Webster, "Strong pseudoprimes
#: to twelve prime bases", Math. Comp. 2017).
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the 13 prime bases up to 41.

    Exact for every n below ``PRIMALITY_BOUND`` (about 3.3e24); from there
    on these bases no longer decide primality, so a ``ValueError`` is
    raised instead of an answer.
    """
    if n < 2:
        return False
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}")
    for small in _WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for witness in _WITNESSES:
        x = pow(witness, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ScalarField(ABC):
    """A skew-field backend: a factory plus backend-level metadata.

    The backend is chosen once per plane (a construction-time parameter),
    never per value; everything downstream inherits it.
    """

    #: True when multiplication commutes in this backend.
    commutative: bool = True
    #: True when the backend has finitely many elements.
    finite: bool = False
    name: str = ""

    @abstractmethod
    def from_int(self, n: int) -> SkewScalar: ...

    def zero(self) -> SkewScalar:
        return self.from_int(0)

    def one(self) -> SkewScalar:
        return self.from_int(1)

    @abstractmethod
    def random_element(self, rng) -> SkewScalar:
        """A small random element, drawn from the explicit ``rng``."""

    def random_nonzero(self, rng) -> SkewScalar:
        value = self.random_element(rng)
        while value.is_zero():
            value = self.random_element(rng)
        return value

    def elements(self) -> Iterator[SkewScalar]:
        raise TypeError(f"{self.name} backend is not finite")

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self) -> str:
        return f"<field {self.name}>"


class RationalField(ScalarField):
    """The rational numbers, the commutative reference backend."""

    name = "rational"

    def from_int(self, n: int) -> Rational:
        return Rational(n)

    def random_element(self, rng) -> Rational:
        return Rational._reduce(rng.randint(-8, 8), rng.randint(1, 6))


class PrimeField(ScalarField):
    """GF(p) for a prime p; primality is checked at construction."""

    finite = True

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise ValueError(f"GF modulus must be prime, got {p!r}")
        self.p = p
        self.name = f"gfp({p})"

    def from_int(self, n: int) -> PrimeFieldElement:
        return PrimeFieldElement(n, self.p)

    def random_element(self, rng) -> PrimeFieldElement:
        return PrimeFieldElement._wrap(rng.randrange(self.p), self.p)

    def elements(self) -> Iterator[PrimeFieldElement]:
        for residue in range(self.p):
            yield PrimeFieldElement(residue, self.p)


class QuaternionField(ScalarField):
    """The rational quaternions, the non-commutative backend."""

    commutative = False
    name = "quaternion"

    def from_int(self, n: int) -> RationalQuaternion:
        return RationalQuaternion(n)

    def i(self) -> RationalQuaternion:
        return RationalQuaternion(0, 1, 0, 0)

    def j(self) -> RationalQuaternion:
        return RationalQuaternion(0, 0, 1, 0)

    def k(self) -> RationalQuaternion:
        return RationalQuaternion(0, 0, 0, 1)

    def random_element(self, rng) -> RationalQuaternion:
        return RationalQuaternion(*(
            Rational(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)
        ))
