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
:class:`BackendMismatchError`.  A backend supplies only its arithmetic,
``_from_int`` and its storage: one tuple of ints, ``_v``, which is its
canonical key, read by ``==`` and ``hash``.

``==`` embeds an ``int``, but no scalar hashes like the embedded ``int``
(for GF(p) no hash could agree with every int of a residue class), so
ints and scalars never share dicts or sets: ``3 in {Rational(3)}`` is
False although ``Rational(3) == 3``.

Rationals, and quaternions too, do their arithmetic on plain integers: a
rational's key is ``(n, d)``, a numerator over a positive denominator with
no common factor, a GF(p) element's ``(residue, p)``, and a quaternion's
``(a, b, c, e, d)``, four numerators over a positive common denominator d
that shares no factor with all of them (canonical forms).  No module of
the package imports ``fractions``; the public constructors still take
``Fraction`` values, whose int ``numerator`` and ``denominator`` they read.

Only the public constructors validate their arguments.  Each operator
builds its result in its own frame: it unpacks each operand's key once,
computes the canonical form itself, dividing by the gcd only when that is
not 1, writes the key through its slot descriptor, past both the
constructor's checks and :class:`Immutable`'s guard, and takes an operand
of its own class as it is, without the ``_coerce`` call that an ``int`` or
an alien operand goes through.  ``_from_int`` builds without validating
too, and so do the draws: GF(p) draws a canonical residue below p, a
rational is one of 102 values built at import, and a quaternion's four
components are 27 of them, written over their lcm denominator.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

from .errors import BackendMismatchError, UsageError, ZeroInverseError

#: False at run time, so nothing imports ``fractions``; type checkers take
#: this name as true and read the import.
TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

_new = object.__new__
_gcd = math.gcd
_lcm = math.lcm


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


class Immutable:
    """Slotted values that refuse assignment and deletion of attributes.

    Constructors, arithmetic and the records' ``_init`` write their slots
    past the guard, each through its slot descriptor's ``__set__``; copy
    and pickle, with every protocol, take the slots by ``__getstate__``
    and restore them through ``__setstate__``, which writes them with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __getstate__(self):
        """``(None, {slot: value})`` over the set slots of the class and
        its bases, the state of a slotted object; protocols 0 and 1 pickle
        a slotted class only through its own ``__getstate__``."""
        return None, {name: getattr(self, name) for cls in type(self).__mro__
                      for name in cls.__dict__.get("__slots__", ())
                      if hasattr(self, name)}

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Record:
    """Slotted records whose ``__slots__`` name the fields in constructor order.

    Derives ``==`` (records of the same class, field by field, else
    ``NotImplemented``), a hash over the field tuple and the repr
    ``Name(field=value, ...)``.  A frozen record also derives from
    :class:`Immutable`; a mutable one sets ``__hash__ = None``.  Each
    subclass keeps ``_setters``, the ``__set__`` of its slot descriptors
    in field order, through which ``_init`` writes a frozen record.
    """

    __slots__ = ()

    __getstate__ = Immutable.__getstate__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values) -> None:
        """Write a frozen record's first ``len(values)`` fields, past
        :class:`Immutable`'s guard."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

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


class SkewScalar(Immutable):
    """An element of the active skew field.

    A backend stores its canonical key in the one slot ``_v``, so two
    values are equal iff their keys are, and implements ``+``, ``-``,
    unary ``-``, ``*``, ``inverse`` (the two-sided multiplicative inverse,
    raising ZeroInverseError on 0), ``is_zero`` and ``_from_int`` (the int
    ``n``, or a bool, embedded in the value's backend); this class derives
    the reflected operators, ``==`` and ``hash`` over ``_v``, an identity
    ``conjugate``, and ``_coerce``, the one operand rule, which embeds
    ints by ``_from_int``.
    Multiplication is NOT assumed commutative anywhere.
    """

    __slots__ = ()

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
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

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

    Stored as one tuple ``_v = (n, d)``, its key: d > 0, gcd(|n|, d) = 1,
    and the canonical zero is 0/1.  Canonicalization happens at
    construction, so ``Rational(2, 4) == Rational(1, 2)`` structurally.
    """

    __slots__ = ("_v",)

    def __new__(cls, numerator: int | Fraction = 0, denominator: int | Fraction = 1):
        out = _new(cls)
        _set_rational(out, _ratio(numerator, denominator))
        return out

    @staticmethod
    def _reduce(n: int, d: int) -> "Rational":
        """The value n / d for d > 0, divided by their gcd."""
        g = _gcd(n, d)
        out = _new(Rational)
        _set_rational(out, (n // g, d // g))
        return out

    @property
    def numerator(self) -> int:
        return self._v[0]

    @property
    def denominator(self) -> int:
        return self._v[1]

    def _from_int(self, n: int) -> "Rational":
        out = _new(Rational)
        _set_rational(out, (int(n), 1))  # n / 1 is canonical as it is
        return out

    def __add__(self, other):
        if other.__class__ is not Rational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        n1, d1 = self._v
        n2, d2 = other._v
        n, d = n1 * d2 + n2 * d1, d1 * d2
        g = _gcd(n, d)
        out = _new(Rational)
        _set_rational(out, (n, d) if g == 1 else (n // g, d // g))
        return out

    def __sub__(self, other):
        if other.__class__ is not Rational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        n1, d1 = self._v
        n2, d2 = other._v
        n, d = n1 * d2 - n2 * d1, d1 * d2
        g = _gcd(n, d)
        out = _new(Rational)
        _set_rational(out, (n, d) if g == 1 else (n // g, d // g))
        return out

    def __neg__(self):
        n, d = self._v
        out = _new(Rational)
        _set_rational(out, (-n, d))
        return out

    def __mul__(self, other):
        if other.__class__ is not Rational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        n1, d1 = self._v
        n2, d2 = other._v
        n, d = n1 * n2, d1 * d2
        g = _gcd(n, d)
        out = _new(Rational)
        _set_rational(out, (n, d) if g == 1 else (n // g, d // g))
        return out

    def inverse(self) -> "Rational":
        n, d = self._v
        if not n:
            raise ZeroInverseError("0 has no multiplicative inverse")
        out = _new(Rational)
        _set_rational(out, (d, n) if n > 0 else (-d, -n))
        return out

    def is_zero(self) -> bool:
        return not self._v[0]

    def __str__(self) -> str:
        """``n`` or ``n/d``; beyond the interpreter's digit limit, which the
        parser cannot read past either, a UsageError."""
        n, d = self._v
        try:
            return str(n) if d == 1 else f"{n}/{d}"
        except ValueError:
            raise UsageError("value too long to print: more than "
                             f"{sys.get_int_max_str_digits()} digits") from None

    def __repr__(self) -> str:
        return f"Rational({self})"


_set_rational = Rational._v.__set__
#: The 102 values n/d, n in -8..8 and d in 1..6, that
#: ``RationalField.random_element`` draws: row n + 8, column d - 1.  The
#: components of ``QuaternionField.random_element``, n in -4..4 and d in
#: 1..3, are the keys of its rows 4 to 12, columns 0 to 2.
_RATIONAL_DRAWS = tuple(tuple(Rational(n, d) for d in range(1, 7)) for n in range(-8, 9))


class PrimeFieldElement(SkewScalar):
    """A residue in GF(p), 0 <= residue < p, with p prime.

    Stored as one tuple ``_v = (residue, modulus)``, its key.  The
    modulus is part of the value's backend identity: elements of GF(5)
    and GF(7) never mix.
    """

    __slots__ = ("_v",)

    def __init__(self, residue: int, modulus: int):
        if not isinstance(residue, int) or isinstance(residue, bool):
            raise TypeError("residue must be an int")
        if not isinstance(modulus, int) or isinstance(modulus, bool):
            raise TypeError(f"modulus must be an int, got {type(modulus).__name__}")
        if modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        _set_gfp(self, (residue % modulus, modulus))

    @property
    def residue(self) -> int:
        return self._v[0]

    @property
    def modulus(self) -> int:
        return self._v[1]

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other._v[1] != self._v[1]:
                raise BackendMismatchError(
                    f"GF({self.modulus}) and GF({other.modulus}) elements cannot mix"
                )
            return other
        return super()._coerce(other)

    def _from_int(self, n: int) -> "PrimeFieldElement":
        m = self._v[1]
        out = _new(PrimeFieldElement)
        _set_gfp(out, (int(n) % m, m))
        return out

    def __add__(self, other):
        r, m = self._v
        if other.__class__ is not PrimeFieldElement or other._v[1] != m:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        out = _new(PrimeFieldElement)
        _set_gfp(out, ((r + other._v[0]) % m, m))
        return out

    def __sub__(self, other):
        r, m = self._v
        if other.__class__ is not PrimeFieldElement or other._v[1] != m:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        out = _new(PrimeFieldElement)
        _set_gfp(out, ((r - other._v[0]) % m, m))
        return out

    def __neg__(self):
        r, m = self._v
        out = _new(PrimeFieldElement)
        _set_gfp(out, (-r % m, m))
        return out

    def __mul__(self, other):
        r, m = self._v
        if other.__class__ is not PrimeFieldElement or other._v[1] != m:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        out = _new(PrimeFieldElement)
        _set_gfp(out, (r * other._v[0] % m, m))
        return out

    def inverse(self) -> "PrimeFieldElement":
        r, m = self._v
        if not r:
            raise ZeroInverseError(f"0 mod {m} has no inverse")
        out = _new(PrimeFieldElement)
        _set_gfp(out, (pow(r, -1, m), m))
        return out

    def is_zero(self) -> bool:
        return not self._v[0]

    def __eq__(self, other) -> bool:  # the shared rule, with _coerce refusing another GF(p)
        if other.__class__ is not PrimeFieldElement or other._v[1] != self._v[1]:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._v == other._v

    __hash__ = SkewScalar.__hash__  # a class that defines __eq__ loses the inherited one

    def __str__(self) -> str:
        return "{} mod {}".format(*self._v)

    def __repr__(self) -> str:
        return "PrimeFieldElement({}, {})".format(*self._v)


_set_gfp = PrimeFieldElement._v.__set__


class RationalQuaternion(SkewScalar):
    """A quaternion w + x*i + y*j + z*k with exact rational coefficients.

    The value is stored as one tuple ``_v = (a, b, c, e, d)``: four
    integers over one positive denominator d whose gcd with all four is 1
    (zero is ``(0, 0, 0, 0, 1)``), so the form is canonical, ``_v`` is the
    key, and equality and the hash are those of one tuple of ints.  Each
    operation reduces its result with at most one gcd.  ``components()``
    gives (w, x, y, z) as four :class:`Rational` values.  The norm
    w^2 + x^2 + y^2 + z^2 vanishes only at zero, which guarantees every
    nonzero element is invertible: q^-1 = conjugate(q) / norm(q), exactly.
    Multiplication follows the Hamilton table (i*j = k, j*i = -k, ...)
    and is the package's working witness of non-commutativity.
    """

    __slots__ = ("_v",)

    def __init__(self, w: int | Fraction = 0, x: int | Fraction = 0,
                 y: int | Fraction = 0, z: int | Fraction = 0):
        parts = [_ratio(c) for c in (w, x, y, z)]
        # reduced components: the lcm of their denominators is already canonical
        d = math.lcm(*(q for _, q in parts))
        _set_quaternion(self, (*(p * (d // q) for p, q in parts), d))

    def components(self) -> tuple:
        """The (w, x, y, z) coefficients, each a :class:`Rational` in
        lowest terms."""
        *n, d = self._v
        return tuple(Rational._reduce(a, d) for a in n)

    def _from_int(self, n: int) -> "RationalQuaternion":
        out = _new(RationalQuaternion)
        _set_quaternion(out, (int(n), 0, 0, 0, 1))  # canonical as it is
        return out

    def __add__(self, other):
        if other.__class__ is not RationalQuaternion:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e, d1 = self._v
        f, g, h, k, d2 = other._v
        w, x, y, z, d = (a * d2 + f * d1, b * d2 + g * d1, c * d2 + h * d1,
                         e * d2 + k * d1, d1 * d2)
        n = _gcd(w, x, y, z, d)
        out = _new(RationalQuaternion)
        _set_quaternion(out, (w, x, y, z, d) if n == 1 else
                        (w // n, x // n, y // n, z // n, d // n))
        return out

    def __sub__(self, other):
        if other.__class__ is not RationalQuaternion:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e, d1 = self._v
        f, g, h, k, d2 = other._v
        w, x, y, z, d = (a * d2 - f * d1, b * d2 - g * d1, c * d2 - h * d1,
                         e * d2 - k * d1, d1 * d2)
        n = _gcd(w, x, y, z, d)
        out = _new(RationalQuaternion)
        _set_quaternion(out, (w, x, y, z, d) if n == 1 else
                        (w // n, x // n, y // n, z // n, d // n))
        return out

    def __neg__(self):
        a, b, c, e, d = self._v
        out = _new(RationalQuaternion)
        _set_quaternion(out, (-a, -b, -c, -e, d))
        return out

    def __mul__(self, other):
        if other.__class__ is not RationalQuaternion:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e, d1 = self._v
        f, g, h, k, d2 = other._v
        w, x, y, z, d = (a * f - b * g - c * h - e * k, a * g + b * f + c * k - e * h,
                         a * h - b * k + c * f + e * g, a * k + b * h - c * g + e * f, d1 * d2)
        n = _gcd(w, x, y, z, d)
        out = _new(RationalQuaternion)
        _set_quaternion(out, (w, x, y, z, d) if n == 1 else
                        (w // n, x // n, y // n, z // n, d // n))
        return out

    def conjugate(self) -> "RationalQuaternion":
        a, b, c, e, d = self._v
        out = _new(RationalQuaternion)
        _set_quaternion(out, (a, -b, -c, -e, d))
        return out

    def inverse(self) -> "RationalQuaternion":
        a, b, c, e, d = self._v
        n = a * a + b * b + c * c + e * e
        if not n:
            raise ZeroInverseError("zero quaternion has no inverse")
        w, x, y, z = a * d, -b * d, -c * d, -e * d
        g = _gcd(w, x, y, z, n)
        out = _new(RationalQuaternion)
        _set_quaternion(out, (w, x, y, z, n) if g == 1 else
                        (w // g, x // g, y // g, z // g, n // g))
        return out

    def is_zero(self) -> bool:
        return self._v == (0, 0, 0, 0, 1)  # the canonical zero

    def __str__(self) -> str:
        """``(w,x,y,z)``, each component the rational ``Rational.__str__``
        prints, so in lowest terms, and past the digit limit a UsageError."""
        return "({},{},{},{})".format(*self.components())

    def __repr__(self) -> str:
        return f"RationalQuaternion{self}"


_set_quaternion = RationalQuaternion._v.__set__


def ensure_same_backend(first: SkewScalar, *rest: SkewScalar) -> None:
    """Raise TypeError unless every argument is a scalar (an int too: the
    callers store the values as they are), and BackendMismatchError unless
    all share one backend."""
    for value in (first, *rest):
        if not isinstance(value, SkewScalar):
            raise TypeError(f"expected a scalar, got {type(value).__name__}")
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


class ScalarField:
    """A skew-field backend: a factory plus backend-level metadata.

    The backend is chosen once per plane (a construction-time parameter),
    never per value; everything downstream inherits it.  A backend
    implements ``from_int``, the int embedded in the field, and
    ``random_element``, a small random element drawn from the explicit
    ``rng``.  Each backend reads ``rng.getrandbits`` as
    ``random.Random.randint`` and ``randrange`` do, k = n.bit_length()
    bits for a value below n, drawn again while n or more, so a seed gives
    the values and the generator state those formulas give.  A subclass of
    ``Random`` that overrides only ``random()`` has its ``randint`` read
    ``random()``; its draws are valid values, but not those of its
    ``randint``.
    """

    #: True when the backend has finitely many elements.
    finite: bool = False
    name: str = ""

    def zero(self) -> SkewScalar:
        return self.from_int(0)

    def one(self) -> SkewScalar:
        return self.from_int(1)

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
        """n/d for ``randint(-8, 8)`` and ``randint(1, 6)``: 5 bits below
        17, then 3 bits below 6, index ``_RATIONAL_DRAWS``."""
        getrandbits = rng.getrandbits
        n = getrandbits(5)
        while n >= 17:
            n = getrandbits(5)
        d = getrandbits(3)
        while d >= 6:
            d = getrandbits(3)
        return _RATIONAL_DRAWS[n][d]


class PrimeField(ScalarField):
    """GF(p) for a prime p; primality is checked at construction."""

    finite = True

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"GF modulus must be an int, got {type(p).__name__}")
        if not is_prime(p):
            raise ValueError(f"GF modulus must be prime, got {p!r}")
        self.p = p
        self.name = f"gfp({p})"

    def from_int(self, n: int) -> PrimeFieldElement:
        return PrimeFieldElement(n, self.p)

    def random_element(self, rng) -> PrimeFieldElement:
        """The residue ``randrange(p)``: p.bit_length() bits below p."""
        p = self.p
        k = p.bit_length()
        r = rng.getrandbits(k)
        while r >= p:
            r = rng.getrandbits(k)
        out = _new(PrimeFieldElement)
        _set_gfp(out, (r, p))  # in range: canonical as drawn
        return out

    def elements(self) -> Iterator[PrimeFieldElement]:
        for residue in range(self.p):
            yield PrimeFieldElement(residue, self.p)


class QuaternionField(ScalarField):
    """The rational quaternions, the non-commutative backend."""

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
        """Four components n/d, each ``randint(-4, 4)`` and ``randint(1, 3)``:
        4 bits below 9, then 2 bits below 3, index ``_RATIONAL_DRAWS``."""
        getrandbits = rng.getrandbits
        parts = []
        for _ in range(4):
            n = getrandbits(4)
            while n >= 9:
                n = getrandbits(4)
            d = getrandbits(2)
            while d >= 3:
                d = getrandbits(2)
            parts.append(_RATIONAL_DRAWS[n + 4][d]._v)
        (a, p), (b, q), (c, r), (e, s) = parts
        # reduced components: the lcm of their denominators is already canonical
        d = _lcm(p, q, r, s)
        out = _new(RationalQuaternion)
        _set_quaternion(out, (a * (d // p), b * (d // q), c * (d // r), e * (d // s), d))
        return out
