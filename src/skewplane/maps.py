"""The four cross-ratio map families and their verified algebra.

Fixing three of the cross-ratio's four slots and letting the remaining
slot range over the line yields four map families, tagged by the freed
slot: A frees the first slot, B the second, C the third, D the fourth.
``evaluate`` and ``inverse_value`` are the definitional route: the
cross-ratio [(A-D)^-1 (B-D)] [(B-C)^-1 (A-C)] with X in the free slot.

Each family has three distinguished arguments: the singular point S,
where an inverted difference vanishes and the map is undefined, and the
zero point Z0 and unit point U, sent to the additive and multiplicative
neutrals (a product vanishes only when a factor does: a skew field has
no zero divisors).  Two of the cross-ratio's four differences never
contain X, so each map combines X-free constants of its base
(``_factors``) with one inverted difference X - S.  Family A is
(X-S)^-1 g (X-Z0); family C takes the normal form omega + P (X-S)^-1 Q:

    family  base       S  Z0  U  constants
    A       (B, C, D)  D  C   B  g = (B-D)(B-C)^-1
    C       (A, B, D)  B  A   D  omega = (A-D)^-1 (B-D), P = omega, Q = B-A

and B = 1 - C, D = C^-1 on the same points.  (C from (B-X)^-1 (A-X) =
1 + (X-B)^-1 (B-A).  Swapping slots 1 and 2, or 2 and 3, of the
cross-ratio turns lambda into 1 - lambda, or lambda^-1, exactly, also
over a skew field: E. Artin, Geometric Algebra, 1957, ch. II.)  So B is
the normal form (1-omega, omega, -Q) on C's S, with C's zero and unit
points exchanged, and D is C inverted (below): omega^-1 - (X-A)^-1 Q
omega^-1, its P = 1 not multiplied.  A base computes the constants once,
at construction, together with its S, Z0 and U, and the verify_*
runners, ``preimage`` and ``omitted_value`` read them from it; a value
then costs 1 subtraction, 1 inverse, 2 products (A, B, C; D: 1) and
1 sum (A: 2 subtractions and no sum) instead of the cross-ratio's
4 subtractions, 2 inverses and 3 products.

Each family's image is known exactly.  P and Q are nonzero, and
(X-S)^-1 takes every nonzero value as X runs over the line but S, so
P (X-S)^-1 Q takes every value but 0: families B, C and D take every
value but ``omitted_value(base)`` = omega, and w != omega is attained at
Z = S + Q (w-omega)^-1 P.  Family A attains w exactly when
psi = g g - t g + n (t = w + conj(w), n = w conj(w)) is nonzero, or w is
not central and equals h = (C-D)^-1 conj(g) (C-D): it omits g's
conjugacy class but h for a non-real quaternion g, and g alone for a
real g or a commutative field.  A's constants carry g g for the psi test.

The inverse map, the cross-ratio with the contents of the two final
slots swapped, is the map of the swapped base: A and B on (p0, p2, p1),
C and D exchanged on the same points.  Its constants come from the
base's own, with S and Z0 exchanged; D's inverse map is C's, whose
constants D's were inverted from.  For A that is g^-1, the swapped
base's g = (p0-p1)(p0-p2)^-1.  For the normal form ``_inverted`` gives
omega^-1 - omega^-1 P (X-Z0)^-1 Q omega^-1, where omega^-1 P = 1
for P = omega: the map vanishes at Z0, so Z0 - S = -Q omega^-1 P, and
the product with the map telescopes to 1 on both sides.

The verify_* runners re-check all of this pointwise on explicit sample
sets and return structured reports (one line per identity) so the CLI
can run them on user-supplied bases.  Each call builds its tables once,
in sample order: x_i, the map value at the i-th argument (from the
constants, once per distinct argument; at the zero or unit point by the
definitional route), y_i = x_i+1 and z_i = x_i+2 (indices cyclic), the
sums s_i = x_i + y_i, the products p_i = x_i y_i and, for distributivity
only, q_i = x_i z_i.  Every identity computes both sides from them:
s_i + z_i = x_i + s_i+1, s_i = y_i + x_i, p_i z_i = x_i p_i+1,
x_i s_i+1 = p_i + q_i and s_i z_i = q_i + p_i+1.  The inverse law checks
the inverse map, from the inverted constants, against the x_i.  The
README gives each runner's scalar-op counts, as the tests pin them.

Verification never asserts set closure; each report records,
informationally, how many of the s_i (or p_i) the map attains again, by
image membership from the same constants: one comparison with omega
(B, C, D) or one psi test (A) per value, as ``preimage`` does.  The
record's ``undecided`` count, always 0, only keeps the note's format.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, List, Optional, Tuple

from .errors import (
    InvalidBaseError,
    SingularArgumentError,
    ZeroValueNotInvertibleError,
)
from .ratios import cross_ratio
from .scalars import Immutable, Record, ScalarField, SkewScalar


class Family(enum.Enum):
    """Which of the four cross-ratio slots is the free argument."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


#: Index of the free slot in the four-slot cross-ratio argument list.
_FREE_SLOT = {Family.A: 0, Family.B: 1, Family.C: 2, Family.D: 3}
#: Index into base.points of the singular / zero / unit arguments.
_SINGULAR_INDEX = {Family.A: 2, Family.B: 1, Family.C: 1, Family.D: 0}
_ZERO_INDEX = {Family.A: 1, Family.B: 2, Family.C: 0, Family.D: 1}
_UNIT_INDEX = {Family.A: 0, Family.B: 0, Family.C: 2, Family.D: 2}


class CrossRatioBase(Immutable, Record):
    """A family tag plus its three fixed points, in cross-ratio slot order.

    The standing hypothesis of every verified theorem applies: the three
    base points are pairwise distinct and all distinct from the zero
    element of the field.  The family and points decide ``==``, the hash,
    ``repr`` and ``str``; the rest derive from them at construction: the
    singular, zero and unit points and the X-free constants of the map
    and of its inverse map (``_factors``).
    """

    __slots__ = ("family", "points", "_singular", "_zero", "_unit",
                 "_constants", "_inverse_constants")

    def __init__(self, family: Family, points: Tuple[SkewScalar, SkewScalar, SkewScalar]):
        self._init(family, points)
        if len(self.points) != 3:
            raise InvalidBaseError("a cross-ratio base fixes exactly three points")
        p, q, r = self.points
        if p == q or p == r or q == r:
            raise InvalidBaseError(f"base points must be pairwise distinct: {self}")
        for point in self.points:
            if point.is_zero():
                raise InvalidBaseError("base points must differ from the zero point")
        self._init(family, points, points[_SINGULAR_INDEX[family]],
                   points[_ZERO_INDEX[family]], points[_UNIT_INDEX[family]],
                   *_factors(self))

    def _values(self) -> tuple:
        return (self.family, self.points)

    def __repr__(self) -> str:
        return f"CrossRatioBase(family={self.family!r}, points={self.points!r})"

    def slots(self, x: SkewScalar) -> Tuple[SkewScalar, ...]:
        """The full four-slot argument list with x in the free slot."""
        slots = list(self.points)
        slots.insert(_FREE_SLOT[self.family], x)
        return tuple(slots)

    def __str__(self) -> str:
        return f"family {self.family.value} base ({', '.join(map(str, self.points))})"


def singular_point(base: CrossRatioBase) -> SkewScalar:
    """The argument at which the family's map is undefined."""
    return base._singular


def zero_point(base: CrossRatioBase) -> SkewScalar:
    """The argument the map sends to the additive neutral O."""
    return base._zero


def unit_point(base: CrossRatioBase) -> SkewScalar:
    """The argument the map sends to the multiplicative neutral I."""
    return base._unit


def _check_argument(base: CrossRatioBase, x: SkewScalar,
                    invertible: bool = False) -> None:
    """Refuse the singular point, and the zero point where the value is inverted."""
    if x == base._singular:
        raise SingularArgumentError(base.family.value, x)
    if invertible and x == base._zero:
        raise ZeroValueNotInvertibleError(
            f"map value at {x} is the zero point and has no inverse")


def evaluate(base: CrossRatioBase, x: SkewScalar) -> SkewScalar:
    """The map value: the cross-ratio with x substituted in the free slot."""
    _check_argument(base, x)
    return cross_ratio(*base.slots(x))


def inverse_value(base: CrossRatioBase, x: SkewScalar) -> SkewScalar:
    """The multiplicative inverse of evaluate(base, x).

    Computed as the cross-ratio with the final two slot contents
    swapped, never by inverting the evaluated product; the tests confirm
    both routes agree and that the product with evaluate is the unit on
    both sides.
    """
    _check_argument(base, x, invertible=True)
    a, b, c, d = base.slots(x)
    return cross_ratio(a, b, d, c)


# ---------------------------------------------------------------------------
# the maps on their X-free constants (table in the module docstring)


def _factors(base: CrossRatioBase):
    """The X-free constants of the base's map and of its inverse map:
    (g, g g) and (g^-1,), or normal forms (omega, P, Q) with P = None for
    P = 1.  B and D take C's on the same points, and D's inverse map's are
    C's own, not D's inverted back.  The base's constructor keeps the
    pair; everything else reads it there."""
    p0, p1, p2 = base.points
    if base.family is Family.A:
        g = (p0 - p2) * (p0 - p1).inverse()
        return (g, g * g), (g.inverse(),)
    omega, q = (p0 - p2).inverse() * (p1 - p2), p1 - p0
    c = (omega, omega, q)
    if base.family is Family.D:
        return _inverted(c), c
    factors = (1 - omega, omega, -q) if base.family is Family.B else c
    return factors, _inverted(factors)


def _inverted(factors) -> Tuple[SkewScalar, ...]:
    """The constants of the normal form's pointwise inverse map, whose
    singular and zero points are the map's zero and singular points:
    omega^-1 - omega^-1 P (X-Z0)^-1 Q omega^-1, where omega^-1 P is 1
    (None) when P is omega itself, as in family C."""
    omega, p, q = factors
    w = omega.inverse()
    return (w, None if p is omega else w if p is None else w * p, -(q * w))


def _map_function(base: CrossRatioBase,
                  inverse: bool = False) -> Callable[[SkewScalar], SkewScalar]:
    """X -> evaluate(base, X) from the base's constants or, with ``inverse``,
    X -> inverse_value(base, X) from the inverse map's constants, on the
    arguments ``_check_argument`` admits."""
    if inverse:
        s, z, constants = base._zero, base._singular, base._inverse_constants
    else:
        s, z, constants = base._singular, base._zero, base._constants
    if base.family is Family.A:
        g = constants[0]
        value = lambda x: (x - s).inverse() * g * (x - z)
    else:
        omega, p, q = constants
        value = ((lambda x: omega + (x - s).inverse() * q) if p is None
                 else lambda x: omega + p * (x - s).inverse() * q)

    def at(x: SkewScalar) -> SkewScalar:
        _check_argument(base, x, inverse)
        return value(x)
    return at


# ---------------------------------------------------------------------------
# sample sets


class SampleSet(Immutable, Record):
    """Arguments to drive a verification run, with rejection bookkeeping.

    ``rejections`` counts draws that hit an excluded point (the singular
    point, and the zero point where inverses are needed) and were
    resampled; excluded points are never silently skipped inside a
    verifier, which keeps the reported statistics honest.
    """

    __slots__ = ("values", "rejections")

    def __init__(self, values: Tuple[SkewScalar, ...], rejections: int = 0):
        self._init(values, rejections)


def _random_points(field: ScalarField, rng: random.Random) -> Tuple[SkewScalar, ...]:
    """Three pairwise distinct nonzero random points: a valid base."""
    points: List[SkewScalar] = []
    while len(points) < 3:
        candidate = field.random_nonzero(rng)
        if all(candidate != existing for existing in points):
            points.append(candidate)
    return tuple(points)


def sample_arguments(field: ScalarField, base: CrossRatioBase, count: int,
                     seed: int, exclude_zero_point: bool = False) -> SampleSet:
    """Draw ``count`` valid random arguments for the base's map."""
    rng = random.Random(seed)
    draws = iter(lambda: field.random_element(rng), None)  # endless
    return _valid_arguments(base, draws, count, exclude_zero_point)


def exhaustive_arguments(field: ScalarField, base: CrossRatioBase,
                         exclude_zero_point: bool = False) -> SampleSet:
    """Every valid argument of a finite backend, in residue order."""
    return _valid_arguments(base, field.elements(), None, exclude_zero_point)


def _valid_arguments(base: CrossRatioBase, candidates, count: Optional[int],
                     exclude_zero_point: bool) -> SampleSet:
    """The first ``count`` (None: all) candidates other than the singular
    point and, where values are inverted, the zero point, with the number
    of excluded candidates passed over as the rejections."""
    excluded = [base._singular]
    if exclude_zero_point:
        excluded.append(base._zero)
    values: List[SkewScalar] = []
    rejections = 0
    for candidate in candidates:
        if count is not None and len(values) >= count:
            break
        if any(candidate == point for point in excluded):
            rejections += 1
        else:
            values.append(candidate)
    return SampleSet(tuple(values), rejections)


# ---------------------------------------------------------------------------
# verification reports


class IdentityResult(Record):
    """Outcome of one identity over one sample set."""

    __slots__ = ("name", "samples", "rejections", "passed", "counterexample",
                 "informational", "note")
    __hash__ = None

    def __init__(self, name: str, samples: int, rejections: int, passed: bool,
                 counterexample: Optional[str] = None, informational: bool = False,
                 note: Optional[str] = None):
        self.name = name
        self.samples = samples
        self.rejections = rejections
        self.passed = passed
        self.counterexample = counterexample
        self.informational = informational
        self.note = note

    def line(self) -> str:
        if self.informational:
            status = f"info {self.note}"
        elif self.passed:
            status = "pass"
        else:
            status = f"FAIL counterexample: {self.counterexample}"
        return f"{self.name}: samples={self.samples} rejections={self.rejections} {status}"


class VerificationReport(Record):
    """All identity outcomes of one verification run."""

    __slots__ = ("title", "results")
    __hash__ = None

    def __init__(self, title: str, results: Optional[List[IdentityResult]] = None):
        self.title = title
        self.results = [] if results is None else results

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if not r.informational)

    def lines(self) -> List[str]:
        return [f"[{self.title}]"] + [r.line() for r in self.results]


def _shifted(row: List[SkewScalar], k: int) -> List[SkewScalar]:
    """row[i + k] at index i, cyclically, for k = 1 or 2 and any length."""
    return row[k:] + row[:k]


def _map_row(base: CrossRatioBase, samples: SampleSet,
             anchor: Optional[SkewScalar] = None):
    """The map values in sample order, once per distinct argument, from the
    base's constants, and at ``anchor`` (the zero or unit point, also where
    sampled) by ``evaluate``, so the neutral-element checks test the
    definitional route."""
    value = _map_function(base)
    v = {x: value(x) for x in samples.values}
    if anchor is not None:
        v[anchor] = evaluate(base, anchor)
    return [v[x] for x in samples.values], v.get(anchor)


def _check(report: VerificationReport, name: str, samples: SampleSet, width: int,
           holds: Callable[[int], bool], extra: str = "") -> None:
    """Record whether holds(i) at every sample index i; a failure names the
    ``width`` arguments from the first failing index on, cyclically."""
    args = samples.values
    count = len(args)
    for i in range(count):
        if not holds(i):
            counterexample = ", ".join(f"{label}={args[(i + j) % count]}"
                                       for j, label in enumerate("XYZ"[:width]))
            report.results.append(IdentityResult(
                name, i + 1, samples.rejections, False, counterexample + extra))
            return
    report.results.append(IdentityResult(name, count, samples.rejections, True))


def verify_addition_structure(base: CrossRatioBase,
                              samples: SampleSet) -> VerificationReport:
    """Pointwise checks of the additive identities: associativity,
    commutativity, and the zero element, plus the informational closure
    record for sums of map values."""
    zero_arg = base._zero
    x, zero_value = _map_row(base, samples, zero_arg)
    y, z = _shifted(x, 1), _shifted(x, 2)
    s = [a + b for a, b in zip(x, y)]
    s1 = _shifted(s, 1)
    report = VerificationReport(title=f"addition structure, {base}")

    _check(report, "value addition associativity", samples, 3,
           lambda i: s[i] + z[i] == x[i] + s1[i])
    _check(report, "value addition commutativity", samples, 2,
           lambda i: s[i] == y[i] + x[i])
    zero_ok = zero_value.is_zero()
    _check(report, "zero element neutrality", samples, 1,
           lambda i: zero_ok and x[i] + zero_value == x[i], f", zero point={zero_arg}")

    _record_closure(report, "closure of sums under the map", base, samples, s)
    return report


def verify_multiplicative_group(base: CrossRatioBase,
                                samples: SampleSet) -> VerificationReport:
    """Pointwise checks of the group identities: associativity, two-sided
    unit neutrality, and the two-sided inverse law, against the inverse
    map of the swapped base (``inverse_value``'s formula).

    The sample set must exclude the zero point (its value has no
    inverse); build it with ``exclude_zero_point=True``.
    """
    one = base.points[0]._from_int(1)
    unit_arg = base._unit
    x, u = _map_row(base, samples, unit_arg)
    z = _shifted(x, 2)
    p = [a * b for a, b in zip(x, _shifted(x, 1))]
    p1 = _shifted(p, 1)
    report = VerificationReport(title=f"multiplicative group, {base}")

    _check(report, "value multiplication associativity", samples, 3,
           lambda i: p[i] * z[i] == x[i] * p1[i])
    unit_ok = u == one
    _check(report, "unit element two-sided neutrality", samples, 1,
           lambda i: unit_ok and x[i] * u == x[i] and u * x[i] == x[i],
           f", unit point={unit_arg}")

    inverse_of = _map_function(base, inverse=True)

    def inverse_law(i):
        inverse = inverse_of(samples.values[i])
        return x[i] * inverse == one and inverse * x[i] == one

    _check(report, "two-sided inverse law", samples, 1, inverse_law)

    _record_closure(report, "closure of products under the map", base, samples, p)
    return report


def verify_distributive(base: CrossRatioBase,
                        samples: SampleSet) -> VerificationReport:
    """Pointwise checks of both distributive identities on sampled triples."""
    x, _ = _map_row(base, samples)
    y, z = _shifted(x, 1), _shifted(x, 2)
    s = [a + b for a, b in zip(x, y)]
    p = [a * b for a, b in zip(x, y)]
    q = [a * c for a, c in zip(x, z)]
    s1, p1 = _shifted(s, 1), _shifted(p, 1)
    report = VerificationReport(title=f"distributivity, {base}")

    _check(report, "left distributivity", samples, 3,
           lambda i: x[i] * s1[i] == p[i] + q[i])
    _check(report, "right distributivity", samples, 3,
           lambda i: s[i] * z[i] == q[i] + p1[i])
    return report


# ---------------------------------------------------------------------------
# closure recording (reported, never asserted)

ATTAINED = "attained"
NOT_ATTAINED = "not attained"


def omitted_value(base: CrossRatioBase) -> Optional[SkewScalar]:
    """The one value the map never takes (table in the module docstring).

    Families B, C and D omit omega of their normal form
    omega + P (X-S)^-1 Q.  Family A has no single omitted value: None.
    """
    return None if base.family is Family.A else base._constants[0]


def _attainment(base: CrossRatioBase) -> Callable[[SkewScalar], bool]:
    """The membership test of the base's image: value -> attained or not.

    Its constants come from the base's own, so a caller deciding many
    values pays one comparison (families B, C, D) or one psi test
    (family A) per value.

    Family A: evaluate(base, Z) = w means T(Z) := g Z - Z w = g C - D w
    =: c, and T'(T(Z)) = psi Z for T'(Y) = g Y - Y conj(w) (the
    characteristic identity of w).  Nonzero psi: a unique Z, never D
    (g D = g C would force C = D), attained.  Zero psi at a central w:
    w = g (psi = (g - w)^2), not attained (g (X-C) = g (X-D) forces C = D).
    Zero psi at a non-central w: image(T) = ker(T'), so w is attained
    exactly when g c = c conj(w), that is at w = h (Johnson, Bull. AMS
    50, 1944; Janovska and Opfer, Mitt. Math. Ges. Hamburg 27, 2008).
    """
    if base.family is not Family.A:
        omega = base._constants[0]
        return lambda w: w != omega
    g, gg = base._constants
    _, c_, d_ = base.points

    def attained(w: SkewScalar) -> bool:
        conj = w.conjugate()
        if not (gg - (w + conj) * g + w * conj).is_zero():
            return True
        return w != conj and w == (c_ - d_).inverse() * g.conjugate() * (c_ - d_)
    return attained


def preimage(base: CrossRatioBase, value: SkewScalar):
    """Solve evaluate(base, X) = value for X, exactly.

    Returns ``(ATTAINED, witness)`` or ``(NOT_ATTAINED, None)`` by the
    image's membership test (module docstring).  The witness is solved in
    closed form and checked by evaluating it back; failing that is a bug.
    """
    if not _attainment(base)(value):
        return NOT_ATTAINED, None
    if base.family is Family.A:
        witness = _witness_family_a(base, value)
    else:
        omega, p, q = base._constants
        t = q * (value - omega).inverse()
        witness = base._singular + (t if p is None else t * p)
    if witness == base._singular or evaluate(base, witness) != value:  # pragma: no cover
        raise AssertionError(f"preimage witness {witness} of {value} failed "
                             f"its back-check, {base}")
    return ATTAINED, witness


def _witness_family_a(base: CrossRatioBase, w: SkewScalar) -> SkewScalar:
    """Family A, c = g C - D w: Z = psi^-1 (g c - c conj(w)), or where psi
    vanishes (so g c = c conj(w)) Z = c (conj(w) - w)^-1."""
    g, gg = base._constants
    _, c_, d_ = base.points
    c = g * c_ - d_ * w
    conj = w.conjugate()
    psi = gg - (w + conj) * g + w * conj
    if psi.is_zero():
        return c * (conj - w).inverse()
    return psi.inverse() * (g * c - c * conj)


def _record_closure(report: VerificationReport, name: str, base: CrossRatioBase,
                    samples: SampleSet, combined: List[SkewScalar]) -> None:
    hits = sum(map(_attainment(base), combined))
    count = len(samples.values)
    # every value is decided; "undecided 0" keeps the note's parsed form
    note = (f"attained {hits}, no preimage {count - hits}, "
            "undecided 0 (recorded, not asserted)")
    report.results.append(IdentityResult(
        name=name, samples=count, rejections=samples.rejections,
        passed=True, informational=True, note=note))
