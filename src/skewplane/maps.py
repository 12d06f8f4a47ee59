"""The four cross-ratio map families and their verified algebra.

Fixing three of the cross-ratio's four slots and letting the remaining
slot range over the line yields four map families, tagged by the freed
slot: A frees the first slot, B the second, C the third, D the fourth.
``evaluate`` and ``inverse_value`` are the definitional route: the
cross-ratio [(A-D)^-1 (B-D)] [(B-C)^-1 (A-C)] with X in the free slot.

Two of the cross-ratio's four differences never contain X, so each
family's map is a product around X-free factors of its base:

    family A, base (B, C, D): (X-D)^-1 g (X-C),    g = (B-D)(B-C)^-1
    family B, base (A, C, D): a (X-D)(X-C)^-1 c,   a = (A-D)^-1, c = A-C
    family C, base (A, B, D): omega (B-X)^-1 (A-X), omega = (A-D)^-1 (B-D)
    family D, base (A, B, C): (A-X)^-1 (B-X) omega, omega = (B-C)^-1 (A-C)

The inverse map, with the final two slots swapped, uses the same factors
inverted: (X-C)^-1 g^-1 (X-D) for A, c^-1 (X-C)(X-D)^-1 a^-1 for B,
(A-X)^-1 (B-X) omega^-1 for C and omega^-1 (B-X)^-1 (A-X) for D.  The
verify_* runners and ``preimage`` compute the factors once per call and
keep nothing after it; a value then costs 2 subtractions, 1 inverse and
2 products (3 for B) instead of the cross-ratio's 4, 2 and 3.

Each family's image is known exactly.  Families B, C and D take every
value but one, ``omitted_value(base)``: a c for B, omega for C and D.
Family A attains w exactly when psi = g g - t g + n (t = w + conj(w),
n = w conj(w)) is nonzero, or w is not central and equals
h = (C-D)^-1 conj(g) (C-D): it omits g's conjugacy class but h for a
non-real quaternion g, and g alone for a real g or a commutative field.

For each family the module knows three distinguished arguments, all
derived from the factored cross-ratio formula (a product vanishes only
when a factor does, because a skew field has no zero divisors):

* the singular point, where an inverted difference would vanish and the
  map is undefined (family A: D, family B: C, family C: B, family D: A);
* the zero point, the argument the map sends to the additive neutral
  (family A: C, family B: D, family C: A, family D: B);
* the unit point, sent to the multiplicative neutral
  (family A: B, family B: A, family C: D, family D: C).

``inverse_value`` swaps the contents of the two final cross-ratio slots;
the swapped product telescopes against the original on both sides, so
the inverse law holds two-sidedly.

The verify_* runners re-check all of this pointwise on explicit sample
sets and return structured reports (one line per identity) so the CLI
can run them on user-supplied bases.  Each runner computes the map once
per sampled argument, on the factors, and its identities share those
values; the zero and unit points are evaluated by the definitional
route, and the inverse law checks the inverse map's own formula against
the sampled values.  Verification never asserts set closure; instead
each report records, informationally, how often sums and products of
sampled map values are attained by the map again.  It decides that by
image membership from the same factors: one comparison with the omitted
value (B, C, D) or one psi test (A) per pair, as ``preimage`` does.  The
record's ``undecided`` count, always 0, only keeps the note's format.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    element of the field.
    """

    __slots__ = ("family", "points")

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

    def slots(self, x: SkewScalar) -> Tuple[SkewScalar, ...]:
        """The full four-slot argument list with x in the free slot."""
        slots = list(self.points)
        slots.insert(_FREE_SLOT[self.family], x)
        return tuple(slots)

    def __str__(self) -> str:
        return f"family {self.family.value} base ({', '.join(map(str, self.points))})"


def singular_point(base: CrossRatioBase) -> SkewScalar:
    """The argument at which the family's map is undefined."""
    return base.points[_SINGULAR_INDEX[base.family]]


def zero_point(base: CrossRatioBase) -> SkewScalar:
    """The argument the map sends to the additive neutral O."""
    return base.points[_ZERO_INDEX[base.family]]


def unit_point(base: CrossRatioBase) -> SkewScalar:
    """The argument the map sends to the multiplicative neutral I."""
    return base.points[_UNIT_INDEX[base.family]]


def _check_argument(base: CrossRatioBase, x: SkewScalar,
                    invertible: bool = False) -> None:
    """Refuse the singular point, and the zero point where the value is inverted."""
    if x == singular_point(base):
        raise SingularArgumentError(base.family.value, x)
    if invertible and x == zero_point(base):
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
    s0, s1, s2, s3 = base.slots(x)
    return cross_ratio(s0, s1, s3, s2)


# ---------------------------------------------------------------------------
# the maps on their X-free factors (table in the module docstring)


def _factors(base: CrossRatioBase) -> Tuple[SkewScalar, ...]:
    """The X-free factors of the base's map: (g,), (a, c) or (omega,)."""
    p0, p1, p2 = base.points
    if base.family is Family.A:
        return ((p0 - p2) * (p0 - p1).inverse(),)
    if base.family is Family.B:
        return ((p0 - p2).inverse(), p0 - p1)
    if base.family is Family.C:
        return ((p0 - p2).inverse() * (p1 - p2),)
    return ((p1 - p2).inverse() * (p0 - p2),)


def _formula(family: Family, points, factors) -> Callable[[SkewScalar], SkewScalar]:
    """X -> the family's map value on these base points, from their factors."""
    p0, p1, p2 = points
    if family is Family.A:
        g, = factors
        return lambda x: (x - p2).inverse() * g * (x - p1)
    if family is Family.B:
        a, c = factors
        return lambda x: a * (x - p2) * (x - p1).inverse() * c
    omega, = factors
    if family is Family.C:
        return lambda x: omega * (p1 - x).inverse() * (p0 - x)
    return lambda x: (p0 - x).inverse() * (p1 - x) * omega


def _map_function(base: CrossRatioBase, factors) -> Callable[[SkewScalar], SkewScalar]:
    """X -> evaluate(base, X), from the base's factors."""
    value = _formula(base.family, base.points, factors)

    def at(x: SkewScalar) -> SkewScalar:
        _check_argument(base, x)
        return value(x)
    return at


def _inverse_function(base: CrossRatioBase,
                      factors) -> Callable[[SkewScalar], SkewScalar]:
    """X -> inverse_value(base, X), from the base's factors inverted.

    Swapping the final two cross-ratio slots swaps the last two base
    points of A and B, and turns C and D into each other on the same
    points; the swapped map's factors are the inverses of the base's.
    """
    family, (p0, p1, p2) = base.family, base.points
    if family is Family.A:
        inverse = _formula(family, (p0, p2, p1), (factors[0].inverse(),))
    elif family is Family.B:
        # a^-1 = A-D is one subtraction, cheaper than inverting a
        inverse = _formula(family, (p0, p2, p1), (factors[1].inverse(), p0 - p2))
    else:
        swapped = Family.D if family is Family.C else Family.C
        inverse = _formula(swapped, base.points, (factors[0].inverse(),))

    def at(x: SkewScalar) -> SkewScalar:
        _check_argument(base, x, invertible=True)
        return inverse(x)
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
    excluded = [singular_point(base)]
    if exclude_zero_point:
        excluded.append(zero_point(base))
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


def _rotations(values: Sequence[SkewScalar], width: int):
    """n deterministic index-rotated tuples of the given width."""
    n = len(values)
    for i in range(n):
        yield tuple(values[(i + j) % n] for j in range(width))


def _zero_one(base: CrossRatioBase) -> Tuple[SkewScalar, SkewScalar]:
    anchor = base.points[0]
    return anchor._from_int(0), anchor._from_int(1)


def _map_values(base: CrossRatioBase, factors, arguments,
                anchor: Optional[SkewScalar] = None) -> Dict[SkewScalar, SkewScalar]:
    """The map value once per distinct argument, for the identities to share:
    from the factors, and by ``evaluate`` at ``anchor`` (the zero or unit
    point), so the neutral-element checks also test the definitional route."""
    value = _map_function(base, factors)
    v = {x: value(x) for x in arguments}
    if anchor is not None:
        v[anchor] = evaluate(base, anchor)
    return v


def _check(report: VerificationReport, name: str, samples: SampleSet,
           instances, predicate, describe) -> None:
    counterexample = None
    passed = True
    count = 0
    for instance in instances:
        count += 1
        if not predicate(*instance):
            passed = False
            counterexample = describe(*instance)
            break
    report.results.append(IdentityResult(
        name=name, samples=count, rejections=samples.rejections,
        passed=passed, counterexample=counterexample))


def verify_addition_structure(base: CrossRatioBase,
                              samples: SampleSet) -> VerificationReport:
    """Pointwise checks of the additive identities: associativity,
    commutativity, and the zero element, plus the informational closure
    record for sums of map values."""
    zero, _ = _zero_one(base)
    values = samples.values
    zero_arg = zero_point(base)
    factors = _factors(base)
    v = _map_values(base, factors, values, zero_arg)
    report = VerificationReport(title=f"addition structure, {base}")

    _check(report, "value addition associativity", samples, _rotations(values, 3),
           lambda x, y, z: (v[x] + v[y]) + v[z] == v[x] + (v[y] + v[z]),
           lambda x, y, z: f"X={x}, Y={y}, Z={z}")
    _check(report, "value addition commutativity", samples, _rotations(values, 2),
           lambda x, y: v[x] + v[y] == v[y] + v[x],
           lambda x, y: f"X={x}, Y={y}")

    zero_ok = v[zero_arg] == zero
    _check(report, "zero element neutrality", samples, _rotations(values, 1),
           lambda x: zero_ok and v[x] + v[zero_arg] == v[x],
           lambda x: f"X={x}, zero point={zero_arg}")

    _record_closure(report, base, factors, samples, v, operation="+")
    return report


def verify_multiplicative_group(base: CrossRatioBase,
                                samples: SampleSet) -> VerificationReport:
    """Pointwise checks of the group identities: associativity, two-sided
    unit neutrality, and the two-sided inverse law, against the inverse
    map on the inverted factors (``inverse_value``'s formula).

    The sample set must exclude the zero point (its value has no
    inverse); build it with ``exclude_zero_point=True``.
    """
    _, one = _zero_one(base)
    values = samples.values
    unit_arg = unit_point(base)
    factors = _factors(base)
    v = _map_values(base, factors, values, unit_arg)
    report = VerificationReport(title=f"multiplicative group, {base}")

    _check(report, "value multiplication associativity", samples, _rotations(values, 3),
           lambda x, y, z: (v[x] * v[y]) * v[z] == v[x] * (v[y] * v[z]),
           lambda x, y, z: f"X={x}, Y={y}, Z={z}")

    unit_ok = v[unit_arg] == one
    _check(report, "unit element two-sided neutrality", samples, _rotations(values, 1),
           lambda x: unit_ok
           and v[x] * v[unit_arg] == v[x] and v[unit_arg] * v[x] == v[x],
           lambda x: f"X={x}, unit point={unit_arg}")

    inverse_of = _inverse_function(base, factors)

    def inverse_law(x):
        inverse = inverse_of(x)
        return v[x] * inverse == one and inverse * v[x] == one

    _check(report, "two-sided inverse law", samples, _rotations(values, 1),
           inverse_law, lambda x: f"X={x}")

    _record_closure(report, base, factors, samples, v, operation="*")
    return report


def verify_distributive(base: CrossRatioBase,
                        samples: SampleSet) -> VerificationReport:
    """Pointwise checks of both distributive identities on sampled triples."""
    values = samples.values
    v = _map_values(base, _factors(base), values)
    report = VerificationReport(title=f"distributivity, {base}")

    _check(report, "left distributivity", samples, _rotations(values, 3),
           lambda x, y, z: v[x] * (v[y] + v[z]) == v[x] * v[y] + v[x] * v[z],
           lambda x, y, z: f"X={x}, Y={y}, Z={z}")
    _check(report, "right distributivity", samples, _rotations(values, 3),
           lambda x, y, z: (v[x] + v[y]) * v[z] == v[x] * v[z] + v[y] * v[z],
           lambda x, y, z: f"X={x}, Y={y}, Z={z}")
    return report


# ---------------------------------------------------------------------------
# closure recording (reported, never asserted)

ATTAINED = "attained"
NOT_ATTAINED = "not attained"


def omitted_value(base: CrossRatioBase) -> Optional[SkewScalar]:
    """The one value the map never takes (table in the module docstring).

    Families B, C and D each factor the map as a fixed product around a
    term 1 + (nonzero)^-1 (nonzero), which takes every value but 1.
    Family A has no single omitted value: None.
    """
    if base.family is Family.A:
        return None
    return _omitted(base.family, _factors(base))


def _omitted(family: Family, factors) -> SkewScalar:
    """omitted_value from the factors of a family B, C or D base."""
    return factors[0] * factors[1] if family is Family.B else factors[0]


def _attainment(base: CrossRatioBase, factors) -> Callable[[SkewScalar], bool]:
    """The membership test of the base's image: value -> attained or not.

    Its constants come from the base's factors, so a caller deciding many
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
        omitted = _omitted(base.family, factors)
        return lambda w: w != omitted
    g, = factors
    gg = g * g
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
    factors = _factors(base)
    if not _attainment(base, factors)(value):
        return NOT_ATTAINED, None
    if base.family is Family.A:
        witness = _witness_family_a(base, factors[0], value)
    else:
        witness = _witness_linear(base, factors, value)
    if witness == singular_point(base) or evaluate(base, witness) != value:  # pragma: no cover
        raise AssertionError(f"preimage witness {witness} of {value} failed "
                             f"its back-check, {base}")
    return ATTAINED, witness


def _witness_family_a(base: CrossRatioBase, g: SkewScalar,
                      w: SkewScalar) -> SkewScalar:
    """Family A, c = g C - D w: Z = psi^-1 (g c - c conj(w)), or where psi
    vanishes (so g c = c conj(w)) Z = c (conj(w) - w)^-1."""
    _, c_, d_ = base.points
    c = g * c_ - d_ * w
    conj = w.conjugate()
    psi = g * g - (w + conj) * g + w * conj
    if psi.is_zero():
        return c * (conj - w).inverse()
    return psi.inverse() * (g * c - c * conj)


def _witness_linear(base: CrossRatioBase, factors, w: SkewScalar) -> SkewScalar:
    """Families B, C, D: the defining equation is linear in Z.

    Each reduces to wp = 1 exactly at the omitted value, so for an
    attained value the inverted (1 - wp) or (wp - 1) is nonzero.
    """
    _, one = _zero_one(base)
    p0, p1, p2 = base.points
    if base.family is Family.B:
        # (Z-D)(Z-C)^-1 = (A-D) w c^-1 =: wp;  (1-wp) Z = D - wp C
        a_, c_, d_ = p0, p1, p2
        wp = (a_ - d_) * w * factors[1].inverse()
        return (one - wp).inverse() * (d_ - wp * c_)
    if base.family is Family.C:
        # (B-Z)^-1 (A-Z) = omega^-1 w =: wp;  Z (wp - 1) = B wp - A
        wp = factors[0].inverse() * w
        return (p1 * wp - p0) * (wp - one).inverse()
    # Family D: (A-Z)^-1 (B-Z) = w omega^-1 =: wp;  Z (wp - 1) = A wp - B
    wp = w * factors[0].inverse()
    return (p0 * wp - p1) * (wp - one).inverse()


def _record_closure(report: VerificationReport, base: CrossRatioBase, factors,
                    samples: SampleSet, v: Dict[SkewScalar, SkewScalar],
                    operation: str) -> None:
    attained = _attainment(base, factors)
    hits = 0
    for x, y in _rotations(samples.values, 2):
        hits += attained(v[x] + v[y] if operation == "+" else v[x] * v[y])
    count = len(samples.values)
    name = ("closure of sums under the map" if operation == "+"
            else "closure of products under the map")
    # every value is decided; "undecided 0" keeps the note's parsed form
    note = (f"attained {hits}, no preimage {count - hits}, "
            "undecided 0 (recorded, not asserted)")
    report.results.append(IdentityResult(
        name=name, samples=count, rejections=samples.rejections,
        passed=True, informational=True, note=note))
