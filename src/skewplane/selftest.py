"""Self-contained invariant battery behind the CLI ``selftest`` command.

Each suite re-checks one slice of the package's contract: skew-field
axioms per backend, the affine-plane axioms on small finite planes, the
equivalence of the geometric constructions with backend arithmetic, the
Desargues instance checker, the cross-ratio map theorems, and the
expression grammar round trip.  All randomness comes from the explicit
seed; a given (seed, count) pair always runs the same checks.
"""

from __future__ import annotations

import random
from itertools import product

from .constructions import (
    CONCURRENT,
    PARALLEL,
    LineFrame,
    generate_desargues_config,
    check_desargues,
    geometric_add,
    geometric_mul,
)
from .errors import ParallelLinesError
from .expressions import parse_expression, print_expression, random_expression
from .maps import (
    CrossRatioBase,
    Family,
    _random_points,
    exhaustive_arguments,
    sample_arguments,
    verify_addition_structure,
    verify_distributive,
    verify_multiplicative_group,
)
from .plane import PlanePoint, intersect, line_through, on_line, parallel_through
from .scalars import (
    PrimeField,
    QuaternionField,
    RationalField,
    Record,
    ScalarField,
)


class SuiteResult(Record):
    __slots__ = ("name", "passed", "detail")
    __hash__ = None

    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.detail})"


def _backends() -> list[ScalarField]:
    return [RationalField(), PrimeField(5), QuaternionField()]


# ---------------------------------------------------------------------------
# skew-field laws


def field_law_failure(field: ScalarField, triples) -> str | None:
    """First triple violating any skew-field law, or None."""
    zero, one = field.zero(), field.one()
    for a, b, c in triples:
        if (a + b) + c != a + (b + c):
            return f"addition associativity at {a}, {b}, {c}"
        if a + b != b + a:
            return f"addition commutativity at {a}, {b}"
        if a + zero != a:
            return f"zero neutrality at {a}"
        if a + (-a) != zero:
            return f"additive inverse at {a}"
        if (a * b) * c != a * (b * c):
            return f"multiplication associativity at {a}, {b}, {c}"
        if a * (b + c) != a * b + a * c:
            return f"left distributivity at {a}, {b}, {c}"
        if (a + b) * c != a * c + b * c:
            return f"right distributivity at {a}, {b}, {c}"
        if a * one != a or one * a != a:
            return f"unit neutrality at {a}"
        if not a.is_zero():
            inv = a.inverse()
            if a * inv != one or inv * a != one:
                return f"two-sided inverse at {a}"
            if inv.inverse() != a:
                return f"inverse involution at {a}"
        if not a.is_zero() and not b.is_zero():
            if (a * b).is_zero():
                return f"zero divisors at {a}, {b}"
            if (a * b).inverse() != b.inverse() * a.inverse():
                return f"inverse anti-homomorphism at {a}, {b}"
    return None


def _exhaustive_triples(field: ScalarField):
    values = list(field.elements())
    return product(values, values, values)


def _random_triples(field: ScalarField, rng: random.Random, count: int):
    for _ in range(count):
        yield (field.random_element(rng), field.random_element(rng),
               field.random_element(rng))


# ---------------------------------------------------------------------------
# plane axioms on small finite planes


def _finite_points(field: PrimeField) -> list[PlanePoint]:
    values = list(field.elements())
    return [PlanePoint(x, y) for x in values for y in values]


def _finite_lines(field: PrimeField):
    points = _finite_points(field)
    lines = set()
    for p in points:
        for q in points:
            if p != q:
                lines.add(line_through(p, q))
    return sorted(lines, key=str), points


def plane_axiom_failure(field: PrimeField) -> str | None:
    """First affine-axiom violation over the finite plane, or None."""
    lines, points = _finite_lines(field)
    expected = field.p * field.p + field.p
    if len(lines) != expected:
        return f"expected {expected} lines, found {len(lines)}"
    for p in points:
        for q in points:
            if p == q:
                continue
            joining = line_through(p, q)
            if not (on_line(p, joining) and on_line(q, joining)):
                return f"line through {p}, {q} misses an endpoint"
            others = [l for l in lines if on_line(p, l) and on_line(q, l)]
            if others != [joining]:
                return f"line through {p}, {q} is not unique"
    for line in lines:
        for p in points:
            if on_line(p, line):
                continue
            parallel = parallel_through(p, line)
            try:
                intersect(parallel, line)
                return f"parallel through {p} to {line} meets the line"
            except ParallelLinesError:
                pass
            missing = [l for l in lines if on_line(p, l)
                       and not any(on_line(q, l) and on_line(q, line) for q in points)]
            if missing != [parallel]:
                return f"Playfair uniqueness fails at {p}, {line}"
    zero, one = field.zero(), field.one()
    origin = PlanePoint(zero, zero)
    if on_line(PlanePoint(zero, one), line_through(origin, PlanePoint(one, zero))):
        # no field reaches this: (0, 1) lies off the line y = 0 in every one
        return "axiom 3 witness points are collinear"  # pragma: no cover
    return None


# ---------------------------------------------------------------------------
# construction oracle


#: Auxiliary points tried per operand pair by the construction oracle.
AUX_PER_CASE = 3


def construction_oracle_failure(field: ScalarField, rng: random.Random,
                                count: int) -> str | None:
    """Geometric add/mul vs. backend arithmetic on random operand pairs."""
    frame = LineFrame.canonical(field)
    for _ in range(count):
        a = field.random_element(rng)
        b = field.random_element(rng)
        pa, pb = frame.embed(a), frame.embed(b)
        for _ in range(AUX_PER_CASE):
            aux = PlanePoint(field.random_element(rng), field.random_nonzero(rng))
            got_add = frame.extract(geometric_add(frame, pa, pb, aux))
            if got_add != a + b:
                return f"add mismatch: {a} + {b} gave {got_add} with aux {aux}"
            got_mul = frame.extract(geometric_mul(frame, pa, pb, aux))
            if got_mul != a * b:
                return f"mul mismatch: {a} * {b} gave {got_mul} with aux {aux}"
    return None


# ---------------------------------------------------------------------------
# Desargues checker, map theorems, grammar round trip


def desargues_failure(field: ScalarField, rng: random.Random,
                      count: int) -> str | None:
    """First generated configuration, ``count`` per variant, whose
    conclusion fails the checker, or None."""
    for variant in (PARALLEL, CONCURRENT):
        for _ in range(count):
            cfg = generate_desargues_config(field, variant, rng.randrange(2 ** 30))
            if not check_desargues(cfg):
                return f"conclusion failed for {cfg}"
    return None


def map_theorem_failure(field: ScalarField, rng: random.Random,
                        count: int) -> str | None:
    """Heading of the first failing report, addition structure, group or
    distributivity, on one random base per family, or None."""
    for family in Family:
        base = CrossRatioBase(family, _random_points(field, rng))
        plain = sample_arguments(field, base, count, rng.randrange(2 ** 30))
        invertible = sample_arguments(field, base, count, rng.randrange(2 ** 30),
                                      exclude_zero_point=True)
        for report in (verify_addition_structure(base, plain),
                       verify_multiplicative_group(base, invertible),
                       verify_distributive(base, plain)):
            if not report.passed:
                return report.lines()[0]
    return None


def round_trip_failure(rng: random.Random, count: int) -> str | None:
    """First random expression, ``count`` per backend, that does not parse
    back from its printed form to itself, or None."""
    for field in _backends():
        for _ in range(count):
            node = random_expression(field, rng)
            if parse_expression(print_expression(node), field) != node:
                return f"round trip failed: {print_expression(node)}"
    return None


# ---------------------------------------------------------------------------
# suites


def _suites(rng: random.Random, count: int):
    """(name, failure or None, detail of a pass) of each suite, in run order."""
    gf5 = PrimeField(5)
    yield ("skew-field axioms, gfp(5) exhaustive",
           field_law_failure(gf5, _exhaustive_triples(gf5)), "125 triples, all laws")
    for field in (RationalField(), QuaternionField()):
        yield (f"skew-field axioms, {field.name} randomized",
               field_law_failure(field, _random_triples(field, rng, count)),
               f"{count} random triples, all laws")
    qf = QuaternionField()
    witness = "i*j = k, j*i = -k"
    yield ("non-commutativity witness",
           None if qf.i() * qf.j() == qf.k() and qf.j() * qf.i() == -qf.k() else witness,
           witness)
    for p in (2, 3):
        yield (f"affine plane axioms, gfp({p}) exhaustive",
               plane_axiom_failure(PrimeField(p)), "axioms 1-3 and Playfair uniqueness")
    for field in _backends():
        yield (f"construction oracle, {field.name}",
               construction_oracle_failure(field, rng, count),
               f"{count} pairs x 3 aux, add and mul")
    config_count = max(1, count // 5)
    for field in _backends():
        yield (f"desargues checker, {field.name}",
               desargues_failure(field, rng, config_count),
               f"{config_count} configurations per variant")
    for field in _backends():
        yield (f"cross-ratio map theorems, {field.name}",
               map_theorem_failure(field, rng, count), f"{count} samples per identity")
    base = CrossRatioBase(Family.A, tuple(gf5.from_int(n) for n in (1, 2, 3)))
    every = exhaustive_arguments(gf5, base)
    invertible = exhaustive_arguments(gf5, base, exclude_zero_point=True)
    passed = all(report.passed for report in (
        verify_addition_structure(base, every),
        verify_multiplicative_group(base, invertible),
        verify_distributive(base, every)))
    yield ("cross-ratio map theorems, gfp(5) exhaustive arguments",
           None if passed else f"base {base}", f"base {base}")
    yield ("expression grammar round trip", round_trip_failure(rng, count),
           f"{count} random expressions per backend")


def run_selftest(seed: int = 0, count: int = 50) -> list[SuiteResult]:
    return [SuiteResult(name, failure is None, failure or detail)
            for name, failure, detail in _suites(random.Random(seed), count)]
