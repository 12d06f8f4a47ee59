"""Cross-ratio map families: distinguished points, inverses, verifiers."""

import copy
import operator
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import quaternions, rationals

import skewplane.maps as maps_module
from skewplane.errors import (
    InvalidBaseError,
    SingularArgumentError,
    ZeroValueNotInvertibleError,
)
from skewplane.maps import (
    ATTAINED,
    NOT_ATTAINED,
    CrossRatioBase,
    Family,
    SampleSet,
    evaluate,
    exhaustive_arguments,
    inverse_value,
    omitted_value,
    preimage,
    sample_arguments,
    singular_point,
    unit_point,
    verify_addition_structure,
    verify_distributive,
    verify_multiplicative_group,
    zero_point,
)
from skewplane.ratios import cross_ratio
from skewplane.scalars import (
    PrimeField,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
)

#: The closure note as the benchmark and the CLI session checks parse it.
CLOSURE_NOTE = re.compile(r"attained (\d+), no preimage (\d+), undecided (\d+)")


def rational_base(family, p1, p2, p3):
    return CrossRatioBase(family, (Rational(p1), Rational(p2), Rational(p3)))


def random_base(field, rng, family):
    points = []
    while len(points) < 3:
        candidate = field.random_nonzero(rng)
        if all(candidate != p for p in points):
            points.append(candidate)
    return CrossRatioBase(family, tuple(points))


class TestBaseValidation:
    def test_repeated_points_rejected(self):
        with pytest.raises(InvalidBaseError):
            rational_base(Family.A, 3, 3, 5)

    def test_zero_point_rejected(self):
        with pytest.raises(InvalidBaseError):
            rational_base(Family.B, 0, 1, 5)

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidBaseError):
            CrossRatioBase(Family.A, (Rational(1), Rational(2)))


class TestEvaluate:
    def test_family_a_worked_value(self):
        base = rational_base(Family.A, 3, 1, 5)
        assert evaluate(base, Rational(2)) == Rational(1, 3)

    def test_family_a_unit_and_zero_arguments(self):
        base = rational_base(Family.A, 3, 1, 5)
        assert evaluate(base, Rational(3)) == Rational(1)  # X = B
        assert evaluate(base, Rational(1)) == Rational(0)  # X = C

    @pytest.mark.parametrize("family,slot_index", [
        (Family.A, 0), (Family.B, 1), (Family.C, 2), (Family.D, 3),
    ])
    def test_slot_correctness_all_backends(self, family, slot_index, any_field, rng):
        base = random_base(any_field, rng, family)
        for _ in range(25):
            x = any_field.random_element(rng)
            if x == singular_point(base):
                continue
            slots = list(base.points)
            slots.insert(slot_index, x)
            assert evaluate(base, x) == cross_ratio(*slots)

    def test_singular_argument_raises_per_family(self):
        # the forbidden argument is the base point whose difference with
        # X gets inverted: D, C, B, A respectively
        for family, points, forbidden in [
            (Family.A, (3, 1, 5), 5),
            (Family.B, (2, 1, 5), 1),
            (Family.C, (2, 3, 5), 3),
            (Family.D, (2, 3, 1), 2),
        ]:
            base = rational_base(family, *points)
            with pytest.raises(SingularArgumentError):
                evaluate(base, Rational(forbidden))


class TestDistinguishedPoints:
    def test_family_a(self):
        base = rational_base(Family.A, 3, 1, 5)
        assert zero_point(base) == Rational(1)
        assert unit_point(base) == Rational(3)
        assert singular_point(base) == Rational(5)

    def test_family_b_zero_is_the_fourth_slot_point(self):
        # (A, C, D) = (2, 1, 5): the first factor (X - D) vanishes at
        # X = D = 5, while X = C is the singular argument; the map's
        # zero point is therefore D.
        base = rational_base(Family.B, 2, 1, 5)
        assert zero_point(base) == Rational(5)
        assert unit_point(base) == Rational(2)
        assert singular_point(base) == Rational(1)

    def test_family_c(self):
        base = rational_base(Family.C, 2, 3, 5)
        assert zero_point(base) == Rational(2)
        assert unit_point(base) == Rational(5)
        assert evaluate(base, unit_point(base)) == Rational(1)

    def test_family_d(self):
        base = rational_base(Family.D, 2, 3, 1)
        assert zero_point(base) == Rational(3)
        assert unit_point(base) == Rational(1)

    def test_quaternion_unit_point_is_slot_b(self):
        # family A fixes slots (B, C, D); the unit point is B regardless
        # of backend, here i, and evaluation confirms it
        field = QuaternionField()
        base = CrossRatioBase(Family.A, (field.i(), field.j(), field.k()))
        assert unit_point(base) == field.i()
        assert evaluate(base, unit_point(base)) == field.one()
        assert zero_point(base) == field.j()
        assert evaluate(base, zero_point(base)) == field.zero()

    def test_zero_and_unit_evaluate_correctly_everywhere(self, any_field, rng):
        zero, one = any_field.zero(), any_field.one()
        for family in Family:
            for _ in range(10):
                base = random_base(any_field, rng, family)
                assert evaluate(base, zero_point(base)) == zero
                assert evaluate(base, unit_point(base)) == one


class TestInverseValue:
    def test_worked_example(self):
        base = rational_base(Family.A, 3, 1, 5)
        assert evaluate(base, Rational(2)) == Rational(1, 3)
        assert inverse_value(base, Rational(2)) == Rational(3)

    def test_matches_swapped_slot_cross_ratio(self, any_field, rng):
        for family in Family:
            base = random_base(any_field, rng, family)
            for _ in range(20):
                x = any_field.random_element(rng)
                if x == singular_point(base) or x == zero_point(base):
                    continue
                s0, s1, s2, s3 = base.slots(x)
                assert inverse_value(base, x) == cross_ratio(s0, s1, s3, s2)

    def test_two_sided_product_is_unit(self, any_field, rng):
        one = any_field.one()
        for family in Family:
            base = random_base(any_field, rng, family)
            for _ in range(20):
                x = any_field.random_element(rng)
                if x == singular_point(base) or x == zero_point(base):
                    continue
                value = evaluate(base, x)
                inverse = inverse_value(base, x)
                assert value * inverse == one
                assert inverse * value == one

    def test_family_d_product_with_inverse(self):
        base = rational_base(Family.D, 2, 3, 1)
        x = Rational(5)
        assert evaluate(base, x) * inverse_value(base, x) == Rational(1)
        assert inverse_value(base, x) * evaluate(base, x) == Rational(1)

    def test_zero_point_not_invertible(self):
        base = rational_base(Family.A, 3, 1, 5)
        with pytest.raises(ZeroValueNotInvertibleError):
            inverse_value(base, zero_point(base))

    def test_singular_point_rejected(self):
        base = rational_base(Family.A, 3, 1, 5)
        with pytest.raises(SingularArgumentError):
            inverse_value(base, singular_point(base))


def assert_routes_agree(base, arguments):
    """The verifiers' map, from the base's X-free constants, and inverse map,
    from the inverse map's constants, equal evaluate and inverse_value at every
    admissible argument, and refuse the same arguments; returns how many
    values were compared."""
    value = maps_module._map_function(base)
    inverse = maps_module._map_function(base, inverse=True)
    singular, zero = singular_point(base), zero_point(base)
    compared = 0
    for x in arguments:
        if x == singular:
            continue
        assert value(x) == evaluate(base, x), (base, x)
        compared += 1
        if x != zero:
            assert inverse(x) == inverse_value(base, x), (base, x)
            compared += 1
    for route in (value, inverse):
        with pytest.raises(SingularArgumentError):
            route(singular)
    with pytest.raises(ZeroValueNotInvertibleError):
        inverse(zero)
    return compared


class TestFactoredMaps:
    @pytest.mark.parametrize("p", [5, 7])
    def test_every_base_and_argument_of_gfp(self, p):
        field = PrimeField(p)
        nonzero = [x for x in field.elements() if not x.is_zero()]
        for family in Family:
            compared = sum(assert_routes_agree(CrossRatioBase(family, points),
                                               list(field.elements()))
                           for points in permutations(nonzero, 3))
            # per base: p - 1 values and p - 2 inverse values
            assert compared == (p - 1) * (p - 2) * (p - 3) * (2 * p - 3)

    def test_seeded_quaternion_bases(self, quaternion_field):
        field, rng = quaternion_field, random.Random(1207)
        for family in Family:
            bases = [CrossRatioBase(family, (field.i(), field.j(), field.k()))]
            bases += [random_base(field, rng, family) for _ in range(29)]
            compared = sum(assert_routes_agree(
                base, [*base.points] + [field.random_element(rng) for _ in range(20)])
                for base in bases)
            assert compared >= 30 * 20 * 2

    @pytest.mark.parametrize("family", list(Family))
    def test_group_call_builds_no_base(self, monkeypatch, family):
        # the inverse map comes from the base's own constants: no swapped
        # base is built and validated per call
        field = QuaternionField()
        base = CrossRatioBase(family, (field.i(), field.j(), field.k()))
        samples = sample_arguments(field, base, 3, seed=3, exclude_zero_point=True)
        built = []
        original = CrossRatioBase.__init__

        def counted(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(CrossRatioBase, "__init__", counted)
        assert verify_multiplicative_group(base, samples).passed
        assert built == []


#: lambda = cr(a, b; c, d) -> the cross-ratio of the points in the keyed
#: slot order; these six keep slot 0 in place, and their values are
#: functions of lambda alone, so the order of the factors does not matter.
ANHARMONIC = {
    (0, 1, 2, 3): lambda lam, one: lam,
    (0, 1, 3, 2): lambda lam, one: lam.inverse(),
    (0, 2, 1, 3): lambda lam, one: one - lam,
    (0, 2, 3, 1): lambda lam, one: (one - lam).inverse(),
    (0, 3, 1, 2): lambda lam, one: (lam - one) * lam.inverse(),
    (0, 3, 2, 1): lambda lam, one: lam * (lam - one).inverse(),
}
#: The double transpositions: commutatively they leave the cross-ratio fixed.
KLEIN = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


def distinct_quadruples(elements):
    return st.lists(elements, min_size=4, max_size=4, unique=True).map(tuple)


GF11 = PrimeField(11)
QUADRUPLES = st.one_of(distinct_quadruples(rationals()),
                       distinct_quadruples(st.integers(0, 10).map(GF11.from_int)),
                       distinct_quadruples(quaternions()))
#: i, j and k after a fourth quaternion point.
IJK_QUADRUPLE = (RationalQuaternion(2, 1, 0, -1), RationalQuaternion(0, 1),
                 RationalQuaternion(0, 0, 1), RationalQuaternion(0, 0, 0, 1))


def are_conjugate(a, b):
    """a and b are conjugate: equal real part and norm over the
    quaternions, equal on a commutative backend."""
    if isinstance(a, RationalQuaternion):
        return a.w == b.w and a.norm() == b.norm()
    return a == b


class TestAnharmonicGroup:
    """The 24 slot orders of four distinct points give six cross-ratio
    values: exactly where slot 0 stays in place, up to conjugacy otherwise
    (exactly on a commutative backend)."""

    @given(QUADRUPLES)
    @example(IJK_QUADRUPLE)
    def test_slot_permutations(self, points):
        one = points[0]._from_int(1)
        lam = cross_ratio(*points)
        commutative = not isinstance(lam, RationalQuaternion)
        for fixed, value in ANHARMONIC.items():
            expected = value(lam, one)
            for klein in KLEIN:
                order = tuple(fixed[j] for j in klein)
                got = cross_ratio(*(points[i] for i in order))
                if order[0] == 0 or commutative:
                    assert got == expected, order
                else:
                    assert are_conjugate(got, expected), order

    @pytest.mark.parametrize("p", [5, 7])
    def test_families_b_and_d_are_one_minus_c_and_its_inverse(self, p):
        field = PrimeField(p)
        one = field.one()
        nonzero = [x for x in field.elements() if not x.is_zero()]
        compared = 0
        for points in permutations(nonzero, 3):
            a, b, c, d = (CrossRatioBase(family, points) for family in Family)
            p0, p1, p2 = points
            (g, gg), inverse_constants = maps_module._factors(a)
            assert gg == g * g and inverse_constants == (g.inverse(),)
            assert CrossRatioBase(Family.A, (p0, p2, p1))._constants[0] == g.inverse()
            assert omitted_value(b) == one - omitted_value(c)
            assert omitted_value(d) == omitted_value(c).inverse()
            for x in field.elements():
                if x == singular_point(c):
                    continue
                assert evaluate(b, x) == one - evaluate(c, x)
                compared += 1
                if x != zero_point(c):
                    assert evaluate(d, x) == evaluate(c, x).inverse()
                    compared += 1
        # per base: p - 1 arguments of B and C, p - 2 of D
        assert compared == (p - 1) * (p - 2) * (p - 3) * (2 * p - 3)


#: Three distinct nonzero points and up to six arguments, of one backend.
POINTS_AND_ARGUMENTS = st.one_of(*(
    st.tuples(st.lists(elements.filter(lambda v: not v.is_zero()),
                       min_size=3, max_size=3, unique=True).map(tuple),
              st.lists(elements, max_size=6))
    for elements in (rationals(), st.integers(0, 10).map(GF11.from_int), quaternions())))


class TestCarriedConstants:
    """A base carries S, Z0, U and the constants of its map and inverse map."""

    @given(POINTS_AND_ARGUMENTS)
    @example((IJK_QUADRUPLE[1:], [IJK_QUADRUPLE[0], RationalQuaternion(0)]))
    def test_slots_give_the_definitional_map(self, drawn):
        points, arguments = drawn
        for family in Family:
            base = CrossRatioBase(family, points)
            assert (base._singular, base._zero, base._unit) == (
                points[maps_module._SINGULAR_INDEX[family]],
                points[maps_module._ZERO_INDEX[family]],
                points[maps_module._UNIT_INDEX[family]])
            value = maps_module._map_function(base)
            inverse = maps_module._map_function(base, inverse=True)
            for x in [*points, *arguments]:
                if x == base._singular:
                    continue
                assert value(x) == evaluate(base, x), (base, x)
                if x != base._zero:
                    assert inverse(x) == inverse_value(base, x), (base, x)


def count_quaternion_ops(monkeypatch):
    """Count the RationalQuaternion operator calls, as count_rational_ops
    in test_canonical_lines does for rationals."""
    counts = Counter()
    for name in ("__add__", "__sub__", "__mul__", "inverse"):
        original = getattr(RationalQuaternion, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(RationalQuaternion, name, counted)
    return counts


class TestOpCounts:
    POINTS = (RationalQuaternion(1, 1), RationalQuaternion(0, 0, 1, Fraction(-1, 2)),
              RationalQuaternion(2, 0, 0, Fraction(1, 3)))
    SAMPLES = SampleSet((RationalQuaternion(0, 1, 1),
                         RationalQuaternion(Fraction(1, 2), 0, -1, 1),
                         RationalQuaternion(-1, 2, 0, 0)))

    # Construction: the X-free constants of the map and of its inverse map,
    # once per base (A: 2 sub, 1 inverse, 1 mul for g, 1 mul for g g and
    # 1 inverse for g^-1; C: 3 sub, 1 inverse, 1 mul for omega and Q, then
    # 1 inverse, 1 mul for Q omega^-1, its P = omega giving P' = 1; B: C's,
    # 1 add for 1 - omega, which is (-omega) + 1, its -Q being a negation, then
    # 1 inverse, 2 mul for omega^-1 P and Q omega^-1; D: C's and their
    # inversion, 1 inverse and 1 mul for -Q omega^-1, its P = 1 being no
    # product, its inverse map's constants being C's own).
    @pytest.mark.parametrize("family, construction", [
        (Family.A, {"__sub__": 2, "inverse": 2, "__mul__": 2}),
        (Family.B, {"__sub__": 3, "inverse": 2, "__mul__": 3, "__add__": 1}),
        (Family.C, {"__sub__": 3, "inverse": 2, "__mul__": 2}),
        (Family.D, {"__sub__": 3, "inverse": 2, "__mul__": 2}),
    ])
    def test_construction_computes_the_constants(self, monkeypatch, family, construction):
        counts = count_quaternion_ops(monkeypatch)
        CrossRatioBase(family, self.POINTS)
        assert dict(counts) == construction

    # Every runner reads the constants from the base and pays for three
    # sampled values (A: 2 sub, 1 inverse, 2 mul each; B, C: 1 sub,
    # 1 inverse, 2 mul, 1 add each; D: 1 sub, 1 inverse, 1 mul, 1 add
    # each).  Each sum s_i = x_i + x_i+1 and product p_i = x_i x_i+1 is
    # computed once.
    # Addition: the zero point by evaluate (4 sub, 2 inverse, 3 mul); the
    # sums 3 add; associativity 6 add, commutativity 3, zero neutrality 3;
    # the closure record on the sums, through the attainment test: for A
    # three psi (2 mul, 2 add, 1 sub each), g g being given, for B, C, D
    # none (omega is given).  So A: 6 + 4 + 3 = 13 sub, 3 + 2 = 5 inverse,
    # 6 + 3 + 6 = 15 mul, 15 + 6 = 21 add; B, C: 3 + 4 = 7 sub, 5 inverse,
    # 6 + 3 = 9 mul, 3 + 15 = 18 add; D: 7 sub, 5 inverse, 3 + 3 = 6 mul,
    # 18 add.
    # Distributive: the sums 3 add, the products x_i x_i+1 and x_i x_i+2
    # 6 mul; both laws, 3 mul and 3 add each.  So A: 6 sub, 3 inverse,
    # 6 + 12 = 18 mul, 9 add; B, C: 3 sub, 3 inverse, 18 mul, 3 + 9 = 12
    # add; D: 3 sub, 3 inverse, 3 + 12 = 15 mul, 12 add.
    # Group: the unit point by evaluate (4 sub, 2 inverse, 3 mul); the
    # products 3 mul; associativity 6 mul, unit neutrality 6; three inverse
    # values from the inverse map's constants (A like A's values; B: 1 sub,
    # 1 inverse, 2 mul, 1 add each, its P' = omega^-1 P; C: like D's values,
    # its P' = 1; D: like C's values); the inverse law 6 mul; the closure
    # record on the products, through the attainment test.  So A:
    # 6 + 4 + 6 + 3 = 19 sub, 3 + 2 + 3 = 8 inverse,
    # 6 + 3 + 15 + 6 + 6 + 6 = 42 mul, 6 add; B: 3 + 4 + 3 = 10 sub,
    # 8 inverse, 6 + 3 + 15 + 6 + 6 = 36 mul, 3 + 3 = 6 add; C and D:
    # 10 sub, 8 inverse, 6 add, and 6 + 3 + 15 + 3 + 6 (C) or
    # 3 + 3 + 15 + 6 + 6 (D) = 33 mul.
    @pytest.mark.parametrize("family, distributive, group", [
        (Family.A, {"__sub__": 6, "inverse": 3, "__mul__": 18, "__add__": 9},
         {"__sub__": 19, "inverse": 8, "__mul__": 42, "__add__": 6}),
        (Family.B, {"__sub__": 3, "inverse": 3, "__mul__": 18, "__add__": 12},
         {"__sub__": 10, "inverse": 8, "__mul__": 36, "__add__": 6}),
        (Family.C, {"__sub__": 3, "inverse": 3, "__mul__": 18, "__add__": 12},
         {"__sub__": 10, "inverse": 8, "__mul__": 33, "__add__": 6}),
        (Family.D, {"__sub__": 3, "inverse": 3, "__mul__": 15, "__add__": 12},
         {"__sub__": 10, "inverse": 8, "__mul__": 33, "__add__": 6}),
    ])
    def test_each_value_pays_for_the_free_point_only(self, monkeypatch, family,
                                                     distributive, group):
        base = CrossRatioBase(family, self.POINTS)
        counts = count_quaternion_ops(monkeypatch)
        assert verify_distributive(base, self.SAMPLES).passed
        assert dict(counts) == distributive
        counts.clear()
        assert verify_multiplicative_group(base, self.SAMPLES).passed
        assert dict(counts) == group

    @pytest.mark.parametrize("family, addition", [
        (Family.A, {"__sub__": 13, "inverse": 5, "__mul__": 15, "__add__": 21}),
        (Family.B, {"__sub__": 7, "inverse": 5, "__mul__": 9, "__add__": 18}),
        (Family.C, {"__sub__": 7, "inverse": 5, "__mul__": 9, "__add__": 18}),
        (Family.D, {"__sub__": 7, "inverse": 5, "__mul__": 6, "__add__": 18}),
    ])
    def test_addition_structure_shares_its_sums(self, monkeypatch, family, addition):
        base = CrossRatioBase(family, self.POINTS)
        counts = count_quaternion_ops(monkeypatch)
        assert verify_addition_structure(base, self.SAMPLES).passed
        assert dict(counts) == addition


class TestSampling:
    def test_samples_avoid_excluded_points_and_count_rejections(self, gf5):
        base = CrossRatioBase(Family.A, tuple(gf5.from_int(n) for n in (1, 2, 3)))
        samples = sample_arguments(gf5, base, 50, seed=3, exclude_zero_point=True)
        assert len(samples.values) == 50
        assert all(v != singular_point(base) for v in samples.values)
        assert all(v != zero_point(base) for v in samples.values)
        assert samples.rejections > 0  # 2 of 5 residues are excluded
        assert sample_arguments(gf5, base, 0, seed=3) == SampleSet(())

    def test_exhaustive_arguments_gf5(self, gf5):
        base = CrossRatioBase(Family.D, tuple(gf5.from_int(n) for n in (1, 2, 4)))
        samples = exhaustive_arguments(gf5, base)
        assert len(samples.values) == 4
        assert samples.rejections == 1


class TestVerifiers:
    def test_reports_pass_per_backend(self, any_field, rng):
        for family in Family:
            base = random_base(any_field, rng, family)
            plain = sample_arguments(any_field, base, 40, seed=rng.randrange(10 ** 6))
            invertible = sample_arguments(any_field, base, 40,
                                          seed=rng.randrange(10 ** 6),
                                          exclude_zero_point=True)
            for report in (verify_addition_structure(base, plain),
                           verify_multiplicative_group(base, invertible),
                           verify_distributive(base, plain)):
                assert report.passed, "\n".join(report.lines())

    def test_report_line_format(self, gf5):
        base = CrossRatioBase(Family.A, tuple(gf5.from_int(n) for n in (1, 2, 3)))
        samples = exhaustive_arguments(gf5, base)
        report = verify_addition_structure(base, samples)
        lines = report.lines()
        assert lines[0].startswith("[addition structure")
        body = lines[1:]
        assert any(line.startswith("value addition associativity:") for line in body)
        assert all(("pass" in line) or ("info" in line) for line in body)
        assert any("rejections=1" in line for line in body)

    def test_failure_reporting_with_a_poisoned_identity(self, monkeypatch, gf5):
        # poison the map value at the zero point; the failure is reported, not raised
        import skewplane.maps as maps_module

        base = CrossRatioBase(Family.A, tuple(gf5.from_int(n) for n in (1, 2, 3)))
        samples = exhaustive_arguments(gf5, base)
        original = maps_module.evaluate

        def flaky(base_arg, x):
            value = original(base_arg, x)
            if x == zero_point(base_arg):
                return value + gf5.one()
            return value

        monkeypatch.setattr(maps_module, "evaluate", flaky)
        report = maps_module.verify_addition_structure(base, samples)
        assert not report.passed
        failing = [r for r in report.results if not r.passed]
        assert failing and failing[0].counterexample


class TestPreimageSolver:
    def test_gf5_matches_brute_force_enumeration(self, gf5):
        # independent oracle: enumerate every argument and compare
        for family in Family:
            for points in [(1, 2, 3), (1, 3, 4), (2, 3, 4)]:
                base = CrossRatioBase(family, tuple(gf5.from_int(n) for n in points))
                attainable = {}
                for x in gf5.elements():
                    if x == singular_point(base):
                        continue
                    attainable.setdefault(evaluate(base, x), x)
                for w in gf5.elements():
                    status, witness = preimage(base, w)
                    if status == ATTAINED:
                        assert w in attainable
                        assert evaluate(base, witness) == w
                    else:
                        assert (status, witness) == (NOT_ATTAINED, None)
                        assert w not in attainable

    @pytest.mark.parametrize("p", [5, 7])
    def test_every_base_matches_enumeration(self, p):
        # every ordered base of GF(p) and every value: the solver decides
        # each one, and agrees with enumerating the arguments
        field = PrimeField(p)
        nonzero = [x for x in field.elements() if not x.is_zero()]
        for family in Family:
            for points in permutations(nonzero, 3):
                base = CrossRatioBase(family, points)
                image = {evaluate(base, x) for x in field.elements()
                         if x != singular_point(base)}
                for w in field.elements():
                    status, witness = preimage(base, w)
                    assert status == (ATTAINED if w in image else NOT_ATTAINED), (base, w)
                    if status == ATTAINED:
                        assert evaluate(base, witness) == w

    def test_round_trip_through_map_values(self, any_field, rng):
        for family in Family:
            base = random_base(any_field, rng, family)
            for _ in range(15):
                x = any_field.random_element(rng)
                if x == singular_point(base):
                    continue
                status, witness = preimage(base, evaluate(base, x))
                assert status == ATTAINED
                assert evaluate(base, witness) == evaluate(base, x)


def solvable(g, w, c):
    """Whether g Z - Z w = c has a quaternion solution Z: the reference, an
    exact rank test of Z -> g Z - Z w as a 4x4 matrix over the rationals."""
    units = [RationalQuaternion(*row) for row in
             ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    columns = [(g * e - e * w).components() for e in units]
    matrix = [list(row) for row in zip(*columns)]
    augmented = [row + [t] for row, t in zip(matrix, c.components())]
    return rank(matrix) == rank(augmented)


def rank(rows):
    """The rank of a matrix of Fractions, by Gaussian elimination."""
    rows = [list(row) for row in rows]
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            factor = rows[i][col] / rows[r][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


class TestFamilyAQuaternionImage:
    """Family A over the quaternions decides the conjugates of g, where psi
    vanishes, exactly: against the rank test, on seeded bases."""

    def test_conjugates_of_g_match_the_rank_test(self, quaternion_field):
        q = quaternion_field
        rng = random.Random(2024)
        bases = [(q.i(), q.j(), q.k()),
                 (RationalQuaternion(3), q.i(), q.j() + q.k()),
                 (RationalQuaternion(3), RationalQuaternion(1), RationalQuaternion(5))]
        bases += [random_base(q, rng, Family.A).points for _ in range(8)]
        decided = Counter()
        for points in bases:
            base = CrossRatioBase(Family.A, points)
            _, c_, d_ = points
            g = (points[0] - d_) * (points[0] - c_).inverse()
            h = (c_ - d_).inverse() * g.conjugate() * (c_ - d_)
            targets = [g, h]
            while len(targets) < 24:
                conjugator = q.random_nonzero(rng)
                targets.append(conjugator * g * conjugator.inverse())
            for w in targets:
                status, witness = preimage(base, w)
                attained = solvable(g, w, g * c_ - d_ * w)
                assert status == (ATTAINED if attained else NOT_ATTAINED), (base, w)
                assert attained == (w == h != w.conjugate()), (base, w)
                if attained:
                    assert evaluate(base, witness) == w
                else:
                    assert witness is None
                decided[status] += 1
        assert decided[ATTAINED] and decided[NOT_ATTAINED]


class TestOmittedValue:
    @pytest.mark.parametrize("p", [5, 7])
    def test_image_is_the_line_minus_the_omitted_value(self, p):
        field = PrimeField(p)
        elements = set(field.elements())
        nonzero = [x for x in elements if not x.is_zero()]
        for family in (Family.B, Family.C, Family.D):
            for points in permutations(nonzero, 3):
                base = CrossRatioBase(family, points)
                image = {evaluate(base, x) for x in elements
                         if x != singular_point(base)}
                assert image == elements - {omitted_value(base)}, base

    def test_quaternion_omitted_value_has_no_preimage(self, quaternion_field, rng):
        for family in (Family.B, Family.C, Family.D):
            for _ in range(10):
                base = random_base(quaternion_field, rng, family)
                assert preimage(base, omitted_value(base)) == (NOT_ATTAINED, None)

    def test_map_never_takes_the_omitted_value(self, any_field, rng):
        for family in (Family.B, Family.C, Family.D):
            for _ in range(5):
                base = random_base(any_field, rng, family)
                omitted = omitted_value(base)
                for _ in range(20):
                    x = any_field.random_element(rng)
                    if x != singular_point(base):
                        assert evaluate(base, x) != omitted

    def test_family_a_has_none(self, any_field, rng):
        assert omitted_value(random_base(any_field, rng, Family.A)) is None


def closure_tallies(report):
    """The (attained, no preimage, undecided) tallies of a report's closure line."""
    closure = report.results[-1]
    match = CLOSURE_NOTE.search(closure.line())
    assert closure.informational and match, closure.line()
    return tuple(int(t) for t in match.groups())


class TestClosureRecord:
    def test_note_keeps_its_parsed_form(self, any_field, rng):
        # "undecided 0" is printed too: the three tallies always appear,
        # and every value is decided
        for family in Family:
            base = random_base(any_field, rng, family)
            for verifier, exclude in ((verify_addition_structure, False),
                                      (verify_multiplicative_group, True)):
                samples = sample_arguments(any_field, base, 8,
                                           seed=rng.randrange(10 ** 6),
                                           exclude_zero_point=exclude)
                report = verifier(base, samples)
                attained, missed, undecided = closure_tallies(report)
                assert undecided == 0
                assert attained + missed == report.results[-1].samples == 8

    def test_worked_line(self, gf5):
        base = CrossRatioBase(Family.A, tuple(gf5.from_int(n) for n in (1, 2, 3)))
        report = verify_addition_structure(base, exhaustive_arguments(gf5, base))
        assert report.lines()[-1] == (
            "closure of sums under the map: samples=4 rejections=1 info "
            "attained 3, no preimage 1, undecided 0 (recorded, not asserted)")

    def test_tallies_match_preimage(self, any_field, rng):
        for family in Family:
            for _ in range(4):
                base = random_base(any_field, rng, family)
                for verifier, combine, exclude in (
                        (verify_addition_structure, operator.add, False),
                        (verify_multiplicative_group, operator.mul, True)):
                    samples = sample_arguments(any_field, base, 10,
                                               seed=rng.randrange(10 ** 6),
                                               exclude_zero_point=exclude)
                    values = samples.values
                    statuses = Counter(
                        preimage(base, combine(evaluate(base, x), evaluate(base, y)))[0]
                        for x, y in zip(values, values[1:] + values[:1]))
                    assert set(statuses) <= {ATTAINED, NOT_ATTAINED}
                    assert closure_tallies(verifier(base, samples)) == (
                        statuses[ATTAINED], statuses[NOT_ATTAINED], 0)

    @staticmethod
    def pair_reaching(base, left, target, verifier):
        """The verifier's closure tallies on two arguments whose map values
        add (or multiply, left first) to ``target``."""
        if verifier is verify_addition_structure:
            right = target - left
        else:
            right = left.inverse() * target
        arguments = []
        for value in (left, right):
            status, witness = preimage(base, value)
            assert status == ATTAINED
            arguments.append(witness)
        return closure_tallies(verifier(base, SampleSet(tuple(arguments))))

    @staticmethod
    def family_a_g(base):
        b_, c_, d_ = base.points
        return (b_ - d_) * (b_ - c_).inverse()

    def test_family_a_central_g_has_no_preimage(self, gf5):
        base = CrossRatioBase(Family.A, tuple(gf5.from_int(n) for n in (1, 2, 3)))
        g = self.family_a_g(base)
        assert preimage(base, g) == (NOT_ATTAINED, None)
        assert self.pair_reaching(base, gf5.from_int(3), g,
                                  verify_addition_structure) == (0, 2, 0)

    def test_family_a_conjugate_of_g_other_than_h_has_no_preimage(self, quaternion_field):
        q = quaternion_field
        base = CrossRatioBase(Family.A, (q.i(), q.j(), q.k()))
        g = self.family_a_g(base)
        conjugator = q.one() + q.i()
        target = conjugator * g * conjugator.inverse()
        assert target != g
        # on this base h = (C-D)^-1 conj(g) (C-D) is g itself, the value at 0
        assert preimage(base, target) == (NOT_ATTAINED, None)
        assert preimage(base, g) == (ATTAINED, q.zero())
        # both products, v[x] v[y] and v[y] v[x], are conjugates of g
        # |X-C| != |X-D|, so v[x] has norm 2/3, not g's 1, and is attained
        left = evaluate(base, q.from_int(2) + q.j())
        assert self.pair_reaching(base, left, target,
                                  verify_multiplicative_group) == (0, 2, 0)

    def test_family_a_nonvanishing_psi_is_attained(self, quaternion_field):
        q = quaternion_field
        base = CrossRatioBase(Family.A, (q.i(), q.j(), q.k()))
        target = evaluate(base, q.from_int(3) + q.j())
        status, witness = preimage(base, target)
        assert status == ATTAINED and evaluate(base, witness) == target
        left = evaluate(base, q.from_int(2) + q.j())
        for verifier in (verify_addition_structure, verify_multiplicative_group):
            assert self.pair_reaching(base, left, target, verifier) == (2, 0, 0)


# ---------------------------------------------------------------------------
# report bytes on edge sample sets and under a faulty scalar operation,
# compared with tests/data/verify_edge_golden.txt

VERIFY_EDGE_GOLDEN = Path(__file__).resolve().parent / "data" / "verify_edge_golden.txt"
EDGE_BACKENDS = {"rational": (RationalField, (3, 1, 5)),
                 "gfp7": (lambda: PrimeField(7), (1, 3, 6)),
                 "quaternion": (QuaternionField, None)}


def edge_base(backend, family):
    make_field, ints = EDGE_BACKENDS[backend]
    field = make_field()
    points = ((field.i(), field.j(), field.k()) if ints is None
              else tuple(field.from_int(n) for n in ints))
    return field, CrossRatioBase(family, points)


def verifier_lines(base, plain, invertible):
    return [line for report in (verify_addition_structure(base, plain),
                                verify_multiplicative_group(base, invertible),
                                verify_distributive(base, plain))
            for line in report.lines()]


def small_sample_lines(backend, family, n):
    """Every verifier's report on n = 0, 1 or 2 sampled arguments, where a
    cyclic shift of the sample order wraps onto itself."""
    field, base = edge_base(backend, family)
    return verifier_lines(base, sample_arguments(field, base, n, seed=3),
                          sample_arguments(field, base, n, seed=3, exclude_zero_point=True))


def poisoned_lines(monkeypatch, backend, family, operation):
    """Every verifier's report on 8 arguments while the scalar ``operation``
    is off by one for one ordered operand pair: the map values at the
    first adjacent pair of sampled arguments, from the fourth on, whose
    values avoid 0 and 1."""
    field, base = edge_base(backend, family)
    samples = sample_arguments(field, base, 8, seed=3, exclude_zero_point=True)
    values = [evaluate(base, x) for x in samples.values]
    pair = next((a, b) for a, b in zip(values[3:], values[4:])
                if not ({a, b} & {field.zero(), field.one()}))
    kind, one = type(base.points[0]), field.one()
    original, add = getattr(kind, operation), kind.__add__

    def faulty(self, other):
        result = original(self, other)
        return add(result, one) if (self, other) == pair else result

    monkeypatch.setattr(kind, operation, faulty)
    return verifier_lines(base, samples, samples)


def misevaluated_lines(monkeypatch, family):
    """Every verifier's report on every GF(7) argument while ``evaluate`` is
    off by one at the zero and unit points: a sampled zero or unit point
    reads its value by ``evaluate`` too."""
    field, base = edge_base("gfp7", family)
    original = maps_module.evaluate

    def faulty(base_arg, x):
        value = original(base_arg, x)
        return value + field.one() if x in (zero_point(base), unit_point(base)) else value

    monkeypatch.setattr(maps_module, "evaluate", faulty)
    return verifier_lines(base, exhaustive_arguments(field, base),
                          exhaustive_arguments(field, base, exclude_zero_point=True))


def edge_golden():
    blocks = VERIFY_EDGE_GOLDEN.read_text(encoding="utf-8").split("\n\n")
    return {block.split("\n")[0]: block.strip("\n").split("\n")[1:] for block in blocks}


class TestEdgeReports:
    """Report bytes where an index-based sample table can go wrong: sample
    sets of 0, 1 and 2 values, sampled zero and unit points, and one
    scalar operation giving a wrong result for one operand pair (each
    identity's samples= count and first counterexample)."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("backend", list(EDGE_BACKENDS))
    def test_small_sample_sets(self, backend, family, n):
        lines = small_sample_lines(backend, family, n)
        assert lines == edge_golden()[f"# small {backend} {family.value} n={n}"]

    @pytest.mark.parametrize("family", list(Family))
    def test_sampled_neutral_points_read_evaluate(self, monkeypatch, family):
        lines = misevaluated_lines(monkeypatch, family)
        assert lines == edge_golden()[f"# misevaluated gfp7 {family.value}"]

    @pytest.mark.parametrize("operation", ["__add__", "__mul__"])
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("backend", ["rational", "gfp7"])
    def test_one_faulty_operand_pair(self, monkeypatch, backend, family, operation):
        lines = poisoned_lines(monkeypatch, backend, family, operation)
        assert any("FAIL" in line for line in lines)
        assert lines == edge_golden()[f"# poisoned {backend} {family.value} {operation}"]


class TestBaseValue:
    """A base is its family and points: the derived slots change neither
    its printed forms nor its equality, and travel with its copies."""

    DERIVED = ("_singular", "_zero", "_unit", "_constants", "_inverse_constants")
    POINTS_REPR = {
        "rational": "(Rational(3), Rational(1), Rational(5))",
        "gfp7": "(PrimeFieldElement(1, 7), PrimeFieldElement(3, 7), PrimeFieldElement(6, 7))",
        "quaternion": (
            "(RationalQuaternion(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), "
            "RationalQuaternion(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), "
            "RationalQuaternion(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))"),
    }
    POINTS_STR = {"rational": "(3, 1, 5)", "gfp7": "(1 mod 7, 3 mod 7, 6 mod 7)",
                  "quaternion": "((0,1,0,0), (0,0,1,0), (0,0,0,1))"}

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("backend", list(EDGE_BACKENDS))
    def test_a_base_is_its_family_and_points(self, backend, family):
        _, base = edge_base(backend, family)
        f = family.value
        assert repr(base) == (f"CrossRatioBase(family=<Family.{f}: '{f}'>, "
                              f"points={self.POINTS_REPR[backend]})")
        assert str(base) == f"family {f} base {self.POINTS_STR[backend]}"

        altered = copy.copy(base)
        for name in self.DERIVED:
            object.__setattr__(altered, name, None)
        for twin in (CrossRatioBase(family, base.points), altered):
            assert twin == base and hash(twin) == hash(base)
        assert hash(base) == hash((family, base.points))
        for other in Family:
            if other is not family:
                assert CrossRatioBase(other, base.points) != base
        assert CrossRatioBase(family, base.points[::-1]) != base

        for twin in (copy.copy(base), copy.deepcopy(base), pickle.loads(pickle.dumps(base))):
            assert twin == base and hash(twin) == hash(base)
            for name in self.DERIVED:
                assert getattr(twin, name) == getattr(base, name), name

        for name in self.DERIVED:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(base, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(base, name)
