"""Geometric addition/multiplication, frames, and the Desargues checker."""

import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from skewplane import constructions
from skewplane.constructions import (
    CONCURRENT,
    PARALLEL,
    DesarguesConfig,
    LineFrame,
    check_desargues,
    generate_desargues_config,
    geometric_add,
    geometric_mul,
    _dilated,
    _translated,
    trace_addition,
    trace_multiplication,
    validate_desargues_config,
)
from skewplane.errors import (
    AuxOnBaseLineError,
    CoincidentPointsError,
    InvalidConfigurationError,
    PointOffBaseLineError,
)
from skewplane.plane import PlanePoint, line_through, on_line, scale_direction
from skewplane.scalars import (
    PrimeField,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
)

from conftest import quaternions, rationals

#: One line per generated configuration, "<field> <variant> <seed>: <repr>".
GENERATED_GOLDEN = Path(__file__).resolve().parent / "data" / "desargues_generated_golden.txt"


def rp(x, y):
    return PlanePoint(Rational(x), Rational(y))


@pytest.fixture
def rframe():
    return LineFrame.canonical(RationalField())


class TestFrame:
    def test_canonical_embed_extract(self, rframe):
        assert rframe.embed(Rational(5)) == rp(5, 0)
        assert rframe.extract(rp(5, 0)) == Rational(5)

    def test_extract_rejects_off_line_point(self, rframe):
        with pytest.raises(PointOffBaseLineError):
            rframe.extract(rp(1, 1))

    def test_quaternion_embed_extract(self):
        field = QuaternionField()
        frame = LineFrame.canonical(field)
        i = field.i()
        assert frame.extract(PlanePoint(i, field.zero())) == i

    def test_coincident_frame_points_rejected(self):
        with pytest.raises(CoincidentPointsError):
            LineFrame(rp(1, 1), rp(1, 1))

    def test_skew_frame_roundtrip(self, rng):
        frame = LineFrame(rp(1, 1), rp(2, 3))
        field = RationalField()
        for _ in range(25):
            value = field.random_element(rng)
            assert frame.extract(frame.embed(value)) == value

    def test_vertical_frame_roundtrip(self):
        frame = LineFrame(rp(2, 0), rp(2, 1))
        value = Rational(-7, 3)
        assert frame.extract(frame.embed(value)) == value


class TestAdditionConstruction:
    def test_hand_traced_example(self, rframe):
        # aux (0,1): P1 = (2,1); direction B->aux is (-3,1); from P1 the
        # parallel meets y = 0 three steps on, at x = 5.
        trace = trace_addition(rframe, rp(2, 0), rp(3, 0), rp(0, 1))
        assert trace.p1 == rp(2, 1)
        assert trace.result == rp(5, 0)

    def test_adding_zero_returns_other_operand(self, rframe):
        zero = rframe.origin
        b = rp(4, 0)
        assert geometric_add(rframe, zero, b, rp(0, 1)) == b
        assert geometric_add(rframe, b, zero, rp(2, 5)) == b

    def test_quaternion_sum_matches_algebra(self):
        field = QuaternionField()
        frame = LineFrame.canonical(field)
        i, j = field.i(), field.j()
        aux = PlanePoint(field.zero(), field.one())
        result = geometric_add(frame, frame.embed(i), frame.embed(j), aux)
        assert frame.extract(result) == i + j

    def test_operand_off_line_rejected(self, rframe):
        with pytest.raises(PointOffBaseLineError):
            geometric_add(rframe, rp(1, 1), rp(2, 0), rp(0, 1))
        with pytest.raises(PointOffBaseLineError):
            geometric_add(rframe, rp(1, 0), rp(2, 2), rp(0, 1))

    def test_aux_on_line_rejected(self, rframe):
        with pytest.raises(AuxOnBaseLineError):
            geometric_add(rframe, rp(1, 0), rp(2, 0), rp(5, 0))


class TestMultiplicationConstruction:
    def test_hand_traced_example(self, rframe):
        # aux (0,1): the parallel to I-aux through A meets the O-aux line
        # at (0,2); from there the parallel to B-aux meets y = 0 at x = 6.
        trace = trace_multiplication(rframe, rp(2, 0), rp(3, 0), rp(0, 1))
        assert trace.p1 == rp(0, 2)
        assert trace.result == rp(6, 0)

    def test_multiplying_by_one(self, rframe):
        one = rframe.unit
        b = rp(7, 0)
        assert geometric_mul(rframe, one, b, rp(0, 1)) == b
        assert geometric_mul(rframe, b, one, rp(3, -2)) == b

    def test_annihilation_by_zero(self, rframe):
        zero = rframe.origin
        assert geometric_mul(rframe, rp(9, 0), zero, rp(0, 1)) == zero
        assert geometric_mul(rframe, zero, rp(9, 0), rp(0, 1)) == zero

    def test_product_order_calibration_on_quaternions(self):
        # The one genuine convention choice: with the left scalar action,
        # the construction for (A, B) = (i, j) must land on i*j = k and
        # not on j*i = -k.  Frozen here as THE product convention.
        field = QuaternionField()
        frame = LineFrame.canonical(field)
        i, j, k = field.i(), field.j(), field.k()
        aux = PlanePoint(field.zero(), field.one())
        got = frame.extract(geometric_mul(frame, frame.embed(i), frame.embed(j), aux))
        assert got == i * j == k
        assert got != j * i


class TestOracleEquivalence:
    def test_randomized_per_backend(self, any_field, rng):
        frame = LineFrame.canonical(any_field)
        for _ in range(60):
            a = any_field.random_element(rng)
            b = any_field.random_element(rng)
            pa, pb = frame.embed(a), frame.embed(b)
            aux = PlanePoint(any_field.random_element(rng),
                             any_field.random_nonzero(rng))
            assert frame.extract(geometric_add(frame, pa, pb, aux)) == a + b
            assert frame.extract(geometric_mul(frame, pa, pb, aux)) == a * b

    def test_exhaustive_gf3(self):
        field = PrimeField(3)
        frame = LineFrame.canonical(field)
        values = list(field.elements())
        aux_points = [PlanePoint(x, y) for x in values for y in values
                      if not y.is_zero()]
        for a, b in product(values, values):
            pa, pb = frame.embed(a), frame.embed(b)
            for aux in aux_points:
                assert frame.extract(geometric_add(frame, pa, pb, aux)) == a + b
                assert frame.extract(geometric_mul(frame, pa, pb, aux)) == a * b

    def test_aux_independence(self, any_field, rng):
        frame = LineFrame.canonical(any_field)
        for _ in range(10):
            a = any_field.random_element(rng)
            b = any_field.random_element(rng)
            pa, pb = frame.embed(a), frame.embed(b)
            sums = set()
            products = set()
            seen = set()
            while len(seen) < 10:
                aux = PlanePoint(any_field.random_element(rng),
                                 any_field.random_nonzero(rng))
                if aux in seen:
                    continue
                seen.add(aux)
                sums.add(geometric_add(frame, pa, pb, aux))
                products.add(geometric_mul(frame, pa, pb, aux))
            assert len(sums) == 1
            assert len(products) == 1

    def test_skewed_frame_generality(self, rng):
        # a non-canonical frame over the rationals: O=(1,1), I=(2,3)
        field = RationalField()
        frame = LineFrame(rp(1, 1), rp(2, 3))
        for _ in range(40):
            a = field.random_element(rng)
            b = field.random_element(rng)
            pa, pb = frame.embed(a), frame.embed(b)
            aux = rp(rng.randint(-5, 5), rng.randint(-5, 5))
            if frame.contains(aux):
                continue
            assert frame.extract(geometric_add(frame, pa, pb, aux)) == a + b
            assert frame.extract(geometric_mul(frame, pa, pb, aux)) == a * b


class TestDesargues:
    def test_translated_triangle(self):
        shift = (Rational(2), Rational(3))
        a, b, c = rp(0, 0), rp(1, 0), rp(0, 1)
        cfg = DesarguesConfig(a, b, c, a.translate(shift), b.translate(shift),
                              c.translate(shift), PARALLEL)
        assert check_desargues(cfg) is True

    def test_homothety(self):
        cfg = DesarguesConfig(rp(1, 0), rp(0, 1), rp(1, 1),
                              rp(2, 0), rp(0, 2), rp(2, 2),
                              CONCURRENT, center=rp(0, 0))
        assert check_desargues(cfg) is True

    def test_invalid_variant_hypothesis(self):
        # claims concurrency at a point the joining lines miss
        cfg = DesarguesConfig(rp(0, 0), rp(1, 0), rp(0, 1),
                              rp(2, 3), rp(3, 3), rp(2, 4),
                              CONCURRENT, center=rp(9, 9))
        with pytest.raises(InvalidConfigurationError):
            check_desargues(cfg)

    def test_coincident_axes_rejected(self):
        # degenerate: both triangles share the joining line AA' = BB'
        cfg = DesarguesConfig(rp(0, 0), rp(1, 0), rp(0, 1),
                              rp(2, 0), rp(3, 0), rp(2, 1), PARALLEL)
        with pytest.raises(InvalidConfigurationError):
            check_desargues(cfg)

    def test_concurrent_needs_center(self):
        with pytest.raises(InvalidConfigurationError):
            DesarguesConfig(rp(0, 0), rp(1, 0), rp(0, 1),
                            rp(2, 0), rp(0, 2), rp(1, 1), CONCURRENT)

    def test_generator_is_deterministic(self, any_field):
        first = generate_desargues_config(any_field, PARALLEL, seed=7)
        second = generate_desargues_config(any_field, PARALLEL, seed=7)
        assert first == second

    @pytest.mark.parametrize("variant", [PARALLEL, CONCURRENT])
    def test_generated_configs_validate_and_conclude(self, any_field, variant):
        for seed in range(12):
            cfg = generate_desargues_config(any_field, variant, seed)
            validate_desargues_config(cfg)
            assert cfg.variant == variant
            assert check_desargues(cfg) is True

    def test_collinear_triangle_rejected(self):
        # A, B, C on y = 0, moved to y = 1: every other hypothesis holds
        cfg = DesarguesConfig(rp(0, 0), rp(1, 0), rp(2, 0),
                              rp(0, 1), rp(1, 1), rp(2, 1), PARALLEL)
        with pytest.raises(InvalidConfigurationError,
                           match=r"^vertices A, B, C are collinear$"):
            check_desargues(cfg)

    def test_collinear_image_triangle_fails_a_side_check(self):
        # A'B'C' on x + y = 2 under a triangle ABC: the joining lines meet
        # at (0, 0) and AB || A'B' holds, BC || B'C' cannot
        cfg = DesarguesConfig(rp(1, 0), rp(0, 1), rp(2, 2),
                              rp(2, 0), rp(0, 2), rp(1, 1), CONCURRENT, center=rp(0, 0))
        with pytest.raises(InvalidConfigurationError,
                           match=r"^side BC is not parallel to B'C'$"):
            check_desargues(cfg)


def test_generated_configs_match_golden():
    """Pins the generator's RNG stream and every configuration it returns."""
    fields = (PrimeField(5), PrimeField(7), RationalField(), QuaternionField())
    text = "".join(
        f"{field.name} {variant} {seed}: {generate_desargues_config(field, variant, seed)!r}\n"
        for field in fields for variant in (PARALLEL, CONCURRENT) for seed in range(25))
    assert text == GENERATED_GOLDEN.read_text(encoding="utf-8")


def is_valid(cfg):
    try:
        validate_desargues_config(cfg)
    except InvalidConfigurationError:
        return False
    return True


def assert_same_verdict(generated, cfg):
    """The generator's closed form keeps exactly the candidates the full
    validator accepts, and builds the same configuration from them."""
    assert (generated is not None) == is_valid(cfg)
    if generated is not None:
        assert generated == cfg


def translated(a, b, c, shift):
    return DesarguesConfig(a, b, c, a.translate(shift), b.translate(shift),
                           c.translate(shift), PARALLEL)


def dilated(a, b, c, center, scale):
    def dilate(p):
        return PlanePoint(center.x + scale * (p.x - center.x),
                          center.y + scale * (p.y - center.y))

    return DesarguesConfig(a, b, c, dilate(a), dilate(b), dilate(c), CONCURRENT,
                           center=center)


def gf5_triangles():
    """(A, B, C, AB) for A = (0, 0) and every B, C making a triangle with it."""
    values = list(PrimeField(5).elements())
    points = [PlanePoint(x, y) for x, y in product(values, values)]
    a = points[0]
    for b in points[1:]:
        ab = line_through(a, b)
        for c in points:
            if not on_line(c, ab):
                yield a, b, c, ab


@st.composite
def candidates(draw):
    """A triangle with a shift and a dilation on one backend; the shift is
    parallel to, and the center on, a side chosen at random or none."""
    scalar = draw(st.sampled_from([rationals(4, 3), quaternions(2, 2)]))
    a, b, c = (PlanePoint(draw(scalar), draw(scalar)) for _ in range(3))
    sides = {"AB": (a, b), "AC": (a, c), "BC": (b, c)}
    side = draw(st.sampled_from([None, *sides]))
    t = draw(scalar)
    if side is None:
        shift = (draw(scalar), draw(scalar))
        center = PlanePoint(draw(scalar), draw(scalar))
    else:
        p, q = sides[side]
        shift = scale_direction(t, p.displacement_to(q))
        center = p.translate(shift)
    scale = draw(scalar.filter(lambda k: not (k.is_zero() or k == k._from_int(1))))
    return a, b, c, shift, center, scale


I, J, K = (RationalQuaternion(*unit) for unit in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
ZERO = RationalQuaternion(0)


class TestGeneratorClosedForm:
    """``_translated`` and ``_dilated`` reject exactly the candidates on
    which ``validate_desargues_config`` raises."""

    def test_exhaustive_gf5_translations(self):
        values = list(PrimeField(5).elements())
        shifts = [(x, y) for x, y in product(values, values) if not (x.is_zero() and y.is_zero())]
        for a, b, c, ab in gf5_triangles():
            for shift in shifts:
                assert_same_verdict(_translated(a, b, c, ab, shift), translated(a, b, c, shift))

    # one test per scale keeps each under about a second
    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_exhaustive_gf5_dilations(self, scale):
        values = list(PrimeField(5).elements())
        k = values[scale]
        centers = [PlanePoint(x, y) for x, y in product(values, values)]
        for a, b, c, ab in gf5_triangles():
            for center in centers:
                assert_same_verdict(_dilated(a, b, c, ab, center, k),
                                    dilated(a, b, c, center, k))

    @given(candidates())
    # on the triangle (0, 0), (i, j), (j, k): the shift i(i, j) is parallel
    # to AB and the center j(j, k) lies on AC; then a shift and a center
    # the closed form accepts
    @example((PlanePoint(ZERO, ZERO), PlanePoint(I, J), PlanePoint(J, K),
              (I * I, I * J), PlanePoint(J * J, J * K), K))
    @example((PlanePoint(ZERO, ZERO), PlanePoint(I, J), PlanePoint(J, K),
              (K, I), PlanePoint(K, ZERO), I))
    def test_rational_and_quaternion_candidates(self, candidate):
        a, b, c, shift, center, scale = candidate
        assume(a != b)
        ab = line_through(a, b)
        assume(not on_line(c, ab))
        if not (shift[0].is_zero() and shift[1].is_zero()):
            assert_same_verdict(_translated(a, b, c, ab, shift), translated(a, b, c, shift))
        assert_same_verdict(_dilated(a, b, c, ab, center, scale),
                            dilated(a, b, c, center, scale))


class TestGeneratorWork:
    """What one accepted candidate costs the generator, counted at the
    names ``constructions`` calls."""

    # Parallel: AB for the triangle test (1 line_through, C on AB: 1 on_line),
    # then AC and BC (2 line_through) with A' tested on AB and AC and B' on
    # BC (3 on_line): 3 lines and 4 tests.  Concurrent: the same triangle
    # test, then the center tested on AB, AC and BC: again 3 and 4.  The
    # full validator builds 9 lines (3 joining lines, 6 sides), so a
    # generator that also runs it reads at least 12 line_through.
    @pytest.mark.parametrize("variant, draws", [(PARALLEL, 8), (CONCURRENT, 9)])
    def test_one_accepted_candidate(self, monkeypatch, variant, draws):
        field = RationalField()
        counts = Counter()
        for name in ("line_through", "on_line"):
            original = getattr(constructions, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(constructions, name, counted)
        original_draw = field.random_element

        def counted_draw(rng):
            counts["random_element"] += 1
            return original_draw(rng)

        monkeypatch.setattr(field, "random_element", counted_draw)
        cfg = generate_desargues_config(field, variant, seed=1)
        # one candidate: six coordinates, then two for the shift, or two for
        # the center and one for the scale
        assert counts == Counter(random_element=draws, line_through=3, on_line=4)
        monkeypatch.undo()
        assert check_desargues(cfg) is True
