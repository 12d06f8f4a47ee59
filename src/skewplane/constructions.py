"""Parallel-line constructions that add and multiply points of a line.

A :class:`LineFrame` distinguishes a line through two points O and I; the
points of that line are identified with field scalars by

    embed(c) = O + c * (I - O),      extract(embed(c)) = c.

Addition of two points A, B on the frame line uses an auxiliary point off
the line and three parallel-transport steps:

    1. l1   = parallel to the frame line through aux
    2. P1   = l1  intersect  (parallel to the O-aux line through A)
    3. A+B  = (parallel to the B-aux line through P1)  intersect  frame line

Multiplication replaces step 2 with P1 = (parallel to the I-aux line
through A) intersect (the O-aux line itself).  With the package's left
scalar action the multiplicative construction yields exactly the product
extract(A) * extract(B), in that operand order; the calibration test on
quaternion inputs (i, j) -> k pins this convention down and the test
suite enforces it.

The same module hosts the Desargues-configuration checker: it validates
the axiom's hypotheses on a labeled six-point configuration and reports
whether the conclusion (third side pair parallel) holds.  Over any
skew-field coordinate plane the conclusion must always hold, so a False
return is a bug alarm, not a geometric discovery.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .errors import (
    AuxOnBaseLineError,
    CoincidentPointsError,
    InvalidConfigurationError,
    PointOffBaseLineError,
)
from .plane import (
    PlaneLine,
    PlanePoint,
    _point,
    intersect,
    is_parallel,
    line_through,
    on_line,
    parallel_through,
    scale_direction,
)
from .scalars import Immutable, Record, ScalarField, SkewScalar

PARALLEL = "parallel"
CONCURRENT = "concurrent"


class LineFrame(Immutable, Record):
    """A distinguished line with a zero point O and a unit point I.

    The canonical frame is O=(0,0), I=(1,0); arbitrary frames are
    accepted and the embed/extract pair stays exact in all of them.
    O and I decide ``==`` and the hash; ``line`` and ``_axis`` derive from them.
    """

    __slots__ = ("origin", "unit", "line", "_axis")

    def __init__(self, origin: PlanePoint, unit: PlanePoint):
        for point in (origin, unit):
            if not isinstance(point, PlanePoint):
                raise TypeError(f"expected a PlanePoint, got {type(point).__name__}")
        if origin == unit:
            raise CoincidentPointsError("frame needs two distinct points O and I")
        self._init(origin, unit, line_through(origin, unit), origin.displacement_to(unit))

    def _values(self) -> tuple:
        return (self.origin, self.unit)

    @classmethod
    def canonical(cls, field: ScalarField) -> "LineFrame":
        zero, one = field.zero(), field.one()
        return cls(PlanePoint(zero, zero), PlanePoint(one, zero))

    def contains(self, point: PlanePoint) -> bool:
        return on_line(point, self.line)

    def embed(self, value: SkewScalar) -> PlanePoint:
        """The point of the frame line with coordinate ``value``."""
        return self.origin.translate(scale_direction(value, self._axis))

    def extract(self, point: PlanePoint) -> SkewScalar:
        """The coordinate of a point on the frame line (embed's inverse)."""
        vx, vy = self._axis
        if not vx.is_zero():
            t = (point.x - self.origin.x) * vx.inverse()
            if self.origin.y + t * vy == point.y:
                return t
        else:
            t = (point.y - self.origin.y) * vy.inverse()
            if point.x == self.origin.x:
                return t
        raise PointOffBaseLineError(f"{point} is not on the frame line")

    def __repr__(self) -> str:
        return f"LineFrame(O={self.origin}, I={self.unit})"


class ConstructionTrace(Immutable, Record):
    """Every intermediate object of one add/mul construction, for
    diagnostics and drawing; ``kind`` is "add" or "mul"."""

    __slots__ = ("kind", "frame", "a", "b", "aux", "p1", "result", "lines")

    def __init__(self, kind: str, frame: LineFrame, a: PlanePoint, b: PlanePoint,
                 aux: PlanePoint, p1: PlanePoint, result: PlanePoint,
                 lines: tuple[tuple[str, PlaneLine], ...]):
        self._init(kind, frame, a, b, aux, p1, result, lines)


def _check_construction_inputs(frame: LineFrame, a: PlanePoint, b: PlanePoint,
                               aux: PlanePoint) -> None:
    if not frame.contains(a):
        raise PointOffBaseLineError(f"operand A = {a} is not on the frame line")
    if not frame.contains(b):
        raise PointOffBaseLineError(f"operand B = {b} is not on the frame line")
    if frame.contains(aux):
        raise AuxOnBaseLineError(f"auxiliary point {aux} lies on the frame line")


def _step3(kind: str, frame: LineFrame, a: PlanePoint, b: PlanePoint, aux: PlanePoint,
           p1: PlanePoint, lines: tuple[tuple[str, PlaneLine], ...]) -> ConstructionTrace:
    """Step 3, which both constructions end with: the parallel to B-aux
    through P1 meets the frame line in the result.  The trace lists
    ``lines`` and then B-aux and the step-3 line."""
    b_aux = line_through(b, aux)
    l3 = parallel_through(p1, b_aux)
    return ConstructionTrace(kind, frame, a, b, aux, p1, intersect(l3, frame.line),
                             lines + (("B-aux", b_aux), ("step3", l3)))


def trace_addition(frame: LineFrame, a: PlanePoint, b: PlanePoint,
                   aux: PlanePoint) -> ConstructionTrace:
    """Run the three-step addition construction, keeping every step.

    No step can degenerate once the inputs pass: aux is off the frame
    line, so O-aux and B-aux each join two distinct points and cross the
    frame line, and so do their parallels l2 and l3, which meet l1 and
    the frame line, both parallel to it, in one point each."""
    _check_construction_inputs(frame, a, b, aux)
    o_aux = line_through(frame.origin, aux)
    l1 = parallel_through(aux, frame.line)
    l2 = parallel_through(a, o_aux)
    return _step3("add", frame, a, b, aux, intersect(l1, l2),
                  (("base", frame.line), ("O-aux", o_aux), ("step1", l1), ("step2", l2)))


def trace_multiplication(frame: LineFrame, a: PlanePoint, b: PlanePoint,
                         aux: PlanePoint) -> ConstructionTrace:
    """Run the three-step multiplication construction, keeping every step.

    No step can degenerate once the inputs pass: aux is off the frame
    line, so I-aux, O-aux and B-aux each join two distinct points and
    cross the frame line, and so does l3, the parallel to B-aux, which
    meets it in one point.  l1, the parallel to I-aux, is not parallel to
    O-aux, which meets I-aux only at aux, so the two meet in one point."""
    _check_construction_inputs(frame, a, b, aux)
    i_aux = line_through(frame.unit, aux)
    o_aux = line_through(frame.origin, aux)
    l1 = parallel_through(a, i_aux)
    return _step3("mul", frame, a, b, aux, intersect(l1, o_aux),
                  (("base", frame.line), ("I-aux", i_aux), ("step1", l1), ("O-aux", o_aux)))


def geometric_add(frame: LineFrame, a: PlanePoint, b: PlanePoint,
                  aux: PlanePoint) -> PlanePoint:
    """The point representing A + B on the frame line."""
    return trace_addition(frame, a, b, aux).result


def geometric_mul(frame: LineFrame, a: PlanePoint, b: PlanePoint,
                  aux: PlanePoint) -> PlanePoint:
    """The point representing the product A * B on the frame line.

    Operand order matters over a non-commutative field: the result is
    extract(A) * extract(B) under the left-action convention.
    """
    return trace_multiplication(frame, a, b, aux).result


class DesarguesConfig(Immutable, Record):
    """Two labeled triangles forming a Desarguesian vertex pair.

    ``ap``, ``bp``, ``cp`` are the primed vertices A', B', C'.  The
    ``variant`` says how the three joining lines AA', BB', CC' relate:
    all parallel, or concurrent at ``center``.
    """

    __slots__ = ("a", "b", "c", "ap", "bp", "cp", "variant", "center")

    def __init__(self, a: PlanePoint, b: PlanePoint, c: PlanePoint, ap: PlanePoint,
                 bp: PlanePoint, cp: PlanePoint, variant: str,
                 center: PlanePoint | None = None):
        self._init(a, b, c, ap, bp, cp, variant, center)
        if variant not in (PARALLEL, CONCURRENT):
            raise InvalidConfigurationError(f"unknown variant {variant!r}")
        if variant == CONCURRENT and center is None:
            raise InvalidConfigurationError("concurrent variant needs a center point")


def validate_desargues_config(cfg: DesarguesConfig) -> tuple[PlaneLine, PlaneLine]:
    """Check every hypothesis of the axiom; raise naming the first failure.

    Returns the lines AC and A'C' whose parallelism is the conclusion.
    A side cannot equal its primed side once the joining lines are
    distinct: AB = A'B' with A != A' and B != B' would make AA' = AB = BB'.
    """
    try:
        axes = (line_through(cfg.a, cfg.ap),
                line_through(cfg.b, cfg.bp),
                line_through(cfg.c, cfg.cp))
        ab, apbp = line_through(cfg.a, cfg.b), line_through(cfg.ap, cfg.bp)
        bc, bpcp = line_through(cfg.b, cfg.c), line_through(cfg.bp, cfg.cp)
        ac, apcp = line_through(cfg.a, cfg.c), line_through(cfg.ap, cfg.cp)
    except CoincidentPointsError as exc:
        raise InvalidConfigurationError(f"coincident labeled points: {exc}") from exc
    # A'B'C' needs no test of its own: were it collinear, the side checks
    # below would fail, as AB || A'B' = B'C' || BC would put C on AB
    if on_line(cfg.c, ab):
        raise InvalidConfigurationError("vertices A, B, C are collinear")
    names = ("AA'", "BB'", "CC'")
    for i in range(3):
        for j in range(i + 1, 3):
            if axes[i] == axes[j]:
                raise InvalidConfigurationError(
                    f"joining lines {names[i]} and {names[j]} coincide")
    if cfg.variant == PARALLEL:
        if not (is_parallel(axes[0], axes[1]) and is_parallel(axes[1], axes[2])):
            raise InvalidConfigurationError("joining lines are not all parallel")
    else:
        for name, axis in zip(names, axes):
            if not on_line(cfg.center, axis):
                raise InvalidConfigurationError(
                    f"joining line {name} misses the center {cfg.center}")
    if not is_parallel(ab, apbp):
        raise InvalidConfigurationError("side AB is not parallel to A'B'")
    if not is_parallel(bc, bpcp):
        raise InvalidConfigurationError("side BC is not parallel to B'C'")
    return ac, apcp


def check_desargues(cfg: DesarguesConfig) -> bool:
    """Validate the hypotheses, then test the conclusion AC parallel A'C'."""
    return is_parallel(*validate_desargues_config(cfg))


def _transformed(a: PlanePoint, b: PlanePoint, c: PlanePoint, ab: PlaneLine,
                 move: Callable[[PlanePoint], PlanePoint], variant: str,
                 center: PlanePoint | None = None) -> DesarguesConfig | None:
    """Triangle ABC under ``move``, or None when the move fixes a side
    line: a side line through a vertex V is fixed iff V's image lies on
    it, so A' tests AB and AC, and B' tests BC."""
    ap, bp = move(a), move(b)
    if on_line(ap, ab) or on_line(ap, line_through(a, c)) or on_line(bp, line_through(b, c)):
        return None
    return DesarguesConfig(a, b, c, ap, bp, move(c), variant, center)


def generate_desargues_config(field: ScalarField, variant: str,
                              seed: int) -> DesarguesConfig:
    """A pseudo-random configuration satisfying every hypothesis exactly.

    Built by transformation rather than rejection over raw sextuples: a
    random triangle is translated by a nonzero shift s (parallel variant)
    or dilated from a center P by a left scalar k not in {0, 1} (concurrent
    variant), which makes the two parallel-side hypotheses hold by
    construction.  What the transformation can still break is decided in
    closed form, with the same verdict as ``validate_desargues_config``:
    the candidate is rejected iff the move fixes a side line, for then
    that side equals its image, as the joining lines through its ends do.
    A side line through a vertex is fixed iff it holds the vertex's image,
    so A' is tested on AB and AC, and B' on BC.  A translation by s fixes
    exactly the lines parallel to s, and a dilation from P exactly the
    lines through P; k*(dx, dy) has the canonical direction of (dx, dy)
    under the left action, so this holds over the quaternions too.

    GF(2) has no configuration of either variant: its plane has three
    directions, those of any triangle's sides, and no scale lies outside
    {0, 1}.  Deterministic for a given seed.
    """
    if variant not in (PARALLEL, CONCURRENT):
        raise InvalidConfigurationError(f"unknown variant {variant!r}")
    if getattr(field, "p", None) == 2:
        raise InvalidConfigurationError("gfp(2) has no Desargues configuration")
    rng = random.Random(seed)
    one = field.one() if variant == CONCURRENT else None

    def random_point() -> PlanePoint:
        return _point(field.random_element(rng), field.random_element(rng))

    for _ in range(10_000):
        a, b, c = random_point(), random_point(), random_point()
        if a == b:
            continue
        ab = line_through(a, b)
        if on_line(c, ab):
            continue
        if variant == PARALLEL:
            shift = (field.random_element(rng), field.random_element(rng))
            if shift[0].is_zero() and shift[1].is_zero():
                continue
            cfg = _transformed(a, b, c, ab, lambda p: p.translate(shift), PARALLEL)
        else:
            center = random_point()
            scale = field.random_element(rng)
            if scale.is_zero() or scale == one:
                continue
            cfg = _transformed(a, b, c, ab, lambda p: center.translate(
                scale_direction(scale, center.displacement_to(p))), CONCURRENT, center)
        if cfg is not None:
            return cfg
    # the least chance of a round to succeed is GF(3)'s 16/243: 10 000 all fail < 1e-295
    raise RuntimeError("could not generate a valid configuration")  # pragma: no cover
