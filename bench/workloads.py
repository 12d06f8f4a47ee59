"""The two in-process workloads: map verifiers and plane constructions.

A workload builds one round of tasks from the seed, runs a task through
the program's public API, and checks a task's output against the
reference arithmetic in refarith.py.  The benchmark repeats whole rounds,
so every run attempts the same mix of operations.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

import refarith as ref


@dataclass
class Task:
    label: str
    data: dict = field(default_factory=dict)
    known_fault: bool = False


def _rq(rng: random.Random):
    """A random small rational quaternion, drawn like the program's own
    QuaternionField.random_element."""
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 6))


def _distinct_nonzero(rng, draw, count, zero):
    points = []
    while len(points) < count:
        candidate = draw(rng)
        if candidate != zero and candidate not in points:
            points.append(candidate)
    return tuple(points)


def random_frame(rng, ring, draw, canonical: bool):
    """Frame points O, I (the canonical (0,0), (1,0), or two random
    distinct points) and an auxiliary point off the line OI."""
    if canonical:
        origin, unit = (ring.zero, ring.zero), (ring.one, ring.zero)
    else:
        origin = (draw(rng), draw(rng))
        unit = origin
        while unit == origin:
            unit = (draw(rng), draw(rng))
    aux = origin
    while ref.parallel(ring, origin, unit, origin, aux):
        aux = (draw(rng), draw(rng))
    return origin, unit, aux


class VerifyQuaternion:
    """verify_* reports on quaternion CrossRatioBase values, families A-D
    equally often.  Never touches plane or constructions."""

    name = "verify-quaternion"
    BASES_PER_FAMILY = 32
    SAMPLES = 3
    calibration = "loop"
    VERIFIERS = ("verify_addition_structure", "verify_multiplicative_group",
                 "verify_distributive")
    CLOSURE = {"verify_addition_structure": "+", "verify_multiplicative_group": "*"}

    def setup(self, seed: int, workdir) -> None:
        import skewplane
        from skewplane import maps

        self.maps = maps
        self.ring = ref.QuaternionRing
        rng = random.Random(f"{self.name}:{seed}")
        self.tasks = []
        for index in range(self.BASES_PER_FAMILY):
            for family in "ABCD":
                points = _distinct_nonzero(rng, _rq, 3, self.ring.zero)
                base = skewplane.CrossRatioBase(
                    skewplane.Family(family),
                    tuple(skewplane.RationalQuaternion(*p) for p in points))
                for verifier in self.VERIFIERS:
                    excluded = [points[ref.SINGULAR_INDEX[family]]]
                    if verifier == "verify_multiplicative_group":
                        excluded.append(points[ref.ZERO_INDEX[family]])
                    values = []
                    while len(values) < self.SAMPLES:
                        candidate = _rq(rng)
                        if candidate not in excluded:
                            values.append(candidate)
                    samples = skewplane.SampleSet(
                        tuple(skewplane.RationalQuaternion(*v) for v in values), 0)
                    self.tasks.append(Task(
                        f"{verifier}/{family}{index}",
                        dict(verifier=verifier, family=family, points=points,
                             values=values, base=base, samples=samples)))
        for task in self.tasks[:len(self.VERIFIERS)]:
            self.run(task)

    def run(self, task: Task):
        fn = getattr(self.maps, task.data["verifier"])
        return fn(task.data["base"], task.data["samples"])

    def summary(self, task: Task, report) -> Any:
        return tuple(report.lines())

    def _value(self, scalar):
        return self.ring.parse(str(scalar))

    def check(self, task: Task, report) -> Optional[str]:
        d = task.data
        maps, ring, family, base = self.maps, self.ring, d["family"], d["base"]
        n = len(d["values"])
        if not report.passed:
            return f"report failed: {report.lines()}"
        for result in report.results:
            if not result.informational and not result.passed:
                return f"identity failed: {result.line()}"
            if result.samples != n:
                return f"sample count {result.samples} != {n}: {result.line()}"
        for x_ref, x in zip(d["values"], d["samples"].values):
            want = ref.map_value(ring, family, d["points"], x_ref)
            got = self._value(maps.evaluate(base, x))
            if got != want:
                return f"evaluate at {x}: program {got}, reference {want}"
        for index_table, point_fn, target in (
                (ref.ZERO_INDEX, maps.zero_point, ring.zero),
                (ref.UNIT_INDEX, maps.unit_point, ring.one)):
            arg_ref = d["points"][index_table[family]]
            if self._value(point_fn(base)) != arg_ref:
                return f"{point_fn.__name__} is {point_fn(base)}, expected {arg_ref}"
            if (ref.map_value(ring, family, d["points"], arg_ref) != target
                    or self._value(maps.evaluate(base, point_fn(base))) != target):
                return f"{point_fn.__name__} does not map to {target}"
        operation = self.CLOSURE.get(d["verifier"])
        if operation is not None:
            return self._check_closure(task, report.results[-1], operation)
        return None

    def _check_closure(self, task: Task, result, operation: str) -> Optional[str]:
        import skewplane

        d = task.data
        ring, values = self.ring, d["values"]
        match = re.search(r"attained (\d+), no preimage (\d+), undecided (\d+)",
                          result.note or "")
        if not (result.informational and match):
            return f"closure line missing: {result.line()}"
        reported = tuple(int(g) for g in match.groups())
        if sum(reported) != result.samples:
            return f"closure tallies {reported} do not sum to {result.samples}"
        combine = ring.add if operation == "+" else ring.mul
        tallies = {"attained": 0, "not attained": 0, "undecided": 0}
        n = len(values)
        for i in range(n):
            x, y = values[i], values[(i + 1) % n]
            target = combine(ref.map_value(ring, d["family"], d["points"], x),
                             ref.map_value(ring, d["family"], d["points"], y))
            status, witness = self.maps.preimage(
                d["base"], skewplane.RationalQuaternion(*target))
            tallies[status] += 1
            if status == "attained":
                back = ref.map_value(ring, d["family"], d["points"], self._value(witness))
                if back != target:
                    return f"witness {witness} maps to {back}, not {target}"
        recomputed = (tallies["attained"], tallies["not attained"], tallies["undecided"])
        if recomputed != reported:
            return f"closure tallies {reported}, recomputed {recomputed}"
        return None


class ConstructCommutative:
    """geometric_add/mul on canonical and non-canonical frames, and
    Desargues generate + check, over the rationals and a large GF(p).
    Never touches maps, ratios or quaternions."""

    name = "construct-commutative"
    PRIME = 2 ** 61 - 1
    # Tasks per round (constructions, Desargues) for each backend.  Task
    # times form clusters: GF(p) constructions (a quarter of the round),
    # rational constructions (half), GF(p) Desargues (a twentieth) and
    # rational Desargues, the slowest (a fifth).  latency_p50_ms thus falls
    # in the middle of the rational constructions and latency_p90_ms in the
    # middle of the rational Desargues tasks, never at a cluster's edge.
    COUNTS = {"rational": (240, 96), "gfp": (120, 24)}
    calibration = "loop"

    def setup(self, seed: int, workdir) -> None:
        import skewplane

        self.sp = skewplane
        rng = random.Random(f"{self.name}:{seed}")
        backends = (
            (ref.RationalRing, skewplane.RationalField(), _rational,
             skewplane.Rational),
            (ref.ModRing(self.PRIME), skewplane.PrimeField(self.PRIME),
             lambda r: r.randrange(self.PRIME),
             lambda v: skewplane.PrimeFieldElement(v, self.PRIME)),
        )
        self.tasks = []
        for ring, fld, draw, make in backends:
            def point(p, make=make):
                return skewplane.PlanePoint(make(p[0]), make(p[1]))

            ops, desargues = self.COUNTS["gfp" if fld.finite else "rational"]
            for index in range(ops):
                op = ("add", "mul")[index % 2]
                canonical = index % 4 < 2
                origin, unit, aux = random_frame(rng, ring, draw, canonical)
                frame = (skewplane.LineFrame.canonical(fld) if canonical
                         else skewplane.LineFrame(point(origin), point(unit)))
                a, b = draw(rng), draw(rng)
                self.tasks.append(Task(f"{op}/{ring.name}/{index}", dict(
                    op=op, ring=ring, frame=frame, origin=origin, unit=unit, a=a, b=b,
                    pa=point(ref.embed(ring, origin, unit, a)),
                    pb=point(ref.embed(ring, origin, unit, b)), aux=point(aux))))
            for index in range(desargues):
                variant = (skewplane.PARALLEL, skewplane.CONCURRENT)[index % 2]
                self.tasks.append(Task(f"desargues-{variant}/{ring.name}/{index}", dict(
                    op="desargues", ring=ring, field=fld, variant=variant,
                    seed=rng.randrange(2 ** 30))))
        rational_ops = self.COUNTS["rational"][0]
        for task in self.tasks[:2] + self.tasks[rational_ops:rational_ops + 2]:
            self.run(task)

    def run(self, task: Task):
        d, sp = task.data, self.sp
        if d["op"] == "add":
            return sp.geometric_add(d["frame"], d["pa"], d["pb"], d["aux"])
        if d["op"] == "mul":
            return sp.geometric_mul(d["frame"], d["pa"], d["pb"], d["aux"])
        cfg = sp.generate_desargues_config(d["field"], d["variant"], d["seed"])
        return cfg, sp.check_desargues(cfg)

    def summary(self, task: Task, output) -> Any:
        return repr(output)

    def check(self, task: Task, output) -> Optional[str]:
        d = task.data
        ring = d["ring"]
        if d["op"] == "desargues":
            return self._check_desargues(ring, d["variant"], *output)
        want = ring.add(d["a"], d["b"]) if d["op"] == "add" else ring.mul(d["a"], d["b"])
        got = ring.parse(str(d["frame"].extract(output)))
        if got != want:
            return f"{task.label}: extract {got}, reference {want}"
        if ref.parse_point(ring, str(output)) != ref.embed(ring, d["origin"], d["unit"], want):
            return f"{task.label}: result point {output} is not the embedding of {want}"
        return None

    def _check_desargues(self, ring, variant, cfg, conclusion) -> Optional[str]:
        if conclusion is not True:
            return f"check_desargues returned {conclusion!r} for {cfg}"
        a, b, c, ap, bp, cp = (ref.parse_point(ring, str(p))
                               for p in (cfg.a, cfg.b, cfg.c, cfg.ap, cfg.bp, cfg.cp))

        parallel = functools.partial(ref.parallel, ring)
        if parallel(a, b, a, c):
            return f"triangle ABC is degenerate in {cfg}"
        if variant == self.sp.PARALLEL:
            joins = parallel(a, ap, b, bp) and parallel(b, bp, c, cp)
        else:
            center = ref.parse_point(ring, str(cfg.center))
            joins = all(parallel(center, p, p, q) for p, q in ((a, ap), (b, bp), (c, cp)))
        if not (joins and parallel(a, b, ap, bp) and parallel(b, c, bp, cp)):
            return f"generated configuration violates a hypothesis: {cfg}"
        if not parallel(a, c, ap, cp):
            return f"reference says AC is not parallel to A'C' in {cfg}"
        return None


NAMES = ("verify-quaternion", "construct-commutative", "cli-session")


def make(name: str, root):
    """The workload called ``name``; ``root`` is the checkout's root."""
    if name == VerifyQuaternion.name:
        return VerifyQuaternion()
    if name == ConstructCommutative.name:
        return ConstructCommutative()
    if name == "cli-session":
        from cli_session import CliSession
        return CliSession(root)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
