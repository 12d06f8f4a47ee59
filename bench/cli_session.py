"""The cli-session workload: one fresh ``python -m skewplane.cli`` per task.

The script is built from the seed: eval of cross-ratio and map(...)
expressions over the three backends, construct add/mul (one with --svg),
verify on rational, GF(p) and quaternion bases, desargues on config files
written here, one short selftest, and three commands that are known to
crash today (they count as failed until the program handles them).
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
import re
import subprocess
import sys
import traceback
import xml.etree.ElementTree as ElementTree
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

import refarith as ref
from workloads import Task, _distinct_nonzero, _rational, _rq, random_frame

GFP = 1_000_003
#: ψ12 = 399165290221 * 798330580441, a strong pseudoprime to the bases
#: 2..37 that the program's primality test accepts.
PSI12 = 318665857834031151167461
KNOWN_FAULTS = (
    ["eval", "1/0"],
    ["eval", "--backend", f"gfp({PSI12})", f"(399165290221 mod {PSI12})^-1"],
    ["eval", "(" * 3000 + "1" + ")" * 3000],
)


def _nonneg(rng) -> Fraction:
    """Point and base-list literals take no minus sign (only scalars and
    expressions do), so rational coordinates there are drawn from [0, 8]."""
    return Fraction(rng.randint(0, 8), rng.randint(1, 6))


def _residue(rng) -> int:
    return rng.randrange(GFP)


def _nonzero_residue(rng) -> int:
    return rng.randrange(1, GFP)


class CliSession:
    name = "cli-session"
    calibration = "process"

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.in_process = False  # the traced run calls skewplane.cli.main instead
        self.child_rss_kib = 0   # largest peak RSS of any CLI child so far

    # -- the script -------------------------------------------------------

    def setup(self, seed: int, workdir: Path) -> None:
        import skewplane.cli

        self.cli = skewplane.cli
        self.workdir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        gfp = ref.ModRing(GFP)
        backends = ((ref.RationalRing, "rational", _rational),
                    (gfp, f"gfp({GFP})", _nonzero_residue),
                    (ref.QuaternionRing, "quaternion", _rq))
        self.tasks = []
        # One round is one run (146 commands, about 28 s here).  The four
        # heavy commands (two quaternion verify, selftest, the deep-nesting
        # fault) are under 3% of it, so latency_p90_ms falls in the dense
        # upper part of the ordinary commands, whose time is mostly
        # interpreter start-up and import, rather than in a sparse tail.
        for ring, backend, draw in backends:
            for _ in range(8):
                self._add_cross_ratio(rng, ring, backend, draw)
            for _ in range(16):
                self._add_map(rng, ring, backend, draw)
        for repeat in range(8):
            self._add_constructs(rng, gfp, svg=repeat == 0)
        for ring, backend, draw in backends:
            if ring is ref.RationalRing:
                draw = _nonneg
            for _ in range(2 if ring is ref.QuaternionRing else 6):
                family = rng.choice("ABCD")
                points = _distinct_nonzero(rng, draw, 3, ring.zero)
                self.tasks.append(Task(f"verify/{backend}", dict(
                    kind="verify", count=2,
                    argv=["verify", "--family", family, "--backend", backend,
                          "--base=" + ",".join(ring.show(p) for p in points),
                          "--count", "2", "--seed", str(rng.randrange(1000))])))
        for _ in range(8):
            for ring, backend, draw, variant in (
                    (ref.RationalRing, "rational", _nonneg, "parallel"),
                    (ref.RationalRing, "rational", _nonneg, "concurrent"),
                    (gfp, f"gfp({GFP})", _residue, "concurrent")):
                self._add_desargues(rng, ring, backend, draw, variant)
        self.tasks.append(Task("selftest", dict(
            kind="selftest",
            argv=["selftest", "--count", "1", "--seed", str(rng.randrange(1000))])))
        for argv in KNOWN_FAULTS:
            self.tasks.append(Task(f"known-fault/{argv[-1][:12]}", dict(
                kind="fault", argv=list(argv)), known_fault=True))
        for index, task in enumerate(self.tasks):
            task.label = f"{index:03d}-{task.label}"
        # warm-up: the CLI's own code path once, in-process
        self._main(["eval", "cr(2,3;1,5)"])

    def _add_cross_ratio(self, rng, ring, backend, draw):
        while True:
            a, b, c, d = (draw(rng) for _ in range(4))
            if a != d and b != c:
                break
        expr = f"cr({ring.show(a)},{ring.show(b)};{ring.show(c)},{ring.show(d)})"
        self.tasks.append(Task(f"eval-cr/{backend}", dict(
            kind="eval", ring=ring, want=ref.cross_ratio(ring, a, b, c, d),
            argv=["eval", "--backend", backend, "--", expr])))

    def _add_map(self, rng, ring, backend, draw):
        family = rng.choice("ABCD")
        points = _distinct_nonzero(rng, draw, 3, ring.zero)
        x = points[ref.SINGULAR_INDEX[family]]
        while x == points[ref.SINGULAR_INDEX[family]]:
            x = draw(rng)
        expr = (f"map({family}; " + ",".join(ring.show(p) for p in points)
                + f"; {ring.show(x)})")
        self.tasks.append(Task(f"eval-map{family}/{backend}", dict(
            kind="eval", ring=ring, want=ref.map_value(ring, family, points, x),
            argv=["eval", "--backend", backend, "--", expr])))

    def _add_constructs(self, rng, gfp, svg: bool):
        rat = ref.RationalRing
        plans = (("add", rat, "rational", _rational, _nonneg, False, False),
                 ("mul", rat, "rational", _rational, _nonneg, False, True),
                 ("mul", rat, "rational", _rational, _nonneg, True, False),
                 ("add", gfp, f"gfp({GFP})", _residue, _residue, True, False))
        for op, ring, backend, draw_scalar, draw, framed, with_svg in plans:
            origin, unit, aux = random_frame(rng, ring, draw, canonical=not framed)
            argv = ["construct", op, "--backend", backend]
            if framed:
                argv += [f"--frame-origin=({ring.show(origin[0])},{ring.show(origin[1])})",
                         f"--frame-unit=({ring.show(unit[0])},{ring.show(unit[1])})"]
            a, b = draw_scalar(rng), draw_scalar(rng)
            argv += [f"--a={ring.show(a)}", f"--b={ring.show(b)}",
                     f"--aux=({ring.show(aux[0])},{ring.show(aux[1])})"]
            data = dict(kind="construct", ring=ring, origin=origin, unit=unit,
                        want=ring.add(a, b) if op == "add" else ring.mul(a, b), argv=argv)
            if with_svg and svg:
                data["svg"] = self.workdir / "construction.svg"
                argv.append(f"--svg={data['svg']}")
            self.tasks.append(Task(f"construct-{op}/{backend}", data))

    def _add_desargues(self, rng, ring, backend, draw, variant):
        def point():
            return (draw(rng), draw(rng))

        parallel = functools.partial(ref.parallel, ring)

        while True:
            a, b, c = point(), point(), point()
            if parallel(a, b, a, c):
                continue
            center = None
            if variant == "parallel":
                shift = point()
                moved = [tuple(ring.add(u, v) for u, v in zip(p, shift)) for p in (a, b, c)]
            else:
                center, scale = point(), draw(rng)
                if scale in (ring.zero, ring.one):
                    continue
                moved = [tuple(ring.add(o, ring.mul(scale, ring.sub(u, o)))
                               for o, u in zip(center, p)) for p in (a, b, c)]
            ap, bp, cp = moved
            drawn = moved + ([center] if center is not None else [])
            if any(v < 0 for p in drawn for v in p):
                continue
            # hypotheses the program validates: distinct joining lines and
            # sides AB, BC distinct from A'B', B'C'
            if any(p == q for p, q in zip((a, b, c), moved)):
                continue
            joins_distinct = all(not (parallel(p, pp, p, q) and parallel(p, pp, p, qp))
                                 for (p, pp), (q, qp) in (((a, ap), (b, bp)), ((a, ap), (c, cp)),
                                                           ((b, bp), (c, cp))))
            if joins_distinct and not parallel(a, b, a, ap) and not parallel(b, c, b, bp):
                break
        names = ("A", "B", "C", "A'", "B'", "C'")
        lines = [f"{n}=({ring.show(p[0])},{ring.show(p[1])})"
                 for n, p in zip(names, (a, b, c, ap, bp, cp))]
        if center is None:
            lines.append("variant=parallel")
        else:
            lines.append(f"variant=concurrent P=({ring.show(center[0])},{ring.show(center[1])})")
        path = self.workdir / f"desargues-{len(self.tasks)}.cfg"
        path.write_text("# written by the benchmark\n" + "\n".join(lines) + "\n",
                        encoding="utf-8")
        self.tasks.append(Task(f"desargues-{variant}/{backend}", dict(
            kind="desargues", ring=ring, a=a, c=c, ap=ap, cp=cp,
            argv=["desargues", "--backend", backend, "--config", str(path)])))

    # -- running ----------------------------------------------------------

    def run(self, task: Task):
        """(exit code, stdout, stderr, peak RSS in KiB or None)."""
        argv = task.data["argv"]
        if "svg" in task.data:  # each run must write it afresh
            task.data["svg"].unlink(missing_ok=True)
        if self.in_process:
            return self._main(argv)
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "skewplane.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.root, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kib = max(self.child_rss_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read().decode(), err.read().decode(),
                    usage.ru_maxrss)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue(), None

    # -- checking ---------------------------------------------------------

    def summary(self, task: Task, output) -> Any:
        """What must repeat exactly in every round."""
        code, stdout, stderr, _ = output
        svg = task.data.get("svg")
        text = svg.read_text(encoding="utf-8") if svg and svg.exists() else None
        return code, stdout, _last_line(stderr), text

    def check(self, task: Task, output) -> Optional[str]:
        code, stdout, stderr, _ = output
        d = task.data
        if task.known_fault:
            errors = [l for l in stderr.splitlines() if l.startswith("error[")]
            if code in (2, 3) and len(errors) == 1 and "Traceback" not in stderr:
                return None
            return f"exit {code}, stderr ends {stderr.strip().splitlines()[-1:]}"
        if code != 0:
            return f"exit {code}: {stderr.strip()[-300:]}"
        lines = stdout.splitlines()
        kind, ring = d["kind"], d.get("ring")
        if kind == "eval":
            got = ring.parse(lines[-1])
            return None if got == d["want"] else f"printed {got}, reference {d['want']}"
        if kind == "construct":
            fields = dict(l.split(" = ", 1) for l in lines if " = " in l)
            got = ring.parse(fields["coordinate"])
            if got != d["want"]:
                return f"coordinate {got}, reference {d['want']}"
            if ref.parse_point(ring, fields["result"]) != ref.embed(
                    ring, d["origin"], d["unit"], d["want"]):
                return f"result {fields['result']} is not the embedding of {d['want']}"
            if "svg" in d:
                if not d["svg"].exists():
                    return "no SVG file written"
                root = ElementTree.parse(d["svg"]).getroot()
                if root.tag != "{http://www.w3.org/2000/svg}svg":
                    return f"SVG root element is {root.tag}"
            return None
        if kind == "verify":
            return _check_verify_lines(lines, d["count"])
        if kind == "desargues":
            want = tuple(ref.line_direction(ring, p, q)
                         for p, q in ((d["a"], d["c"]), (d["ap"], d["cp"])))
            match = re.search(r"AC direction \((.+),(.+)\), A'C' direction \((.+),(.+)\)",
                              stdout)
            if not match:
                return "no direction line"
            got = tuple((ring.parse(match[i]), ring.parse(match[i + 1])) for i in (1, 3))
            if got != want:
                return f"directions {got}, reference {want}"
            if lines[-1] != "conclusion AC parallel A'C': true":
                return f"conclusion line {lines[-1]!r}"
            return None
        if kind == "selftest":
            bad = [l for l in lines[:-1] if ": pass (" not in l]
            if bad or not lines[-1].startswith("selftest: pass"):
                return f"selftest lines {bad or lines[-1:]}"
            return None
        return f"unknown task kind {kind}"


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1] if text.strip() else ""


def _check_verify_lines(lines, count) -> Optional[str]:
    headers = [l for l in lines if l.startswith("[")]
    results = [l for l in lines if not l.startswith("[")]
    if len(headers) != 3 or len(results) != 10:
        return f"unexpected verify output: {lines}"
    for line in results:
        match = re.match(r"(.+): samples=(\d+) rejections=(\d+) (.*)$", line)
        if not match or int(match[2]) != count:
            return f"bad result line {line!r}"
        status = match[4]
        if status.startswith("info "):
            tallies = re.search(r"attained (\d+), no preimage (\d+), undecided (\d+)", status)
            if not tallies or sum(int(t) for t in tallies.groups()) != count:
                return f"closure tallies do not sum to {count}: {line!r}"
        elif status != "pass":
            return f"identity failed: {line!r}"
    return None
