"""Command-line front end.

Commands:

    eval       evaluate an expression over a chosen backend
    construct  trace the geometric addition/multiplication of two line
               points, optionally rendering the construction to SVG
    verify     run the cross-ratio map verification reports on a base
    desargues  validate a labeled configuration file and test the
               parallel-conclusion
    selftest   run the package's full invariant battery

Exit codes: 0 success / all checks pass, 1 a verification reported a
failure (or a Desargues conclusion came back false), 2 a
:class:`~skewplane.errors.UsageError` (bad grammar, backend, configuration
file or output) or an ``OSError``, 3 a
:class:`~skewplane.errors.DegenerateInputError` (singular or degenerate
mathematical input).  The error class alone picks the code; the error
surfaces as one ``error[ClassName]: message`` line on stderr.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import sys

from .constructions import (
    CONCURRENT,
    PARALLEL,
    DesarguesConfig,
    LineFrame,
    trace_addition,
    trace_multiplication,
    validate_desargues_config,
)
from .errors import DegenerateInputError, ExpressionSyntaxError, UsageError
from .expressions import (
    _DIGITS,
    evaluate_expression,
    parse_expression,
    parse_point,
    parse_scalar,
    parse_scalar_list,
)
from .maps import (
    CrossRatioBase,
    Family,
    sample_arguments,
    verify_addition_structure,
    verify_distributive,
    verify_multiplicative_group,
)
from .plane import is_parallel
from .scalars import PrimeField, QuaternionField, RationalField, ScalarField
from .selftest import run_selftest
from .svg import emit_svg

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3

#: The point keys of a Desargues configuration file, in the order of
#: :class:`DesarguesConfig`'s fields.
_POINT_KEYS = ("A", "B", "C", "A'", "B'", "C'")


def parse_backend(name: str) -> ScalarField:
    """Backend selector: ``rational``, ``quaternion``, or ``gfp(p)``."""
    text = name.strip()
    if text == "rational":
        return RationalField()
    if text == "quaternion":
        return QuaternionField()
    if text.startswith("gfp(") and text.endswith(")"):
        body = text[4:-1]
        try:
            if not body or not set(body) <= _DIGITS:  # as in literals
                raise ValueError
            p = int(body)
        except ValueError:
            raise ExpressionSyntaxError(f"bad prime {body!r} in backend selector", 4) from None
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise ExpressionSyntaxError(str(exc), 4) from None
    raise ExpressionSyntaxError(
        f"unknown backend {name!r} (expected rational, gfp(p) or quaternion)", 0)


def _strip(text: str, column: int):
    """``text`` stripped of blanks, and the column where what is left starts."""
    stripped = text.lstrip()
    return stripped.rstrip(), column + len(text) - len(stripped)


def _config_point(text: str, column: int, field: ScalarField):
    """A config point at ``column``; a parse error's offset becomes a column."""
    try:
        return parse_point(text, field)
    except ExpressionSyntaxError as exc:
        raise ExpressionSyntaxError(exc.message, column + exc.position) from None


def load_desargues_config(path: str, field: ScalarField) -> DesarguesConfig:
    """Read the flat one-record-per-line configuration format.

    Lines: ``A=(x,y)`` .. ``C'=(x,y)`` and ``variant=parallel`` or
    ``variant=concurrent P=(x,y)``.  Blank lines are ignored, and ``#``
    starts a comment that runs to the end of the line.  Each key occurs
    once.  An error on a line names it and carries the column of the
    offending text; a file that is not UTF-8 fails at the byte offset of
    its first bad byte.  One leading UTF-8 byte-order mark is skipped.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExpressionSyntaxError(f"config is not UTF-8 ({exc.reason})",
                                    bom + exc.start) from None
    entries = {}
    center = None
    for number, raw in enumerate(text.splitlines(), start=1):
        raw_key, sep, raw_value = raw.partition("#")[0].partition("=")
        key, key_column = _strip(raw_key, 0)
        value, value_column = _strip(raw_value, len(raw_key) + len(sep))
        if not (key or sep or value):
            continue
        try:
            if not sep or not value:
                raise ExpressionSyntaxError(
                    "not KEY=VALUE", value_column if sep else key_column)
            if key in entries:
                raise ExpressionSyntaxError(f"repeated key {key!r}", key_column)
            if key == "variant":
                if value == PARALLEL:
                    entries[key] = PARALLEL
                elif value.startswith(CONCURRENT):
                    entries[key] = CONCURRENT
                    rest, rest_column = _strip(value[len(CONCURRENT):],
                                               value_column + len(CONCURRENT))
                    if not rest.startswith("P="):
                        raise ExpressionSyntaxError(
                            "concurrent variant needs P=(x,y)", rest_column)
                    center = _config_point(*_strip(rest[2:], rest_column + 2), field)
                else:
                    raise ExpressionSyntaxError(
                        f"unknown variant {value!r}", value_column)
            elif key in _POINT_KEYS:
                entries[key] = _config_point(value, value_column, field)
            else:
                raise ExpressionSyntaxError(f"unknown key {key!r}", key_column)
        except ExpressionSyntaxError as exc:
            raise ExpressionSyntaxError(
                f"config line {number}: {exc.message}", exc.position) from None
    missing = [k for k in _POINT_KEYS if k not in entries]
    if missing:
        raise ExpressionSyntaxError(f"config is missing {', '.join(missing)}", 0)
    if "variant" not in entries:
        raise ExpressionSyntaxError("config is missing the variant line", 0)
    return DesarguesConfig(*(entries[k] for k in _POINT_KEYS), entries["variant"], center)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_eval(args) -> int:
    field = parse_backend(args.backend)
    node = parse_expression(args.expression, field)
    print(evaluate_expression(node))
    return EXIT_OK


def _cmd_construct(args) -> int:
    field = parse_backend(args.backend)
    a = parse_scalar(args.a, field)
    b = parse_scalar(args.b, field)
    aux = parse_point(args.aux, field)
    if args.frame_origin or args.frame_unit:
        if not (args.frame_origin and args.frame_unit):
            raise UsageError("frame origin and unit must be given together")
        frame = LineFrame(parse_point(args.frame_origin, field),
                          parse_point(args.frame_unit, field))
    else:
        frame = LineFrame.canonical(field)
    tracer = trace_addition if args.op == "add" else trace_multiplication
    trace = tracer(frame, frame.embed(a), frame.embed(b), aux)
    lines = [f"B1 = {trace.aux}", f"P1 = {trace.p1}", f"result = {trace.result}",
             f"coordinate = {frame.extract(trace.result)}"]
    if args.svg:  # a drawing that fails leaves stdout empty
        emit_svg(trace, args.svg)
        lines.append(f"svg written to {args.svg}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_verify(args) -> int:
    field = parse_backend(args.backend)
    points = parse_scalar_list(args.base, field)
    if len(points) != 3:
        raise ExpressionSyntaxError(f"expected 3 base points, found {len(points)}", 0)
    base = CrossRatioBase(Family(args.family), points)
    plain = sample_arguments(field, base, args.count, args.seed)
    invertible = sample_arguments(field, base, args.count, args.seed + 1,
                                  exclude_zero_point=True)
    triples = sample_arguments(field, base, args.count, args.seed + 2)
    reports = [
        verify_addition_structure(base, plain),
        verify_multiplicative_group(base, invertible),
        verify_distributive(base, triples),
    ]
    for report in reports:
        for line in report.lines():
            print(line)
    return EXIT_OK if all(report.passed for report in reports) else EXIT_CHECK_FAILED


def _cmd_desargues(args) -> int:
    field = parse_backend(args.backend)
    cfg = load_desargues_config(args.config, field)
    ac, apcp = validate_desargues_config(cfg)
    print(f"variant: {cfg.variant}")
    if cfg.variant == CONCURRENT:
        print(f"joining lines AA', BB', CC' concurrent at {cfg.center}: ok")
    else:
        print("joining lines AA', BB', CC' parallel: ok")
    print("AB parallel A'B' and distinct: ok")
    print("BC parallel B'C' and distinct: ok")
    conclusion = is_parallel(ac, apcp)
    print(f"AC direction ({ac.direction[0]},{ac.direction[1]}), "
          f"A'C' direction ({apcp.direction[0]},{apcp.direction[1]})")
    print(f"conclusion AC parallel A'C': {'true' if conclusion else 'false'}")
    return EXIT_OK if conclusion else EXIT_CHECK_FAILED


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, count=args.count)
    for result in results:
        print(result.line())
    passed = all(result.passed for result in results)
    print(f"selftest: {'pass' if passed else 'FAIL'} "
          f"({sum(r.passed for r in results)}/{len(results)} suites)")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose errors, its subparsers' included, end in
    the one ``error[UsageError]: message`` line and exit 2 of the contract."""

    def error(self, message: str):
        self.exit(_report(UsageError(message), EXIT_USAGE))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewplane",
        description="Exact Desargues-plane constructions, ratios and "
                    "cross-ratio map verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p):
        p.add_argument("--backend", default="rational",
                       help="rational, gfp(p) or quaternion (default rational)")

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expression")
    add_backend(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_construct = sub.add_parser("construct", help="trace a line-point construction")
    p_construct.add_argument("op", choices=("add", "mul"))
    p_construct.add_argument("--a", required=True, help="first operand (scalar literal)")
    p_construct.add_argument("--b", required=True, help="second operand (scalar literal)")
    p_construct.add_argument("--aux", required=True,
                             help="auxiliary point (x,y) off the base line")
    p_construct.add_argument("--svg", help="write the construction drawing here")
    p_construct.add_argument("--frame-origin", help="frame zero point (default (0,0))")
    p_construct.add_argument("--frame-unit", help="frame unit point (default (1,0))")
    add_backend(p_construct)
    p_construct.set_defaults(handler=_cmd_construct)

    p_verify = sub.add_parser("verify", help="verify cross-ratio map identities")
    p_verify.add_argument("--family", required=True, choices=[f.value for f in Family])
    p_verify.add_argument("--base", required=True,
                          help="three fixed points, comma separated")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=100)
    add_backend(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_desargues = sub.add_parser("desargues", help="check a configuration file")
    p_desargues.add_argument("--config", required=True)
    add_backend(p_desargues)
    p_desargues.set_defaults(handler=_cmd_desargues)

    p_selftest = sub.add_parser("selftest", help="run the invariant battery")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.add_argument("--count", type=int, default=50)
    p_selftest.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "count", 1) < 1:
        parser.error("--count must be at least 1")
    try:
        return args.handler(args)
    except (UsageError, OSError) as exc:
        return _report(exc, EXIT_USAGE)
    except DegenerateInputError as exc:
        return _report(exc, EXIT_SINGULAR)


def _report(exc: Exception, code: int) -> int:
    print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
    return code


def entry() -> None:
    """The process entry point of ``python -m skewplane.cli`` and of the
    ``skewplane`` script: :func:`main` on ``sys.argv``, and exit with its code.

    It first freezes the heap that importing the CLI built: the collector
    never visits frozen objects, so the full collections at interpreter
    exit skip it and the OS reclaims that memory.  No output changes, as
    no module of the package cleans up at exit (no ``__del__``,
    ``weakref.finalize`` or ``atexit``) and the CLI closes its files in
    ``with`` blocks.  The freeze lasts for the process, so in-process
    callers use :func:`main`.
    """
    gc.freeze()
    sys.exit(main())


# runs only as ``python -m skewplane.cli``, in a child process of the tests
if __name__ == "__main__":  # pragma: no cover
    entry()
