"""Command-line behavior: outputs, files, and the exit-code contract."""

import io
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from skewplane import selftest
from skewplane.cli import load_desargues_config, main, parse_backend
from skewplane.errors import ExpressionSyntaxError
from skewplane.expressions import (
    MAX_DEPTH,
    evaluate_expression,
    parse_expression,
    parse_point,
    print_expression,
)
from skewplane.maps import CrossRatioBase, Family
from skewplane.plane import PlanePoint
from skewplane.scalars import (
    PrimeField,
    PrimeFieldElement,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
)

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
#: A config file whose second line holds the Latin-1 byte 0xE9 at offset 13.
LATIN1_CONFIG = str(Path(__file__).resolve().parent / "data" / "latin1.cfg")
#: Blank-line separated blocks: "$ <argv>", its stdout, "exit <code>".
VERIFY_GOLDEN = Path(__file__).resolve().parent / "data" / "verify_golden.txt"
SELFTEST_GOLDEN = Path(__file__).resolve().parent / "data" / "selftest_golden.txt"

#: psi_12 = 399165290221 * 798330580441 and psi_13, the least strong
#: pseudoprimes to the first 12 and the first 13 prime bases.
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
DIGITS_3000 = "7" * 3000

#: Each shape at k levels, and the offset of the token that crosses the
#: depth cap at k = MAX_DEPTH + 1.
N = MAX_DEPTH
DEPTH_SHAPES = {
    "parenthesis": (lambda k: "(" * k + "1" + ")" * k, N),
    "function": (lambda k: "cr(" * k + "2" + ",3;1,5)" * k, 3 * N),
    "unary minus": (lambda k: "-" * k + "(1)", 0),
    "plus": (lambda k: "+".join(["1"] * (k + 1)), 2 * N + 1),
    "times": (lambda k: "*".join(["2"] * (k + 1)), 2 * N + 1),
    "inverse": (lambda k: "2" + "^-1" * k, 3 * N + 1),
}

VALID_CONFIG = """\
# translated triangle
A=(0,0)
B=(1,0)
C=(0,1)
A'=(2,3)
B'=(3,3)
C'=(2,4)
variant=parallel
"""

CONCURRENT_CONFIG = """\
A=(1,0)
B=(0,1)
C=(1,1)
A'=(2,0)
B'=(0,2)
C'=(2,2)
variant=concurrent P=(0,0)
"""

NEGATIVE_CONFIG = """\
A=(-1,2)
B=(1,0)
C=(0,0)
A'=(2,5)
B'=(4,3)
C'=(3,3)
variant=parallel
"""

#: Every hypothesis but the triangle holds: A, B, C lie on y = 0.
COLLINEAR_CONFIG = """\
A=(0,0)
B=(1,0)
C=(2,0)
A'=(0,1)
B'=(1,1)
C'=(2,1)
variant=parallel
"""

BROKEN_HYPOTHESIS_CONFIG = """\
A=(0,0)
B=(1,0)
C=(0,1)
A'=(2,3)
B'=(3,3)
C'=(9,4)
variant=parallel
"""


class TestNegativeLiterals:
    """Points and base lists take a minus sign, as scalar literals do."""

    def test_negative_aux_point(self, capsys):
        assert main(["construct", "add", "--a", "2", "--b", "3", "--aux", "(-1,2)"]) == 0
        assert "result = (5, 0)" in capsys.readouterr().out

    def test_printed_negative_result_parses_back(self, capsys):
        assert main(["construct", "add", "--a=-4", "--b", "1", "--aux", "(-1,2)"]) == 0
        result = re.search(r"^result = (.*)$", capsys.readouterr().out, re.M)[1]
        assert result == "(-3, 0)"
        assert parse_point(result, RationalField()) == PlanePoint(Rational(-3), Rational(0))

    def test_negative_base_list(self, capsys):
        assert main(["verify", "--family", "A", "--base=-3,1,5", "--count", "5"]) == 0
        assert "family A base (-3, 1, 5)" in capsys.readouterr().out

    def test_negative_config_point(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(NEGATIVE_CONFIG)
        assert main(["desargues", "--config", str(path)]) == 0
        assert "conclusion AC parallel A'C': true" in capsys.readouterr().out


class TestBadLiterals:
    @pytest.mark.parametrize("argv,offset", [
        (["eval", "1/0"], 2),
        (["eval", "--backend", "quaternion", "(1/0,0,0,0)"], 3),
        (["eval", "7" * 5000], 0),
        (["eval", "--backend", "gfp(5)", "3 mod " + "7" * 5000], 6),
        (["desargues", "--config", LATIN1_CONFIG], 13),
    ] + [
        (["eval", "--", make(MAX_DEPTH + 1)], offset)
        for make, offset in DEPTH_SHAPES.values()
    ] + [
        (["eval", "\u0663+1"], 0),  # ARABIC-INDIC DIGIT THREE
        (["eval", "\u00b2+1"], 0),  # SUPERSCRIPT TWO
        (["verify", "--family", "A", "--base", "1,2"], 0),
        (["verify", "--family", "A", "--base", "1,2,3,4"], 0),
    ])
    def test_positioned_usage_error(self, argv, offset, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ExpressionSyntaxError]: ")
        assert err.endswith(f" at offset {offset}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("body", ["\u0663", "1_3", " +7 "])
    def test_bad_prime_is_positioned_usage_error(self, body, capsys):
        # int() reads each of these; the selector takes ASCII 0-9 only
        assert main(["eval", "--backend", f"gfp({body})", "2 mod 3"]) == 2
        assert capsys.readouterr().err == (
            f"error[ExpressionSyntaxError]: bad prime {body!r} in backend selector"
            " at offset 4\n")

    @pytest.mark.parametrize("shape", DEPTH_SHAPES)
    def test_depth_cap_is_accepted(self, shape, capsys):
        text = DEPTH_SHAPES[shape][0](MAX_DEPTH)
        field = RationalField()
        node = parse_expression(text, field)
        value = evaluate_expression(node)
        assert parse_expression(print_expression(node), field) == node
        assert main(["eval", "--", text]) == 0
        assert capsys.readouterr().out == f"{value}\n"

    @pytest.mark.parametrize("argv,detail", [
        (["construct", "add", "--a", "1" + "0" * 400, "--b", "1", "--aux", "(0,1)",
          "--svg", os.devnull], "float range"),
        (["eval", f"{DIGITS_3000}*{DIGITS_3000}"], " digits"),
        (["eval", "--backend", "quaternion", f"({DIGITS_3000},0,0,0)*(0,0,{DIGITS_3000},0)"],
         " digits"),
    ])
    def test_oversized_value_is_one_short_usage_error(self, argv, detail, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[UsageError]: ") and err.count("\n") == 1
        assert detail in err and len(err) < 200


class TestReadmeExamples:
    """Every command of the README's CLI block runs as printed."""

    def test_cli_block(self, capsys, tmp_path, monkeypatch):
        text = README.read_text(encoding="utf-8")
        cli_block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S)[1]
        config_block = re.search(r"### Configuration files.*?```\n(.*?)```", text, re.S)[1]
        (tmp_path / "examples.cfg").write_text(config_block, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        commands = [shlex.split(line, comments=True)
                    for line in cli_block.splitlines() if line.startswith("skewplane ")]
        assert commands
        for argv in commands:
            assert main(argv[1:]) == 0, " ".join(argv)


class TestParseBackend:
    def test_known_backends(self):
        assert parse_backend("rational") == RationalField()
        assert parse_backend("quaternion") == QuaternionField()
        assert parse_backend("gfp(7)") == PrimeField(7)

    def test_rejects_unknown_and_composite(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_backend("octonion")
        with pytest.raises(ExpressionSyntaxError):
            parse_backend("gfp(6)")


class TestEvalCommand:
    def test_worked_cross_ratio(self, capsys):
        assert main(["eval", "--backend", "rational", "cr(2,3;1,5)"]) == 0
        assert capsys.readouterr().out.strip() == "1/3"

    def test_singular_exit_code(self, capsys):
        assert main(["eval", "--backend", "rational", "cr(2,3;3,5)"]) == 3
        err = capsys.readouterr().err
        assert "SingularCrossRatioError" in err and "B-C" in err

    def test_syntax_error_exit_code(self, capsys):
        assert main(["eval", "--backend", "rational", "cr(2,3;1"]) == 2
        assert "offset 8" in capsys.readouterr().err

    def test_quaternion_eval(self, capsys):
        assert main(["eval", "--backend", "quaternion",
                     "(0,1,0,0)*(0,0,1,0)"]) == 0
        assert capsys.readouterr().out.strip() == "(0,0,0,1)"


class TestConstructCommand:
    def test_addition_with_svg(self, capsys, tmp_path):
        svg_path = tmp_path / "out.svg"
        code = main(["construct", "add", "--a", "2", "--b", "3",
                     "--aux", "(0,1)", "--svg", str(svg_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "result = (5, 0)" in out
        assert "P1 = (2, 1)" in out
        assert svg_path.exists()
        assert svg_path.read_text().count("<text") == 7

    def test_multiplication(self, capsys):
        assert main(["construct", "mul", "--a", "2", "--b", "3",
                     "--aux", "(0,1)"]) == 0
        out = capsys.readouterr().out
        assert "result = (6, 0)" in out

    def test_svg_needs_rational_backend(self, capsys, tmp_path):
        code = main(["construct", "mul", "--backend", "quaternion",
                     "--a", "(0,1,0,0)", "--b", "(0,0,1,0)",
                     "--aux", "((0,0,0,0),(1,0,0,0))",
                     "--svg", str(tmp_path / "q.svg")])
        assert code == 2
        assert "UnsupportedBackendError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,error", [
        (["add", "--a", "1" + "0" * 400, "--b", "1", "--aux", "(0,1)"], "UsageError"),
        (["mul", "--backend", "quaternion", "--a", "(0,1,0,0)", "--b", "(0,0,1,0)",
          "--aux", "((0,0,0,0),(1,0,0,0))"], "UnsupportedBackendError"),
        (["add", "--a", "1" + "0" * 308, "--b=-1" + "0" * 308, "--aux", "(0,1)"], "UsageError"),
    ])
    def test_failed_svg_prints_nothing(self, argv, error, capsys, tmp_path):
        svg_path = tmp_path / "out.svg"
        assert main(["construct", *argv, "--svg", str(svg_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error[{error}]: ")
        assert not svg_path.exists()

    def test_quaternion_construct_without_svg(self, capsys):
        code = main(["construct", "mul", "--backend", "quaternion",
                     "--a", "(0,1,0,0)", "--b", "(0,0,1,0)",
                     "--aux", "((0,0,0,0),(1,0,0,0))"])
        assert code == 0
        assert "coordinate = (0,0,0,1)" in capsys.readouterr().out

    def test_aux_on_base_line_is_singular(self, capsys):
        code = main(["construct", "add", "--a", "1", "--b", "2", "--aux", "(4,0)"])
        assert code == 3
        assert "AuxOnBaseLineError" in capsys.readouterr().err

    def test_custom_frame(self, capsys):
        code = main(["construct", "add", "--a", "2", "--b", "3", "--aux", "(0,1)",
                     "--frame-origin", "(1,1)", "--frame-unit", "(2,3)"])
        assert code == 0
        assert "coordinate = 5" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--frame-origin", "--frame-unit"])
    def test_frame_option_alone_is_a_usage_error(self, capsys, option):
        # an option combination, not an expression: no offset to report
        code = main(["construct", "add", "--a", "2", "--b", "3", "--aux", "(0,1)",
                     option, "(1,1)"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error[UsageError]: frame origin and unit must be given together\n"


class TestVerifyCommand:
    def test_rational_family_a(self, capsys):
        code = main(["verify", "--family", "A", "--base", "3,1,5",
                     "--count", "25", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[addition structure" in out
        assert "[multiplicative group" in out
        assert "[distributivity" in out
        assert "FAIL" not in out
        assert "closure" in out  # informational records are printed

    def test_quaternion_family_d(self, capsys):
        code = main(["verify", "--family", "D", "--backend", "quaternion",
                     "--base", "(0,1,0,0),(0,0,1,0),(0,0,0,1)",
                     "--count", "15", "--seed", "2"])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_invalid_base_is_singular_input(self, capsys):
        code = main(["verify", "--family", "A", "--base", "3,3,5", "--count", "5"])
        assert code == 3
        assert "InvalidBaseError" in capsys.readouterr().err

    def test_failed_identity_exits_one(self, capsys, monkeypatch):
        import skewplane.cli as cli_module
        from skewplane.maps import IdentityResult, VerificationReport

        def failing_report(base, samples):
            return VerificationReport(
                title="addition structure, poisoned",
                results=[IdentityResult(name="value addition associativity",
                                        samples=1, rejections=0, passed=False,
                                        counterexample="X=1, Y=2, Z=3")])

        monkeypatch.setattr(cli_module, "verify_addition_structure", failing_report)
        code = main(["verify", "--family", "A", "--base", "3,1,5", "--count", "5"])
        assert code == 1
        assert "FAIL counterexample" in capsys.readouterr().out


class TestDesarguesCommand:
    def test_valid_parallel_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(VALID_CONFIG)
        assert main(["desargues", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "conclusion AC parallel A'C': true" in out
        assert "parallel: ok" in out

    def test_valid_concurrent_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CONCURRENT_CONFIG)
        assert main(["desargues", "--config", str(path)]) == 0
        assert "concurrent at (0, 0): ok" in capsys.readouterr().out

    def test_broken_hypothesis_is_singular(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(BROKEN_HYPOTHESIS_CONFIG)
        assert main(["desargues", "--config", str(path)]) == 3
        assert "InvalidConfigurationError" in capsys.readouterr().err

    def test_collinear_triangle_is_singular(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(COLLINEAR_CONFIG)
        assert main(["desargues", "--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error[InvalidConfigurationError]: "
                                  "vertices A, B, C are collinear\n")

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("A=(0,0)\nvariant=banana\n")
        assert main(["desargues", "--config", str(path)]) == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        assert main(["desargues", "--config", str(tmp_path / "nope.txt")]) == 2

    @pytest.mark.parametrize("text,message", [
        (VALID_CONFIG.replace("B'=(3,3)", "B'=(3,3"),
         "config line 6: expected ')', found 'end of input' at offset 7"),
        ("A=(0,0)\n  variant = banana\n", "config line 2: unknown variant 'banana' at offset 12"),
        ("A=(0,0)\n  Q = (1,2)\n", "config line 2: unknown key 'Q' at offset 2"),
        ("A=(0,0)\n  junk\n", "config line 2: not KEY=VALUE at offset 2"),
        ("A=(0,0)\nB=  # empty\n", "config line 2: not KEY=VALUE at offset 4"),
        ("variant=concurrent  Q=(0,0)\n",
         "config line 1: concurrent variant needs P=(x,y) at offset 20"),
        ("variant=concurrent  P= (1,\n",
         "config line 1: expected 'int', found 'end of input' at offset 26"),
    ])
    def test_config_error_names_line_and_column(self, text, message, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        assert main(["desargues", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error[ExpressionSyntaxError]: {message}\n"

    def test_loader_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CONCURRENT_CONFIG)
        cfg = load_desargues_config(str(path), RationalField())
        assert cfg.variant == "concurrent"
        assert cfg.center is not None


def golden_cases(path):
    """(argv, stdout, exit code) of each block of a golden file."""
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        command, *stdout, status = block.strip("\n").split("\n")
        yield (shlex.split(command.removeprefix("$ ")),
               "".join(line + "\n" for line in stdout), int(status.removeprefix("exit ")))


class TestSelftestCommand:
    def test_small_run_passes(self, capsys):
        assert main(["selftest", "--seed", "3", "--count", "8"]) == 0
        out = capsys.readouterr().out
        assert "selftest: pass" in out

    @pytest.mark.parametrize("argv, stdout, code", golden_cases(SELFTEST_GOLDEN))
    def test_report_is_unchanged(self, capsys, argv, stdout, code):
        """Every suite line, byte for byte, as the golden file holds it."""
        assert main(argv) == code
        assert capsys.readouterr() == (stdout, "")

    def test_count_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest", "--count", "0"])
        assert excinfo.value.code == 2

    def test_map_theorems_check_every_family_on_every_backend(self, monkeypatch):
        calls = []

        def record(family, points):
            calls.append((type(points[0]), family))
            return CrossRatioBase(family, points)

        monkeypatch.setattr(selftest, "CrossRatioBase", record)
        assert all(result.passed for result in selftest.run_selftest(seed=0, count=3))
        # one random base per backend and family, then the exhaustive GF(5) base
        assert calls == [(kind, family)
                         for kind in (Rational, PrimeFieldElement, RationalQuaternion)
                         for family in Family] + [(PrimeFieldElement, Family.A)]


def verify_golden_cases():
    for argv, stdout, code in golden_cases(VERIFY_GOLDEN):
        yield pytest.param(argv, stdout, code,
                           id=f"{argv[argv.index('--backend') + 1]}-{argv[2]}")


class TestVerifyGolden:
    """verify's report bytes, closure tallies included, for each family on a
    rational, a GF(7) and a quaternion base."""

    @pytest.mark.parametrize("argv, stdout, code", verify_golden_cases())
    def test_report_is_unchanged(self, capsys, argv, stdout, code):
        assert main(argv) == code
        assert capsys.readouterr() == (stdout, "")


class TestExitCodeMatrix:
    """The documented invocation matrix: one row per exit code path."""

    @pytest.mark.parametrize("argv,expected", [
        (["eval", "cr(2,3;1,5)"], 0),
        (["eval", "--backend", "gfp(5)", "3 mod 5 + 4 mod 5"], 0),
        (["eval", "--backend", "rational", "cr(2,3;3,5)"], 3),
        (["eval", "--backend", "rational", "(0)^-1"], 3),
        (["eval", "--backend", "rational", "cr(2,3;1"], 2),
        (["eval", "--backend", "gfp(6)", "1 mod 6"], 2),
        (["eval", "--backend", "gfp(5)", "3 mod 7"], 2),
        (["construct", "add", "--a", "2", "--b", "3", "--aux", "(0,1)"], 0),
        (["construct", "add", "--a", "2", "--b", "3", "--aux", "(4,0)"], 3),
        (["verify", "--family", "A", "--base", "3,1,5", "--count", "5"], 0),
        (["verify", "--family", "A", "--base", "3,1,0", "--count", "5"], 3),
        (["eval", "--backend", f"gfp({PSI12})", f"(399165290221 mod {PSI12})^-1"], 2),
        (["eval", "--backend", f"gfp({PSI13})", f"1 mod {PSI13}"], 2),
        (["construct", "add", "--a", "1" + "0" * 400, "--b", "1", "--aux", "(0,1)",
          "--svg", os.devnull], 2),
        (["eval", f"{DIGITS_3000}*{DIGITS_3000}"], 2),
    ])
    def test_matrix(self, argv, expected, capsys):
        assert main(argv) == expected

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval"])  # missing expression
        assert excinfo.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2


_LITERALS = {
    "rational": ["0", "1", "2", "-3", "2/3"],
    "gfp(5)": ["0 mod 5", "1 mod 5", "3 mod 5"],
    "quaternion": ["(0,0,0,0)", "(1,0,0,0)", "(0,1,0,0)", "(1,2,0,-1)"],
}
_SYMBOLS = ["+", "-", "*", "^-1", "(", ")", ",", ";", ":", "cr(", "r(", "map(A;", "map(D;", " "]


def _eval_inputs(literals):
    """Arbitrary text, token soup, and well-formed expressions over ``literals``."""
    grammatical = st.recursive(st.sampled_from(literals), lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("({0[0]} {0[1]} {0[2]})".format),
        inner.map("({})^-1".format),
        inner.map("-({})".format),
        st.tuples(inner, inner).map("r({0[0]}:{0[1]})".format),
        st.tuples(inner, inner, inner, inner).map("cr({0[0]},{0[1]};{0[2]},{0[3]})".format),
        st.tuples(st.sampled_from("ABCD"), inner, inner, inner, inner).map(
            "map({0[0]}; {0[1]},{0[2]},{0[3]}; {0[4]})".format),
    ), max_leaves=6)
    tokens = st.lists(st.sampled_from(literals + _SYMBOLS), max_size=20).map("".join)
    return st.one_of(st.text(max_size=30), tokens, grammatical)


class TestEvalExitContract:
    """Whatever ``eval`` is given, it ends in 0, 2 or 3, with one error line."""

    @pytest.mark.parametrize("backend", sorted(_LITERALS))
    @given(data=st.data())
    def test_exit_code_and_error_line(self, backend, data):
        text = data.draw(_eval_inputs(_LITERALS[backend]))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["eval", "--backend", backend, "--", text])
        assert code in (0, 2, 3)
        if code == 0:
            assert err.getvalue() == "" and out.getvalue().count("\n") == 1
        else:
            assert err.getvalue().startswith("error[") and err.getvalue().count("\n") == 1


class TestStartup:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        """Each CLI call is a fresh process, so what importing the CLI
        pulls in is paid on every call; ``-S`` keeps site's imports out.
        ``fractions`` (with ``decimal``) loads only when a quaternion's
        component views are read."""
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import skewplane.cli; "
                  "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'}"
                  " & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", script, str(SRC)],
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"
