"""Expression grammar: parsing, printing, round trips and evaluation."""

import random

import pytest

from conftest import BoundedRandom
from skewplane.errors import (
    ExpressionSyntaxError,
    SingularCrossRatioError,
    ZeroInverseError,
)
from skewplane.expressions import (
    Add,
    CrossRatioNode,
    Inv,
    Literal,
    MapNode,
    Mul,
    Neg,
    Node,
    Ratio2,
    Ratio3,
    Sub,
    evaluate_expression,
    parse_expression,
    parse_point,
    parse_scalar,
    parse_scalar_list,
    print_expression,
    random_expression,
)
from skewplane.maps import Family
from skewplane.plane import PlanePoint
from skewplane.scalars import (
    PrimeField,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
)

RATIONAL = RationalField()
GF5 = PrimeField(5)
QUAT = QuaternionField()


class TestParsing:
    def test_cross_ratio_call(self):
        node = parse_expression("cr(2,3;1,5)", RATIONAL)
        assert node == CrossRatioNode(Literal(Rational(2)), Literal(Rational(3)),
                                      Literal(Rational(1)), Literal(Rational(5)))

    def test_ratio2_call(self):
        assert parse_expression("r(6:3)", RATIONAL) == Ratio2(
            Literal(Rational(6)), Literal(Rational(3)))

    def test_ratio3_call(self):
        assert parse_expression("r(5,3;1)", RATIONAL) == Ratio3(
            Literal(Rational(5)), Literal(Rational(3)), Literal(Rational(1)))

    def test_map_call(self):
        node = parse_expression("map(A; 3,1,5; 2)", RATIONAL)
        assert node == MapNode(Family.A, Literal(Rational(3)), Literal(Rational(1)),
                               Literal(Rational(5)), Literal(Rational(2)))

    def test_unbalanced_input_reports_offset(self):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_expression("cr(2,3;1", RATIONAL)
        assert excinfo.value.position == 8

    def test_unknown_character_reports_offset(self):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_expression("2 + $", RATIONAL)
        assert excinfo.value.position == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("2 3", RATIONAL)

    def test_precedence_and_left_association(self):
        two, three, four = (Literal(Rational(n)) for n in (2, 3, 4))
        assert parse_expression("2*3*4", RATIONAL) == Mul(Mul(two, three), four)
        assert parse_expression("2+3*4", RATIONAL) == Add(two, Mul(three, four))
        assert parse_expression("2-3-4", RATIONAL) == Sub(Sub(two, three), four)

    def test_postfix_inverse(self):
        assert parse_expression("(2/3)^-1", RATIONAL) == Inv(Literal(Rational(2, 3)))
        assert parse_expression("2^-1^-1", RATIONAL) == Inv(Inv(Literal(Rational(2))))

    def test_caret_requires_minus_one(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("2^3", RATIONAL)

    def test_negative_literal_folding(self):
        assert parse_expression("-2/3", RATIONAL) == Literal(Rational(-2, 3))
        assert parse_expression("-(2/3)", RATIONAL) == Neg(Literal(Rational(2, 3)))

    def test_unary_minus_on_composite(self):
        node = parse_expression("-(1 + 2)", RATIONAL)
        assert node == Neg(Add(Literal(Rational(1)), Literal(Rational(2))))


class TestLiterals:
    def test_rational_forms(self):
        assert parse_scalar("7", RATIONAL) == Rational(7)
        assert parse_scalar("-7", RATIONAL) == Rational(-7)
        assert parse_scalar("2/4", RATIONAL) == Rational(1, 2)

    def test_prime_field_literal(self):
        assert parse_scalar("3 mod 5", GF5) == GF5.from_int(3)

    def test_prime_field_modulus_mismatch(self):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_scalar("3 mod 7", GF5)
        assert "does not match backend" in str(excinfo.value)

    def test_prime_field_literal_requires_mod(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("3 + 1", GF5)

    def test_quaternion_literal(self):
        assert parse_scalar("(1/2,-2,0,1)", QUAT) == RationalQuaternion(
            Rational(1, 2), Rational(-2), Rational(0), Rational(1))

    def test_quaternion_literal_vs_parenthesized_expression(self):
        # "(...)" with four components is a literal; with one expression
        # it is grouping
        literal = parse_expression("(0,1,0,0)", QUAT)
        assert literal == Literal(QUAT.i())
        grouped = parse_expression("((0,1,0,0))", QUAT)
        assert grouped == Literal(QUAT.i())

    def test_bare_integer_is_not_a_quaternion_literal(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("3", QUAT)

    def test_point_literal(self):
        assert parse_point("(2, 1)", RATIONAL) == PlanePoint(Rational(2), Rational(1))
        point = parse_point("((0,1,0,0), (1,0,0,0))", QUAT)
        assert point == PlanePoint(QUAT.i(), QUAT.one())

    def test_scalar_list(self):
        assert parse_scalar_list("3,1,5", RATIONAL) == (
            Rational(3), Rational(1), Rational(5))
        assert parse_scalar_list("(0,1,0,0),(0,0,1,0)", QUAT) == (QUAT.i(), QUAT.j())


class TestEvaluation:
    def test_worked_cross_ratio(self):
        node = parse_expression("cr(2,3;1,5)", RATIONAL)
        assert evaluate_expression(node) == Rational(1, 3)

    def test_map_matches_direct_cross_ratio(self):
        direct = evaluate_expression(parse_expression("cr(2,3;1,5)", RATIONAL))
        mapped = evaluate_expression(parse_expression("map(A; 3,1,5; 2)", RATIONAL))
        assert direct == mapped

    def test_singular_input_propagates(self):
        with pytest.raises(SingularCrossRatioError):
            evaluate_expression(parse_expression("cr(2,3;3,5)", RATIONAL))
        with pytest.raises(ZeroInverseError):
            evaluate_expression(parse_expression("(1 - 1)^-1", RATIONAL))

    def test_noncommutative_product_order(self):
        ij = evaluate_expression(parse_expression("(0,1,0,0)*(0,0,1,0)", QUAT))
        ji = evaluate_expression(parse_expression("(0,0,1,0)*(0,1,0,0)", QUAT))
        assert ij == QUAT.k()
        assert ji == -QUAT.k()


ONE, TWO, THREE, FIVE = (Literal(Rational(n)) for n in (1, 2, 3, 5))

#: One row per node kind: a builder, the printed text, the value.
NODE_TABLE = {
    "Literal": (lambda: Literal(Rational(-2, 3)), "-2/3", Rational(-2, 3)),
    "Add": (lambda: Add(TWO, THREE), "(2 + 3)", Rational(5)),
    "Sub": (lambda: Sub(TWO, THREE), "(2 - 3)", Rational(-1)),
    "Mul": (lambda: Mul(TWO, THREE), "(2 * 3)", Rational(6)),
    "Neg": (lambda: Neg(TWO), "-(2)", Rational(-2)),
    "Inv": (lambda: Inv(TWO), "(2)^-1", Rational(1, 2)),
    "Ratio2": (lambda: Ratio2(THREE, TWO), "r(3:2)", Rational(3, 2)),
    "Ratio3": (lambda: Ratio3(FIVE, THREE, TWO), "r(5,3;2)", Rational(3)),
    "CrossRatioNode": (lambda: CrossRatioNode(TWO, THREE, ONE, FIVE),
                       "cr(2,3;1,5)", Rational(1, 3)),
    "MapNode": (lambda: MapNode(Family.A, THREE, ONE, FIVE, TWO),
                "map(A; 3,1,5; 2)", Rational(1, 3)),
}
NODE_KINDS = (Literal, Add, Sub, Mul, Neg, Inv, Ratio2, Ratio3, CrossRatioNode, MapNode)


class TestNodeTable:
    @pytest.mark.parametrize("kind", NODE_TABLE)
    def test_each_kind_prints_evaluates_and_compares(self, kind):
        build, text, value = NODE_TABLE[kind]
        node = build()
        assert type(node).__name__ == kind
        assert print_expression(node) == text
        assert parse_expression(text, RATIONAL) == node
        assert evaluate_expression(node) == value
        twin = build()
        assert twin is not node and twin == node and hash(twin) == hash(node)
        for other in NODE_KINDS:  # e.g. Add(a, b) != Sub(a, b)
            if other is not type(node):
                assert other(*node.args) != node
        with pytest.raises(AttributeError):
            node.args = ()
        with pytest.raises(AttributeError):
            node.extra = 1


def tree_depth(node: Node) -> int:
    """The operator nodes on the longest path to a literal, counted afresh."""
    if isinstance(node, Literal):
        return 0
    return 1 + max(tree_depth(arg) for arg in node.args if isinstance(arg, Node))


def subtrees(node: Node):
    yield node
    for arg in node.args:
        if isinstance(arg, Node):
            yield from subtrees(arg)


class TestDepth:
    """Each node carries its depth, which the parser's cap reads."""

    @pytest.mark.parametrize("text, depth", [
        ("2", 0), ("-2", 0), ("-(2)", 1), ("--2", 1), ("((2))^-1^-1", 2),
        ("1 + 2 * 3", 2), ("1 * 2 + 3 - 4", 3), ("r(1:2)", 1), ("r(5,3;2 + 1)", 2),
        ("cr(2,3;1,5 * (1 + 1))", 3), ("map(A; 3,1,5; (2 + 1)^-1)", 3),
    ])
    def test_parsed_trees(self, text, depth):
        node = parse_expression(text, RATIONAL)
        assert node.depth == depth
        assert all(sub.depth == tree_depth(sub) for sub in subtrees(node))

    @pytest.mark.parametrize("field", [RATIONAL, GF5, QUAT], ids=lambda f: f.name)
    def test_generated_trees(self, field):
        rng = random.Random(7)
        for _ in range(60):
            node = random_expression(field, rng, depth=5)
            assert all(sub.depth == tree_depth(sub) for sub in subtrees(node))
            assert parse_expression(print_expression(node), field).depth == node.depth

    def test_depth_is_no_part_of_the_value(self):
        node = Add(Literal(Rational(1)), Neg(Literal(Rational(2))))
        twin = Add(Literal(Rational(1)), Neg(Literal(Rational(2))))
        object.__setattr__(twin, "depth", 0)
        assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)


class TestRoundTrip:
    @pytest.mark.parametrize("field", [RATIONAL, GF5, QUAT], ids=lambda f: f.name)
    def test_generated_asts_round_trip(self, field):
        rng = random.Random(99)
        for _ in range(60):
            node = random_expression(field, rng)
            text = print_expression(node)
            assert parse_expression(text, field) == node, text

    @pytest.mark.parametrize("p", [2, 3])
    def test_fields_without_a_base_draw_no_map(self, p):
        """A map node on GF(2) or GF(3) would draw base points forever."""
        field, rng = PrimeField(p), BoundedRandom(0)
        for _ in range(200):
            node = random_expression(field, rng)
            text = print_expression(node)
            assert "map(" not in text and parse_expression(text, field) == node

    def test_negative_literal_round_trip(self):
        node = Literal(Rational(-2, 3))
        assert parse_expression(print_expression(node), RATIONAL) == node

    def test_neg_wrapper_round_trip(self):
        node = Neg(Literal(Rational(2, 3)))
        assert parse_expression(print_expression(node), RATIONAL) == node

    def test_cli_equivalence_of_eval(self, rng):
        # expression evaluation through the CLI equals the core API
        from skewplane.cli import main

        for field in (RATIONAL, GF5, QUAT):
            for _ in range(67):
                node = random_expression(field, rng)
                text = print_expression(node)
                try:
                    expected = str(evaluate_expression(node))
                    expected_code = 0
                except Exception as exc:  # singular inputs exit with 3
                    expected = type(exc).__name__
                    expected_code = 3
                import io
                import contextlib

                out = io.StringIO()
                err = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    # "--" keeps expressions with a leading minus out of
                    # argparse's option handling
                    code = main(["eval", "--backend", field.name, "--", text])
                assert code == expected_code, text
                if expected_code == 0:
                    assert out.getvalue().strip() == expected
                else:
                    assert expected in err.getvalue()
