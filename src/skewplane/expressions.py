"""Surface grammar for scalars, points and line-coordinate expressions.

This is the textual interface the CLI owns.  Scalar literals:

    rationals       2, -7, 2/3, -2/3
    prime fields    3 mod 5          (the modulus must match the backend)
    quaternions     (w,x,y,z)        with rational components

Expressions combine literals with infix ``+``, ``-``, ``*`` (sequences
of ``*`` associate left; no commutative rearrangement ever happens),
postfix ``^-1``, unary minus, parentheses, and the function forms

    r(A:B)            two-point ratio
    r(A,B;C)          three-point ratio
    cr(A,B;C,D)       cross-ratio
    map(F; p1,p2,p3; X)   cross-ratio map of family F in {A,B,C,D}

Parsing is deterministic recursive descent over a tokenizer that tracks
character offsets, so every syntax error carries its position.  The
nesting of parentheses and function forms, and the depth of the syntax
tree (operator nodes on one path to a literal), are capped at
``MAX_DEPTH``.  The printer emits fully parenthesized text and
``parse(print(ast)) == ast`` structurally; unary minus directly in front
of a literal folds into the literal at parse time, which is exactly what
the printer produces for negative literal values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple, Union

from .errors import ExpressionSyntaxError
from .maps import CrossRatioBase, Family
from .maps import evaluate as map_evaluate
from .plane import PlanePoint
from .ratios import cross_ratio, ratio2, ratio3
from .scalars import (
    PrimeField,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
    ScalarField,
    SkewScalar,
)

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Literal:
    value: SkewScalar


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Inv:
    operand: "Node"


@dataclass(frozen=True)
class Ratio2:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Ratio3:
    a: "Node"
    b: "Node"
    c: "Node"


@dataclass(frozen=True)
class CrossRatioNode:
    a: "Node"
    b: "Node"
    c: "Node"
    d: "Node"


@dataclass(frozen=True)
class MapNode:
    family: Family
    p1: "Node"
    p2: "Node"
    p3: "Node"
    x: "Node"


Node = Union[Literal, Add, Sub, Mul, Neg, Inv, Ratio2, Ratio3,
             CrossRatioNode, MapNode]


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = "(),;:+-*/="
#: ASCII only: ``str.isdigit`` also takes other scripts' digits and "²".
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "ident", "invop", a symbol character, or "end"
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(_Token("int", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        if ch == "^":
            if text[i:i + 3] == "^-1":
                tokens.append(_Token("invop", "^-1", i))
                i += 3
                continue
            raise ExpressionSyntaxError("expected ^-1", i)
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser

_FUNCTION_NAMES = {"r", "cr", "map"}

#: Cap on the nesting of parentheses and function forms, and on the tree
#: depth.  The parser, the evaluator, the printer and structural ``==``
#: recurse once per level, so deeper input is refused at the token that
#: crosses the cap instead of exhausting the interpreter's stack.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, field: ScalarField):
        self.text = text
        self.field = field
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0

    # token plumbing ------------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                token.pos)
        return self.advance()

    def fail(self, message: str):
        raise ExpressionSyntaxError(message, self.peek().pos)

    # literals ------------------------------------------------------------
    def _int(self, token: _Token) -> int:
        """The value of an int token; too many digits is a syntax error here."""
        try:
            return int(token.text)
        except ValueError:
            raise ExpressionSyntaxError(
                f"integer literal of {len(token.text)} digits is too long",
                token.pos) from None

    def _parse_rational(self) -> Rational:
        """INT [/ INT] as an exact rational."""
        numerator = self._int(self.expect("int"))
        if self.peek().kind != "/":
            return Rational(numerator)
        self.advance()
        token = self.expect("int")
        denominator = self._int(token)
        if denominator == 0:
            raise ExpressionSyntaxError("zero denominator", token.pos)
        return Rational(numerator, denominator)

    def _parse_signed(self, parse_unsigned):
        """[-] followed by whatever ``parse_unsigned`` reads, negated on a sign."""
        if self.peek().kind == "-":
            self.advance()
            return -parse_unsigned()
        return parse_unsigned()

    def _parse_signed_literal(self) -> SkewScalar:
        """[-] literal, as scalar, point and list inputs write a value."""
        return self._parse_signed(self._parse_literal)

    def _parse_literal(self) -> SkewScalar:
        field = self.field
        if isinstance(field, QuaternionField):
            self.expect("(")
            components = [self._parse_signed(self._parse_rational)]
            for _ in range(3):
                self.expect(",")
                components.append(self._parse_signed(self._parse_rational))
            self.expect(")")
            return RationalQuaternion(*components)
        if not isinstance(field, PrimeField):
            return self._parse_rational()
        token = self.expect("int")
        mod = self.peek()
        if mod.kind != "ident" or mod.text != "mod":
            raise ExpressionSyntaxError("expected 'mod'", mod.pos)
        self.advance()
        modulus_token = self.expect("int")
        if self._int(modulus_token) != field.p:
            raise ExpressionSyntaxError(
                f"literal modulus {modulus_token.text} does not match "
                f"backend {field.name}", modulus_token.pos)
        return field.from_int(self._int(token))

    # grammar -------------------------------------------------------------
    # Each rule returns the node it read and the node's tree depth, the
    # number of operator nodes on its longest path to a literal.

    def _checked(self, node: Node, depth: int, token: _Token) -> Tuple[Node, int]:
        """``(node, depth)``; a depth past MAX_DEPTH fails at ``token``."""
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression deeper than {MAX_DEPTH} levels", token.pos)
        return node, depth

    def parse_expression(self) -> Tuple[Node, int]:
        node, depth = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right, right_depth = self.parse_term()
            node, depth = self._checked(
                (Add if op.kind == "+" else Sub)(node, right),
                1 + max(depth, right_depth), op)
        return node, depth

    def parse_term(self) -> Tuple[Node, int]:
        node, depth = self.parse_postfix()
        while self.peek().kind == "*":
            op = self.advance()
            right, right_depth = self.parse_postfix()
            node, depth = self._checked(Mul(node, right), 1 + max(depth, right_depth), op)
        return node, depth

    def parse_postfix(self) -> Tuple[Node, int]:
        node, depth = self.parse_primary()
        while self.peek().kind == "invop":
            node, depth = self._checked(Inv(node), depth + 1, self.advance())
        return node, depth

    def _literal_here(self) -> Optional[Literal]:
        """A literal starting at the cursor, or None if something else starts.

        A bare integer can only begin a literal (outside the quaternion
        backend).  A quaternion ``(`` also opens parenthesized
        expressions, but only a literal continues with ``[-] INT``, since
        a bare integer is no quaternion expression; two tokens of
        lookahead decide.  Once a literal has begun, its parse errors
        propagate with their position.
        """
        token = self.peek()
        if isinstance(self.field, QuaternionField):
            ahead = [t.kind for t in self.tokens[self.index + 1:self.index + 3]]
            if token.kind == "(" and (ahead[:1] == ["int"] or ahead == ["-", "int"]):
                return Literal(self._parse_literal())
            return None
        if token.kind == "int":
            return Literal(self._parse_literal())
        return None

    def parse_primary(self) -> Tuple[Node, int]:
        """[-]... followed by a literal, a parenthesized expression or a
        function form; the sign nearest a literal folds into it."""
        signs = []
        while self.peek().kind == "-":
            signs.append(self.advance())
        literal = self._literal_here()
        if literal is None:
            node, depth = self._parse_group()
        elif signs:
            signs.pop()
            node, depth = Literal(-literal.value), 0
        else:
            node, depth = literal, 0
        for sign in reversed(signs):
            node, depth = self._checked(Neg(node), depth + 1, sign)
        return node, depth

    def _parse_group(self) -> Tuple[Node, int]:
        """A parenthesized expression or a function form, one nesting level in."""
        token = self.peek()
        is_function = token.kind == "ident" and token.text in _FUNCTION_NAMES
        if not (is_function or token.kind == "("):
            self.fail(f"expected an expression, found {token.text or 'end of input'!r}")
        if self.nesting == MAX_DEPTH:
            raise ExpressionSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", token.pos)
        self.nesting += 1
        if is_function:
            result = self.parse_function()
        else:
            self.advance()
            result = self.parse_expression()
            self.expect(")")
        self.nesting -= 1
        return result

    def _arguments(self, *separators: str) -> List[Tuple[Node, int]]:
        """Expressions separated by ``separators`` in turn, then ``)``."""
        parsed = [self.parse_expression()]
        for separator in separators:
            self.expect(separator)
            parsed.append(self.parse_expression())
        self.expect(")")
        return parsed

    def parse_function(self) -> Tuple[Node, int]:
        name = self.advance()
        self.expect("(")
        if name.text == "map":
            family_token = self.expect("ident")
            try:
                family = Family(family_token.text)
            except ValueError:
                raise ExpressionSyntaxError(
                    f"unknown family {family_token.text!r} (expected A, B, C or D)",
                    family_token.pos) from None
            self.expect(";")
            parsed = self._arguments(",", ",", ";")
            build = partial(MapNode, family)
        elif name.text == "cr":
            parsed = self._arguments(",", ";", ",")
            build = CrossRatioNode
        else:  # r(A:B) or r(A,B;C)
            first = self.parse_expression()
            separator = self.peek().kind
            if separator not in (":", ","):
                self.fail("expected ':' or ',' inside r(...)")
            self.advance()
            if separator == ":":
                parsed, build = [first] + self._arguments(), Ratio2
            else:
                parsed, build = [first] + self._arguments(";"), Ratio3
        return self._checked(build(*(node for node, _ in parsed)),
                             1 + max(depth for _, depth in parsed), name)


def _parse_complete(text: str, field: ScalarField, rule):
    """Run one grammar rule over the whole text; trailing input is an error."""
    parser = _Parser(text, field)
    result = rule(parser)
    end = parser.peek()
    if end.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing input {end.text!r}", end.pos)
    return result


def parse_expression(text: str, field: ScalarField) -> Node:
    """Parse one complete expression; trailing input is an error."""
    return _parse_complete(text, field, lambda parser: parser.parse_expression()[0])


def parse_scalar(text: str, field: ScalarField) -> SkewScalar:
    """Parse exactly one scalar literal (optionally negated)."""
    return _parse_complete(text, field, _Parser._parse_signed_literal)


def parse_point(text: str, field: ScalarField) -> PlanePoint:
    """Parse a point literal ``(x, y)``; each coordinate may be negated."""

    def point(parser: _Parser) -> PlanePoint:
        parser.expect("(")
        x = parser._parse_signed_literal()
        parser.expect(",")
        y = parser._parse_signed_literal()
        parser.expect(")")
        return PlanePoint(x, y)

    return _parse_complete(text, field, point)


def parse_scalar_list(text: str, field: ScalarField) -> Tuple[SkewScalar, ...]:
    """Parse a comma-separated list of scalar literals (e.g. a map base);
    each may be negated."""

    def scalar_list(parser: _Parser) -> Tuple[SkewScalar, ...]:
        values = [parser._parse_signed_literal()]
        while parser.peek().kind == ",":
            parser.advance()
            values.append(parser._parse_signed_literal())
        return tuple(values)

    return _parse_complete(text, field, scalar_list)


# ---------------------------------------------------------------------------
# printer

def print_expression(node: Node) -> str:
    """Fully parenthesized text that parses back to the same AST."""
    if isinstance(node, Literal):
        return str(node.value)
    if isinstance(node, Add):
        return f"({print_expression(node.left)} + {print_expression(node.right)})"
    if isinstance(node, Sub):
        return f"({print_expression(node.left)} - {print_expression(node.right)})"
    if isinstance(node, Mul):
        return f"({print_expression(node.left)} * {print_expression(node.right)})"
    if isinstance(node, Neg):
        return f"-({print_expression(node.operand)})"
    if isinstance(node, Inv):
        return f"({print_expression(node.operand)})^-1"
    if isinstance(node, Ratio2):
        return f"r({print_expression(node.a)}:{print_expression(node.b)})"
    if isinstance(node, Ratio3):
        return (f"r({print_expression(node.a)},{print_expression(node.b)};"
                f"{print_expression(node.c)})")
    if isinstance(node, CrossRatioNode):
        return (f"cr({print_expression(node.a)},{print_expression(node.b)};"
                f"{print_expression(node.c)},{print_expression(node.d)})")
    if isinstance(node, MapNode):
        return (f"map({node.family.value}; {print_expression(node.p1)},"
                f"{print_expression(node.p2)},{print_expression(node.p3)}; "
                f"{print_expression(node.x)})")
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluator

def evaluate_expression(node: Node) -> SkewScalar:
    """Evaluate an AST with the core operations; core errors propagate."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Add):
        return evaluate_expression(node.left) + evaluate_expression(node.right)
    if isinstance(node, Sub):
        return evaluate_expression(node.left) - evaluate_expression(node.right)
    if isinstance(node, Mul):
        return evaluate_expression(node.left) * evaluate_expression(node.right)
    if isinstance(node, Neg):
        return -evaluate_expression(node.operand)
    if isinstance(node, Inv):
        return evaluate_expression(node.operand).inverse()
    if isinstance(node, Ratio2):
        return ratio2(evaluate_expression(node.a), evaluate_expression(node.b))
    if isinstance(node, Ratio3):
        return ratio3(evaluate_expression(node.a), evaluate_expression(node.b),
                      evaluate_expression(node.c))
    if isinstance(node, CrossRatioNode):
        return cross_ratio(evaluate_expression(node.a), evaluate_expression(node.b),
                           evaluate_expression(node.c), evaluate_expression(node.d))
    if isinstance(node, MapNode):
        base = CrossRatioBase(node.family, (
            evaluate_expression(node.p1), evaluate_expression(node.p2),
            evaluate_expression(node.p3)))
        return map_evaluate(base, evaluate_expression(node.x))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# random ASTs (drives the round-trip and CLI-equivalence suites)

def random_expression(field: ScalarField, rng: random.Random, depth: int = 3) -> Node:
    """A random well-formed AST over the backend's literals.

    Negative literal values appear as negative literals (never as
    ``Neg(Literal)``), matching the parser's constant folding, so every
    generated tree survives a print/parse round trip structurally.
    """
    if depth <= 0 or rng.random() < 0.25:
        return Literal(field.random_element(rng))
    kind = rng.choice(("add", "sub", "mul", "neg", "inv", "r2", "r3", "cr", "map"))
    sub = lambda: random_expression(field, rng, depth - 1)
    if kind == "add":
        return Add(sub(), sub())
    if kind == "sub":
        return Sub(sub(), sub())
    if kind == "mul":
        return Mul(sub(), sub())
    if kind == "neg":
        operand = sub()
        if isinstance(operand, Literal):
            return Literal(-operand.value)
        return Neg(operand)
    if kind == "inv":
        return Inv(sub())
    if kind == "r2":
        return Ratio2(sub(), sub())
    if kind == "r3":
        return Ratio3(sub(), sub(), sub())
    if kind == "cr":
        return CrossRatioNode(sub(), sub(), sub(), sub())
    points = []
    while len(points) < 3:
        candidate = field.random_nonzero(rng)
        if all(candidate != existing for existing in points):
            points.append(candidate)
    return MapNode(rng.choice(list(Family)), Literal(points[0]),
                   Literal(points[1]), Literal(points[2]), sub())
