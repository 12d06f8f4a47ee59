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

import operator
import random
from collections import namedtuple
from functools import partial
from typing import List, Optional, Tuple

from .errors import ExpressionSyntaxError
from .maps import CrossRatioBase, Family, _random_points
from .maps import evaluate as map_evaluate
from .plane import PlanePoint
from .ratios import cross_ratio, ratio2, ratio3
from .scalars import (
    Immutable,
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


class Node(Immutable):
    """An expression node: its operands in ``args`` and its tree ``depth``.

    Each kind is one row made by ``_node``: ``form`` is the printed text
    as a ``str.format`` template over the printed operands, ``apply``
    maps the evaluated operands to the node's value, and ``arity`` is the
    operand count.  An operand that is no node (a literal's value, a
    map's family) is printed and applied as it is.  ``depth``, the number
    of operator nodes on the longest path to a literal (0 for a literal),
    is set at construction from the operand nodes' depths.  ``==``,
    ``hash`` and ``repr`` are over the kind and the operands only.
    """

    __slots__ = ("args", "depth")

    def __init__(self, *args):
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "depth", 1 + max(
            (arg.depth for arg in args if isinstance(arg, Node)), default=-1))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.args == other.args

    def __hash__(self):
        return hash((type(self), self.args))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.args))})"


def _node(name: str, form: str, apply, **namespace) -> type:
    return type(name, (Node,), dict(namespace, __slots__=(), form=form,
                                    apply=staticmethod(apply), arity=form.count("{")))


Literal = _node("Literal", "{}", lambda value: value,
                value=property(lambda self: self.args[0]))
Add = _node("Add", "({} + {})", operator.add)
Sub = _node("Sub", "({} - {})", operator.sub)
Mul = _node("Mul", "({} * {})", operator.mul)
Neg = _node("Neg", "-({})", operator.neg)
Inv = _node("Inv", "({})^-1", lambda value: value.inverse())
# The rows below look their functions up when called, not when built, so
# that a name patched in this module (a call tracer) is seen.
Ratio2 = _node("Ratio2", "r({}:{})", lambda a, b: ratio2(a, b))
Ratio3 = _node("Ratio3", "r({},{};{})", lambda a, b, c: ratio3(a, b, c))
CrossRatioNode = _node("CrossRatioNode", "cr({},{};{},{})",
                       lambda a, b, c, d: cross_ratio(a, b, c, d))
MapNode = _node("MapNode", "map({.value}; {},{},{}; {})",
                lambda family, p1, p2, p3, x: map_evaluate(
                    CrossRatioBase(family, (p1, p2, p3)), x))


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = "(),;:+-*/="
#: ASCII only: ``str.isdigit`` also takes other scripts' digits and "²".
_DIGITS = frozenset("0123456789")


#: ``kind`` is "int", "ident", "invop", a symbol character, or "end".
_Token = namedtuple("_Token", "kind text pos")


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

    def _checked(self, node: Node, token: _Token) -> Node:
        """``node``; a depth past MAX_DEPTH fails at ``token``."""
        if node.depth > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression deeper than {MAX_DEPTH} levels", token.pos)
        return node

    def parse_expression(self) -> Node:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            node = self._checked((Add if op.kind == "+" else Sub)(node, self.parse_term()), op)
        return node

    def parse_term(self) -> Node:
        node = self.parse_postfix()
        while self.peek().kind == "*":
            op = self.advance()
            node = self._checked(Mul(node, self.parse_postfix()), op)
        return node

    def parse_postfix(self) -> Node:
        node = self.parse_primary()
        while self.peek().kind == "invop":
            node = self._checked(Inv(node), self.advance())
        return node

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

    def parse_primary(self) -> Node:
        """[-]... followed by a literal, a parenthesized expression or a
        function form; the sign nearest a literal folds into it."""
        signs = []
        while self.peek().kind == "-":
            signs.append(self.advance())
        node = self._literal_here()
        if node is None:
            node = self._parse_group()
        elif signs:
            signs.pop()
            node = Literal(-node.value)
        for sign in reversed(signs):
            node = self._checked(Neg(node), sign)
        return node

    def _parse_group(self) -> Node:
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

    def _arguments(self, *separators: str) -> List[Node]:
        """Expressions separated by ``separators`` in turn, then ``)``."""
        parsed = [self.parse_expression()]
        for separator in separators:
            self.expect(separator)
            parsed.append(self.parse_expression())
        self.expect(")")
        return parsed

    def parse_function(self) -> Node:
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
        return self._checked(build(*parsed), name)


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
    return _parse_complete(text, field, _Parser.parse_expression)


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
# printer and evaluator

def print_expression(node: Node) -> str:
    """Fully parenthesized text that parses back to the same AST."""
    return node.form.format(*(print_expression(arg) if isinstance(arg, Node) else arg
                              for arg in node.args))


def evaluate_expression(node: Node) -> SkewScalar:
    """Evaluate an AST with the core operations; core errors propagate."""
    return node.apply(*(evaluate_expression(arg) if isinstance(arg, Node) else arg
                        for arg in node.args))


# ---------------------------------------------------------------------------
# random ASTs (drives the round-trip and CLI-equivalence suites)

_RANDOM_KINDS = (Add, Sub, Mul, Neg, Inv, Ratio2, Ratio3, CrossRatioNode, MapNode)


def random_expression(field: ScalarField, rng: random.Random, depth: int = 3) -> Node:
    """A random well-formed AST over the backend's literals.

    Negative literal values appear as negative literals (never as
    ``Neg(Literal)``), matching the parser's constant folding, so every
    generated tree survives a print/parse round trip structurally.
    """
    if depth <= 0 or rng.random() < 0.25:
        return Literal(field.random_element(rng))
    kind = rng.choice(_RANDOM_KINDS)
    sub = lambda: random_expression(field, rng, depth - 1)
    if kind is MapNode:
        points = _random_points(field, rng)
        return MapNode(rng.choice(list(Family)), *map(Literal, points), sub())
    node = kind(*(sub() for _ in range(kind.arity)))
    if kind is Neg and isinstance(node.args[0], Literal):
        return Literal(-node.args[0].value)
    return node
