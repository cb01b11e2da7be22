"""Parsing of polynomial expressions.

The accepted grammar is deliberately small: integer literals, lower-case
variable names matching ``[a-z][a-z0-9]*``, the binary operators ``+ - *``,
exponentiation ``^`` by a nonnegative integer literal, unary minus, and
parentheses.  There is no division and no implicit multiplication; ``2x``
must be written ``2*x``.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .rings import MPolyRing, poly_ring

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-z][a-z0-9]*)|(?P<op>[-+*^()]))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split `text` into (kind, value, position) tokens; kind in int/name/op."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} at position {pos}")
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def _where(pos) -> str:
    return "at end of input" if pos is None else f"at position {pos}"


class _Parser:
    """Recursive-descent parser producing elements of a polynomial ring."""

    def __init__(self, tokens, ring: MPolyRing):
        self.tokens = tokens
        self.ring = ring
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return (None, None, None)

    def take(self):
        token = self.peek()
        self.index += 1
        return token

    def expect_op(self, symbol: str):
        kind, value, pos = self.take()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r} {_where(pos)}")

    def parse(self):
        result = self.expression()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {value!r} at position {pos}")
        return result

    def expression(self):
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                if value == "+":
                    result = self.ring.add(result, rhs)
                else:
                    result = self.ring.sub(result, rhs)
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                result = self.ring.mul(result, self.factor())
            else:
                return result

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return self.ring.neg(self.factor())
        return self.power()

    def power(self):
        result = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.take()
                kind, value, pos = self.take()
                if kind != "int":
                    raise ParseError(
                        f"exponent must be an integer literal {_where(pos)}"
                    )
                result = self.ring.power(result, int(value))
            else:
                return result

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return self.ring.from_int(int(value))
        if kind == "name":
            if value not in self.ring.vars:
                raise ParseError(f"unknown variable {value!r} at position {pos}")
            return self.ring.variable(value)
        if kind == "op" and value == "(":
            result = self.expression()
            self.expect_op(")")
            return result
        if kind is None:
            raise ParseError("unexpected end of input")
        raise ParseError(f"unexpected token {value!r} at position {pos}")


def parse_poly(text: str, variables: tuple[str, ...]):
    """Parse `text` into an element of the polynomial ring in `variables`."""
    ring = poly_ring(tuple(variables))
    parser = _Parser(tokenize(text), ring)
    return parser.parse()
