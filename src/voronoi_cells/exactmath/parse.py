"""Parser for polynomial expressions over a fixed ring.

Grammar (no implicit multiplication, ``^`` is exponentiation):

    expr     = term (("+" | "-") term)*
    term     = factor ("*" factor)*
    factor   = "-" factor | base ("^" natural)?
    base     = rational | identifier | "(" expr ")"
    rational = natural ("/" natural)?

``str(poly)`` output round-trips through this grammar.  Nesting of
parentheses and unary minus deeper than _MAX_NESTING raises ParseError.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, PolyRing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_MAX_NESTING = 100  # levels, far below the interpreter's recursion limit

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "/":
            tokens.append(("/", "/", i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self, depth: int = 0) -> Polynomial:
        result = self.parse_term(depth)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term(depth)
            result = result + rhs if op == "+" else result - rhs
        return result

    def parse_term(self, depth: int) -> Polynomial:
        result = self.parse_factor(depth)
        while self.peek()[0] == "*":
            self.advance()
            result = result * self.parse_factor(depth)
        return result

    def parse_factor(self, depth: int) -> Polynomial:
        if depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels",
                             self.peek()[2])
        if self.peek()[0] == "-":
            self.advance()
            return -self.parse_factor(depth + 1)
        base = self.parse_base(depth)
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            return base ** int(tok[1])
        return base

    def parse_base(self, depth: int) -> Polynomial:
        kind, value, position = self.peek()
        if kind == "int":
            self.advance()
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("int")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return self.ring.constant(self.ring.field.literal(num, den))
            return self.ring.constant(Fraction(num))
        if kind == "ident":
            self.advance()
            try:
                return self.ring.variable(value)
            except ValueError:
                raise ParseError(f"unknown variable {value!r}", position) from None
        if kind == "(":
            self.advance()
            inner = self.parse_expr(depth + 1)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", position)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse ``text`` into a polynomial of ``ring``; raises ParseError."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, ring)
    result = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return result
