"""Tiny expression language for user-supplied surface profiles.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)?
    atom   := number | 'pi' | 't' | fn '(' expr ')' | '(' expr ')'
    fn     := 'sin' | 'cos' | 'exp'

Sums and products of polynomials and sin/cos/exp terms cover all built-in
surfaces.  An expression is evaluated as a second-order jet (f, f', f''),
carried through each operation by the sum, product, power and chain rules,
so second derivatives of the profile are exact.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ConfigError
from .surface import SurfaceProfile, from_callables


def _jet(node, t):
    """(f, f', f'') of a parsed node at t (a float array)."""
    op = node[0]
    zero = np.zeros_like(t)
    if op == "const":
        return node[1] * np.ones_like(t), zero, zero
    if op == "var":
        return t, np.ones_like(t), zero
    if op == "fn":
        a0, a1, a2 = _jet(node[2], t)
        if node[1] == "exp":        # (g, g', g'') of the outer function
            g0 = g1 = g2 = np.exp(a0)
        else:
            s, c = np.sin(a0), np.cos(a0)
            g0, g1, g2 = (s, c, -s) if node[1] == "sin" else (c, -s, -c)
        return g0, g1 * a1, g2 * a1 * a1 + g1 * a2
    if op == "pow":
        (b0, b1, b2), n = _jet(node[1], t), node[2]
        if n == 0:
            return b0 ** 0, zero, zero
        p = n * b0 ** (n - 1)
        return b0 ** n, p * b1, n * (n - 1) * b0 ** max(n - 2, 0) * b1 * b1 + p * b2
    (a0, a1, a2), (b0, b1, b2) = _jet(node[1], t), _jet(node[2], t)
    if op == "add":
        return a0 + b0, a1 + b1, a2 + b2
    return a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2.0 * a1 * b1 + a0 * b2


class Expression:
    """A parsed expression in t; calling it gives the derivative of order
    `order` (0, 1 or 2) of its value."""

    def __init__(self, node, order=0):
        self.node, self.order = node, order

    def __call__(self, t):
        return _jet(self.node, np.asarray(t, dtype=float))[self.order]

    def diff(self) -> "Expression":
        if self.order == 2:
            raise ConfigError("surface expression: no derivative above the second")
        return Expression(self.node, self.order + 1)


_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|([A-Za-z_]+)|(\*\*|[-+*^()]))")


def _tokenize(text):
    text = text.rstrip()
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ConfigError(f"surface expression: cannot tokenize at {text[pos:]!r}")
        num, ident, op = m.groups()
        if num is not None:
            tokens.append(("num", float(text[m.start():m.end()].strip())))
        elif ident is not None:
            tokens.append(("ident", ident))
        else:
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        k, v = self.toks[self.i]
        if (kind and k != kind) or (value is not None and v != value):
            raise ConfigError(f"surface expression: unexpected token {v!r}")
        self.i += 1
        return v

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take("op")
            rhs = self.term()
            node = ("add", node, rhs if op == "+" else ("mul", ("const", -1.0), rhs))
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*"):
            self.take("op", "*")
            node = ("mul", node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take("op", "-")
            return ("mul", ("const", -1.0), self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op", "^")
            k, v = self.peek()
            if k != "num" or v != int(v) or v < 0:
                raise ConfigError("surface expression: exponent must be a nonnegative integer")
            self.take("num")
            node = ("pow", node, int(v))
        return node

    def atom(self):
        k, v = self.peek()
        if k == "num":
            self.take("num")
            return ("const", v)
        if k == "ident":
            self.take("ident")
            if v == "pi":
                return ("const", math.pi)
            if v in ("t", "s", "x"):
                return ("var",)
            if v in ("sin", "cos", "exp"):
                self.take("op", "(")
                arg = self.expr()
                self.take("op", ")")
                return ("fn", v, arg)
            raise ConfigError(f"surface expression: unknown identifier {v!r}")
        if (k, v) == ("op", "("):
            self.take("op", "(")
            node = self.expr()
            self.take("op", ")")
            return node
        raise ConfigError(f"surface expression: unexpected {v!r}")


def parse_expression(text: str) -> Expression:
    p = _Parser(_tokenize(text))
    node = p.expr()
    p.take("end")
    return Expression(node)


def surface_from_expression(text: str, half_width=40.0) -> SurfaceProfile:
    """Profile of an expression in t, exact derivatives (from_callables)."""
    f = parse_expression(text)
    df = f.diff()
    d2f = df.diff()
    try:
        return from_callables(f, df, d2f, name="inline", half_width=half_width)
    except Exception as exc:
        raise ConfigError(f"surface expression {text!r} invalid: {exc}") from exc
