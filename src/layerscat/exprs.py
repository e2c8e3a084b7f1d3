"""Tiny expression language for surface profiles and beta.

An expression is a Python expression, with '^' read as '**', parsed by
Python's own parser (ast.parse) and built only from

    numbers    finite Python int and float literals (so 0x10 is 16 and 1_0
               is 10; no bool, no complex)
    names      t (or s, or x), pi
    operators  unary '-'; '+', '-', '*'; '**' with an int literal
               exponent from 0 to _MAX_POWER
    calls      sin, cos, exp, of one argument

Anything else, text that does not parse, and nesting deeper than _MAX_DEPTH
levels are a ConfigError naming the construct.  A parsed Expression is
evaluated as a second-order jet (f, f', f''), carried through each operation
by the sum, product, power and chain rules, so second derivatives are exact:
expr.jet(t) gives all three from one pass; expr(t) gives f alone, by the
same operations on f (equal bit for bit).  A surface is such an expression
(surface.builtin), and so is beta, a constant one too (constant).
"""

from __future__ import annotations

import ast
import math
import sys

import numpy as np

from .errors import ConfigError


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


def _value(node, t):
    """f alone of a parsed node at t, by the operations _jet applies to f."""
    op, a = node[0], [_value(x, t) for x in node[1:] if isinstance(x, tuple)]
    if op in ("const", "var"):
        return node[1] * np.ones_like(t) if op == "const" else t
    if op in ("fn", "pow"):
        return getattr(np, node[1])(a[0]) if op == "fn" else a[0] ** node[2]
    return a[0] + a[1] if op == "add" else a[0] * a[1]


class Expression:
    """A parsed expression in t: expr(t) is its value f, expr.jet(t) the
    jet (f, f', f'') from one pass; t a float or an array."""

    def __init__(self, node):
        self.node = node

    def __call__(self, t):
        return _value(self.node, np.asarray(t, dtype=float))

    def jet(self, t):
        return _jet(self.node, np.asarray(t, dtype=float))


def constant(c) -> Expression:
    """The constant expression c (complex allowed, as for beta)."""
    return Expression(("const", c))


#: deepest nesting walked; _jet recurses at most twice per level
_MAX_DEPTH = 100
#: largest exponent; _jet's f'' multiplies by n (n - 1), which must stay a float
_MAX_POWER = 1000


def _tree(e, text, depth=0):
    """The _jet node of a node e of the Python syntax tree of text, or
    ConfigError naming the construct the grammar lacks."""
    if depth > _MAX_DEPTH:
        raise ConfigError(f"surface expression: nested deeper than {_MAX_DEPTH} levels")
    depth += 1
    if isinstance(e, ast.Constant) and type(e.value) in (int, float) \
            and e.value <= sys.float_info.max:      # int or float, finite
        return ("const", float(e.value))
    if isinstance(e, ast.Name) and e.id in ("pi", "t", "s", "x"):
        return ("const", math.pi) if e.id == "pi" else ("var",)
    if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
        return ("mul", ("const", -1.0), _tree(e.operand, text, depth))
    if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Pow):
        n = e.right
        if not (isinstance(n, ast.Constant) and type(n.value) is int
                and n.value <= _MAX_POWER):
            raise ConfigError(f"surface expression: exponent must be an integer "
                              f"from 0 to {_MAX_POWER}, got "
                              f"{ast.get_source_segment(text, n)!r}")
        return ("pow", _tree(e.left, text, depth), n.value)
    if isinstance(e, ast.BinOp) and isinstance(e.op, (ast.Add, ast.Sub, ast.Mult)):
        a, b = _tree(e.left, text, depth), _tree(e.right, text, depth)
        if isinstance(e.op, ast.Sub):
            b = ("mul", ("const", -1.0), b)
        return ("mul" if isinstance(e.op, ast.Mult) else "add", a, b)
    if (isinstance(e, ast.Call) and isinstance(e.func, ast.Name)
            and e.func.id in ("sin", "cos", "exp") and len(e.args) == 1
            and not e.keywords):
        return ("fn", e.func.id, _tree(e.args[0], text, depth))
    what = type(getattr(e, "op", e)).__name__
    raise ConfigError(f"surface expression: {what} "
                      f"{ast.get_source_segment(text, e)!r} is not allowed")


def parse_expression(text: str) -> Expression:
    """An expression in t (grammar in the module doc), or ConfigError."""
    text = text.strip().replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ConfigError("surface expression: cannot parse: "
                          f"{getattr(exc, 'msg', exc)}") from None
    return Expression(_tree(tree.body, text))

