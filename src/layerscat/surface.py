"""Rough-surface profiles x2 = f(x1) lying strictly below the interface x2 = 0.

A surface is any object with surface(t), giving f, and surface.jet(t),
giving (f, f', f'') at once; t is a float or an array.  Every profile a
config names, the built-in ones (_BUILTINS) included, is a parsed expression
of exprs, whose second-order jet gives f and its exact f', f'' (the Nystrom
diagonal terms need f'' pointwise).  It is not checked at construction: a
run's config is refused unless f, f', f'' are finite and f clears the
interface on its window [-A, A] (cli.config_from_dict), and the shared
spectral rule refuses nodes that are not below the interface
(sommerfeld.remainder_matrices).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .exprs import Expression, parse_expression


def _refined_max(fn, grid, vals):
    """(t, fn(t)) at the maximum of vals = fn(grid), polished by two rounds
    of local refinement."""
    j = int(np.argmax(vals))
    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
    for _ in range(2):
        g = np.linspace(lo, hi, 201)
        v = np.asarray(fn(g), dtype=float)
        j = int(np.argmax(v))
        lo, hi = g[max(j - 1, 0)], g[min(j + 1, g.size - 1)]
    return float(g[j]), float(v[j])


#: the example surfaces, as expressions
_BUILTINS = {"gamma1": "-1+0.3*sin(0.7*pi*t)*exp(-0.4*t*t)",   # localized bump
             "gamma2": "-1",                                   # flat plane
             "gamma3": "-1+0.16*sin(0.3*pi*t)"}                # periodic


def builtin(name: str) -> Expression:
    """One of the example surfaces, gamma1 | gamma2 | gamma3, parsed."""
    if name not in _BUILTINS:
        raise DomainError(f"unknown surface {name!r}; expected one of {sorted(_BUILTINS)}")
    return parse_expression(_BUILTINS[name])
