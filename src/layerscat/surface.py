"""Rough-surface profiles x2 = f(x1) lying strictly below the interface x2 = 0.

Every profile a config names, the built-in ones (_BUILTINS) included, is an
expression of exprs, whose second-order jet gives f and its exact f', f''
(the Nystrom diagonal terms need f'' pointwise).  It is not checked at
construction: a run's config is refused unless f, f', f'' are finite and f
clears the interface on its window [-A, A] (cli.config_from_dict), and the
shared spectral rule refuses nodes that are not below the interface
(sommerfeld.remainder_matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .exprs import parse_expression


@dataclass(frozen=True)
class SurfaceProfile:
    """Graph surface {(s, f(s))}; f, df, d2f accept floats or numpy arrays."""

    f: Callable
    df: Callable
    d2f: Callable

    def point(self, s):
        """Boundary point (s, f(s))."""
        return np.array([s, self.f(s)], dtype=float) if np.isscalar(s) else \
            np.stack([np.asarray(s, float), np.asarray(self.f(s), float)], axis=-1)

    def speed(self, s):
        """Arc-length factor sqrt(1 + f'(s)^2)."""
        d = self.df(s)
        return np.sqrt(1.0 + d * d)

    def normal(self, s):
        """Unit normal (f'(s), -1)/speed pointing out of the domain above."""
        d = np.asarray(self.df(s), dtype=float)
        sp = np.sqrt(1.0 + d * d)
        n = np.stack([d / sp, -np.ones_like(d) / sp], axis=-1)
        return n[()] if n.ndim == 1 else n


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


def surface_from_expression(text: str) -> SurfaceProfile:
    """Profile of an expression in t, with exact derivatives.  Unchecked:
    config_from_dict measures it on the run's window [-A, A]."""
    f = parse_expression(text)
    return SurfaceProfile(f=f, df=f.diff(), d2f=f.diff().diff())


def builtin(name: str) -> SurfaceProfile:
    """One of the example surfaces: gamma1 | gamma2 | gamma3."""
    if name not in _BUILTINS:
        raise DomainError(f"unknown surface {name!r}; expected one of {sorted(_BUILTINS)}")
    return surface_from_expression(_BUILTINS[name])
