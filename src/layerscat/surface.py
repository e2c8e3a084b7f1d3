"""Rough-surface profiles x2 = f(x1) lying strictly below the interface x2 = 0.

A profile carries analytic first and second derivatives (the Nystrom diagonal
terms need f'' pointwise).  It is not checked at construction: a run's
config is refused unless f, f', f'' are finite and f clears the interface on
its window [-A, A] (cli.config_from_dict), and the shared spectral rule
refuses nodes that are not below the interface (sommerfeld.remainder_matrices).

Built-in profiles:
    gamma1:  f(t) = -1 + 0.3 sin(0.7 pi t) exp(-0.4 t^2)
    gamma2:  f(t) = -1                                  (flat plane)
    gamma3:  f(t) = -1 + 0.16 sin(0.3 pi t)             (periodic)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SurfaceProfile:
    """Graph surface {(s, f(s))}; f, df, d2f accept floats or numpy arrays."""

    f: Callable
    df: Callable
    d2f: Callable
    name: str = "custom"

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


def _gamma1() -> SurfaceProfile:
    w = 0.7 * np.pi

    def f(t):
        return -1.0 + 0.3 * np.sin(w * t) * np.exp(-0.4 * t * t)

    def df(t):
        e = np.exp(-0.4 * t * t)
        return 0.3 * e * (w * np.cos(w * t) - 0.8 * t * np.sin(w * t))

    def d2f(t):
        e = np.exp(-0.4 * t * t)
        s, c = np.sin(w * t), np.cos(w * t)
        return 0.3 * e * (-w * w * s - 1.6 * w * t * c + (0.64 * t * t - 0.8) * s)

    return SurfaceProfile(f=f, df=df, d2f=d2f, name="gamma1")


def _gamma2() -> SurfaceProfile:
    def f(t):
        return -1.0 + 0.0 * np.asarray(t, dtype=float)

    def zero(t):
        return 0.0 * np.asarray(t, dtype=float)

    return SurfaceProfile(f=f, df=zero, d2f=zero, name="gamma2")


def _gamma3() -> SurfaceProfile:
    w = 0.3 * np.pi

    def f(t):
        return -1.0 + 0.16 * np.sin(w * t)

    def df(t):
        return 0.16 * w * np.cos(w * t)

    def d2f(t):
        return -0.16 * w * w * np.sin(w * t)

    return SurfaceProfile(f=f, df=df, d2f=d2f, name="gamma3")


_BUILTINS = {"gamma1": _gamma1, "gamma2": _gamma2, "gamma3": _gamma3}


def builtin(name: str) -> SurfaceProfile:
    """One of the example surfaces: gamma1 | gamma2 | gamma3."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise DomainError(f"unknown surface {name!r}; expected one of {sorted(_BUILTINS)}")
    return factory()
