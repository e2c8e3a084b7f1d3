"""Rough-surface profiles x2 = f(x1) lying strictly below the interface x2 = 0.

A profile carries analytic first and second derivatives (the Nystrom diagonal
terms need f'' pointwise), plus numeric bounds sup f, inf f and sup|f'| that
are spot-checked on a sample grid at construction ([-40, 40] and [-A, A]).

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

_CHECK_GRID = np.linspace(-40.0, 40.0, 4001)


@dataclass(frozen=True)
class SurfaceProfile:
    """Graph surface {(s, f(s))} with derivatives and bounds.

    f, df, d2f accept floats or numpy arrays.  f_plus/f_minus bound the
    height, lipschitz_L bounds |f'|.  Bounds are verified on a sample grid;
    f_plus < 0 is required (surface strictly below the interface).
    """

    f: Callable
    df: Callable
    d2f: Callable
    f_plus: float
    f_minus: float
    lipschitz_L: float
    name: str = "custom"

    def __post_init__(self):
        if not self.f_plus < 0:
            raise DomainError(f"surface must satisfy sup f < 0, got f_plus={self.f_plus}")
        if self.f_minus > self.f_plus:
            raise DomainError("f_minus must not exceed f_plus")
        vals = np.asarray(self.f(_CHECK_GRID), dtype=float)
        slopes = np.asarray(self.df(_CHECK_GRID), dtype=float)
        if not np.all(np.isfinite(vals)) or not np.all(np.isfinite(slopes)):
            raise DomainError("surface profile produced non-finite values")
        tol = 1e-9 * (1.0 + abs(self.f_plus))
        if vals.max() > self.f_plus + tol or vals.min() < self.f_minus - tol:
            raise DomainError(
                f"declared bounds [{self.f_minus}, {self.f_plus}] violated on sample grid "
                f"(observed [{vals.min()}, {vals.max()}])")
        if np.abs(slopes).max() > self.lipschitz_L + 1e-9 * (1.0 + self.lipschitz_L):
            raise DomainError("declared Lipschitz bound violated on sample grid")

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


def _refined_extremum(fn, grid, vals, want_max):
    """Polish a grid extremum with two rounds of local refinement: (t, f)."""
    pick = np.argmax if want_max else np.argmin
    j = int(pick(vals))
    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
    for _ in range(2):
        g = np.linspace(lo, hi, 201)
        v = np.asarray(fn(g), dtype=float)
        j = int(pick(v))
        lo, hi = g[max(j - 1, 0)], g[min(j + 1, g.size - 1)]
    return float(g[j]), float(v[j])


def from_callables(f, df, d2f, name="custom", half_width=40.0) -> SurfaceProfile:
    """Build a profile from a (f, f', f'') triple; bounds measured numerically
    on [-w, w], w = max(40, half_width) (grid scan with local refinement,
    plus a small safety margin), refused where f reaches the interface."""
    w = max(40.0, half_width)
    grid = np.linspace(-w, w, 2 * int(np.ceil(50 * w)) + 1)    # step <= 0.02
    vals = np.asarray(f(grid), dtype=float)
    slopes = np.abs(np.asarray(df(grid), dtype=float))
    pad = 1e-7 * (1.0 + np.abs(vals).max())
    top, f_plus = _refined_extremum(f, grid, vals, want_max=True)
    if not f_plus < 0:
        raise DomainError(f"surface reaches the interface at t = {top:.6g}")
    f_plus += pad
    f_minus = _refined_extremum(f, grid, vals, want_max=False)[1] - pad
    lip = abs(_refined_extremum(lambda t: np.abs(np.asarray(df(t), dtype=float)),
                                grid, slopes, want_max=True)[1]) + pad
    return SurfaceProfile(f=f, df=df, d2f=d2f, f_plus=float(f_plus),
                          f_minus=float(f_minus), lipschitz_L=float(lip),
                          name=name)


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

    return from_callables(f, df, d2f, name="gamma1")


def _gamma2() -> SurfaceProfile:
    def f(t):
        return -1.0 + 0.0 * np.asarray(t, dtype=float)

    def zero(t):
        return 0.0 * np.asarray(t, dtype=float)

    return SurfaceProfile(f=f, df=zero, d2f=zero, f_plus=-1.0, f_minus=-1.0,
                          lipschitz_L=0.0, name="gamma2")


def _gamma3() -> SurfaceProfile:
    w = 0.3 * np.pi

    def f(t):
        return -1.0 + 0.16 * np.sin(w * t)

    def df(t):
        return 0.16 * w * np.cos(w * t)

    def d2f(t):
        return -0.16 * w * w * np.sin(w * t)

    return SurfaceProfile(f=f, df=df, d2f=d2f, f_plus=-0.84, f_minus=-1.16,
                          lipschitz_L=0.16 * w, name="gamma3")


_BUILTINS = {"gamma1": _gamma1, "gamma2": _gamma2, "gamma3": _gamma3}


def builtin(name: str) -> SurfaceProfile:
    """One of the example surfaces: gamma1 | gamma2 | gamma3."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise DomainError(f"unknown surface {name!r}; expected one of {sorted(_BUILTINS)}")
    return factory()
