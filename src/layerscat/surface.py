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


def refine_min(fn, lo, hi, rounds):
    """(t*, fn(t*)) at the least of fn on each bracket [lo_i, hi_i] (arrays
    or floats); fn maps samples t (m, n) and each row's bracket i to values.
    Round k takes rounds[k] samples per candidate: the first keeps each local
    minimum its larger rise could carry below the least sample (all, if one
    is NaN), the next brackets each candidate's least by its neighbours.
    fn(t*) is NaN on a bracket where fn was not finite at some sample."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    own, finite = np.arange(lo.size), np.ones(lo.size, dtype=bool)
    for k, n in enumerate(rounds):
        t = lo[:, None] + np.multiply.outer(hi - lo, np.arange(n) / (n - 1))
        v = np.asarray(fn(t, own), dtype=float)
        finite[own[~np.isfinite(v).all(axis=1)]] = False
        r, j = np.arange(own.size), v.argmin(axis=1)
        if k == 0:
            d = np.full((2,) + v.shape, np.nan)     # rises to the neighbours
            d[0, :, 1:], d[1, :, :-1] = v[:, :-1] - v[:, 1:], v[:, 1:] - v[:, :-1]
            near = ~(d[0] <= 0) & ~(d[1] < 0) & ~(v - np.fmax(*d) > v[r, j][:, None])
            r, j = np.nonzero(near)
            own = own[r]
        lo, hi = t[r, np.maximum(j - 1, 0)], t[r, np.minimum(j + 1, n - 1)]
    best = np.lexsort((v[r, j], own))[np.diff(own, prepend=-1) != 0]  # own ascends
    return t[r, j][best], np.where(finite, v[r, j][best], np.nan)


#: the example surfaces, as expressions
_BUILTINS = {"gamma1": "-1+0.3*sin(0.7*pi*t)*exp(-0.4*t*t)",   # localized bump
             "gamma2": "-1",                                   # flat plane
             "gamma3": "-1+0.16*sin(0.3*pi*t)"}                # periodic


def builtin(name: str) -> Expression:
    """One of the example surfaces, gamma1 | gamma2 | gamma3, parsed."""
    if name not in _BUILTINS:
        raise DomainError(f"unknown surface {name!r}; expected one of {sorted(_BUILTINS)}")
    return parse_expression(_BUILTINS[name])
