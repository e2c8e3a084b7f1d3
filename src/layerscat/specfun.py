"""Hankel functions and the vertical wavenumber of the spectral kernel.

hankel1 packs J and Y of order 0 or 1 from scipy.special.j0/j1/y0/y1 (the
Cephes algorithms as compiled ufuncs), imported on first use so that
importing the package does not load scipy.special.  It rejects an order
other than 0 or 1, and z <= 0, NaN or infinite z, with DomainError, for
scalars and arrays alike.

The vertical wavenumber S(z, a) = sqrt(z^2 - a^2) is taken on the sheet
where the spectral integrand decays (Re S >= 0, Im S <= 0 on the real
axis): for real z
    -i sqrt(a^2 - z^2)  for |z| <= a,   sqrt(z^2 - a^2)  otherwise,
and for complex z only where Re(z^2 - a^2) > 0, where the principal root
is that sheet (Michalski & Mosig, IEEE TAP 45(3), 1997).  The program's
complex arguments lie on sommerfeld's ray tails, beyond both branch points,
where Re(z^2 - a^2) >= 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015329


def hankel1(order: int, z):
    """Hankel function of the first kind, H^1_order = J_order + i Y_order,
    for order 0 or 1 and finite z > 0 at every point.

    One pass gives J and Y of the order, so callers that need J and H take
    J as the real part.
    """
    if order not in (0, 1):
        raise DomainError(f"hankel1 supports orders 0 and 1, got {order}")
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("hankel1 requires finite z > 0 at every point")
    from scipy import special
    j, y = (special.j0, special.y0) if order == 0 else (special.j1, special.y1)
    res = np.empty(arr.shape, dtype=complex)
    res.real = j(arr)
    res.imag = y(arr)
    return complex(res) if res.ndim == 0 else res


def vertical_wavenumber(z, a: float):
    """S(z, a) = sqrt(z^2 - a^2) on its decaying sheet.

    Real z: -i sqrt(a^2 - z^2) for |z| <= a, else sqrt(z^2 - a^2).  Complex
    z: the principal root, which is that sheet where Re(z^2 - a^2) > 0 (the
    ray tails of sommerfeld); elsewhere DomainError.
    """
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"vertical_wavenumber requires a finite a > 0, got {a}")
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        raise DomainError("vertical_wavenumber requires finite input")
    if np.iscomplexobj(z):
        d = z * z - a * a
        if not np.all(d.real > 0):
            raise DomainError("vertical_wavenumber takes complex z only "
                              "where Re(z^2 - a^2) > 0")
        s = np.sqrt(d)
    else:
        x = z.astype(float)
        s = np.where(np.abs(x) <= a,
                     -1j * np.sqrt(np.maximum(a * a - x * x, 0.0)),
                     np.sqrt(np.maximum(x * x - a * a, 0.0)) + 0j)
    return complex(s) if s.ndim == 0 else s
