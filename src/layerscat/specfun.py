"""Hankel functions and the branch-cut square roots of the spectral kernel.

hankel1 packs J and Y of order 0 or 1 from scipy.special.j0/j1/y0/y1 (the
Cephes algorithms as compiled ufuncs), imported on first use so that
importing the package does not load scipy.special.  It rejects an order
other than 0 or 1, and z <= 0, NaN or infinite z, with DomainError, for
scalars and arrays alike.

The branch square roots (_branch_sqrt) follow the two cut conventions used
by the layered Green function: S1 cuts the plane along the positive
imaginary axis (argument range (-3pi/2, pi/2)), S2 along the negative
imaginary axis (argument range (-pi/2, 3pi/2)).  The vertical wavenumber is
S(z, a) = S1(z - a) S2(z + a); for real z it reduces to
    -i sqrt(a^2 - z^2)  for |z| <= a,   sqrt(z^2 - a^2)  otherwise.
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


_RAY_TOL = 1e-14


def _branch_sqrt(z, upper_cut: bool):
    """Square root with the cut along the positive (upper) or negative
    imaginary axis; argument ranges (-3pi/2, pi/2) resp. (-pi/2, 3pi/2).

    Points within 1e-14 (relative) of the cut are nudged off it toward the
    side given by the sign of Re(z) (+ side when Re(z) == 0), since
    quadrature nodes can land on the cut by rounding.
    """
    z = np.asarray(z, dtype=complex)
    scale = 1.0 + np.abs(z)
    im_sign = z.imag > 0 if upper_cut else z.imag < 0
    near = (np.abs(z.real) <= _RAY_TOL * scale) & im_sign & (z != 0)
    if np.any(near):
        z = z.copy()
        side = np.where(z.real >= 0.0, 1.0, -1.0)
        z.real = np.where(near, side * 2 * _RAY_TOL * scale, z.real)
    th = np.angle(z)
    if upper_cut:
        th = np.where(th > np.pi / 2, th - 2 * np.pi, th)
    else:
        th = np.where(th <= -np.pi / 2, th + 2 * np.pi, th)
    return np.sqrt(np.abs(z)) * np.exp(0.5j * th)


def vertical_wavenumber(z, a: float):
    """S(z, a) = S1(z - a) S2(z + a), the vertical wavenumber of the medium.

    Real z is evaluated by the piecewise real formula (exact reduction):
    -i sqrt(a^2 - z^2) for |z| <= a, else sqrt(z^2 - a^2).
    """
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"vertical_wavenumber requires a > 0, got {a}")
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("vertical_wavenumber requires finite input")
    res = np.empty(arr.shape if arr.ndim else (1,), dtype=complex)
    flat = np.atleast_1d(arr)
    real = flat.imag == 0.0
    if real.any():
        x = flat.real[real]
        inside = np.abs(x) <= a
        rr = np.where(inside,
                      -1j * np.sqrt(np.maximum(a * a - x * x, 0.0)),
                      np.sqrt(np.maximum(x * x - a * a, 0.0)) + 0j)
        res[real.reshape(res.shape)] = rr
    cplx = ~real
    if cplx.any():
        w = flat[cplx]
        res[cplx.reshape(res.shape)] = (_branch_sqrt(w - a, upper_cut=True)
                                        * _branch_sqrt(w + a, upper_cut=False))
    return complex(res[0]) if arr.ndim == 0 else res.reshape(arr.shape)


def critical_angle(k_plus: float, k_minus: float) -> float:
    """Critical angle of the two-media pair: arccos(n) if k_plus > k_minus,
    arccos(1/n) otherwise, with n = k_minus / k_plus."""
    if not (k_plus > 0 and k_minus > 0):
        raise DomainError("wavenumbers must be positive")
    if k_plus == k_minus:
        raise DomainError("critical angle undefined for equal wavenumbers")
    n = k_minus / k_plus
    return math.acos(n) if k_plus > k_minus else math.acos(1.0 / n)
