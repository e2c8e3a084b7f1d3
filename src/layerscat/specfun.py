"""Bessel/Hankel functions and the branch-cut square roots of the spectral kernel.

Bessel functions J0, J1, Y0, Y1 are self-contained:

* z <= 5: ascending series,
      J0(z) = sum_m (-q)^m / (m!)^2,                       q = z^2/4,
      J1(z) = (z/2) sum_m (-q)^m / (m! (m+1)!),
      Y0(z) = (2/pi)[(ln(z/2) + gamma) J0(z) + sum_{m>=1} (-1)^{m+1} H_m q^m/(m!)^2],
      Y1(z) = (2/pi)(ln(z/2) + gamma) J1(z) - 2/(pi z)
              - (z/(2 pi)) sum_m (-q)^m (H_m + H_{m+1}) / (m! (m+1)!),
  with H_m the harmonic numbers.  The sums are well conditioned on [0, 5].
* z > 5: Hankel-type large-argument expansion
      J_n(z) = sqrt(2/(pi z)) [P cos(chi) - Q sin(chi)],   chi = z - n pi/2 - pi/4,
      Y_n(z) = sqrt(2/(pi z)) [P sin(chi) + Q cos(chi)],
  with P, Q evaluated from rational fits in 25/z^2 (Cephes tables; absolute
  error a few 1e-16 on [5, inf)).

Each public function computes the one order it returns, J and Y of that order
in one pass over z; hankel1 packs them, so its real and imaginary parts are
bit-for-bit bessel_j and bessel_y.  Every function rejects negative, NaN or
infinite z (and z = 0 where Y is needed) with DomainError, for scalars and
arrays alike.

The branch square roots follow the two cut conventions used by the layered
Green function: S1 cuts the plane along the positive imaginary axis
(argument range (-3pi/2, pi/2)), S2 along the negative imaginary axis
(argument range (-pi/2, 3pi/2)).  The vertical wavenumber is
S(z, a) = S1(z - a) S2(z + a); for real z it reduces to
    -i sqrt(a^2 - z^2)  for |z| <= a,   sqrt(z^2 - a^2)  otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015329

_SERIES_CUT = 5.0
_SERIES_TERMS = 24
_HARMONIC = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, _SERIES_TERMS + 3))))

_SQ2OPI = 0.7978845608028653558799  # sqrt(2/pi)

# Rational-fit coefficients for the large-argument P, Q of orders 0 and 1
# (Cephes Math Library, double precision; public-domain numerical tables).
_PP0 = [7.96936729297347051624e-4, 8.28352392107440799803e-2,
        1.23953371646414299388e0, 5.44725003058768775090e0,
        8.74716500199817011941e0, 5.30324038235394892183e0,
        9.99999999999999997821e-1]
_PQ0 = [9.24408810558863637013e-4, 8.56288474354474431428e-2,
        1.25352743901058953537e0, 5.47097740330417105182e0,
        8.76190883237069594232e0, 5.30605288235394617618e0,
        1.00000000000000000218e0]
_QP0 = [-1.13663838898469149931e-2, -1.28252718670509318512e0,
        -1.95539544257735972385e1, -9.32060152123768231369e1,
        -1.77681167980488050595e2, -1.47077505154951170175e2,
        -5.14105326766599330220e1, -6.05014350600728481186e0]
_QQ0 = [6.43178256118178023184e1, 8.56430025976980587198e2,
        3.88240183605401609683e3, 7.24046774195652478189e3,
        5.93072701187316984827e3, 2.06209331660327847417e3,
        2.42005740240291393179e2]  # leading 1 implicit

_PP1 = [7.62125616208173112003e-4, 7.31397056940917570436e-2,
        1.12719608129684925192e0, 5.11207951146807644818e0,
        8.42404590141772420927e0, 5.21451598682361504063e0,
        1.00000000000000000254e0]
_PQ1 = [5.71323128072548699714e-4, 6.88455908754495404082e-2,
        1.10514232634061696926e0, 5.07386386128601488557e0,
        8.39985554327604159757e0, 5.20982848682361821619e0,
        9.99999999999999997461e-1]
_QP1 = [5.10862594750176621635e-2, 4.98213872951233449420e0,
        7.58238284132545283818e1, 3.66779609360150777800e2,
        7.10856304998926107277e2, 5.97489612400613639965e2,
        2.11688757100572135698e2, 2.52070205858023719784e1]
_QQ1 = [7.42373277035675149943e1, 1.05644886038262816351e3,
        4.98641058337653607651e3, 9.56231892404756170795e3,
        7.99704160447350683650e3, 2.82619278517639096600e3,
        3.36093607810698293419e2]  # leading 1 implicit


def _polevl(x, coef):
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _series_block(z, order):
    """J_order, Y_order by ascending series on 0 <= z <= 5 (Y at z=0 -> -inf)."""
    q = 0.25 * z * z
    term = np.ones_like(z)
    if order == 0:
        j = np.ones_like(z)
        ys = np.zeros_like(z)
        for m in range(1, _SERIES_TERMS + 1):
            term = term * (-q) / (m * m)
            j = j + term
            ys = ys - term * _HARMONIC[m]
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.log(0.5 * z) + EULER_GAMMA
            y = (2.0 / np.pi) * (lg * j + ys)
        return j, y
    js = np.ones_like(z)
    ys = np.full_like(z, _HARMONIC[1])
    for m in range(1, _SERIES_TERMS + 1):
        term = term * (-q) / (m * (m + 1))
        js = js + term
        ys = ys + term * (_HARMONIC[m] + _HARMONIC[m + 1])
    j = 0.5 * z * js
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log(0.5 * z) + EULER_GAMMA
        y = (2.0 / np.pi) * lg * j - (2.0 / np.pi) / z - (z / (2.0 * np.pi)) * ys
    return j, y


def _asymptotic_block(z, order):
    """J_order, Y_order from the rational Hankel expansion on z > 5."""
    w = 5.0 / z
    u = w * w
    if order == 0:
        p = _polevl(u, _PP0) / _polevl(u, _PQ0)
        q = _polevl(u, _QP0) / _p1evl(u, _QQ0)
        xn = z - 0.25 * np.pi
    else:
        p = _polevl(u, _PP1) / _polevl(u, _PQ1)
        q = _polevl(u, _QP1) / _p1evl(u, _QQ1)
        xn = z - 0.75 * np.pi
    c, s = np.cos(xn), np.sin(xn)
    amp = _SQ2OPI / np.sqrt(z)
    jn = amp * (p * c - w * q * s)
    yn = amp * (p * s + w * q * c)
    return jn, yn


def _bessel_jy(name, order, z, positive):
    """(J_order, Y_order) at z, both of z's shape, after the checks every
    public function shares: order 0 or 1, z finite and z >= 0 (z > 0 when
    positive, for callers that need Y with its log singularity at 0)."""
    if order not in (0, 1):
        raise DomainError(f"{name} supports orders 0 and 1, got {order}")
    arr = np.asarray(z, dtype=float)
    bad = (arr <= 0) if positive else (arr < 0)
    if np.any(bad) or not np.all(np.isfinite(arr)):
        bound = "z > 0" if positive else "z >= 0"
        raise DomainError(f"{name} requires finite {bound} at every point")
    flat = np.atleast_1d(arr)
    j = np.empty_like(flat)
    y = np.empty_like(flat)
    small = flat <= _SERIES_CUT
    if small.any():
        j[small], y[small] = _series_block(flat[small], order)
    big = ~small
    if big.any():
        j[big], y[big] = _asymptotic_block(flat[big], order)
    return j.reshape(arr.shape), y.reshape(arr.shape)


def bessel_j(order: int, z):
    """Bessel function J_order (order 0 or 1) for real z >= 0."""
    j, _ = _bessel_jy("bessel_j", order, z, positive=False)
    return float(j) if j.ndim == 0 else j


def bessel_y(order: int, z):
    """Bessel function Y_order (order 0 or 1) for real z > 0."""
    _, y = _bessel_jy("bessel_y", order, z, positive=True)
    return float(y) if y.ndim == 0 else y


def hankel1(order: int, z):
    """Hankel function of the first kind, H^1_order = J_order + i Y_order, z > 0.

    The real and imaginary parts are exactly bessel_j(order, z) and
    bessel_y(order, z): one pass gives both, so callers that need J and H
    take J as the real part.
    """
    j, y = _bessel_jy("hankel1", order, z, positive=True)
    res = np.empty(j.shape, dtype=complex)
    res.real = j
    res.imag = y
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


def sqrt_branch1(z):
    """sqrt on the branch with argument in (-3pi/2, pi/2); S1(0) = 0."""
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("sqrt_branch1 requires finite input")
    res = _branch_sqrt(arr, upper_cut=True)
    return complex(res) if arr.ndim == 0 else res


def sqrt_branch2(z):
    """sqrt on the branch with argument in (-pi/2, 3pi/2); S2(0) = 0."""
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("sqrt_branch2 requires finite input")
    res = _branch_sqrt(arr, upper_cut=False)
    return complex(res) if arr.ndim == 0 else res


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
