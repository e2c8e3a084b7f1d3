"""Spectral-domain integrals of the two-layered Helmholtz kernel.

Every integral handled here has the form

    I(u) = (1/2pi) integral_R  g(xi) f(xi) e^{i xi u} d xi,
    g(xi) = E(xi; x2, y2) / (S(xi,k+) + S(xi,k-)),

where E is one of four exponential factors (one per sign pattern of x2, y2),
f is 1 or a derivative factor (+-i xi, or an S factor), and g is even in xi
on the real axis.  The integrand has square-root branch points at +-k1, +-k2
(kinks; the denominator never vanishes on the real axis) and decays like
e^{-Re S * v} with a case-dependent vertical separation v >= 0.

Evaluation strategy: composite Gauss-Legendre panels on [0, inf) folded via
e^{i xi u} + sigma e^{-i xi u}, with substitutions that erase the kinks,

    [0, k1]   xi = k1 sin(phi),
    [k1, k2]  xi = mid - halfwidth cos(phi),
    [k2, T0]  xi = sqrt(k2^2 + w^2),

plus, beyond T0, ray tails rotated by +-pi/4 into the quadrant where both the
oscillatory factor and the vertical decay are exponentially damped (the cuts
hang upward from +k1, +k2, so both rotated quadrants are cut-free).

Panel counts follow the accumulated phase xi*u and decay xi*v so that each
16-point panel sees about one oscillation.  A second pass with doubled panel
density provides the error estimate.
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError, DomainError
from .specfun import vertical_wavenumber

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: exponent coefficients per case: E = exp(cx2 * S? * x2 + cy2 * S? * y2)
#: case -> (x2 uses S_plus?, x2 sign, y2 uses S_plus?, y2 sign)
_CASES = {
    1: (True, -1.0, True, -1.0),    # x2>=0, y2>=0: exp(-S+ (x2+y2))
    2: (True, -1.0, False, +1.0),   # x2>=0, y2<=0: exp(S- y2 - S+ x2)
    3: (False, +1.0, True, -1.0),   # x2<=0, y2>=0: exp(-S+ y2 + S- x2)
    4: (False, +1.0, False, +1.0),  # x2<=0, y2<=0: exp(S- (x2+y2))
}

#: elements per block of the (node, rule point) temporaries in field_batch
_FIELD_BLOCK = 500_000

#: derivative factors; sigma = +1 keeps the even fold 2cos, -1 the odd 2i sin
_MODE_SIGMA = {"val": 1.0, "dx1": -1.0, "dy1": -1.0, "dx2": 1.0, "dy2": 1.0}


def _mode_factor(mode, xi, sp, sm, case):
    if mode == "val":
        return 1.0
    if mode == "dx1":
        return 1j * xi
    if mode == "dy1":
        return -1j * xi
    xp_plus, xsgn, yp_plus, ysgn = _CASES[case]
    if mode == "dx2":
        return xsgn * (sp if xp_plus else sm)
    if mode == "dy2":
        return ysgn * (sp if yp_plus else sm)
    raise DomainError(f"unknown mode {mode!r}")


class _Kernel:
    """g(xi) for one (medium, case, x2, y2); xi real or complex arrays."""

    def __init__(self, k_plus, k_minus, case, x2, y2):
        self.kp, self.km, self.case = k_plus, k_minus, case
        self.x2, self.y2 = x2, y2

    def splus_sminus(self, xi):
        return (vertical_wavenumber(xi, self.kp),
                vertical_wavenumber(xi, self.km))

    def g(self, xi, sp, sm):
        xp_plus, xsgn, yp_plus, ysgn = _CASES[self.case]
        ex = xsgn * (sp if xp_plus else sm) * self.x2 \
            + ysgn * (sp if yp_plus else sm) * self.y2
        return np.exp(ex) / (sp + sm)

    @property
    def v_decay(self):
        """Asymptotic vertical decay coefficient (E ~ e^{-xi v})."""
        return abs(self.x2) + abs(self.y2) if self.case in (2, 3) \
            else abs(self.x2 + self.y2)


def _panel_nodes(edges):
    """Gauss-Legendre nodes/weights on consecutive panels [edges[i], edges[i+1]]."""
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    half = 0.5 * (b - a)
    x = (0.5 * (a + b) + half * _GL_NODES).ravel()
    w = (half * _GL_WEIGHTS).ravel()
    return x, w


def _head_segments(k1, k2, u_abs, v, w0, refine):
    """Real-axis nodes/weights on [0, T0] in kink-removing coordinates."""
    xs, ws = [], []

    def add(count, lo, hi, to_xi, dxi):
        count = int(min(max(count, 3) * refine, 4000))
        p, wp = _panel_nodes(np.linspace(lo, hi, count + 1))
        xs.append(to_xi(p))
        ws.append(wp * dxi(p))

    phase = u_abs / (2 * np.pi)
    add(np.ceil(k1 * phase + 0.15 * k1 * v), 0.0, 0.5 * np.pi,
        lambda p: k1 * np.sin(p), lambda p: k1 * np.cos(p))
    mid, c = 0.5 * (k1 + k2), 0.5 * (k2 - k1)
    add(np.ceil(2 * c * phase + 0.3 * c * v), 0.0, np.pi,
        lambda p: mid - c * np.cos(p), lambda p: c * np.sin(p))
    ximax = np.hypot(k2, w0)
    add(np.ceil((ximax - k2) * phase + 0.2 * w0 * v), 0.0, w0,
        lambda p: np.sqrt(k2 * k2 + p * p), lambda p: p / np.sqrt(k2 * k2 + p * p))
    return np.concatenate(xs), np.concatenate(ws), ximax


def _ray_tail(kern, modes, t0, u, coeff, v, refine, tol):
    """integral_{T0}^{inf} g f e^{i xi u} d xi, rotated by sign(u) * pi/4.

    coeff scales the contribution (1 or sigma).  Returns dict mode -> value.
    """
    theta = 0.25 * np.pi if u >= 0 else -0.25 * np.pi
    rot = np.exp(1j * theta)
    rate = (abs(u) + v) / np.sqrt(2.0)
    # panel lengths: bounded by the oscillation/decay scale and, for the
    # slowly decaying algebraic part, by the distance from the origin
    # (log-spaced panels keep the endpoint ratio small for 1/xi integrands)
    def cap(pos):
        return min(2 * np.pi / max(rate, 1e-30), 0.6 * (t0 + pos)) / refine

    acc = {m: 0.0 + 0.0j for m in modes}
    pos = 0.0
    length = cap(0.0)
    quiet = 0
    for _ in range(int(400 * refine)):
        p, wp = _panel_nodes(np.linspace(pos, pos + length, 2))
        xi = t0 + rot * p
        sp, sm = kern.splus_sminus(xi)
        base = kern.g(xi, sp, sm) * np.exp(1j * xi * u) * (rot * wp)
        mag = 0.0
        for m in modes:
            contrib = coeff * np.sum(base * _mode_factor(m, xi, sp, sm, kern.case))
            acc[m] += contrib
            mag = max(mag, abs(contrib))
        pos += length
        length = min(1.35 * length, cap(pos))
        # two consecutive negligible panels, so an oscillation zero cannot
        # truncate the tail early
        quiet = quiet + 1 if mag < 0.02 * tol else 0
        if quiet >= 2:
            return acc
    raise AccuracyError("ray tail did not converge", estimate=mag)


def _spectral_once(kern, u, modes, tol, refine):
    k1, k2 = sorted((kern.kp, kern.km))
    v = kern.v_decay
    w0 = max(1.0, min(k2 + 1.0, 60.0 / max(v, 1e-2)))
    xi, w, t0 = _head_segments(k1, k2, abs(u), v, w0, refine)
    sp, sm = kern.splus_sminus(xi)
    g = kern.g(xi, sp, sm)
    eplus = np.exp(1j * xi * u)
    eminus = np.exp(-1j * xi * u)
    out = {}
    for m in modes:
        sigma = _MODE_SIGMA[m]
        fm = _mode_factor(m, xi, sp, sm, kern.case)
        out[m] = np.sum(w * g * fm * (eplus + sigma * eminus))
    tail_p = _ray_tail(kern, modes, t0, u, 1.0, v, refine, tol)
    tail_m = _ray_tail(kern, modes, t0, -u, 1.0, v, refine, tol)
    for m in modes:
        out[m] = (out[m] + tail_p[m] + _MODE_SIGMA[m] * tail_m[m]) / (2 * np.pi)
    return out


def spectral_point(k_plus, k_minus, case, x2, y2, u, modes=("val",),
                   tol=1e-10, check=True):
    """Spectral integral(s) for one source/target pair.

    Returns (values, estimate): dict mode -> complex, and the difference
    between two panel refinements (0.0 when check=False).  Raises
    AccuracyError if the estimate exceeds tol.
    """
    kern = _Kernel(k_plus, k_minus, case, x2, y2)
    fine = _spectral_once(kern, u, modes, tol, refine=2)
    if not check:
        return fine, 0.0
    coarse = _spectral_once(kern, u, modes, tol, refine=1)
    est = max(abs(fine[m] - coarse[m]) for m in modes)
    if est > tol:
        raise AccuracyError("spectral integral did not reach tolerance", estimate=est)
    return fine, est


def real_axis_rule(k_plus, k_minus, u_max, v_min, refine=1):
    """Shared positive-axis rule (xi, w) for families of integrals with
    oscillation up to u_max and vertical decay at least v_min > 0.

    The caller folds with e^{i xi u} + sigma e^{-i xi u} and applies 1/(2pi).
    """
    if v_min <= 0.02:
        raise DomainError("real_axis_rule requires vertical decay v_min > 0.02")
    k1, k2 = sorted((k_plus, k_minus))
    w0 = 38.0 / v_min + 1.0
    xi, w, _ = _head_segments(k1, k2, u_max, v_min, w0, refine)
    return xi, w


def remainder_matrices(k_plus, k_minus, t_nodes, f_vals, s_nodes=None,
                       fs_vals=None, refine=1):
    """Pairwise layer-response integrals between surface point sets.

    Returns (I4, dI4_dy1, dI4_dy2), dense complex arrays with

        I4[i, j] = (1/2pi) int_R  e^{S-(xi)(fs_i + f_j)} / (S+ + S-)
                   e^{i xi (s_i - t_j)} d xi,

    i.e. the smooth layer part of G between target points x_i = (s_i, fs_i)
    and source points y_j = (t_j, f_j), evaluated through one shared rule and
    rank-factorized exponentials (the integrand separates as products of
    per-node factors).  When s_nodes is omitted the target set equals the
    source set and the symmetric fast path is used.
    """
    t = np.asarray(t_nodes, dtype=float)
    f = np.asarray(f_vals, dtype=float)
    symmetric = s_nodes is None
    s = t if symmetric else np.asarray(s_nodes, dtype=float)
    fs = f if symmetric else np.asarray(fs_vals, dtype=float)
    if np.any(f >= 0) or np.any(fs >= 0):
        raise DomainError("surface nodes must lie strictly below the interface")
    allt = np.concatenate([s, t])
    u_max = float(allt.max() - allt.min()) if allt.size > 1 else 1.0
    v_min = float(-fs.max() - f.max())
    xi, w = real_axis_rule(k_plus, k_minus, max(u_max, 0.1), v_min, refine=refine)
    sp = vertical_wavenumber(xi, k_plus)
    sm = vertical_wavenumber(xi, k_minus)
    base = w / (sp + sm) / (2 * np.pi)
    i4 = np.zeros((s.size, t.size), dtype=complex)
    g1 = np.zeros_like(i4)
    g2 = np.zeros_like(i4)
    blk = max(1, int(4e6 // max(s.size + t.size, 1)))
    for lo in range(0, xi.size, blk):
        sl = slice(lo, lo + blk)
        rowp = np.exp(sm[sl] * fs[:, None] + 1j * xi[sl] * s[:, None])  # (ns, q)
        colp = np.exp(sm[sl] * f[:, None] - 1j * xi[sl] * t[:, None])   # (nt, q)
        i4 += (rowp * base[sl]) @ colp.T
        g1 += (rowp * (base[sl] * (-1j) * xi[sl])) @ colp.T
        g2 += (rowp * (base[sl] * sm[sl])) @ colp.T
        if not symmetric:
            rowm = np.exp(sm[sl] * fs[:, None] - 1j * xi[sl] * s[:, None])
            colm = np.exp(sm[sl] * f[:, None] + 1j * xi[sl] * t[:, None])
            i4 += (rowm * base[sl]) @ colm.T
            g1 += (rowm * (base[sl] * 1j * xi[sl])) @ colm.T
            g2 += (rowm * (base[sl] * sm[sl])) @ colm.T
    if symmetric:
        i4 = i4 + i4.T
        g1 = g1 - g1.T
        g2 = g2 + g2.T
    return i4, g1, g2


def field_batch(k_plus, k_minus, x, t_nodes, f_vals, modes=("val",), refine=1):
    """G-kernel spectral parts between one point x and all surface nodes.

    For x2 >= 0 this is the whole transmitted-kernel integral (case 2); for
    x2 < 0 it is the layer-response part I4 (case 4) to which the caller adds
    the closed-form image terms.  Returns dict mode -> (M,) complex.
    """
    x1, x2 = float(x[0]), float(x[1])
    t = np.asarray(t_nodes, dtype=float)
    f = np.asarray(f_vals, dtype=float)
    if np.any(f >= 0):
        raise DomainError("surface nodes must lie strictly below the interface")
    case = 2 if x2 >= 0 else 4
    v_min = (x2 - f.max()) if case == 2 else -(x2 + f.max())
    u_max = float(np.abs(x1 - t).max()) if t.size else 1.0
    xi, w = real_axis_rule(k_plus, k_minus, u_max, v_min, refine=refine)
    sp = vertical_wavenumber(xi, k_plus)
    sm = vertical_wavenumber(xi, k_minus)
    xfac = np.exp(-sp * x2) if case == 2 else np.exp(sm * x2)
    base = w * xfac / (sp + sm) / (2 * np.pi)
    out = {m: np.zeros(t.size, dtype=complex) for m in modes}
    # blocks of at most _FIELD_BLOCK (node, rule point) pairs: each complex
    # temporary below then stays under 8 MB
    blk = max(1, _FIELD_BLOCK // max(t.size, 1))
    for lo in range(0, xi.size, blk):
        sl = slice(lo, lo + blk)
        col = np.exp(sm[sl] * f[:, None])                  # (m, q)
        ph = xi[sl] * (x1 - t[:, None])                    # (m, q)
        ecos = 2.0 * np.cos(ph)
        esin = 2j * np.sin(ph)
        for mo in modes:
            fm = _mode_factor(mo, xi[sl], sp[sl], sm[sl], case)
            fold = ecos if _MODE_SIGMA[mo] > 0 else esin
            out[mo] += np.sum(col * (base[sl] * fm) * fold, axis=1)
    return out
