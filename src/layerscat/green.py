"""Two-layered Green function, reference and incident fields, Fresnel coefficients.

The Green function of the two-media Helmholtz problem (wavenumber k+ above
the interface x2 = 0, k- below, transmission conditions across it) is
evaluated from its spectral representation.  With

    I = (1/2pi) int E(xi)/(S+ + S-) e^{i xi (x1-y1)} d xi,  E = e^{sx x2 + sy y2},

each end's slope s being -S+ at or above the interface (z >= 0) and S-
below it, G = I for ends on opposite sides, and for ends on one side, of
wavenumber k, G = Phi_k(x, y) - Phi_k(x, y') + I, where y' = (y1, -y2) is
the mirror point and Phi_k(x,y) = (i/4) H1_0(k|x-y|).  The smooth
remainder R = G - Phi_{k-} below the interface is then -Phi_{k-}(x, y') + I.

The pointwise path, _green_terms (green, and the fallback of the batch),
evaluates I by sommerfeld.spectral_point and, for ends on one side, adds the
Hankel terms of _free_terms: G, or with grad [G, dG/dy1, dG/dy2].
On point sets sommerfeld.remainder_matrices integrates R whole, with the
mirror term subtracted inside the integral, and G above the interface;
green_surface_batch adds only the direct term Phi_{k-}(x, y) below it
(_add_direct).  It gives G or the layer sum a G + b (f' dG/dy1 - dG/dy2) of
a normal at the sources, never (dy1, dy2); given weights at the sources,
either one applied to them, through one rule for both sides.  It serves
point-source data (incident_field), field evaluation and Green tables;
nystrom.assemble calls remainder_matrices directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sommerfeld
from .errors import AccuracyError, DomainError, SingularityError
from .specfun import hankel1, vertical_wavenumber

_SING_DIST = 1e-12


@dataclass(frozen=True)
class MediumPair:
    """Wavenumbers of the two half-planes: k_plus for x2 > 0, k_minus for x2 < 0."""

    k_plus: float
    k_minus: float

    def __post_init__(self):
        if not (self.k_plus > 0 and self.k_minus > 0
                and math.isfinite(self.k_plus) and math.isfinite(self.k_minus)):
            raise DomainError("wavenumbers must be positive and finite")
        if self.k_plus == self.k_minus:
            raise DomainError("two-layered medium requires k_plus != k_minus")

    @property
    def n(self) -> float:
        return self.k_minus / self.k_plus


def _points(x):
    """Coordinate arrays (x1, x2) of one point or a pair of coordinate arrays."""
    x1, x2 = np.broadcast_arrays(np.asarray(x[0], dtype=float),
                                 np.asarray(x[1], dtype=float))
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise DomainError(f"point has non-finite components: {x!r}")
    return x1, x2


def _pt(x):
    x1, x2 = _points(x)
    return float(x1), float(x2)


def _phi_terms(k, d1, d2, grad):
    """Phi_k = (i/4) H1_0(k r) at r = |(d1, d2)| and, with grad set, the
    factor (i/4) k H1_1(k r) / r (None otherwise), with which
    d Phi_k / d d1 = -factor d1 and d Phi_k / d d2 = -factor d2."""
    r = np.hypot(d1, d2)
    if np.min(r) < _SING_DIST:
        raise SingularityError("free-space kernel evaluated at coincident points")
    z = k * r
    val = hankel1(0, z)
    val *= 0.25j
    if not grad:
        return val, None
    fac = hankel1(1, z)
    fac *= 0.25j * k
    fac /= r
    return val, fac


def _free_terms(k, d1, x2, y2, grad, direct):
    """Closed-form Hankel terms of G within one layer of wavenumber k.

    Returns [val], or with grad [val, dy1, dy2], of the mirror term
    -Phi_k(x, y'), y' = (y1, -y2), plus, with direct set, the direct term
    Phi_k(x, y).  d1 = x1 - y1, x2 and y2 are scalars.
    """
    w = x2 + y2
    val, fac = _phi_terms(k, d1, w, grad)
    terms = [-val, -fac * d1, fac * w] if grad else [-val]
    if direct:
        dz = x2 - y2
        phi, fac = _phi_terms(k, d1, dz, grad)
        terms[0] += phi
        if grad:
            terms[1] += fac * d1
            terms[2] += fac * dz
    return terms


#: elements per temporary of the direct term in green_surface_batch
_DIRECT_BLOCK = 1 << 16


def _add_direct(out, rows, k, s, fs, t, f, normal, weights=None):
    """Add Phi_k(x_i, y_j), or with normal = (a, b, f') its layer sum, to
    out[i], i in rows, for targets x_i = (s_i, fs_i) and sources y_j = (t_j,
    f_j), in blocks of at most _DIRECT_BLOCK elements applied to weights when
    given; the order-1 Hankel pass runs only with a normal."""
    step = max(1, _DIRECT_BLOCK // t.size)
    for lo in range(0, rows.size, step):
        idx = rows[lo:lo + step]
        d1 = s[idx, None] - t
        d2 = fs[idx, None] - f
        phi, fac = _phi_terms(k, d1, d2, normal is not None)
        if normal is not None:
            phi = sommerfeld._normal_sum(phi, fac * d1, fac * d2, *normal)
        out[idx] += phi if weights is None else phi @ weights


def _green_terms(medium, x, y, grad, tol, direct=True):
    """G (direct set) or R = G - Phi(x, y) at one pair, as the array [G] or
    with grad [G, dG/dy1, dG/dy2], two-pass checked to tol."""
    x1, x2 = _pt(x)
    y1, y2 = _pt(y)
    if direct and math.hypot(x1 - y1, x2 - y2) < _SING_DIST:
        raise SingularityError("two-layered Green function at coincident points")
    terms = sommerfeld.spectral_point(medium.k_plus, medium.k_minus, x2, y2,
                                      x1 - y1, grad, tol)
    if (x2 >= 0) == (y2 >= 0):      # one side: its free-space parts
        k = medium.k_plus if x2 >= 0 else medium.k_minus
        terms = terms + np.array(_free_terms(k, x1 - y1, x2, y2, grad, direct))
    return terms


def green(medium: MediumPair, x, y, tol: float = 1e-10) -> complex:
    """Two-layered Green function G(x, y)."""
    return _green_terms(medium, x, y, False, tol)[0]


def green_surface_batch(medium: MediumPair, x, t_nodes, f_vals,
                        normal=None, check: bool = False, weights=None):
    """G(x, y_j), or with normal = (a, b, f') at the sources the layer sum
    a G + b (f' dG/dy1 - dG/dy2) = a G + b J dG/dnu(y), for sources
    y_j = (t_j, f_j) below the interface and a target x = (x1, x2), one
    point or coordinate arrays: a complex array of shape x1.shape + (n,),
    or of x1.shape, applied to the weights w_j at the sources if given.

    Each side of the interface (x2 >= 0, x2 < 0) takes one
    sommerfeld.remainder_matrices call (G above, R below), or with weights
    all targets take one rule; _add_direct adds Phi_{k-}(x, y) below.  With
    check set, values come from the doubled rule (refine=2), and
    AccuracyError is raised when they differ from the single rule by more
    than 1e-10 max(1, max|value|), green()'s two-pass test scaled to the
    sum.  When the shared rule refuses a call (targets hugging the
    interface, or a rule that would need too many panels), its pairs take
    the pointwise fallback, _green_terms.  As G is symmetric, G(y_j, x) and
    nabla_x G(y, x) at y = y_j are the same arrays: point-source data at x.
    """
    x1, x2 = _points(x)
    t = np.asarray(t_nodes, dtype=float)
    f = np.asarray(f_vals, dtype=float)
    if np.any(f >= 0):
        raise DomainError("sources must lie strictly below the interface")
    s, fs = x1.ravel(), x2.ravel()
    below = fs < 0
    out = np.empty(s.shape + (t.shape if weights is None else ()), complex)

    def shared(idx, refine):
        return sommerfeld.remainder_matrices(
            medium.k_plus, medium.k_minus, t, f, s_nodes=s[idx],
            fs_vals=fs[idx], refine=refine, normal=normal, weights=weights)

    sides = (np.flatnonzero(~below), np.flatnonzero(below))
    for idx in sides if weights is None else (np.arange(s.size),):
        if idx.size == 0:
            continue
        try:
            part = shared(idx, 2 if check else 1)
            if check:
                est = float(np.abs(part - shared(idx, 1)).max(initial=0.0))
                if not est <= 1e-10 * max(1.0, np.abs(part).max()):
                    raise AccuracyError("shared spectral rule did not reach "
                                        "tolerance", estimate=est)
        except DomainError:
            part = np.moveaxis(np.array([[_green_terms(
                medium, (s[i], fs[i]), (t[j], f[j]), normal is not None,
                1e-10, direct=False) for j in range(t.size)] for i in idx]),
                -1, 0)
            part = part[0] if normal is None else sommerfeld._normal_sum(*part, *normal)
            part = part if weights is None else part @ weights
        out[idx] = part
    _add_direct(out, sides[1], medium.k_minus, s, fs, t, f, normal, weights)
    return out.reshape(x1.shape + out.shape[1:])


def fresnel_R(medium: MediumPair, theta: float) -> complex:
    """Reflection coefficient (i sin t + S(cos t, n)) / (i sin t - S(cos t, n))."""
    s = vertical_wavenumber(math.cos(theta), medium.n)
    num = 1j * math.sin(theta) + s
    den = 1j * math.sin(theta) - s
    if abs(den) < 1e-14:
        raise DomainError("degenerate incidence: reflection denominator vanishes")
    return num / den


def transmitted_direction(medium: MediumPair, theta_d: float) -> np.ndarray:
    """Complex transmitted direction d_t = (cos th_d, -i S(cos th_d, n)) / n.

    For |cos(theta_d)| <= n this is the real unit vector of Snell's law with
    k+ cos(theta_d) = k- cos(theta_d^t); beyond the critical angle the second
    component is imaginary (evanescent transmission)."""
    c = math.cos(theta_d)
    s = vertical_wavenumber(c, medium.n)
    return np.array([c / medium.n, -1j * s / medium.n], dtype=complex)


def _check_downward(theta_d):
    if math.sin(theta_d) > 1e-12:
        raise DomainError("reference field requires downward incidence (sin theta_d <= 0)")


def _plane_waves(medium: MediumPair, theta_d: float, coeffs, x):
    """(u, du/dx1, du/dx2) on a point or point set x = (x1, x2), as arrays of
    the points' shape, for coeffs = (a, b, c, e):

        u = a e^{i k+ x.d} + b e^{i k+ x.d_r}    at or above x2 = 0,
        u = c e^{i k- x.d_t} + e e^{i k- x.d_n}  below it,

    with d = (cos theta_d, sin theta_d), d_t = transmitted_direction and
    d_r, d_n their mirror images.  A zero coefficient adds nothing, even where
    its wave (the growing one of an evanescent pair) would overflow."""
    _check_downward(theta_d)
    x1, x2 = _points(x)
    up = x2 >= 0
    d = (math.cos(theta_d), math.sin(theta_d))
    dt = transmitted_direction(medium, theta_d)
    u, g1, g2 = (np.empty(x1.shape, dtype=complex) for _ in range(3))
    for side, k, (p1, p2), (ca, cb) in ((up, medium.k_plus, d, coeffs[:2]),
                                        (~up, medium.k_minus, dt, coeffs[2:])):
        y1, y2 = x1[side], x2[side]
        ea = ca * np.exp(1j * k * (y1 * p1 + y2 * p2))
        eb = cb * np.exp(1j * k * (y1 * p1 - y2 * p2)) if cb != 0 else 0.0
        u[side] = ea + eb
        g1[side] = 1j * k * p1 * (ea + eb)
        g2[side] = 1j * k * (p2 * ea - p2 * eb)
    return u[()], g1[()], g2[()]


def _reference_field(medium: MediumPair, theta_d: float, x):
    """u0 and its gradient, as _plane_waves gives them: incident + reflected
    above x2 = 0, transmitted below."""
    r = fresnel_R(medium, math.pi + theta_d)
    return _plane_waves(medium, theta_d, (1.0, r, r + 1.0, 0.0), x)


def incident_field(medium: MediumPair, incident: dict, x1, x2, normal=None):
    """The field u_b that the scattered field cancels on the surface, on
    coordinate arrays (x1, x2): u_b, or with normal = (a, b, f')
    a u_b + b (f' du_b/dx1 - du_b/dx2).  incident is a validated spec
    (cli.config_from_dict).  Plane wave {"type": "plane", "theta_d": ...}:
    u_b = u0, the reference field.  Point source {"type": "point",
    "y0": [y1, y2]}: u_b = -G(., y0), from one batched, two-pass-checked call
    with y0 as the field point (G(x, y0) = G(y0, x), and nabla_x G(x, y0) is
    nabla_y G(y0, y) at y = x)."""
    if incident["type"] == "plane":
        u, g1, g2 = _reference_field(medium, incident["theta_d"], (x1, x2))
        return u if normal is None else sommerfeld._normal_sum(u, g1, g2, *normal)
    return -green_surface_batch(medium, tuple(incident["y0"]), x1, x2,
                                normal=normal, check=True)


def reference_field_plane(medium: MediumPair, theta_d: float, x):
    """Reference field u0 of plane-wave incidence on the flat interface:
    incident + reflected above x2 = 0, transmitted below.  x is one point
    (complex result) or a pair of coordinate arrays (array result)."""
    return _reference_field(medium, theta_d, x)[0]

