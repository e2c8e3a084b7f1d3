"""Two-layered Green function, plane-wave reference field, Fresnel coefficients.

The Green function of the two-media Helmholtz problem (wavenumber k+ above
the interface x2 = 0, k- below, transmission conditions across it) is
evaluated from its spectral representation.  Extracting the free-space parts
in closed form leaves a single bounded spectral integrand per case:

    x2, y2 >= 0:  G = Phi_{k+}(x, y) - Phi_{k+}(x, y') + I1,
    x2 >= 0 >= y2:  G = I2,
    x2 <= 0 <= y2:  G = I3,
    x2, y2 <= 0:  G = Phi_{k-}(x, y) - Phi_{k-}(x, y') + I4,

where y' = (y1, -y2) is the mirror point, Phi_k(x,y) = (i/4) H1_0(k|x-y|),
and I_case = (1/2pi) int E_case(xi)/(S+ + S-) e^{i xi (x1-y1)} d xi with the
exponents of sommerfeld._CASES.  The smooth remainder R = G - Phi_{k-} below
the interface is then  -Phi_{k-}(x, y') + I4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sommerfeld
from .errors import AccuracyError, DomainError, SingularityError
from .specfun import critical_angle, hankel1, vertical_wavenumber

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

    @property
    def theta_c(self) -> float:
        return critical_angle(self.k_plus, self.k_minus)


def _pt(x):
    x1, x2 = float(x[0]), float(x[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise DomainError(f"point has non-finite components: {x!r}")
    return x1, x2


def phi_free(k: float, x, y) -> complex:
    """Free-space kernel (i/4) H1_0(k |x - y|)."""
    if not k > 0:
        raise DomainError("phi_free requires k > 0")
    x1, x2 = _pt(x)
    y1, y2 = _pt(y)
    r = math.hypot(x1 - y1, x2 - y2)
    if r < _SING_DIST:
        raise SingularityError("phi_free evaluated at coincident points")
    return 0.25j * hankel1(0, k * r)


def _phi_grad_y(k, x, y):
    """(d/dy1, d/dy2) of Phi_k(x, y)."""
    x1, x2 = x
    y1, y2 = y
    r = math.hypot(x1 - y1, x2 - y2)
    if r < _SING_DIST:
        raise SingularityError("gradient of phi_free at coincident points")
    fac = -0.25j * k * hankel1(1, k * r) / r
    return fac * (y1 - x1), fac * (y2 - x2)


def _image_terms(k, x1, x2, y1, y2):
    """Value and derivatives of the mirror term -Phi_k(x, y'), y' = (y1, -y2).

    Returns dict with val, dx1, dx2, dy1, dy2 (the term depends on x1 - y1
    and x2 + y2 only).
    """
    rp = math.hypot(x1 - y1, x2 + y2)
    if rp < _SING_DIST:
        raise SingularityError("mirror point coincides with target")
    val = -0.25j * hankel1(0, k * rp)
    fac = 0.25j * k * hankel1(1, k * rp) / rp
    return {"val": val,
            "dx1": fac * (x1 - y1), "dx2": fac * (x2 + y2),
            "dy1": fac * (y1 - x1), "dy2": fac * (x2 + y2)}


def _case_of(x2, y2):
    if x2 >= 0 and y2 >= 0:
        return 1
    if x2 >= 0:
        return 2
    if y2 >= 0:
        return 3
    return 4


def _green_modes(medium, x, y, modes, tol, check):
    x1, x2 = _pt(x)
    y1, y2 = _pt(y)
    if math.hypot(x1 - y1, x2 - y2) < _SING_DIST:
        raise SingularityError("two-layered Green function at coincident points")
    case = _case_of(x2, y2)
    vals, _ = sommerfeld.spectral_point(medium.k_plus, medium.k_minus, case,
                                        x2, y2, x1 - y1, modes=modes,
                                        tol=tol, check=check)
    if case in (1, 4):
        k = medium.k_plus if case == 1 else medium.k_minus
        img = _image_terms(k, x1, x2, y1, y2)
        phi_val = phi_free(k, (x1, x2), (y1, y2))
        dphi_y = _phi_grad_y(k, (x1, x2), (y1, y2))
        direct = {"val": phi_val,
                  "dy1": dphi_y[0], "dy2": dphi_y[1],
                  "dx1": -dphi_y[0], "dx2": -dphi_y[1]}
        for m in modes:
            vals[m] = vals[m] + img[m] + direct[m]
    return vals


def green(medium: MediumPair, x, y, tol: float = 1e-10, check: bool = True) -> complex:
    """Two-layered Green function G(x, y)."""
    return _green_modes(medium, x, y, ("val",), tol, check)["val"]


def grad_green_y(medium: MediumPair, x, y, tol: float = 1e-10, check: bool = True):
    """(dG/dy1, dG/dy2); y must lie off the interface (gradient within one layer)."""
    if float(y[1]) == 0.0:
        raise DomainError("grad_green_y requires y2 != 0")
    v = _green_modes(medium, x, y, ("dy1", "dy2"), tol, check)
    return v["dy1"], v["dy2"]


def grad_green_x(medium: MediumPair, x, y, tol: float = 1e-10, check: bool = True):
    """(dG/dx1, dG/dx2); x must lie off the interface."""
    if float(x[1]) == 0.0:
        raise DomainError("grad_green_x requires x2 != 0")
    v = _green_modes(medium, x, y, ("dx1", "dx2"), tol, check)
    return v["dx1"], v["dx2"]


def green_remainder(medium: MediumPair, x, y, tol: float = 1e-10,
                    check: bool = True) -> complex:
    """Smooth remainder R(x, y) = G(x, y) - Phi_{k-}(x, y) for x2, y2 < 0."""
    return green_remainder_modes(medium, x, y, ("val",), tol, check)["val"]


def green_remainder_modes(medium: MediumPair, x, y, modes=("val",),
                          tol: float = 1e-10, check: bool = True):
    """R(x, y) and/or its derivatives (modes as in the spectral kernel)."""
    x1, x2 = _pt(x)
    y1, y2 = _pt(y)
    if x2 >= 0 or y2 >= 0:
        raise DomainError("green_remainder requires both points below the interface")
    vals, _ = sommerfeld.spectral_point(medium.k_plus, medium.k_minus, 4,
                                        x2, y2, x1 - y1, modes=modes,
                                        tol=tol, check=check)
    img = _image_terms(medium.k_minus, x1, x2, y1, y2)
    return {m: vals[m] + img[m] for m in modes}


def green_surface_batch(medium: MediumPair, x, t_nodes, f_vals,
                        grad_y: bool = False, check: bool = False):
    """G(x, y_j) (and optionally nabla_y G) for all surface nodes y_j = (t_j, f_j).

    Shares one spectral rule across the batch.  Returns dict with "val" and,
    when grad_y is set, "dy1"/"dy2", each a complex (M,) array.

    With check set, the values come from the doubled rule (refine=2), and
    AccuracyError is raised when they differ from the single rule by more
    than 1e-10, the two-pass test of the scalar green().  check governs the
    shared rule only: when the surface hugs the interface too closely for
    it, every node goes through the pointwise fallback, which is always
    checked, as green() is.  Since G is symmetric, G(y_j, x) and
    nabla_x G(y, x) at y = y_j are the same arrays: this is how boundary
    data of a point source at x is batched.
    """
    x1, x2 = _pt(x)
    t = np.asarray(t_nodes, dtype=float)
    f = np.asarray(f_vals, dtype=float)
    modes = ("val", "dy1", "dy2") if grad_y else ("val",)
    try:
        out = sommerfeld.field_batch(medium.k_plus, medium.k_minus, (x1, x2),
                                     t, f, modes=modes, refine=2 if check else 1)
        if check:
            coarse = sommerfeld.field_batch(medium.k_plus, medium.k_minus,
                                            (x1, x2), t, f, modes=modes)
            est = max(float(np.abs(out[m] - coarse[m]).max(initial=0.0))
                      for m in modes)
            if not est <= 1e-10:
                raise AccuracyError("shared spectral rule did not reach tolerance",
                                    estimate=est)
    except DomainError:
        # shared real-axis rule needs vertical decay (surface hugging the
        # interface); fall back to pointwise contour evaluation, with the
        # two-pass check that green() makes
        case = 2 if x2 >= 0 else 4
        out = {m: np.empty(t.size, dtype=complex) for m in modes}
        for j, (tj, fj) in enumerate(zip(t, f)):
            vals, _ = sommerfeld.spectral_point(medium.k_plus, medium.k_minus,
                                                case, x2, fj, x1 - tj,
                                                modes=modes, check=True)
            for m in modes:
                out[m][j] = vals[m]
    if x2 < 0:
        k = medium.k_minus
        d1 = x1 - t
        d2 = x2 - f
        r = np.hypot(d1, d2)
        if r.min() < _SING_DIST:
            raise SingularityError("field point coincides with a surface node")
        rp = np.hypot(d1, x2 + f)
        h0 = hankel1(0, k * r)
        out["val"] = out["val"] + 0.25j * h0 - 0.25j * hankel1(0, k * rp)
        if grad_y:
            fac = -0.25j * k * hankel1(1, k * r) / r
            facp = 0.25j * k * hankel1(1, k * rp) / rp
            out["dy1"] = out["dy1"] + fac * (-d1) + facp * (-d1)
            out["dy2"] = out["dy2"] + fac * (-d2) + facp * (x2 + f)
    return out


def fresnel_R(medium: MediumPair, theta: float) -> complex:
    """Reflection coefficient (i sin t + S(cos t, n)) / (i sin t - S(cos t, n))."""
    s = vertical_wavenumber(math.cos(theta), medium.n)
    num = 1j * math.sin(theta) + s
    den = 1j * math.sin(theta) - s
    if abs(den) < 1e-14:
        raise DomainError("degenerate incidence: reflection denominator vanishes")
    return num / den


def fresnel_T(medium: MediumPair, theta: float) -> complex:
    """Transmission coefficient T = R + 1."""
    return fresnel_R(medium, theta) + 1.0


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


def _reference_field(medium: MediumPair, theta_d: float, x):
    """u0 and its gradient on a point or point set x = (x1, x2), as arrays
    of the points' shape: incident + reflected above x2 = 0, transmitted
    below."""
    _check_downward(theta_d)
    x1, x2 = np.broadcast_arrays(np.asarray(x[0], dtype=float),
                                 np.asarray(x[1], dtype=float))
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise DomainError(f"point has non-finite components: {x!r}")
    kp, km = medium.k_plus, medium.k_minus
    r = fresnel_R(medium, math.pi + theta_d)
    d1, d2 = math.cos(theta_d), math.sin(theta_d)
    dt = transmitted_direction(medium, theta_d)
    u, g1, g2 = (np.empty(x1.shape, dtype=complex) for _ in range(3))
    up = x2 >= 0
    a1, a2 = x1[up], x2[up]
    ui = np.exp(1j * kp * (a1 * d1 + a2 * d2))
    ur = r * np.exp(1j * kp * (a1 * d1 - a2 * d2))
    u[up] = ui + ur
    g1[up] = 1j * kp * d1 * (ui + ur)
    g2[up] = 1j * kp * (d2 * ui - d2 * ur)
    down = ~up
    ut = (r + 1.0) * np.exp(1j * km * (x1[down] * dt[0] + x2[down] * dt[1]))
    u[down] = ut
    g1[down] = 1j * km * dt[0] * ut
    g2[down] = 1j * km * dt[1] * ut
    return u[()], g1[()], g2[()]


def reference_field_plane(medium: MediumPair, theta_d: float, x):
    """Reference field u0 of plane-wave incidence on the flat interface:
    incident + reflected above x2 = 0, transmitted below.  x is one point
    (complex result) or a pair of coordinate arrays (array result)."""
    return _reference_field(medium, theta_d, x)[0]


def reference_field_plane_grad(medium: MediumPair, theta_d: float, x):
    """Gradient of the reference field (du0/dx1, du0/dx2), on points as in
    reference_field_plane."""
    return _reference_field(medium, theta_d, x)[1:]
