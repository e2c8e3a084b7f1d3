"""Boundary-integral kernels for the Dirichlet and impedance problems.

Parameterizing the surface as x = (s, f(s)), y = (t, f(t)) and writing
J_t = sqrt(1 + f'(t)^2), the two collocation systems are

    Dirichlet:  (I - K_D) psi = -2 g,   kappa_D(s,t) = 2 [dG/dnu(y) + i eta G] J_t,
    impedance:  (I + K_bar) psi = 2 g,  kappa_bar(s,t) = 2 [dG/dnu(x) - i k- beta(s) G] J_t,

the first from the combined double/single-layer ansatz, the second from the
single-layer ansatz and the interior limit of its normal derivative.

Each kernel splits into a periodic-log part and a smooth remainder,

    kappa(s,t) = (1/2pi) A(s,t) ln(4 sin^2((s-t)/2)) + B(s,t),
    A(s,t) = pi a(s,t) chi(s-t),
    B(s,t) = a(s,t) [ln|s-t| (1 - chi) - chi ln(sin((s-t)/2)/((s-t)/2))] + b(s,t),

where kappa = a ln|s-t| + b, a collects the J0/J1 Bessel coefficients of the
free-space logarithm and b the smooth Hankel remainders plus the layer terms
built on R = G - Phi_{k-}.  chi is a C-infinity cutoff, 1 on [-1,1] and 0
outside (-pi, pi).  Diagonal limits of the smooth parts:

    Dirichlet:  L2(s,s) = -f''/(2 pi (1+f'^2)),
                M2(s,s) = [i/2 - C/pi - ln((k-/2) J_s)/pi] J_s,
    impedance:  L2(s,s) = +f''/(2 pi (1+f'^2)),
                M2(s,s) = 2 i k- beta [i/4 - ln(k-/2)/(2pi) - C/(2pi) - ln(J_s)/(2pi)] J_s,

with C the Euler constant (the impedance values are stated for the kernel
K = M + L of the rearranged equation psi - K psi = 2 g; the assembled system
uses them with that sign convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import green as green_mod
from . import sommerfeld
from .errors import DomainError, SingularityError
from .green import MediumPair
from .specfun import EULER_GAMMA, hankel1
from .surface import SurfaceProfile

SUPPORT_RADIUS = math.pi


def cutoff_chi(s):
    """Even C-infinity cutoff: 1 for |s| <= 1, 0 for |s| >= pi."""
    s = np.abs(np.asarray(s, dtype=float))
    u = (math.pi - s) / (math.pi - 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        pa = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        pb = np.where(1 - u > 0, np.exp(-1.0 / np.maximum(1 - u, 1e-300)), 0.0)
    out = pa / (pa + pb + (pa + pb == 0.0))
    out = np.where(u >= 1, 1.0, np.where(u <= 0, 0.0, out))
    return float(out) if out.ndim == 0 else out


def _const_callable(c):
    cc = complex(c)

    def fn(s):
        return np.full_like(np.asarray(s, dtype=float), cc, dtype=complex) \
            if not np.isscalar(s) else cc

    return fn


@dataclass(frozen=True)
class BoundaryProblem:
    """One scattering problem: boundary kind, media, surface, data.

    data_g is the parameterized boundary data g~(s); beta the impedance
    function beta~(s) (impedance only, Re beta >= d > 0); eta the coupling
    constant of the combined Dirichlet ansatz (default sqrt(k+ k-)).
    incident optionally records the incident-wave configuration so field
    routines can form reference/total fields.
    """

    kind: str
    medium: MediumPair
    surface: SurfaceProfile
    data_g: Callable
    eta: Optional[float] = None
    beta: Optional[Callable] = None
    incident: Optional[dict] = field(default=None)

    def __post_init__(self):
        if self.kind not in ("dirichlet", "impedance"):
            raise DomainError(f"unknown problem kind {self.kind!r}")
        if self.kind == "dirichlet":
            eta = self.eta if self.eta is not None else math.sqrt(
                self.medium.k_plus * self.medium.k_minus)
            if not eta > 0:
                raise DomainError("Dirichlet coupling eta must be positive")
            object.__setattr__(self, "eta", float(eta))
        else:
            beta = self.beta if self.beta is not None else _const_callable(1.0)
            sample = np.asarray(beta(np.linspace(-40, 40, 257)), dtype=complex)
            if not np.all(sample.real > 0):
                raise DomainError("impedance requires Re beta > 0 on the surface")
            object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class KernelSplit:
    """Kernel decomposition kappa = (1/2pi) A ln(4 sin^2((s-t)/2)) + B.

    A vanishes for |s-t| >= pi; B is continuous across the diagonal.
    """

    A: Callable
    B: Callable
    support_radius: float = SUPPORT_RADIUS


def _surface_arrays(surface, s):
    s = np.asarray(s, dtype=float)
    f = np.asarray(surface.f(s), dtype=float)
    df = np.asarray(surface.df(s), dtype=float)
    d2f = np.asarray(surface.d2f(s), dtype=float)
    speed = np.sqrt(1.0 + df * df)
    return s, f, df, d2f, speed


def _pairwise_geometry(surface, s, t):
    """Geometry factors between rows x = (s_i, f(s_i)) and cols y = (t_j, f(t_j))."""
    s, fs, dfs, d2fs, Js = _surface_arrays(surface, s)
    t, ft, dft, d2ft, Jt = _surface_arrays(surface, t)
    tau = s[:, None] - t[None, :]       # = x1 - y1
    dx2 = fs[:, None] - ft[None, :]
    rho = np.hypot(tau, dx2)
    # (y - x) . nu(y) with nu = (f', -1)/J
    dot_y = (-tau * dft[None, :] + dx2) / Jt[None, :]
    # (x - y) . nu(x)
    dot_x = (tau * dfs[:, None] - dx2) / Js[:, None]
    return dict(s=s, tau=tau, rho=rho, dot_y=dot_y, dot_x=dot_x,
                fs=fs, ft=ft, dfs=dfs, dft=dft, d2fs=d2fs, Js=Js, Jt=Jt)


def _bessel_pack(km, rho, diag_mask):
    z = km * rho
    z_safe = np.where(diag_mask, 1.0, z)
    # J_n is exactly Re H_n: one order-n pass gives both
    h0 = hankel1(0, z_safe)
    h1 = hankel1(1, z_safe)
    return h0.real, h1.real, h0, h1


def _ab_matrices(problem: BoundaryProblem, s, t, remainder):
    """Smooth-split coefficient matrices (a, b) of the collocation kernel.

    remainder: (R, dR/dy1, dR/dy2) pairwise arrays for x_i = (s_i, f(s_i)),
    y_j = (t_j, f(t_j)).  Diagonal entries (s_i == t_i) get the analytic
    limits.  Returns (a, b) with kappa = a ln|s-t| + b off the diagonal;
    for the impedance problem the convention is K = M + L (see module doc).
    """
    return _ab_from_geometry(problem, _pairwise_geometry(problem.surface, s, t),
                             remainder)


def _ab_from_geometry(problem, g, remainder):
    """_ab_matrices on the pairwise geometry g of _pairwise_geometry."""
    km = problem.medium.k_minus
    rho, tau = g["rho"], g["tau"]
    diag = np.isclose(tau, 0.0, atol=1e-14) & np.isclose(rho, 0.0, atol=1e-14)
    if np.any(np.isclose(rho, 0.0, atol=1e-14) & ~diag):
        raise SingularityError("distinct parameters mapped to coincident points")
    j0, j1, h0, h1 = _bessel_pack(km, rho, diag)
    rho_safe = np.where(diag, 1.0, rho)
    ln_tau = np.log(np.where(diag, 1.0, np.abs(tau)))
    Jt = g["Jt"][None, :]
    Js_d = g["Js"]
    R, Ry1, Ry2 = remainder

    if problem.kind == "dirichlet":
        eta = problem.eta
        l1 = (km / math.pi) * g["dot_y"] * j1 / rho_safe * Jt
        m1 = -(1.0 / math.pi) * j0 * Jt
        l2 = -0.5j * km * h1 * g["dot_y"] / rho_safe * Jt - l1 * ln_tau
        m2 = 0.5j * h0 * Jt - m1 * ln_tau
        # layer parts: 2 (nu(y) . grad_y R) J_t = 2 (f'(t) Ry1 - Ry2), 2 R J_t
        l3 = 2.0 * (g["dft"][None, :] * Ry1 - Ry2)
        m3 = 2.0 * R * Jt
        if np.any(diag):
            dd = np.where(diag)
            l1[dd] = 0.0
            m1[dd] = -Js_d[dd[0]] / math.pi
            l2[dd] = -g["d2fs"][dd[0]] / (2 * math.pi * Js_d[dd[0]] ** 2)
            m2[dd] = (0.5j - EULER_GAMMA / math.pi
                      - np.log(0.5 * km * Js_d[dd[0]]) / math.pi) * Js_d[dd[0]]
        a = l1 + 1j * eta * m1
        b = (l2 + l3) + 1j * eta * (m2 + m3)
        return a, b

    beta_s = np.asarray(problem.beta(g["s"]), dtype=complex)[:, None]
    m1 = -(1j * km / math.pi) * beta_s * j0 * Jt
    l1 = -(km / math.pi) * j1 * g["dot_x"] / rho_safe * Jt
    m2 = 2j * km * beta_s * 0.25j * h0 * Jt - m1 * ln_tau
    l2 = 0.5j * km * h1 * g["dot_x"] / rho_safe * Jt - l1 * ln_tau
    m3 = 2j * km * beta_s * R * Jt
    # -2 (nu(x) . grad_x R) J_t with grad_x R = (-Ry1, +Ry2)
    l3 = 2.0 * ((g["dfs"] / g["Js"])[:, None] * Ry1
                + (1.0 / g["Js"])[:, None] * Ry2) * Jt
    if np.any(diag):
        dd = np.where(diag)
        l1[dd] = 0.0
        m1[dd] = -(1j * km / math.pi) * beta_s[dd[0], 0] * Js_d[dd[0]]
        l2[dd] = g["d2fs"][dd[0]] / (2 * math.pi * Js_d[dd[0]] ** 2)
        m2[dd] = 2j * km * beta_s[dd[0], 0] * (
            0.25j - np.log(0.5 * km) / (2 * math.pi) - EULER_GAMMA / (2 * math.pi)
            - np.log(Js_d[dd[0]]) / (2 * math.pi)) * Js_d[dd[0]]
    a = m1 + l1
    b = m2 + l2 + m3 + l3
    return a, b


def _ab_to_AB(a, b, tau):
    """Periodic-log regrouping of kappa = a ln|tau| + b."""
    chi = cutoff_chi(tau)
    diag = np.isclose(tau, 0.0, atol=1e-14)
    inner = (np.abs(tau) < math.pi) & ~diag
    half = 0.5 * np.where(inner, tau, 1.0)
    corr = np.where(inner, np.log(np.abs(np.sin(half) / half)), 0.0)
    ln_tau = np.log(np.where(diag, 1.0, np.abs(tau)))
    A = math.pi * a * chi
    B = a * (ln_tau * (1.0 - chi) - chi * corr) + b
    B = np.where(diag, b, B)
    return A, B


def _split_matrices(problem, s, t, remainder):
    """(A, B) of the periodic-log split between rows s and columns t, from
    one pairwise geometry (tau = s - t included)."""
    g = _pairwise_geometry(problem.surface, s, t)
    tau = g["tau"]
    a, b = _ab_from_geometry(problem, g, remainder)
    del g       # the other n^2 geometry arrays are freed before the regrouping
    return _ab_to_AB(a, b, tau)


def kernel_matrices(problem: BoundaryProblem, nodes):
    """Dense (A, B) matrices of the split kernel at collocation nodes, with
    the shared-rule layer integrals over the node set."""
    t = np.asarray(nodes, dtype=float)
    f = np.asarray(problem.surface.f(t), dtype=float)
    return _split_matrices(problem, t, t, surface_remainder(problem.medium, t, f))


def surface_remainder(medium: MediumPair, t_nodes, f_vals, s_nodes=None,
                      fs_vals=None):
    """Pairwise (R, dR/dy1, dR/dy2) between surface point sets.

    R(x, y) = -Phi_{k-}(x, y') + I4(x, y); the spectral part comes from the
    shared rule of sommerfeld.remainder_matrices, the mirror term from
    green._free_terms.  Targets x_i = (s_i, fs_i) default to the source set
    y_j = (t_j, f_j).
    """
    t = np.asarray(t_nodes, dtype=float)
    f = np.asarray(f_vals, dtype=float)
    s = t if s_nodes is None else np.asarray(s_nodes, dtype=float)
    fs = f if s_nodes is None else np.asarray(fs_vals, dtype=float)
    i4 = sommerfeld.remainder_matrices(medium.k_plus, medium.k_minus, t, f,
                                       s_nodes=s_nodes, fs_vals=fs_vals)
    mirror = green_mod._free_terms(medium.k_minus, s[:, None] - t[None, :],
                                   fs[:, None], f[None, :])
    # summed into the C-ordered mirror arrays, the layout the kernels expect
    for acc, part in zip(mirror, i4):
        acc += part
    return mirror[:3]


def kernel_rows(problem: BoundaryProblem, s_points, t_nodes):
    """Rectangular (A, B) kernel matrices between off-node collocation points
    s_points and the quadrature grid t_nodes (Nystrom natural interpolation)."""
    s = np.asarray(s_points, dtype=float)
    t = np.asarray(t_nodes, dtype=float)
    f_t = np.asarray(problem.surface.f(t), dtype=float)
    f_s = np.asarray(problem.surface.f(s), dtype=float)
    rem = surface_remainder(problem.medium, t, f_t, s_nodes=s, fs_vals=f_s)
    return _split_matrices(problem, s, t, rem)


def split_dbvp(problem: BoundaryProblem) -> KernelSplit:
    """Periodic-log split of the Dirichlet kernel (scalar closures)."""
    if problem.kind != "dirichlet":
        raise DomainError("split_dbvp requires a Dirichlet problem")
    return _split(problem, sign=1.0)


def split_ibvp(problem: BoundaryProblem) -> KernelSplit:
    """Periodic-log split of the impedance kernel of the collocation system
    psi + integral kappa_bar psi = 2 g (kappa_bar = -(M + L))."""
    if problem.kind != "impedance":
        raise DomainError("split_ibvp requires an impedance problem")
    return _split(problem, sign=-1.0)


def _split(problem, sign):
    """Scalar closures A(s, t), B(s, t) through the general evaluators (slow
    path): pointwise R, then the same regrouping as the matrices."""
    surf = problem.surface
    modes = ("val", "dy1", "dy2")

    def AB(s, t):
        s, t = float(s), float(t)
        r = green_mod.green_remainder_modes(problem.medium, (s, float(surf.f(s))),
                                            (t, float(surf.f(t))), modes=modes)
        rem = tuple(np.array([[r[m]]]) for m in modes)
        A, B = _split_matrices(problem, np.array([s]), np.array([t]), rem)
        return sign * complex(A[0, 0]), sign * complex(B[0, 0])

    return KernelSplit(A=lambda s, t: AB(s, t)[0], B=lambda s, t: AB(s, t)[1])


def kernel_dbvp_raw(problem: BoundaryProblem, s: float, t: float) -> complex:
    """kappa_D(s,t) = 2 [dG/dnu(y) + i eta G] sqrt(1+f'(t)^2), s != t."""
    if problem.kind != "dirichlet":
        raise DomainError("kernel_dbvp_raw requires a Dirichlet problem")
    if s == t:
        raise SingularityError("raw kernel is singular on the diagonal")
    surf = problem.surface
    med = problem.medium
    x_pt = (s, float(surf.f(s)))
    y_pt = (t, float(surf.f(t)))
    gy = green_mod.grad_green_y(med, x_pt, y_pt)
    gval = green_mod.green(med, x_pt, y_pt)
    nt = surf.normal(t)
    jt = float(surf.speed(t))
    return 2.0 * (nt[0] * gy[0] + nt[1] * gy[1] + 1j * problem.eta * gval) * jt


def kernel_ibvp_raw(problem: BoundaryProblem, s: float, t: float) -> complex:
    """kappa_bar(s,t) = 2 [dG/dnu(x) - i k- beta(s) G] sqrt(1+f'(t)^2), s != t."""
    if problem.kind != "impedance":
        raise DomainError("kernel_ibvp_raw requires an impedance problem")
    if s == t:
        raise SingularityError("raw kernel is singular on the diagonal")
    surf = problem.surface
    med = problem.medium
    x_pt = (s, float(surf.f(s)))
    y_pt = (t, float(surf.f(t)))
    gx = green_mod.grad_green_x(med, x_pt, y_pt)
    gval = green_mod.green(med, x_pt, y_pt)
    ns = surf.normal(s)
    jt = float(surf.speed(t))
    beta_s = complex(np.asarray(problem.beta(s), dtype=complex))
    return 2.0 * (ns[0] * gx[0] + ns[1] * gx[1]
                  - 1j * med.k_minus * beta_s * gval) * jt


def rhs_dbvp(problem: BoundaryProblem, s) -> complex:
    """Full Dirichlet collocation right-hand side -2 g~(s)."""
    if problem.kind != "dirichlet":
        raise DomainError("rhs_dbvp requires a Dirichlet problem")
    return -2.0 * np.asarray(problem.data_g(s), dtype=complex)


def rhs_ibvp(problem: BoundaryProblem, s) -> complex:
    """Full impedance collocation right-hand side +2 g~(s)."""
    if problem.kind != "impedance":
        raise DomainError("rhs_ibvp requires an impedance problem")
    return 2.0 * np.asarray(problem.data_g(s), dtype=complex)


def rhs_vector(problem: BoundaryProblem, s):
    return rhs_dbvp(problem, s) if problem.kind == "dirichlet" else rhs_ibvp(problem, s)
