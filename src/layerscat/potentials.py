"""Field evaluation from solved densities, and exact reference solutions.

Scattered fields away from the surface use the plain trapezoid rule on the
Nystrom grid (spacing h = pi/N), since the kernels are smooth off the
boundary:

    Dirichlet:  u_s(x) = h sum_j [dG/dnu(y_j) + i eta G(x, y_j)] J_j psi_j,
    impedance:  u_s(x) = h sum_j G(x, y_j) J_j psi_j.

Exact references: the two-layered Green function itself for a point source
below the surface, and the four-wave piecewise-plane solution for a flat
boundary under the layered interface (coefficients fixed by interface
continuity, the boundary condition, and unit incident amplitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sommerfeld
from .bie import BoundaryProblem
from .errors import DomainError, SingularityError, SolverError
from .green import (MediumPair, _points, green, green_surface_batch,
                    transmitted_direction)
from .nystrom import DensitySolution
from .surface import SurfaceProfile

_MIN_DIST = 1e-6
_WARN_DIST = 1e-2


def _surface_distance(surface: SurfaceProfile, x1, x2, t_nodes):
    """Distance from each point (x1_i, x2_i) of 1-D arrays to the surface: the
    nearest node, then five rounds of 41-point refinement around it."""
    t = np.asarray(t_nodes, dtype=float)
    f = np.asarray(surface.f(t), dtype=float)
    x1, x2 = x1[:, None], x2[:, None]
    rows = np.arange(x1.shape[0])
    j = np.hypot(x1 - t, x2 - f).argmin(axis=1)
    lo, hi = t[np.maximum(j - 1, 0)], t[np.minimum(j + 1, t.size - 1)]
    for _ in range(5):
        tt = np.linspace(lo, hi, 41, axis=1)
        dd = np.hypot(x1 - tt, x2 - np.asarray(surface.f(tt), dtype=float))
        j = dd.argmin(axis=1)
        lo, hi = tt[rows, np.maximum(j - 1, 0)], tt[rows, np.minimum(j + 1, 40)]
    return dd.min(axis=1)


def _eval_scattered(sol: DensitySolution, problem: BoundaryProblem, x):
    """Scattered field and near-surface flags (distance < _WARN_DIST) at one
    point or a point set x = (x1, x2) of coordinate arrays, each shaped like
    the points.  The points go in blocks of sommerfeld._BLOCK // n rows (n
    nodes), each one green_surface_batch call and one product with
    h J_j psi_j, so memory stays bounded for any number of points."""
    x1, x2 = _points(x)
    p1, p2 = x1.ravel(), x2.ravel()
    t = sol.grid.nodes
    surf = problem.surface
    dist = _surface_distance(surf, p1, p2, t)
    if np.any(dist < _MIN_DIST):
        i = int(dist.argmin())
        raise SingularityError(
            f"evaluation point {(float(p1[i]), float(p2[i]))} within "
            f"{dist[i]:.2e} of the surface; the plain quadrature rule is "
            "invalid there")
    f = np.asarray(surf.f(t), dtype=float)
    df = np.asarray(surf.df(t), dtype=float)
    speed = np.sqrt(1.0 + df * df)
    weights = sol.grid.h * speed * sol.values
    dirichlet = problem.kind == "dirichlet"
    values = np.empty(p1.size, dtype=complex)
    rows = max(1, sommerfeld._BLOCK // t.size)
    for lo in range(0, p1.size, rows):
        blk = slice(lo, lo + rows)
        batch = green_surface_batch(problem.medium, (p1[blk], p2[blk]), t, f,
                                    grad_y=dirichlet)
        kern = batch["val"]
        if dirichlet:
            kern = ((df * batch["dy1"] - batch["dy2"]) / speed
                    + 1j * problem.eta * kern)
        values[blk] = kern @ weights
        del batch, kern     # free this block before the next one is built
    return values.reshape(x1.shape)[()], (dist < _WARN_DIST).reshape(x1.shape)[()]


def eval_scattered(sol: DensitySolution, problem: BoundaryProblem, x):
    """Scattered field at one point (complex) or at a point set x = (x1, x2)
    of coordinate arrays (array of the points' shape)."""
    return _eval_scattered(sol, problem, x)[0]


@dataclass(frozen=True)
class FourWaveSolution:
    """Exact total field for the flat boundary x2 = plane_height under the
    interface: A e^{i k+ x.d} + B e^{i k+ x.d_r} above the interface,
    C e^{i k- x.d_t} + D e^{i k- x.d_n} between interface and boundary."""

    medium: MediumPair
    theta_d: float
    kind: str
    beta0: complex
    plane_height: float
    A_c: complex
    B_c: complex
    C_c: complex
    D_c: complex
    d: np.ndarray
    d_r: np.ndarray
    d_t: np.ndarray
    d_n: np.ndarray

    def field(self, x) -> complex:
        x1, x2 = float(x[0]), float(x[1])
        kp, km = self.medium.k_plus, self.medium.k_minus
        if x2 >= 0:
            return complex(
                self.A_c * np.exp(1j * kp * (x1 * self.d[0] + x2 * self.d[1]))
                + self.B_c * np.exp(1j * kp * (x1 * self.d_r[0] + x2 * self.d_r[1])))
        return complex(
            self.C_c * np.exp(1j * km * (x1 * self.d_t[0] + x2 * self.d_t[1]))
            + self.D_c * np.exp(1j * km * (x1 * self.d_n[0] + x2 * self.d_n[1])))

    def _grad(self, x):
        x1, x2 = float(x[0]), float(x[1])
        kp, km = self.medium.k_plus, self.medium.k_minus
        if x2 >= 0:
            ea = self.A_c * np.exp(1j * kp * (x1 * self.d[0] + x2 * self.d[1]))
            eb = self.B_c * np.exp(1j * kp * (x1 * self.d_r[0] + x2 * self.d_r[1]))
            return (1j * kp * (self.d[0] * ea + self.d_r[0] * eb),
                    1j * kp * (self.d[1] * ea + self.d_r[1] * eb))
        ec = self.C_c * np.exp(1j * km * (x1 * self.d_t[0] + x2 * self.d_t[1]))
        ed = self.D_c * np.exp(1j * km * (x1 * self.d_n[0] + x2 * self.d_n[1]))
        return (1j * km * (self.d_t[0] * ec + self.d_n[0] * ed),
                1j * km * (self.d_t[1] * ec + self.d_n[1] * ed))

    def boundary_residual(self, x1_samples) -> float:
        """Max violation of the interface transmission conditions and the
        boundary condition at x2 = plane_height over the sample abscissas."""
        worst = 0.0
        for x1 in np.atleast_1d(x1_samples):
            up = self.field((x1, 1e-30))
            dn = self.field((x1, -1e-30))
            worst = max(worst, abs(up - dn))
            gu = self._grad((x1, 1e-30))
            gd = self._grad((x1, -1e-30))
            worst = max(worst, abs(gu[1] - gd[1]))
            xb = (x1, self.plane_height)
            if self.kind == "dirichlet":
                worst = max(worst, abs(self.field(xb)))
            else:
                g = self._grad(xb)
                km = self.medium.k_minus
                worst = max(worst, abs(-g[1] - 1j * km * self.beta0 * self.field(xb)))
        return worst


def four_wave_exact(medium: MediumPair, theta_d: float, kind: str,
                    beta0: complex = 1.0, plane_height: float = -1.0) -> FourWaveSolution:
    """Coefficients of the exact flat-boundary solution, A normalized to 1.

    The 3x3 system enforces continuity of u and du/dx2 at the interface and
    the Dirichlet or impedance condition at the boundary plane.
    """
    if kind not in ("dirichlet", "impedance"):
        raise DomainError(f"unknown boundary kind {kind!r}")
    if not plane_height < 0:
        raise DomainError("boundary plane must lie below the interface")
    if math.sin(theta_d) > 1e-12:
        raise DomainError("four-wave solution requires downward incidence")
    kp, km = medium.k_plus, medium.k_minus
    d = np.array([math.cos(theta_d), math.sin(theta_d)], dtype=complex)
    d_r = np.array([d[0], -d[1]], dtype=complex)
    d_t = transmitted_direction(medium, theta_d)
    d_n = np.array([d_t[0], -d_t[1]], dtype=complex)
    p = plane_height
    e_t = np.exp(1j * km * d_t[1] * p)
    e_n = np.exp(1j * km * d_n[1] * p)
    mat = np.zeros((3, 3), dtype=complex)
    rhs = np.zeros(3, dtype=complex)
    mat[0] = [1.0, -1.0, -1.0]
    rhs[0] = -1.0
    mat[1] = [-1j * kp * d[1], -1j * km * d_t[1], -1j * km * d_n[1]]
    rhs[1] = -1j * kp * d[1]
    if kind == "dirichlet":
        mat[2] = [0.0, e_t, e_n]
    else:
        mat[2] = [0.0,
                  (-1j * km * d_t[1] - 1j * km * beta0) * e_t,
                  (-1j * km * d_n[1] - 1j * km * beta0) * e_n]
    try:
        b, c, dd = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"degenerate four-wave system (grazing incidence): {exc}")
    return FourWaveSolution(medium=medium, theta_d=theta_d, kind=kind,
                            beta0=complex(beta0), plane_height=plane_height,
                            A_c=1.0 + 0j, B_c=complex(b), C_c=complex(c),
                            D_c=complex(dd), d=d, d_r=d_r, d_t=d_t, d_n=d_n)


def point_source_exact(medium: MediumPair, y0, x,
                       surface: SurfaceProfile | None = None) -> complex:
    """Exact scattered field G(x, y0) of the manufactured point-source problem
    with boundary data g = G(., y0) restricted to the surface.

    y0 must lie strictly below the surface (checked when one is supplied)."""
    if surface is not None and not float(y0[1]) < float(surface.f(y0[0])):
        raise DomainError(
            f"point source {tuple(y0)} does not lie below the surface")
    return green(medium, x, y0)
