"""Field evaluation from solved densities, and exact reference solutions.

Scattered fields away from the surface use the plain trapezoid rule on the
Nystrom grid (spacing h = pi/N), since the kernels are smooth off the
boundary:

    Dirichlet:  u_s(x) = h sum_j [dG/dnu(y_j) + i eta G(x, y_j)] J_j psi_j,
    impedance:  u_s(x) = h sum_j G(x, y_j) J_j psi_j,
the bracket being green_surface_batch's layer sum for normal (i eta, 1/J, f'),
applied to the weights h J_j psi_j without forming the m x n matrix.

Exact reference: the four-wave piecewise-plane solution for a flat
boundary under the layered interface (coefficients fixed by interface
continuity, the boundary condition, and unit incident amplitude).  A point
source's exact scattered field is the Green function itself, green.green.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bie import BoundaryProblem, _surface_arrays
from .errors import DomainError, SingularityError, SolverError
from .green import (MediumPair, _check_downward, _plane_waves, _points,
                    green_surface_batch, transmitted_direction)
from .nystrom import DensitySolution
from .surface import refine_min

_MIN_DIST = 1e-6
_WARN_DIST = 1e-2


def _check_points(surface, x1, x2):
    """Distance from each point (x1_i, x2_i) of 1-D arrays to the surface: at
    most the vertical gap g = |x2 - f(x1)|, so refine_min takes five rounds of
    41 samples on [x1 - g, x1 + g].  DomainError names the first point with f
    not finite there or lying below the surface (no field there),
    SingularityError the first within _MIN_DIST of the surface."""
    with np.errstate(all="ignore"):
        f = np.asarray(surface(x1), dtype=float)
        g = np.abs(x2 - f)
        _, dist = refine_min(lambda t, i: np.hypot(x1[i, None] - t, x2[i, None] - surface(t)),
                             x1 - g, x1 + g, (41,) * 5)
    bad = np.flatnonzero(~np.isfinite(dist) | (x2 < f) | (dist < _MIN_DIST))
    if bad.size:
        i = bad[0]
        x = (float(x1[i]), float(x2[i]))
        if not np.isfinite(dist[i]):
            raise DomainError(f"{x}: surface not finite within |x2 - f(x1)| of x1")
        if x2[i] < f[i]:
            raise DomainError(f"{x} lies below the surface, where no field is defined")
        raise SingularityError(f"{x} lies within {_MIN_DIST:g} of the surface, "
                               "where the field quadrature is invalid")
    return dist


def _eval_scattered(sol: DensitySolution, problem: BoundaryProblem, x):
    """Scattered field and near-surface flags (distance < _WARN_DIST) at one
    point or a point set x = (x1, x2) of coordinate arrays, each shaped like
    the points; _check_points refuses a point below or on the surface.  One
    green_surface_batch call with the weights h J_j psi_j takes all points,
    on both sides of the interface, in memory bounded for any number."""
    x1, x2 = _points(x)
    p1, p2 = x1.ravel(), x2.ravel()
    t = sol.grid.nodes
    dist = _check_points(problem.surface, p1, p2)
    _, f, df, _, speed = _surface_arrays(problem.surface, t)
    weights = sol.grid.h * speed * sol.values
    normal = (1j * problem.eta, 1.0 / speed, df) if problem.kind == "dirichlet" else None
    values = green_surface_batch(problem.medium, (p1, p2), t, f, normal=normal,
                                 weights=weights)
    return values.reshape(x1.shape)[()], (dist < _WARN_DIST).reshape(x1.shape)[()]


def eval_scattered(sol: DensitySolution, problem: BoundaryProblem, x):
    """Scattered field at one point (complex) or at a point set x = (x1, x2)
    of coordinate arrays (array of the points' shape).  DomainError for a
    point below the surface, SingularityError within _MIN_DIST of it."""
    return _eval_scattered(sol, problem, x)[0]


@dataclass(frozen=True)
class FourWaveSolution:
    """Exact total field for the flat boundary x2 = plane_height under the
    interface: A e^{i k+ x.d} + B e^{i k+ x.d_r} above the interface,
    C e^{i k- x.d_t} + D e^{i k- x.d_n} between interface and boundary
    (directions as in green._plane_waves)."""

    medium: MediumPair
    theta_d: float
    kind: str
    beta0: complex
    plane_height: float
    A_c: complex
    B_c: complex
    C_c: complex
    D_c: complex

    def _waves(self, x):
        return _plane_waves(self.medium, self.theta_d,
                            (self.A_c, self.B_c, self.C_c, self.D_c), x)

    def field(self, x):
        """Total field at one point (complex) or at a point set x = (x1, x2)
        of coordinate arrays (array of the points' shape)."""
        return self._waves(x)[0]


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
    _check_downward(theta_d)
    kp, km = medium.k_plus, medium.k_minus
    d2 = math.sin(theta_d)
    # vertical components: d_t2 of the transmitted wave, -d_t2 of its mirror
    t2 = transmitted_direction(medium, theta_d)[1]
    e_t = np.exp(1j * km * t2 * plane_height)
    e_n = np.exp(-1j * km * t2 * plane_height)
    if kind == "dirichlet":
        bc = [0.0, e_t, e_n]
    else:
        bc = [0.0, (-1j * km * t2 - 1j * km * beta0) * e_t,
              (1j * km * t2 - 1j * km * beta0) * e_n]
    mat = np.array([[1.0, -1.0, -1.0],
                    [-1j * kp * d2, -1j * km * t2, 1j * km * t2], bc])
    rhs = np.array([-1.0, -1j * kp * d2, 0.0])
    try:
        b, c, dd = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"degenerate four-wave system (grazing incidence): {exc}")
    return FourWaveSolution(medium=medium, theta_d=theta_d, kind=kind,
                            beta0=complex(beta0), plane_height=plane_height,
                            A_c=1.0 + 0j, B_c=complex(b), C_c=complex(c),
                            D_c=complex(dd))
