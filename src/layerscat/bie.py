"""Boundary-integral kernels for the Dirichlet and impedance problems.

Parameterizing the surface as x = (s, f(s)), y = (t, f(t)) and writing
J_t = sqrt(1 + f'(t)^2), the two collocation systems are

    Dirichlet:  (I - K_D) psi = -2 g,   kappa_D(s,t) = 2 [dG/dnu(y) + i eta G] J_t,
    impedance:  (I + K_bar) psi = 2 g,  kappa_bar(s,t) = 2 [dG/dnu(x) - i k- beta(s) G] J_t,

the first from the combined double/single-layer ansatz, the second from the
single-layer ansatz and the interior limit of its normal derivative.  With
G = (i/4) H0(k- rho) + R, rho = |x - y| and R = G - Phi_{k-}, both kernels
(the impedance one as K = M + L = -kappa_bar) and their ln|s-t| coefficients
a take one form,

    kappa = sigma (-i k-/2) q H1 + c (i/2 H0 + 2R) J_t + layer normal term,
    a = sigma (k-/pi) q J1 - (c/pi) J0 J_t,   q = dot J_t / rho,

with four inputs chosen by the kind:

               sigma  dot           c             layer normal term
    Dirichlet  +1     (y-x).nu(y)   i eta         2 (f'(t) R_y1 - R_y2)
    impedance  -1     (x-y).nu(x)   i k- beta(s)  2 J_t (f'(s) R_y1 + R_y2) / J_s

Each kernel splits into a periodic-log part and a smooth remainder,

    kappa(s,t) = (1/2pi) A(s,t) ln(4 sin^2((s-t)/2)) + B(s,t),
    A = pi a chi(s-t),   B = kappa - a chi ln|2 sin((s-t)/2)|   (s != t),

where chi is a C-infinity cutoff, 1 on [-1,1] and 0 outside (-pi, pi).  On
the diagonal a = -c J_s/pi and, with C the Euler constant,

    B(s,s) = -sigma f''/(2 pi J_s^2) + c (i/2 - C/pi - ln(k- J_s/2)/pi) J_s
             + 2 c R J_s + layer normal term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularityError, SolverError
from .exprs import constant
from .green import MediumPair, incident_field
from .specfun import EULER_GAMMA, hankel1


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


@dataclass(frozen=True)
class BoundaryProblem:
    """One scattering problem: boundary kind, media, surface, incident wave.

    surface is any object with surface(t) = f and surface.jet(t) = (f, f',
    f''), such as a parsed expression (module surface); incident the spec
    {"type": "plane", "theta_d": ...} or {"type": "point", "y0": [y1, y2]}
    whose boundary data rhs_vector forms; beta the impedance function
    beta~(s), any callable, or a number, kept as an exprs.constant
    (impedance only, Re beta >= d > 0, checked at the nodes by
    nystrom.assemble; default 1); eta the coupling constant of the combined
    Dirichlet ansatz (default sqrt(k+ k-)).
    """

    kind: str
    medium: MediumPair
    surface: object
    incident: dict
    eta: Optional[float] = None
    beta: Optional[Callable | complex] = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "impedance"):
            raise DomainError(f"unknown problem kind {self.kind!r}")
        if not (isinstance(self.incident, dict)
                and self.incident.get("type") in ("plane", "point")):
            raise DomainError(f"unknown incident {self.incident!r}")
        if self.kind == "dirichlet":
            eta = self.eta if self.eta is not None else math.sqrt(
                self.medium.k_plus * self.medium.k_minus)
            if not eta > 0:
                raise DomainError("Dirichlet coupling eta must be positive")
            object.__setattr__(self, "eta", float(eta))
        else:
            beta = 1.0 if self.beta is None else self.beta
            object.__setattr__(self, "beta", beta if callable(beta)
                               else constant(complex(beta)))


def _surface_arrays(surface, s):
    """The surface jet (s, f, f', f'', J) at s, from one surface.jet call."""
    s = np.asarray(s, dtype=float)
    f, df, d2f = (np.asarray(x, dtype=float) for x in surface.jet(s))
    return s, f, df, d2f, np.sqrt(1.0 + df * df)


def _row_label(problem: BoundaryProblem, s, i):
    """Row i of the system on the nodes s: its node, and eta or beta there."""
    return f"node t = {s[i]:.6g}, " + (
        f"eta = {problem.eta:.6g}" if problem.kind == "dirichlet" else
        f"beta = {complex(problem.beta(s[i])):.6g}")


def _checked_rows(problem: BoundaryProblem, s):
    """beta at the rows s (None for Dirichlet), or an error naming the first
    row where Re beta > 0 fails (DomainError) or the kernel coefficient
    2c = 2i eta or 2i k- beta is not finite (SolverError: nor is the row)."""
    if problem.kind == "dirichlet":
        beta, c2 = None, np.full(s.size, 2j * problem.eta)
    else:
        beta = np.asarray(problem.beta(s), dtype=complex)
        bad = np.flatnonzero(~(beta.real > 0))
        if bad.size:
            raise DomainError(
                "impedance requires Re beta > 0 on the surface; beta = "
                f"{complex(beta[bad[0]]):.3g} at node s = {s[bad[0]]:.6g}")
        with np.errstate(over="ignore", invalid="ignore"):
            c2 = 2j * problem.medium.k_minus * beta
    bad = np.flatnonzero(~np.isfinite(c2))
    if bad.size:
        raise SolverError(f"collocation system not finite in row {bad[0]} "
                          f"({_row_label(problem, s, bad[0])})")
    return beta


def _pair_pieces(k_minus, rows, cols):
    """The pieces of the split between rows x_i and columns y_j that the
    pair (x_i, y_j) shares with (y_j, x_i).

    rows, cols: surface jets (s, f, f', f'', J) of _surface_arrays.  Returns
    (tau, dx2, rho, diag, h0, h1, band): tau = x1 - y1, dx2 = x2 - y2,
    rho = |x - y| (1 on the diagonal mask diag, s_i == t_j, where the kernel
    takes the analytic limits), H0 and H1 of k- rho, and the band terms.
    chi vanishes off the band |tau| < pi, so band = (bi, bj, chi, lg) holds
    them at its entries (bi, bj) only: chi, and lg = ln|2 sin(tau/2)| (0 on
    the diagonal and where chi = 0).  Swapping rows and columns negates tau
    and dx2 and transposes the rest (_swapped).
    """
    s, fs = rows[:2]
    t, ft = cols[:2]
    tau = s[:, None] - t[None, :]       # = x1 - y1
    dx2 = fs[:, None] - ft[None, :]
    rho = np.hypot(tau, dx2)
    diag = (np.abs(tau) <= 1e-14) & (rho <= 1e-14)
    if np.any((rho <= 1e-14) & ~diag):
        raise SingularityError("distinct parameters mapped to coincident points")
    rho[diag] = 1.0
    krho = k_minus * rho
    h0, h1 = hankel1(0, krho), hankel1(1, krho)
    del krho
    bi, bj = np.nonzero(np.abs(tau) < math.pi)
    tb = tau[bi, bj]
    chi = cutoff_chi(tb)
    lg = np.zeros(tb.shape)
    keep = (chi > 0) & ~diag[bi, bj]
    lg[keep] = np.log(np.abs(2.0 * np.sin(0.5 * tb[keep])))
    return tau, dx2, rho, diag, h0, h1, (bi, bj, chi, lg)


def _swapped(pieces, k):
    """Pieces of the swapped pairs (y_j, x_i) for the columns j >= k of
    _pair_pieces: tau and dx2 negated, every piece transposed.  tau, dx2, h0
    and h1 are C-ordered copies, since _kernel_block writes over tau, h0 and
    h1; rho and diag are views."""
    tau, dx2, rho, diag, h0, h1, (bi, bj, chi, lg) = pieces
    on = bj >= k
    return (np.negative(tau[:, k:].T, order="C"),
            np.negative(dx2[:, k:].T, order="C"), rho[:, k:].T, diag[:, k:].T,
            h0[:, k:].T.copy(), h1[:, k:].T.copy(),
            (bj[on] - k, bi[on], chi[on], lg[on]))


def _normal_terms(problem, rows, cols, beta):
    """(sigma, c, f', J): c at the rows, f', J at the normal's end (2-D)."""
    if problem.kind == "dirichlet":
        return (1.0, np.full(rows[0].size, 1j * problem.eta),
                *(x[None, :] for x in cols[2::2]))
    return -1.0, 1j * problem.medium.k_minus * beta, \
        *(x[:, None] for x in rows[2::2])


def _layer_normal(problem, jets, beta):
    """The normal (a, b, f', rows) of remainder_matrices on the node set
    (surface jets of _surface_arrays) whose layer sum is _kernel_block's
    layer: a = 2 c, b = 2 sigma / J, f' at the normal's end."""
    sigma, c, slope, jn = _normal_terms(problem, jets, jets, beta)
    return 2 * c, 2 * sigma / jn.ravel(), slope.ravel(), sigma < 0


def _kernel_block(problem, rows, cols, beta, pieces, layer):
    """(a, (bi, bj), B) of the periodic-log split between rows x_i and
    columns y_j, from their _pair_pieces: A is a at the band entries
    (bi, bj) and 0 elsewhere.

    rows, cols: surface jets of _surface_arrays; beta: beta at the rows
    (impedance only); layer: 2 c R + (layer normal term) / J_t, pairwise.
    kappa and its log coefficient a come from the one formula of the module
    doc; entries with s_i == t_j get the analytic diagonal limits.  For the
    impedance problem the matrices are those of K = M + L (see module doc).
    Writes over tau, h0 and h1 of pieces.
    """
    km = problem.medium.k_minus
    d2fs, Js, Jt = rows[3], rows[4], cols[4]
    sigma, c, slope, jn = _normal_terms(problem, rows, cols, beta)
    tau, dx2, rho, diag, h0, h1, (bi, bj, chi, lg) = pieces
    # q = dot J_t / rho, dot = -sigma (tau f' - dx2) / J at the normal's end
    q = np.multiply(tau, slope, out=tau)
    q -= dx2
    q *= -sigma * Jt
    q /= jn * rho
    q[diag] = 0.0
    dd = np.nonzero(diag)
    i = dd[0]
    # a = sigma (k-/pi) q J1 - (c/pi) J0 J_t, with J_n = Re H_n, at the band
    # entries; on the diagonal (here and in kappa) the limits of the module doc
    a = (h0.real[bi, bj] * Jt[bj]) * (-c[bi] / math.pi)
    a += (sigma * km / math.pi) * q[bi, bj] * h1.real[bi, bj]
    on = diag[bi, bj]
    a[on] = -c[bi[on]] * Js[bi[on]] / math.pi
    # kappa = [2 c (i/4) H0 + layer] J_t + sigma (-i k-/2) q H1
    kappa = h0
    kappa *= 0.25j
    kappa[dd] = 0.25j - (EULER_GAMMA + np.log(0.5 * km * Js[i])) / (2 * math.pi)
    kappa *= 2.0 * c[:, None]
    kappa += layer
    kappa *= Jt
    h1 *= q
    h1 *= -0.5j * sigma * km
    h1[dd] = -sigma * d2fs[i] / (2 * math.pi * Js[i] ** 2)
    kappa += h1
    # B = kappa - a chi ln|2 sin(tau/2)|, A = pi a chi; chi = 0 off the band
    a *= chi
    kappa[bi, bj] -= a * lg
    a *= math.pi
    return a, (bi, bj), kappa


def rhs_vector(problem: BoundaryProblem, s):
    """Collocation right-hand side at the parameters s, one (complex result)
    or an array: -2 g~(s) for Dirichlet, +2 g~(s) for impedance, with the
    boundary data g = -u_b or g = -(a u_b + b J du_b/dnu),
    (a, b) = (-i k- beta, 1/J), u_b from green.incident_field."""
    t, f, df, _, speed = _surface_arrays(problem.surface, np.atleast_1d(s))
    normal = None if problem.kind == "dirichlet" else (
        -1j * problem.medium.k_minus * np.asarray(problem.beta(t), complex),
        1.0 / speed, df)
    g = -incident_field(problem.medium, problem.incident, t, f, normal)
    return (-2.0 if problem.kind == "dirichlet" else 2.0) * g.reshape(np.shape(s))
