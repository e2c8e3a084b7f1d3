"""Reference evaluators: the two-layered Green function and the scalar kernels.

green_oracle is independent of the library: it integrates the raw spectral
representation (including the 1/S factors with their integrable branch-point
singularities) directly on the real axis with QUADPACK, splitting at the
branch points and truncating where the exponential vertical decay reaches
1e-17.  The free-space parts use scipy.special.hankel1 (AMOS), not the
Cephes j0/y0/j1/y1 the library uses.  Intended accuracy ~1e-12;
requires a vertical separation v >= 0.05 so the tail truncates.

The pointwise gradients and remainder (grad_green_x, grad_green_y,
green_remainder, green_remainder_terms) read the library's adaptive scalar
path, green._green_terms, which green() runs too; they ask it for the
gradient only when they return one, since its two-pass check covers every
part it returns.  It gives source gradients, and grad_green_x the field
point's by reciprocity, G(x, y) = G(y, x): the source gradient of the
ends-swapped call.  The
scalar kernel paths (kernel_dbvp_raw, kernel_ibvp_raw, split_dbvp,
split_ibvp) check the assembled matrices of layerscat.bie pointwise: the raw
kernels from green/grad_green_x/grad_green_y, the split from a pointwise
remainder, made into its layer sum here (layer_sum), fed through
split_matrices (_kernel_split).  remainder_triple and batch_triple read the
value and both source derivatives of the rectangular sums and of
green_surface_batch from three of their layer sums; full_remainder is
remainder_triple on a node set.

kernel_rows gives (A, B) between off-node points and the grid the same way,
with the triple from remainder_triple.  The one-shot system (weight_matrix,
system_matrix) forms I - (W o A + h B) whole from kernel_rows on the nodes:
the reference for nystrom.assemble's panel sweep, which builds the same
matrix in row panels from the node-set sum.  On a plane the matrix is
symmetric Toeplitz, and plane_matrix forms it from its row 0 and column 0,
each from kernel_rows: the reference for nystrom.assemble's plane path.

Run as a script to regenerate the golden CSV:

    PYTHONPATH=src python3 tests/oracle.py tests/data/green_golden.csv
"""

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.integrate import IntegrationWarning, quad
from scipy.special import hankel1 as _h1

from conftest import speed, unit_normal
from layerscat import sommerfeld
from layerscat.bie import (_checked_rows, _kernel_block, _pair_pieces,
                           _surface_arrays)
from layerscat.errors import DomainError, SingularityError
from layerscat.green import _green_terms, green, green_surface_batch
from layerscat.nystrom import log_weight

ORACLE_TOL = 1e-12

#: 25 source/target pairs spanning all four sign patterns of (x2, y2),
#: with moderate horizontal offsets and vertical separations >= 0.3.
GOLDEN_PAIRS = [
    # case 1: x2 >= 0, y2 >= 0
    ((0.0, 0.4), (0.6, 0.3)), ((-1.0, 1.2), (0.5, 0.2)),
    ((0.3, 0.8), (-0.9, 0.9)), ((2.0, 0.25), (0.0, 0.55)),
    ((-0.5, 1.6), (-2.0, 0.1)), ((1.2, 0.45), (1.9, 1.35)),
    # case 2: x2 >= 0, y2 <= 0
    ((0.0, 0.5), (0.0, -0.5)), ((0.6, 0.56), (1.0, -1.3)),
    ((-1.4, 0.2), (0.3, -0.8)), ((0.8, 1.5), (-0.7, -0.4)),
    ((2.5, 0.05), (1.0, -1.0)), ((0.1, 2.2), (0.4, -2.0)),
    # case 3: x2 <= 0, y2 >= 0
    ((0.0, -0.5), (0.0, 0.5)), ((1.0, -1.3), (0.6, 0.56)),
    ((-0.3, -0.9), (0.7, 0.3)), ((1.7, -0.25), (-0.8, 1.1)),
    ((-2.2, -1.5), (-0.4, 0.05)), ((0.9, -0.1), (1.3, 2.4)),
    # case 4: x2 <= 0, y2 <= 0
    ((0.2, -0.8), (-0.3, -1.1)), ((0.0, -0.2), (0.5, -0.3)),
    ((-1.1, -1.4), (0.8, -0.6)), ((2.3, -0.35), (1.1, -1.9)),
    ((0.4, -2.5), (-0.9, -0.15)), ((1.5, -0.55), (1.5, -1.45)),
    ((-0.6, -1.0), (2.1, -0.75)),
]


def _s_real(xi, a):
    xi = abs(xi)
    if xi <= a:
        return -1j * np.sqrt(a * a - xi * xi)
    return np.sqrt(xi * xi - a * a) + 0j


def _phi(k, x, y):
    return 0.25j * _h1(0, k * np.hypot(x[0] - y[0], x[1] - y[1]))


def _quad_complex(fn, a, b):
    # the tolerance request sits at roundoff level on purpose; the achieved
    # accuracy is what the consuming tests assert, so mute the advisory
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(lambda t: fn(t).real, a, b, limit=800, epsabs=1e-13, epsrel=1e-12)[0]
        im = quad(lambda t: fn(t).imag, a, b, limit=800, epsabs=1e-13, epsrel=1e-12)[0]
    return re + 1j * im


def green_oracle(k_plus, k_minus, x, y):
    """G(x, y) from the raw spectral formula (adaptive real-axis quadrature)."""
    x1, x2 = float(x[0]), float(x[1])
    y1, y2 = float(y[0]), float(y[1])
    u = x1 - y1
    k1, k2 = sorted((k_plus, k_minus))
    if x2 >= 0 and y2 >= 0:
        v = x2 + y2
        base = _phi(k_plus, x, y)
        pref = 1.0 / (2 * np.pi)

        def fn(xi):
            sp, sm = _s_real(xi, k_plus), _s_real(xi, k_minus)
            return (sp - sm) / ((sp + sm) * sp) * np.exp(-sp * v) * np.cos(xi * u)
    elif x2 >= 0 >= y2:
        v = x2 - y2
        base = 0.0
        pref = 1.0 / np.pi

        def fn(xi):
            sp, sm = _s_real(xi, k_plus), _s_real(xi, k_minus)
            return np.exp(sm * y2 - sp * x2) / (sp + sm) * np.cos(xi * u)
    elif x2 <= 0 <= y2:
        v = y2 - x2
        base = 0.0
        pref = 1.0 / np.pi

        def fn(xi):
            sp, sm = _s_real(xi, k_plus), _s_real(xi, k_minus)
            return np.exp(-sp * y2 + sm * x2) / (sp + sm) * np.cos(xi * u)
    else:
        v = -(x2 + y2)
        base = _phi(k_minus, x, y)
        pref = 1.0 / (2 * np.pi)

        def fn(xi):
            sp, sm = _s_real(xi, k_plus), _s_real(xi, k_minus)
            return (sm - sp) / ((sp + sm) * sm) * np.exp(sm * (x2 + y2)) * np.cos(xi * u)
    if v < 0.05:
        raise ValueError("oracle requires vertical separation >= 0.05")
    tail = np.sqrt((40.0 / v) ** 2 + k2 * k2)
    edges = [0.0, k1, k2, 2 * k2, tail]
    total = sum(_quad_complex(fn, a, b) for a, b in zip(edges, edges[1:]))
    return base + pref * total


def grad_green_y(medium, x, y, tol=1e-10):
    """(dG/dy1, dG/dy2); y must lie off the interface (gradient within one layer)."""
    if float(y[1]) == 0.0:
        raise DomainError("grad_green_y requires y2 != 0")
    return tuple(_green_terms(medium, x, y, True, tol)[1:])


def grad_green_x(medium, x, y, tol=1e-10):
    """(dG/dx1, dG/dx2), the source gradient of G(y, x); x must lie off the
    interface."""
    if float(x[1]) == 0.0:
        raise DomainError("grad_green_x requires x2 != 0")
    return tuple(_green_terms(medium, y, x, True, tol)[1:])


def green_remainder_terms(medium, x, y, grad=False, tol=1e-10):
    """R(x, y) = G(x, y) - Phi_{k-}(x, y) for x2, y2 < 0, as the array [R]
    or with grad [R, dR/dy1, dR/dy2]."""
    if float(x[1]) >= 0 or float(y[1]) >= 0:
        raise DomainError("green_remainder requires both points below the interface")
    return _green_terms(medium, x, y, grad, tol, direct=False)


def green_remainder(medium, x, y, tol=1e-10):
    """Smooth remainder R(x, y) for x2, y2 < 0."""
    return green_remainder_terms(medium, x, y, tol=tol)[0]


@dataclass(frozen=True)
class KernelSplit:
    """Kernel decomposition kappa = (1/2pi) A ln(4 sin^2((s-t)/2)) + B.

    A vanishes for |s-t| >= pi; B is continuous across the diagonal.
    """

    A: Callable
    B: Callable
    support_radius: float = math.pi


def split_dbvp(problem) -> KernelSplit:
    """Periodic-log split of the Dirichlet kernel (scalar closures)."""
    if problem.kind != "dirichlet":
        raise DomainError("split_dbvp requires a Dirichlet problem")
    return _split(problem, sign=1.0)


def split_ibvp(problem) -> KernelSplit:
    """Periodic-log split of the impedance kernel of the collocation system
    psi + integral kappa_bar psi = 2 g (kappa_bar = -(M + L))."""
    if problem.kind != "impedance":
        raise DomainError("split_ibvp requires an impedance problem")
    return _split(problem, sign=-1.0)


def _split(problem, sign):
    """Scalar closures A(s, t), B(s, t): pointwise R, then the same
    regrouping as the matrices."""
    f = problem.surface

    def pointwise(p, q):
        r = green_remainder_terms(problem.medium, (p[0], float(f(p[0]))),
                                  (q[0], float(f(q[0]))), grad=True)
        return tuple(np.array([[v]]) for v in r)

    def AB(s, t):
        A, B = _kernel_split(problem, np.array([float(s)]),
                             np.array([float(t)]), pointwise)
        return sign * complex(A[0, 0]), sign * complex(B[0, 0])

    return KernelSplit(A=lambda s, t: AB(s, t)[0], B=lambda s, t: AB(s, t)[1])


def split_matrices(problem, s, t, layer):
    """(A, B) of the periodic-log split between rows x_i = (s_i, f(s_i)) and
    columns y_j = (t_j, f(t_j)) for a given pairwise layer argument of
    bie._kernel_block."""
    rows = _surface_arrays(problem.surface, s)
    cols = _surface_arrays(problem.surface, t)
    beta = _checked_rows(problem, rows[0])
    pieces = _pair_pieces(problem.medium.k_minus, rows, cols)
    a, band, b = _kernel_block(problem, rows, cols, beta, pieces, layer)
    A = np.zeros_like(b)
    A[band] = a
    return A, b


def _raw_points(problem, s, t):
    if s == t:
        raise SingularityError("raw kernel is singular on the diagonal")
    surf = problem.surface
    return (s, float(surf(s))), (t, float(surf(t))), float(speed(surf, t))


def kernel_dbvp_raw(problem, s: float, t: float) -> complex:
    """kappa_D(s,t) = 2 [dG/dnu(y) + i eta G] sqrt(1+f'(t)^2), s != t."""
    if problem.kind != "dirichlet":
        raise DomainError("kernel_dbvp_raw requires a Dirichlet problem")
    x_pt, y_pt, jt = _raw_points(problem, s, t)
    gy = grad_green_y(problem.medium, x_pt, y_pt)
    gval = green(problem.medium, x_pt, y_pt)
    nt = unit_normal(problem.surface, t)
    return 2.0 * (nt[0] * gy[0] + nt[1] * gy[1] + 1j * problem.eta * gval) * jt


def kernel_ibvp_raw(problem, s: float, t: float) -> complex:
    """kappa_bar(s,t) = 2 [dG/dnu(x) - i k- beta(s) G] sqrt(1+f'(t)^2), s != t."""
    if problem.kind != "impedance":
        raise DomainError("kernel_ibvp_raw requires an impedance problem")
    x_pt, y_pt, jt = _raw_points(problem, s, t)
    med = problem.medium
    gx = grad_green_x(med, x_pt, y_pt)
    gval = green(med, x_pt, y_pt)
    ns = unit_normal(problem.surface, s)
    beta_s = complex(np.asarray(problem.beta(s), dtype=complex))
    return 2.0 * (ns[0] * gx[0] + ns[1] * gx[1]
                  - 1j * med.k_minus * beta_s * gval) * jt


def remainder_triple(medium, t, f, s, fs, refine=1):
    """(I, dI/dy1, dI/dy2) of sommerfeld.remainder_matrices between the
    sources (t_j, f_j) and the targets (s_i, fs_i), from three of its sums:
    I with no normal, -dI/dy2 with (a, b, f') = (0, 1, 0) and
    dI/dy1 - dI/dy2 with (0, 1, 1)."""
    def rect(normal):
        return sommerfeld.remainder_matrices(
            medium.k_plus, medium.k_minus, t, f, s_nodes=s, fs_vals=fs,
            refine=refine, normal=normal)

    i2 = -rect((0.0, 1.0, 0.0))
    return rect(None), rect((0.0, 1.0, 1.0)) + i2, i2


def full_remainder(medium, t, f, refine=1):
    """Full (R, dR/dy1, dR/dy2) between the surface nodes (t_j, f_j) and
    themselves: remainder_triple with the nodes as targets too."""
    return remainder_triple(medium, t, f, t, f, refine)


def batch_triple(medium, x, t, f, check=False):
    """(G, dG/dy1, dG/dy2) of green_surface_batch at the targets x, from the
    same three layer sums as remainder_triple."""
    g2 = -green_surface_batch(medium, x, t, f, (0.0, 1.0, 0.0), check)
    return (green_surface_batch(medium, x, t, f, None, check),
            green_surface_batch(medium, x, t, f, (0.0, 1.0, 1.0), check) + g2,
            g2)


def layer_normal(surface, t, a, rows):
    """normal = (a, b, f', rows) of sommerfeld.remainder_matrices at the
    nodes t: b = 2 sigma / J, sigma = -1 with the normal at the rows
    (impedance) and +1 at the columns (Dirichlet)."""
    df = np.asarray(surface.jet(t)[1], dtype=float)
    b = (-2.0 if rows else 2.0) / np.sqrt(1.0 + df * df)
    return np.broadcast_to(a, np.shape(t)), b, df, rows


def layer_sum(remainder, normal):
    """The layer sum of a node set from its full (R, dR/dy1, dR/dy2): with
    N = f' dR/dy1 - dR/dy2, R diag(a) + N diag(b), or with rows its
    transpose diag(a) R^T + diag(b) N^T.  The tests' one copy of the
    formula, independent of sommerfeld._normal_sum."""
    R, R1, R2 = remainder
    a, b, df, rows = normal
    L = R * a + (df * R1 - R2) * b
    return L.T if rows else L


def _kernel_split(problem, s, t, remainder):
    """(A, B) between rows s and columns t (split_matrices) over the layer
    sum formed by layer_sum from remainder(p, q), the triple
    (R, dR/dy1, dR/dy2) between targets p and sources q.  The sources carry
    the normal: q = t, or for the impedance kernel q = s, whose layer sum
    is the transposed form."""
    rows = problem.kind == "impedance"
    p, q = (t, s) if rows else (s, t)
    a = 2j * (problem.medium.k_minus * np.asarray(problem.beta(q), complex)
              if rows else problem.eta)
    normal = layer_normal(problem.surface, q, a, rows)
    return split_matrices(problem, s, t, layer_sum(remainder(p, q), normal))


def kernel_rows(problem, s, t):
    """Rectangular (A, B) between collocation points s and the grid t
    (Nystrom natural interpolation; t = s gives the dense kernel at the
    nodes), with the layer sum from remainder_triple."""
    f, med = problem.surface, problem.medium
    return _kernel_split(problem, np.asarray(s, float), np.asarray(t, float),
                         lambda p, q: remainder_triple(med, q, f(q), p, f(p)))


def weight_matrix(grid):
    """W_ij = R_j^N(t_i); Toeplitz in i - j and even in the offset."""
    offsets = np.arange(grid.node_count) * grid.h
    return sla.toeplitz(log_weight(grid.N, offsets, 0.0))


def system_matrix(problem, grid):
    """The collocation matrix I - (W o A + h B), formed in one shot."""
    A, B = kernel_rows(problem, grid.nodes, grid.nodes)
    return np.eye(grid.node_count, dtype=complex) - (weight_matrix(grid) * A
                                                     + grid.h * B)


def plane_matrix(problem, grid):
    """The collocation matrix of a plane surface, the Toeplitz matrix of its
    row 0 and column 0, each formed as system_matrix forms it, from
    kernel_rows between node 0 and the grid."""
    t, w = grid.nodes, weight_matrix(grid)
    A, B = kernel_rows(problem, t[:1], t)
    row = -(w[0] * A[0] + grid.h * B[0])
    A, B = kernel_rows(problem, t, t[:1])
    col = -(w[:, 0] * A[:, 0] + grid.h * B[:, 0])
    row[0] += 1.0
    col[0] += 1.0
    return sla.toeplitz(col, row)


def boundary_residual(fw, x1_samples):
    """Max violation by the four-wave solution fw (potentials.FourWaveSolution)
    of the interface transmission conditions and of the boundary condition
    at x2 = fw.plane_height, over the sample abscissas."""
    x1 = np.atleast_1d(np.asarray(x1_samples, dtype=float))
    heights = np.array([[1e-30], [-1e-30], [fw.plane_height]])
    u, _, g2 = fw._waves((x1, heights))
    if fw.kind == "dirichlet":
        bc = u[2]
    else:
        bc = -g2[2] - 1j * fw.medium.k_minus * fw.beta0 * u[2]
    misfit = np.concatenate((u[0] - u[1], g2[0] - g2[1], bc))
    return float(np.abs(misfit).max(initial=0.0))


def write_golden(path, k_plus=2.7, k_minus=3.5):
    lines = ["k_plus,k_minus,x1,x2,y1,y2,re,im,tol"]
    for x, y in GOLDEN_PAIRS:
        g = green_oracle(k_plus, k_minus, x, y)
        lines.append(f"{k_plus},{k_minus},{x[0]},{x[1]},{y[0]},{y[1]},"
                     f"{g.real:.16e},{g.imag:.16e},{ORACLE_TOL:g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_golden(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            kp, km, x1, x2, y1, y2, re, im, tol = map(float, line.split(","))
            rows.append((kp, km, (x1, x2), (y1, y2), re + 1j * im, tol))
    return rows


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "tests/data/green_golden.csv"
    write_golden(out)
    print(f"wrote {out}")
