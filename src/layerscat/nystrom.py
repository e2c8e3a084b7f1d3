"""Truncated-line Nystrom discretization of the collocation systems.

Grid: t_j = -A + j h, j = 0..2A/h, h = pi/N, A a positive multiple of pi
(so A/h is an integer).  The quadrature weights for the periodic logarithm,

    R_j^N(s) = -(1/N) [ sum_{m=1}^{N-1} cos(m (s - t_j))/m
                        + cos(N (s - t_j))/(2N) ],

integrate ln(4 sin^2((s-t)/2)) exactly against trigonometric polynomials of
degree < N (2 pi R_j^N are the classical log-quadrature weights).  The
discrete operator is

    (K_N psi)(s) = sum_j [ R_j^N(s) A(s, t_j) + (pi/N) B(s, t_j) ] psi(t_j),

collocated at s = t_i, giving the dense system (I - K_N) psi = rhs.

Every surface goes through one writer, _panel_sweep, over one shared-rule
layer sum, sommerfeld.remainder_matrices: R and its normal derivative,
combined with the kind's coefficients, in the one matrix the system is then
written over.  The pair geometry, the Hankel values and the band terms of
(A, B) are the same for a node pair and its mirror, up to the sign of x - y,
so the sweep evaluates them once for each unordered pair: row panels sweep
the upper triangle and also fill the block below the panel from the
transposed pieces.

On a plane every entry depends on |i - j| alone: with f' = 0 the layer sum
is a I - b dI/dy2 whichever end carries the normal, and below the interface
dI/dy2 = dI/dx2, so one row serves both kinds.  There the layer sum is node
0's one-target row (through the plane's tables, O(n q) flops), the sweep
writes that row (n Hankel points), and solve_system solves from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack as _lapack

from . import sommerfeld
from .bie import (BoundaryProblem, _checked_rows, _kernel_block, _layer_normal,
                  _pair_pieces, _row_label, _surface_arrays, _swapped,
                  rhs_vector)
from .errors import DomainError, SolverError

_COND_LIMIT = 1e12
_RESIDUAL_LIMIT = 1e-10
#: elements per row panel of assemble: a panel's bie._pair_pieces and the
#: bie._kernel_block made from them hold about eight panel-sized complex
#: temporaries, so together they stay near the sommerfeld._BLOCK budget
_PANEL = sommerfeld._BLOCK // 8
#: rows per panel at most: a panel of r rows evaluates its pair pieces on
#: r (n - lo) pairs, so the sweep covers about n^2 / 2 + r n / 2 pairs, and
#: a short panel keeps that near n^2 / 2 where _PANEL // n alone is tall
_PANEL_ROWS = 32


@dataclass(frozen=True)
class Grid:
    """Uniform truncated grid on [-A, A] with spacing h = pi/N."""

    half_width_A: float
    N: int

    def __post_init__(self):
        if not (self.N >= 1 and float(self.N).is_integer()):
            raise DomainError(f"N must be a positive integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if not (self.half_width_A > 0 and math.isfinite(self.half_width_A)):
            raise DomainError("truncation half-width must be positive and finite, "
                              f"got {self.half_width_A!r}")
        ratio = self.half_width_A / self.h
        if abs(ratio - round(ratio)) > 1e-9:
            raise DomainError(
                f"A/h must be an integer (A = {self.half_width_A}, h = {self.h})")

    @property
    def h(self) -> float:
        return math.pi / self.N

    @property
    def node_count(self) -> int:
        return 2 * int(round(self.half_width_A / self.h)) + 1

    @property
    def nodes(self) -> np.ndarray:
        m = self.node_count
        return -self.half_width_A + self.h * np.arange(m)


@dataclass(frozen=True)
class DensitySolution:
    """Nodal density values of one solved collocation system."""

    grid: Grid
    values: np.ndarray
    residual_norm: float
    condition_estimate: float


def log_weight(N: int, s, t_j):
    """Quadrature weight R_j^N(s) of the periodic-log rule."""
    if not (N >= 1 and float(N).is_integer()):
        raise DomainError(f"N must be a positive integer, got {N!r}")
    N = int(N)
    d = np.asarray(s, dtype=float) - np.asarray(t_j, dtype=float)
    acc = np.zeros_like(d)
    for m in range(1, N):
        acc = acc + np.cos(m * d) / m
    acc = acc + np.cos(N * d) / (2.0 * N)
    out = -acc / N
    return float(out) if out.ndim == 0 else out


def assemble(problem: BoundaryProblem, grid: Grid):
    """Collocation system (matrix, rhs) for the given problem.  The matrix is
    I - (W o A + h B), W_ij = R^N(t_i - t_j) = w_|i-j|, _panel_sweep's over
    the node-set layer sum, or on a plane (f = f[0], f' = f'' = 0 and, for
    impedance, beta = beta[0] at every node, compared exactly; a NaN node is
    none) over node 0's: the symmetric Toeplitz matrix's row 0, returned 1-D."""
    t = grid.nodes
    beta = _checked_rows(problem, t)    # fail before the layer integrals
    jets = _surface_arrays(problem.surface, t)
    w = log_weight(grid.N, np.arange(t.size) * grid.h, 0.0)
    plane = (np.all(jets[1] == jets[1][0]) and not np.any(jets[2:4])
             and (beta is None or np.all(beta == beta[0])))
    normal = _layer_normal(problem, jets, beta)
    layer = sommerfeld.remainder_matrices(
        problem.medium.k_plus, problem.medium.k_minus, t, jets[1],
        s_nodes=t[:1] if plane else None, fs_vals=jets[1][:1],
        normal=normal[:3] if plane else normal)
    matrix = _panel_sweep(layer, problem, jets, beta, w, grid.h)
    rhs = np.asarray(rhs_vector(problem, t), dtype=complex)
    return (matrix[0] if plane else matrix), rhs


def _panel_sweep(matrix, problem, jets, beta, w, h):
    """Write I - (W o A + h B), W_ij = w_|i-j|, over the layer sum matrix of
    rows [0, m) (m = n, or 1 on a plane), one row panel [lo, hi) of
    min(_PANEL_ROWS, _PANEL // n) rows at a time: bie._pair_pieces on rows
    [lo, hi) x columns [lo, n), then bie._kernel_block on them for the rows
    [hi, m) x columns [lo, hi) below the panel (transposed) and for the
    panel's rows [lo, hi) x columns [lo, n).  Each block is written over
    the layer sum it has just read; later panels read only rows and columns
    from hi on.  Beyond that one sum only panel-sized temporaries exist.
    """
    m, n = matrix.shape
    km = problem.medium.k_minus
    step = max(1, min(_PANEL_ROWS, _PANEL // n))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        own = slice(lo, hi)
        pieces = _pair_pieces(km, tuple(x[own] for x in jets),
                              tuple(x[lo:] for x in jets))
        below = [(slice(hi, n), own)] if hi < m else []
        # below first: _swapped copies the pieces before _kernel_block writes over them
        for rows, cols in below + [(own, slice(lo, n))]:
            a, (bi, bj), b = _kernel_block(
                problem, tuple(x[rows] for x in jets),
                tuple(x[cols] for x in jets), None if beta is None else beta[rows],
                pieces if rows is own else _swapped(pieces, hi - lo),
                matrix[rows, cols])
            a *= w[np.abs(bi - bj + (rows.start - cols.start))]
            b *= h
            b[bi, bj] += a
            np.negative(b, out=matrix[rows, cols])
            del a, bi, bj, b    # b is _swapped's h0 copy below: free it per block
        d = np.arange(lo, hi)
        matrix[d, d] += 1.0                 # the identity
    return matrix


def solve_system(matrix: np.ndarray, rhs: np.ndarray, row_label=None):
    """Direct solve with a condition estimate and one step of iterative
    refinement; returns (values, residual_norm, cond_estimate).  A 2-D matrix
    goes by _lu_solver, a 1-D one (toeplitz(row, row)) by _toeplitz_solver.
    A row not finite in matrix or rhs is a SolverError, with row_label(i)."""
    matrix = np.asarray(matrix, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    if matrix.ndim not in (1, 2) or matrix.shape[0] != matrix.shape[-1]:
        raise SolverError("system matrix must be square")
    if matrix.shape[0] != rhs.shape[0]:
        raise SolverError("matrix/right-hand side size mismatch")
    bad = np.flatnonzero(~(np.isfinite(matrix).all(axis=-1) & np.isfinite(rhs)))
    if bad.size:    # one pass, the solvers skip theirs; a 1-D entry is in row 0
        raise SolverError(f"collocation system not finite in row {bad[0]}"
                          + (f" ({row_label(bad[0])})" if row_label else ""))
    try:
        apply, inverse, cond = (_lu_solver if matrix.ndim == 2
                                else _toeplitz_solver)(matrix)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    if not cond <= _COND_LIMIT:     # inf: a singular LU; NaN: no Toeplitz inverse
        raise SolverError(f"collocation matrix too ill-conditioned (est {cond:.3e})")
    x = inverse(rhs)
    x = x + inverse(rhs - apply(x))
    residual = float(np.abs(apply(x) - rhs).max())
    if not residual <= _RESIDUAL_LIMIT * max(1.0, float(np.abs(rhs).max())):
        raise SolverError(f"solve residual {residual:.3e} above tolerance")
    return x, residual, cond


def _lu_solver(matrix):
    """(A v, A^-1 v, zgecon's 1-norm condition estimate) from the LU of A."""
    anorm = np.linalg.norm(matrix, 1)   # its |A| is freed before the LU copy
    lu = sla.lu_factor(matrix, check_finite=False)
    rcond, info = _lapack.zgecon(lu[0], anorm, norm="1")
    cond = 1.0 / rcond if info == 0 and rcond > 0 else math.inf
    return matrix.__matmul__, lambda v: sla.lu_solve(lu, v, check_finite=False), cond


def _toeplitz_solver(row):
    """(T v, T^-1 v, 1-norm condition estimate) for T = toeplitz(row, row):
    x = T^-1 e0 by one Levinson pass, then, T being symmetric, Gohberg-Semencul
    T^-1 = (L(x) L(x)^T - L(b) L(b)^T) / x0, b = ZJx (x reversed, shifted down
    one), L(v) lower-triangular Toeplitz of first column v; these and T's
    circulant embedding act by FFT at a power-of-two length m >= 2n.  ||T||_1
    times zlacn2's Hager-Higham estimate (ACM TOMS 14(4), 1988) of ||T^-1||_1."""
    n = row.size
    x = sla.solve_toeplitz((row, row), np.eye(1, n)[0], check_finite=False)
    m = 1 << (2 * n - 1).bit_length()
    xb = np.fft.fft([x, np.r_[0.0, x[:0:-1]]], m)
    circulant = np.fft.fft(np.r_[row, np.zeros(m - 2 * n + 1), row[:0:-1]])

    def inverse(v):     # [L(x)^T v, L(b)^T v] = J [L(x), L(b)] J v
        y = np.fft.fft(np.fft.ifft(xb * np.fft.fft(v[::-1], m))[:, n - 1::-1], m)
        return np.fft.ifft(xb[0] * y[0] - xb[1] * y[1])[:n] / x[0]

    v, j = inverse(np.full(n, 1.0 / n)), None
    est = np.abs(v).sum()
    for _ in range(4):
        z = np.abs(inverse(np.exp(-1j * np.angle(v))))  # = |T^-H sign(v)|
        j, jlast = z.argmax(), j
        v = v if j == jlast else inverse(np.eye(1, n, j)[0])
        if not np.abs(v).sum() > est:       # no gain, or the same column again
            break
        est = np.abs(v).sum()
    alt = (1.0 + np.arange(n) / max(n - 1, 1)) * (-1.0) ** np.arange(n)
    est = max(est, 2.0 * np.abs(inverse(alt)).sum() / (3 * n))
    s = np.cumsum(np.abs(row))      # column j of |T| sums to s_j + s_{n-1-j} - |r_0|
    return (lambda v: np.fft.ifft(circulant * np.fft.fft(v, m))[:n], inverse,
            float((s + s[::-1]).max() - s[0]) * est)


def solve(problem: BoundaryProblem, grid: Grid) -> DensitySolution:
    """Assemble and solve; returns the nodal density with solve diagnostics.
    A row not finite is named by its node t and eta, or beta there."""
    matrix, rhs = assemble(problem, grid)
    values, residual, cond = solve_system(
        matrix, rhs, lambda i: _row_label(problem, grid.nodes, i))
    return DensitySolution(grid=grid, values=values, residual_norm=residual,
                           condition_estimate=cond)
