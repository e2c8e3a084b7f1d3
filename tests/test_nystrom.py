"""Grid, periodic-log quadrature weights, assembly, and the dense and
Toeplitz-row solves."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from oracle import kernel_rows, plane_matrix, system_matrix, weight_matrix

from layerscat import bie, nystrom, sommerfeld
from layerscat.bie import BoundaryProblem
from layerscat.cli import _PRESETS, build_problem, preset_config, run
from layerscat.errors import DomainError, SolverError
from layerscat.green import MediumPair
from layerscat.nystrom import Grid, assemble, log_weight, solve, solve_system
from layerscat.surface import builtin


def test_grid_invariants():
    g = Grid(half_width_A=10 * math.pi, N=8)
    assert g.h == math.pi / 8
    assert g.node_count == 2 * 8 * 10 + 1
    t = g.nodes
    assert t[0] == -10 * math.pi and t[-1] == pytest.approx(10 * math.pi, abs=1e-12)
    assert np.allclose(np.diff(t), g.h)
    with pytest.raises(DomainError):
        Grid(half_width_A=10.0, N=8)   # A/h not an integer
    with pytest.raises(DomainError):
        Grid(half_width_A=math.pi, N=0)


@pytest.mark.parametrize("A", [0.0, -math.pi, math.inf, math.nan])
def test_grid_refuses_bad_half_width(A):
    with pytest.raises(DomainError,
                       match="truncation half-width must be positive and finite"):
        Grid(half_width_A=A, N=4)


def test_float_n_is_the_integer_n():
    # N = 4.0 passes as 4: Grid stores int(N), and the density is N = 4's
    problem = build_problem(preset_config("example1-dbvp", N=4))
    grid = Grid(half_width_A=math.pi, N=4.0)
    assert type(grid.N) is int and grid == Grid(half_width_A=math.pi, N=4)
    assert np.array_equal(solve(problem, grid).values,
                          solve(problem, Grid(half_width_A=math.pi, N=4)).values)
    assert np.array_equal(log_weight(4.0, 0.3, 0.0), log_weight(4, 0.3, 0.0))


@pytest.mark.parametrize("N", [math.nan, math.inf, 2.5, 0, np.float64(math.inf)])
def test_n_must_be_a_finite_positive_integer(N):
    with pytest.raises(DomainError, match="N must be a positive integer, got"):
        Grid(half_width_A=math.pi, N=N)
    with pytest.raises(DomainError, match="N must be a positive integer, got"):
        log_weight(N, 0.3, 0.0)


def test_log_weight_n1_diagonal():
    # N = 1, s = t_j: empty sum plus cos(0)/2, scaled by -1
    assert log_weight(1, 0.3, 0.3) == pytest.approx(-0.5, abs=1e-15)


def test_log_weight_periodic_sum_zero():
    # over one full period of 2N equispaced nodes the weights sum to zero
    for n in (1, 3, 8):
        h = math.pi / n
        t = h * np.arange(2 * n)
        for s in (0.0, 0.37, 1.9):
            assert abs(np.sum(log_weight(n, s, t))) < 1e-13


def test_log_weight_direct_summation():
    # independent high-precision summation at N = 4, s - t_j = pi/4
    n, d = 4, math.pi / 4
    terms = [math.cos(m * d) / m for m in range(1, n)]
    terms.append(math.cos(n * d) / (2 * n))
    ref = -math.fsum(terms) / n
    assert log_weight(4, d, 0.0) == pytest.approx(ref, abs=1e-16)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_log_weight_trigonometric_exactness(m):
    # 2 pi R_j^N integrate ln(4 sin^2((s-t)/2)) exactly against e^{i m t}:
    # 0 for m = 0 and -(2 pi / m) e^{i m s} for m >= 1, once N > m
    for n in (4, 8, 16):
        if n <= m:
            continue
        h = math.pi / n
        t = h * np.arange(2 * n)
        for s in (0.0, 0.61):
            val = np.sum(2 * math.pi * log_weight(n, s, t) * np.exp(1j * m * t))
            ref = 0.0 if m == 0 else -(2 * math.pi / m) * np.exp(1j * m * s)
            assert abs(val - ref) <= 1e-12


def test_weight_matrix_toeplitz():
    g = Grid(half_width_A=2 * math.pi, N=4)
    w = weight_matrix(g)
    t = g.nodes
    for i in (0, 3, 8):
        for j in (0, 5, last := g.node_count - 1):
            assert w[i, j] == pytest.approx(log_weight(4, t[i], t[j]), abs=1e-14)


def test_identity_system():
    rhs = np.zeros(5, complex)
    rhs[2] = 1.0
    x, res, cond = solve_system(np.eye(5, dtype=complex), rhs)
    assert np.allclose(x, rhs)
    assert res <= 1e-14
    assert cond == pytest.approx(1.0, rel=1e-6)


def test_hand_inverted_2x2():
    a = np.array([[1.0 + 1j, 2.0], [0.5j, 1.0 - 1j]], dtype=complex)
    rhs = np.array([1.0, 2.0 - 1j], dtype=complex)
    det = (1 + 1j) * (1 - 1j) - 2 * 0.5j
    inv = np.array([[1.0 - 1j, -2.0], [-0.5j, 1.0 + 1j]], dtype=complex) / det
    x, res, cond = solve_system(a, rhs)
    assert np.allclose(x, inv @ rhs, atol=1e-14)
    assert res <= 1e-14


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_system_rejected():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SolverError):
        solve_system(a, np.ones(2, complex))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_near_singular_condition_limit():
    a = np.diag([1.0, 1e-13]).astype(complex)
    with pytest.raises(SolverError):
        solve_system(a, np.ones(2, complex))


def test_assemble_diagonal_structure():
    cfg = preset_config("example1-dbvp", N=4, A_over_pi=2)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    matrix, rhs = assemble(problem, grid)
    A, B = kernel_rows(problem, grid.nodes, grid.nodes)
    t = grid.nodes
    for i in (0, 7, 12):
        ri = log_weight(grid.N, t[i], t[i])
        expected = 1.0 - (ri * A[i, i] + grid.h * B[i, i])
        assert matrix[i, i] == pytest.approx(expected, abs=1e-14)
    assert rhs.shape == (grid.node_count,)


class _Holed:
    """The plane gamma2 with NaN heights where |t| < 0.1."""

    def __call__(self, t):
        return self.jet(t)[0]

    def jet(self, t):
        f, df, d2f = builtin("gamma2").jet(t)
        return np.where(np.abs(t) < 0.1, np.nan, f), df, d2f


def test_assemble_refuses_nan_surface_node():
    # a profile is not checked at construction: the shared rule refuses a
    # node height that is not below the interface, NaN included
    problem = BoundaryProblem(kind="dirichlet", medium=MediumPair(2.7, 3.5),
                              surface=_Holed(),
                              incident={"type": "plane", "theta_d": 4 * math.pi / 3})
    with pytest.raises(DomainError, match="strictly below the interface"):
        assemble(problem, Grid(half_width_A=math.pi, N=4))


def _sweep(problem, grid):
    """The n x n matrix of nystrom._panel_sweep over the node-set layer sum,
    which assemble takes off a plane, on any surface, a plane included."""
    t = grid.nodes
    beta = bie._checked_rows(problem, t)
    jets = bie._surface_arrays(problem.surface, t)
    w = log_weight(grid.N, np.arange(t.size) * grid.h, 0.0)
    layer = sommerfeld.remainder_matrices(
        problem.medium.k_plus, problem.medium.k_minus, t, jets[1],
        normal=bie._layer_normal(problem, jets, beta))
    return nystrom._panel_sweep(layer, problem, jets, beta, w, grid.h)


@pytest.mark.parametrize("rows", [None, 50, 107, 1])
@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_panelled_matrix_matches_one_shot(preset, rows, monkeypatch):
    # 321 rows in panels of the default height (32), of 50, 107 or 1: each
    # panel boundary cuts the band |s - t| < pi, with 50 the last panel has
    # 21 rows, 107 divides 321, and single rows leave each panel's diagonal
    # block one entry; the sweep over the node-set layer sum, on the plane
    # presets too, where assemble sweeps node 0's one-row layer sum instead
    # (test_plane_matrix_matches_toeplitz)
    cfg = preset_config(preset, N=16)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    if rows is not None:
        monkeypatch.setattr(nystrom, "_PANEL_ROWS", rows)
    matrix = _sweep(problem, grid)
    ref = system_matrix(problem, grid)
    assert np.abs(matrix - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("preset", ["example1-dbvp", "example1-ibvp"])
def test_hankel_points_cover_each_pair_once(preset, monkeypatch):
    # a panel of rows [lo, hi) evaluates H0 and H1 of k- rho on its rows x
    # columns [lo, n) only, and takes the pairs below it from their mirrors:
    # sum_p r_p (n - lo_p) points per order, not n^2
    cfg = preset_config(preset, N=16)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    n = grid.node_count
    monkeypatch.setattr(nystrom, "_PANEL_ROWS", 50)
    points = {0: 0, 1: 0}
    hankel1 = bie.hankel1

    def counted(order, z):
        points[order] += np.size(z)
        return hankel1(order, z)

    monkeypatch.setattr(bie, "hankel1", counted)
    assemble(problem, grid)
    expected = sum(min(50, n - lo) * (n - lo) for lo in range(0, n, 50))
    assert points == {0: expected, 1: expected}


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("preset, media", [
    ("example2-dbvp", {}), ("example2-ibvp", {}),
    ("example2-dbvp", {"k_plus": 3.5, "k_minus": 2.7}),  # fieldmap-dbvp's
])
def test_plane_matrix_matches_toeplitz(preset, media, N):
    # on a plane assemble returns the matrix's row 0; the oracle builds the
    # Toeplitz matrix from its row 0 and column 0, each from kernel_rows,
    # and the density solved from the row matches the panel sweep's
    cfg = preset_config(preset, N=N, **media)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    row, rhs = assemble(problem, grid)
    assert row.shape == (grid.node_count,)
    matrix = sla.toeplitz(row, row)
    ref = plane_matrix(problem, grid)
    assert np.abs(matrix - ref).max() <= 1e-15 * np.abs(ref).max()
    psi = solve_system(row, rhs)[0]
    swept = solve_system(_sweep(problem, grid), rhs)[0]
    assert np.abs(psi - swept).max() <= 1e-13 * np.abs(swept).max()


@pytest.mark.parametrize("N, a_pi", [(16, 10), (16, 40), (64, 10)])
@pytest.mark.parametrize("preset, media", [
    ("example2-dbvp", {}), ("example2-ibvp", {}),
    ("example2-dbvp", {"k_plus": 3.5, "k_minus": 2.7}),  # fieldmap-dbvp's
])
def test_plane_route_matches_dense_lu(preset, media, N, a_pi):
    # the row's Levinson / Gohberg-Semencul solve against the LU of the
    # oracle's dense Toeplitz matrix: the density to 1e-12 of max|psi|
    # (1.3e-15 to 4.5e-15 measured), the Hager-Higham condition estimate
    # within 2x of zgecon's (equal to 4 digits measured)
    cfg = preset_config(preset, N=N, A_over_pi=a_pi, **media)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    row, rhs = assemble(problem, grid)
    psi, residual, cond = solve_system(row, rhs)
    ref, _, ref_cond = solve_system(plane_matrix(problem, grid), rhs)
    assert np.abs(psi - ref).max() <= 1e-12 * np.abs(ref).max()
    assert residual <= 1e-12
    assert ref_cond / 2 <= cond <= 2 * ref_cond


def test_plane_solve_memory_is_linear():
    # 5121 unknowns: one n x n complex array would be 400 MB; the row's
    # solve holds O(n) (2.6 MB measured)
    cfg = preset_config("example2-dbvp", N=16, A_over_pi=160)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    n = grid.node_count
    assert n == 5121
    row, rhs = assemble(problem, grid)
    tracemalloc.start()
    try:
        cond = solve_system(row, rhs)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 16 * n * n
    assert math.isfinite(cond)


@pytest.mark.parametrize("row, message", [
    ([0.0, 1.0, 0.5], "factorization failed: Singular principal minor"),
    # Levinson divides by the 1e-300 leading minor and returns garbage for a
    # well-conditioned matrix: only the true residual (1.0) shows it
    ([1e-300, 1.0, 0.5], "solve residual .* above tolerance"),
    ([1.0, 1.0 - 1e-13], "too ill-conditioned"),      # eigenvalue 1e-13
    ([1.0, 0.5, np.nan], r"not finite in row 0 \(node 0\)"),
], ids=["zero-minor", "tiny-minor", "near-singular", "nan"])
def test_toeplitz_breakdown_fails_loudly(row, message):
    row = np.array(row, dtype=complex)
    with pytest.raises(SolverError, match=message):
        solve_system(row, np.ones(row.size, complex), lambda i: f"node {i}")


@pytest.mark.parametrize("matrix, rhs, message", [
    (np.ones((2, 3)), np.ones(2), "system matrix must be square"),
    (np.ones((2, 2, 2)), np.ones(2), "system matrix must be square"),
    (np.eye(2), np.ones(3), "matrix/right-hand side size mismatch"),
    (np.ones(3), np.ones(2), "matrix/right-hand side size mismatch"),
], ids=["2x3", "3-d", "dense-rhs", "row-rhs"])
def test_solve_system_refuses_bad_shapes(matrix, rhs, message):
    with pytest.raises(SolverError, match=message):
        solve_system(matrix, rhs)


@pytest.mark.parametrize("preset, overrides, plane", [
    ("example2-dbvp", {}, True),
    ("example2-ibvp", {}, True),
    ("example2-dbvp", {"surface": {"expr": "-1+1e-300*t"}}, False),  # f' != 0
    ("example2-ibvp", {"beta": {"expr": "1+0.1*exp(-t*t)"}}, False),
])
def test_assemble_route(preset, overrides, plane, monkeypatch):
    # a plane (f, beta constant, f' = f'' = 0 at every node, compared
    # exactly) evaluates H0 and H1 on row 0 only, n points per order, over
    # one layer row (one target); any other surface takes the panel sweep's
    # points over the one node-set layer sum
    cfg = preset_config(preset, N=16, **overrides)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    n = grid.node_count
    monkeypatch.setattr(nystrom, "_PANEL_ROWS", 50)
    points, targets = {0: 0, 1: 0}, []
    hankel1, layer = bie.hankel1, sommerfeld.remainder_matrices

    def counted(order, z):
        points[order] += np.size(z)
        return hankel1(order, z)

    def recorded(k_plus, k_minus, t, f, s_nodes=None, *args, **kwargs):
        targets.append(None if s_nodes is None else np.size(s_nodes))
        return layer(k_plus, k_minus, t, f, s_nodes, *args, **kwargs)

    monkeypatch.setattr(bie, "hankel1", counted)
    monkeypatch.setattr(sommerfeld, "remainder_matrices", recorded)
    assemble(problem, grid)
    swept = sum(min(50, n - lo) * (n - lo) for lo in range(0, n, 50))
    expected = n if plane else swept
    assert points == {0: expected, 1: expected}
    assert targets == [1 if plane else None]


def test_assembly_memory_is_bounded():
    # the one layer sum (the matrix is written over it), the two real
    # buffers of its real part beside it for a moment, and panel
    # temporaries: at most 2.5x the matrix (2.0x measured); three packed
    # layer sums peaked at 3.5x, forming the whole system at once at 12x
    cfg = preset_config("example3-ibvp", N=64)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    assert grid.node_count == 1281
    tracemalloc.start()
    try:
        matrix, _ = assemble(problem, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * matrix.nbytes


@pytest.mark.parametrize("order", ["F", "C"])
def test_solve_system_keeps_one_lu_copy(order):
    # whatever the layout of the matrix, the one copy solve_system makes is
    # the LU factor
    cfg = preset_config("example1-dbvp", N=8)
    problem = build_problem(cfg)
    matrix, rhs = assemble(problem, Grid(half_width_A=cfg.A, N=cfg.N))
    matrix = np.asarray(matrix, order=order)
    tracemalloc.start()
    try:
        solve_system(matrix, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix.nbytes


def test_density_convergence(solved):
    # sup-norm distance between successive solutions decreases monotonically
    sols = {n: solved("example1-dbvp", n)[2] for n in (8, 16, 32)}
    diffs = []
    for n in (8, 16):
        coarse = sols[n].values
        fine = sols[2 * n].values[::2]
        diffs.append(np.abs(fine - coarse).max())
    assert diffs[1] < diffs[0]


def test_truncation_monotonicity(solved):
    # fixed N = 16, A = 5 pi -> 10 pi -> 20 pi: the field value at the
    # Example-1 observation point settles at a rate of at least 1.5x
    from layerscat.potentials import eval_scattered
    x = (0.6, 0.56)
    vals = {}
    for a_pi in (5, 10, 20):
        cfg, problem, sol = solved("example1-dbvp", 16, A_over_pi=a_pi)
        vals[a_pi] = eval_scattered(sol, problem, x)
    d1 = abs(vals[10] - vals[5])
    d2 = abs(vals[20] - vals[10])
    assert d1 >= 1.5 * d2


def test_solution_metadata(solved):
    _, _, sol = solved("example1-dbvp", 8)
    assert sol.values.shape == (sol.grid.node_count,)
    assert sol.residual_norm <= 1e-10
    assert 1.0 <= sol.condition_estimate <= 1e12


def test_density_dump(tmp_path):
    cfg = preset_config("example1-dbvp", N=8, out_dir=str(tmp_path))
    report = run(cfg)
    (path,) = tmp_path.glob("density_*.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config_sha256={report.config_hash}"
    assert lines[1] == "j,t_j,re_psi,im_psi"
    assert len(lines) == report.node_count + 2


def test_operator_consistency(solved):
    # applying the coarse collocation operator to the restricted fine density
    # reproduces the right-hand side to discretization accuracy
    cfg8, problem, sol8 = solved("example1-dbvp", 8)
    _, _, sol16 = solved("example1-dbvp", 16)
    grid8 = sol8.grid
    matrix, rhs = assemble(problem, grid8)
    fine_on_coarse = sol16.values[::2]
    resid = np.abs(matrix @ fine_on_coarse - rhs).max()
    disc = np.abs(fine_on_coarse - sol8.values).max()
    assert resid <= 10 * disc + 1e-12
    assert resid < 5e-3


def test_nystrom_interpolation_identity(solved):
    # natural interpolation reproduces the nodal values at the nodes
    from conftest import nystrom_interpolate
    cfg, problem, sol = solved("example1-dbvp", 8)
    sub = sol.grid.nodes[::40]
    interp = nystrom_interpolate(problem, sol, sub)
    assert np.abs(interp - sol.values[::40]).max() <= 1e-10
