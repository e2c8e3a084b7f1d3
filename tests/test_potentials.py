"""Field evaluation, exact references, and boundary-condition residuals."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import boundary_data, nystrom_interpolate
from oracle import boundary_residual, grad_green_y, kernel_rows

from layerscat import sommerfeld
from layerscat.cli import build_problem, config_from_dict, preset_config
from layerscat.errors import DomainError, SingularityError
from layerscat.bie import _surface_arrays
from layerscat.green import (MediumPair, green, green_surface_batch,
                             reference_field_plane, transmitted_direction)
from layerscat.exprs import parse_expression
from layerscat.nystrom import DensitySolution, Grid, log_weight, solve
from layerscat.potentials import (_check_points, _eval_scattered, eval_scattered,
                                  four_wave_exact)
from layerscat.surface import builtin

MED = MediumPair(2.7, 3.5)


def test_zero_density_gives_zero_field(solved):
    for preset in ("example1-dbvp", "example1-ibvp"):
        cfg, problem, sol = solved(preset, 8)
        zero = replace(sol, values=np.zeros_like(sol.values))
        assert eval_scattered(zero, problem, (0.6, 0.56)) == 0.0


def test_linearity_in_density(solved):
    cfg, problem, sol = solved("example1-ibvp", 8)
    x = (0.6, 0.56)
    v1 = eval_scattered(sol, problem, x)
    v2 = eval_scattered(replace(sol, values=2.0 * sol.values), problem, x)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-13)
    rng = np.random.default_rng(4)
    w = rng.normal(size=sol.values.shape) + 1j * rng.normal(size=sol.values.shape)
    va = eval_scattered(replace(sol, values=w), problem, x)
    vb = eval_scattered(replace(sol, values=sol.values + w), problem, x)
    assert vb == pytest.approx(v1 + va, rel=1e-12)


def test_example1_field_errors(solved):
    x = (0.6, 0.56)
    y0 = (1.0, -1.3)
    exact = green(MED, x, y0)
    _, pd, sd = solved("example1-dbvp", 16)
    err_d = abs(eval_scattered(sd, pd, x) - exact) / abs(exact)
    assert err_d <= 1e-3
    _, pi_, si = solved("example1-ibvp", 16)
    err_i = abs(eval_scattered(si, pi_, x) - exact) / abs(exact)
    assert err_i <= 5e-2


def _scalar_field(problem, sol, x1, x2):
    """h sum_j kernel_j J_j psi_j at each point, with the kernel from scalar
    green() and grad_green_y()."""
    t = sol.grid.nodes
    surf = problem.surface
    ref = np.zeros(x1.size, dtype=complex)
    for i, x in enumerate(zip(x1, x2)):
        for tj, psi in zip(t, sol.values):
            y = (tj, float(surf(tj)))
            df = float(surf.jet(tj)[1])
            speed = math.hypot(1.0, df)
            kern = green(problem.medium, x, y)
            if problem.kind == "dirichlet":
                gy1, gy2 = grad_green_y(problem.medium, x, y)
                kern = (df * gy1 - gy2) / speed + 1j * problem.eta * kern
            ref[i] += sol.grid.h * kern * speed * psi
    return ref


@pytest.mark.parametrize("preset", ["example1-dbvp", "example1-ibvp",
                                    "example2-dbvp"])
def test_point_set_matches_scalar_oracle(solved, preset):
    # the array evaluator on a point set above, on and below the interface,
    # against h sum_j kernel_j J_j psi_j with the kernel from scalar green()
    # and grad_green_y()
    _, problem, sol = solved(preset, 4, A_over_pi=2)
    x1 = np.array([0.6, -0.4, 0.3])
    x2 = np.array([0.56, 0.0, -0.4])
    ref = _scalar_field(problem, sol, x1, x2)
    vals = eval_scattered(sol, problem, (x1, x2))
    assert vals.shape == x1.shape
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


def test_near_surface_guards(solved):
    cfg, problem, sol = solved("example1-dbvp", 8)
    surf = problem.surface
    on_surface = (0.3, float(surf(0.3)) + 1e-8)
    with pytest.raises(SingularityError):
        eval_scattered(sol, problem, on_surface)


def test_eval_point_below_or_on_surface_refused(solved):
    # (0.6, -1.5) lies below gamma1 (f(0.6) ~ -0.77), where no field is
    # defined; eval_scattered used to answer there with no error.  Each
    # refusal names the point, also inside a point set.
    _, problem, sol = solved("example1-dbvp", 8)
    with pytest.raises(DomainError, match=r"\(0\.6, -1\.5\) lies below the surface") \
            as info:
        eval_scattered(sol, problem, (0.6, -1.5))
    assert not isinstance(info.value, SingularityError)
    with pytest.raises(DomainError, match=r"\(0\.6, -1\.5\) lies below"):
        eval_scattered(sol, problem, (np.array([0.6, 0.6]), np.array([0.56, -1.5])))
    on = (0.3, float(problem.surface(0.3)))
    with pytest.raises(SingularityError, match=re.escape(f"{on} lies within 1e-06")):
        eval_scattered(sol, problem, on)


def _reference_distance(surface, x1, x2):
    """Distance from (x1, x2) to the surface: a scan at spacing 1e-4 over
    [x1 - 3.5, x1 + 3.5], polished around the best sample (in the offset
    from it, so that the bounded search's tolerance is absolute)."""
    t = x1 + 1e-4 * np.arange(-35000, 35001)
    d = np.hypot(x1 - t, x2 - surface(t))
    tj = t[d.argmin()]
    res = minimize_scalar(lambda s: float(np.hypot(x1 - tj - s, x2 - surface(tj + s))),
                          bounds=(-1e-4, 1e-4), method="bounded",
                          options={"xatol": 1e-13})
    return min(res.fun, d.min())


@pytest.mark.parametrize("expr", ["gamma1", "gamma2", "gamma3", "-1+0.3*sin(5*t)"])
def test_point_distance_matches_dense_reference(expr):
    # the check refines each point's distance in [x1 - g, x1 + g], g its
    # vertical gap, with no sweep of the nodes.  Points on a grid of x1 and
    # beside the steepest flank (largest |f'|), from 1e-5 to 3 above
    surface = builtin(expr) if expr.startswith("gamma") else parse_expression(expr)
    s = np.linspace(-3, 3, 6001)
    x1 = np.append(np.linspace(-3, 3, 13), s[np.abs(surface.jet(s)[1]).argmax()])
    points = [(x1, offset) for offset in (1e-5, 1e-3, 0.01, 0.3, 3.0)]
    # 2.554 above x1 = -30.4651 two stretches of -1+0.3 sin(5 t) are nearly
    # as near (4.8e-3 apart), closer than the first round's spacing tells
    points.append((np.array([-30.4651]), 2.554))
    for x1, offset in points:
        x2 = surface(x1) + offset
        dist = _check_points(surface, x1, x2)
        ref = [_reference_distance(surface, a, b) for a, b in zip(x1, x2)]
        assert np.abs(dist - ref).max() <= 1e-9


def test_eval_point_over_nonfinite_surface_refused():
    # f overflows at x1 = 40, outside the window [-pi, pi] that validation
    # checks: the point's distance would be NaN and pass every check
    raw = {"problem": "impedance", "k_plus": 2.7, "k_minus": 3.5,
           "surface": {"expr": "-1-0.001*exp(t^2)"},
           "incident": {"type": "plane", "theta_d": 4.18879020478639},
           "N": 4, "A_over_pi": 1}
    cfg = config_from_dict(raw)
    problem = build_problem(cfg)
    sol = solve(problem, Grid(half_width_A=cfg.A, N=cfg.N))
    with pytest.raises(DomainError, match=r"\(40\.0, 0\.5\).*not finite"):
        eval_scattered(sol, problem, (40.0, 0.5))
    with pytest.raises(DomainError, match=r"\(40\.0, 0\.5\).*not finite"):
        eval_scattered(sol, problem, (np.array([0.0, 40.0]), np.array([0.5, 0.5])))


def test_uprc_decay_slope(solved):
    # scattered field decays with horizontal distance high above the surface
    cfg, problem, sol = solved("example1-dbvp", 16)
    rs = np.array([5.0, 10.0, 20.0, 40.0])
    vals = np.array([abs(eval_scattered(sol, problem, (r, 2.0))) for r in rs])
    slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
    assert slope < -1.0


def test_near_surface_flags(solved):
    cfg, problem, sol = solved("example2-dbvp", 8)
    vals, near = _eval_scattered(sol, problem, ([1.0, 1.0, 1.0],
                                                [0.4, -0.2, -0.995]))
    assert near.tolist() == [False, False, True]
    assert not _eval_scattered(sol, problem, (1.0, 0.4))[1]
    assert vals[2] == pytest.approx(eval_scattered(sol, problem, (1.0, -0.995)),
                                    rel=1e-12)


@pytest.mark.parametrize("preset", ["example1-dbvp", "example1-ibvp"])
def test_point_set_contraction_matches_dense_layer_sum(solved, preset):
    # the field applies the layer sum to h J psi without forming it, through
    # one rule for the points on both sides of the interface.  Point by point
    # it is the dense m x n layer sum (per side, as boundary data and greens
    # take it) times h J psi, and it does not depend on how the points are
    # grouped: the whole set and its two halves agree
    _, problem, sol = solved(preset, 16)
    x1 = np.linspace(-3.0, 3.0, 40)
    x2 = np.tile([0.7, 0.05, -0.3, -0.5], 10)
    whole = eval_scattered(sol, problem, (x1, x2))
    halves = np.concatenate([eval_scattered(sol, problem, (x1[:20], x2[:20])),
                             eval_scattered(sol, problem, (x1[20:], x2[20:]))])
    assert np.all(np.abs(halves - whole) <= 1e-12 * np.abs(whole))
    t = sol.grid.nodes
    _, f, df, _, speed = _surface_arrays(problem.surface, t)
    normal = ((1j * problem.eta, 1.0 / speed, df)
              if problem.kind == "dirichlet" else None)
    dense = green_surface_batch(problem.medium, (x1, x2), t, f, normal=normal)
    ref = dense @ (sol.grid.h * speed * sol.values)
    assert np.abs(whole - ref).max() <= 1e-14 * np.abs(ref).max()


def test_refused_rule_falls_back_to_pointwise_values(solved, monkeypatch):
    # when the one rule of the contracted call refuses (DomainError), its
    # points, on both sides of the interface, take the pointwise fallback:
    # the values are still h sum_j kernel_j J_j psi_j with the kernel from
    # scalar green()
    _, problem, sol = solved("example1-dbvp", 4, A_over_pi=2)
    x1, x2 = np.array([0.6, -0.4, 0.3]), np.array([0.56, 0.0, -0.4])
    ref = _scalar_field(problem, sol, x1, x2)
    panels = sommerfeld._segment_panels

    def refuse(k1, k2, u_abs, v, w0, kind, refine):
        if kind is sommerfeld._SHARED_PANELS:
            raise DomainError("refused")
        return panels(k1, k2, u_abs, v, w0, kind, refine)

    calls = []
    layer = sommerfeld.remainder_matrices

    def spy(*args, s_nodes=None, **kwargs):
        calls.append(np.asarray(s_nodes).size)
        return layer(*args, s_nodes=s_nodes, **kwargs)

    monkeypatch.setattr(sommerfeld, "_segment_panels", refuse)
    monkeypatch.setattr(sommerfeld, "remainder_matrices", spy)
    vals = eval_scattered(sol, problem, (x1, x2))
    assert calls == [3]
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


def test_field_evaluation_memory_is_bounded():
    # 4,000 points at 641 nodes go through in blocks of rows; holding the
    # whole set at once peaked at 459 MB under tracemalloc
    cfg = preset_config("example3-dbvp", N=32)
    problem = build_problem(cfg)
    grid = Grid(half_width_A=cfg.A, N=cfg.N)
    assert grid.node_count == 641
    sol = DensitySolution(grid=grid, values=np.ones(grid.node_count, complex),
                          residual_norm=0.0, condition_estimate=1.0)
    x1 = np.tile(np.linspace(-8.0, 8.0, 1000), 4)
    x2 = np.repeat([0.5, 0.1, -0.4, -0.6], 1000)
    tracemalloc.start()
    try:
        vals = eval_scattered(sol, problem, (x1, x2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == x1.shape and np.all(np.isfinite(vals))
    assert peak < 150e6


def test_flat_dirichlet_total_vanishes_on_boundary(solved):
    # |u_total| on the flat boundary << |u0| (Dirichlet condition)
    cfg, problem, sol = solved("example2-dbvp", 32)
    theta = cfg.incident["theta_d"]
    u0_scale = max(abs(reference_field_plane(MED, theta, (x1, -1.0)))
                   for x1 in np.linspace(-3, 3, 13))
    t_new = sol.grid.nodes[:-1] + 0.5 * sol.grid.h
    keep = np.abs(t_new) <= 3.0
    t_new = t_new[keep][::4]
    resid = _dirichlet_boundary_values(problem, sol, t_new, theta)
    assert np.abs(resid).max() <= 5e-2 * u0_scale
    assert np.abs(resid).max() <= 1e-2 * max(u0_scale, 1.0)


def _refined_grid(grid):
    return Grid(half_width_A=grid.half_width_A, N=2 * grid.N)


def _interp_to(problem, sol, t_new):
    return nystrom_interpolate(problem, sol, t_new)


def _dirichlet_boundary_values(problem, sol, s_points, theta):
    """Total field on the boundary from the interior limit of the combined
    ansatz, evaluated with a 2x-refined quadrature of the interpolated
    density: u_s+ = (K psi)/2 - psi/2, then add the reference field of the
    plane wave at angle theta."""
    fine = _refined_grid(sol.grid)
    t_f = fine.nodes
    psi_f = _interp_to(problem, sol, t_f)
    A, B = kernel_rows(problem, np.asarray(s_points, float), t_f)
    rw = log_weight(fine.N, np.asarray(s_points, float)[:, None], t_f[None, :])
    k_rows = (rw * A + fine.h * B) @ psi_f
    psi_at = _interp_to(problem, sol, s_points)
    us_plus = 0.5 * k_rows - 0.5 * psi_at
    surf = problem.surface
    u0 = np.array([reference_field_plane(problem.medium, theta,
                                         (s, float(surf(s))))
                   for s in np.asarray(s_points, float)])
    return us_plus + u0


def test_impedance_boundary_residual(solved):
    # |du/dnu - i k- beta u| of the solved scattered field at off-node
    # surface points, via the jump relation and a 2x-refined rule
    cfg, problem, sol = solved("example2-ibvp", 32)
    s_points = np.array([-2.3, -0.9, 0.15, 1.45, 2.75])
    fine = _refined_grid(sol.grid)
    t_f = fine.nodes
    psi_f = _interp_to(problem, sol, t_f)
    A, B = kernel_rows(problem, s_points, t_f)
    rw = log_weight(fine.N, s_points[:, None], t_f[None, :])
    k_rows = (rw * A + fine.h * B) @ psi_f      # = (K psi)(s), system convention
    psi_at = _interp_to(problem, sol, s_points)
    # d u_s+/dnu - i k beta u_s = (psi - K psi)/2; compare with the data g
    lhs = -0.5 * k_rows + 0.5 * psi_at
    g_ref = np.asarray(boundary_data(problem, s_points), dtype=complex)
    g_scale = np.abs(np.asarray(boundary_data(problem, sol.grid.nodes), complex)).max()
    assert np.abs(lhs - g_ref).max() <= 5e-2 * g_scale


def test_four_wave_reference_values():
    x = (1.0, -0.2)
    theta = 4 * math.pi / 3
    cases = [
        (2.7, 3.5, "dirichlet", 0.737691867188743 + 0.215552888696214j),
        (2.7, 3.5, "impedance", 0.643898669829883 - 0.508543039062194j),
        (3.5, 2.7, "dirichlet", 0.347332742418633 - 2.094506667524657j),
        (3.5, 2.7, "impedance", 0.301680817549291 - 1.296995588516340j),
    ]
    for kp, km, kind, ref in cases:
        fw = four_wave_exact(MediumPair(kp, km), theta, kind, beta0=1.0)
        assert fw.field(x) == pytest.approx(ref, abs=1e-12)
        assert fw.A_c == 1.0


def test_four_wave_boundary_residual():
    rng = np.random.default_rng(12)
    x1s = rng.uniform(-5, 5, size=1000)
    for kind in ("dirichlet", "impedance"):
        fw = four_wave_exact(MED, 4 * math.pi / 3, kind, beta0=1.0)
        assert boundary_residual(fw, x1s) <= 1e-12
    assert boundary_residual(fw, []) == 0.0


def test_four_wave_field_on_point_set_matches_pointwise():
    # both sides of the interface, propagating and evanescent transmission
    rng = np.random.default_rng(13)
    x1 = rng.uniform(-4, 4, 60)
    x2 = np.concatenate((rng.uniform(0, 2, 30), rng.uniform(-1, -1e-3, 30)))
    for med, theta_d in ((MED, 4 * math.pi / 3),
                         (MediumPair(3.5, 2.7), math.pi + 0.25)):
        for kind in ("dirichlet", "impedance"):
            fw = four_wave_exact(med, theta_d, kind, beta0=1.0 + 0.5j)
            u = fw.field((x1, x2))
            assert u.shape == x1.shape
            scale = abs(fw.A_c) + abs(fw.B_c) + abs(fw.C_c) + abs(fw.D_c)
            for i in range(x1.size):
                assert abs(u[i] - fw.field((x1[i], x2[i]))) <= 1e-15 * scale


def test_four_wave_evanescent_transmission():
    # beyond the critical angle the transmitted branch is evanescent but the
    # interface/boundary conditions still hold to machine precision
    med = MediumPair(3.5, 2.7)
    theta_d = math.pi + 0.25   # cos(theta_d) close to -1, |cos|/n > 1
    assert abs(math.cos(theta_d)) > med.n
    fw = four_wave_exact(med, theta_d, "dirichlet")
    rng = np.random.default_rng(1)
    assert boundary_residual(fw, rng.uniform(-3, 3, size=10)) <= 1e-12
    # purely imaginary vertical component
    assert abs(transmitted_direction(med, theta_d)[1].real) < 1e-14


def test_four_wave_validation():
    with pytest.raises(DomainError):
        four_wave_exact(MED, 0.3, "dirichlet")        # upward incidence
    with pytest.raises(DomainError):
        four_wave_exact(MED, 4.0, "dirichlet", plane_height=0.5)
    with pytest.raises(DomainError):
        four_wave_exact(MED, 4.0, "mixed")


def test_solved_field_transmission_continuity(solved):
    # the scattered field evaluated just above and just below the interface
    # (different spectral branches) agrees after one-sided extrapolation
    cfg, problem, sol = solved("example2-ibvp", 16)

    def one_sided(x1, sgn, eps=1e-4):
        a = eval_scattered(sol, problem, (x1, sgn * eps))
        b = eval_scattered(sol, problem, (x1, sgn * 2 * eps))
        return 2 * a - b

    for x1 in (0.0, 1.7):
        assert abs(one_sided(x1, +1) - one_sided(x1, -1)) <= 1e-7


def test_example1_field_errors_n64(solved):
    # plateau-level accuracy at the finest grid of the first experiment
    x = (0.6, 0.56)
    exact = green(MED, x, (1.0, -1.3))
    _, pd, sd = solved("example1-dbvp", 64)
    assert abs(eval_scattered(sd, pd, x) - exact) / abs(exact) <= 1e-3
    _, pi_, si = solved("example1-ibvp", 64)
    assert abs(eval_scattered(si, pi_, x) - exact) / abs(exact) <= 5e-2
