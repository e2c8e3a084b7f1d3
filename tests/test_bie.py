"""Kernels, splits, diagonal limits, right-hand sides, jump relations."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracle import green_oracle

from layerscat import sommerfeld
from layerscat.bie import (BoundaryProblem, _ab_matrices, cutoff_chi,
                           kernel_dbvp_raw, kernel_ibvp_raw, rhs_dbvp,
                           rhs_ibvp, split_dbvp, split_ibvp)
from layerscat.cli import (_PRESETS, build_problem, config_from_dict,
                           preset_config)
from layerscat.errors import AccuracyError, DomainError, SingularityError
from layerscat.green import (MediumPair, fresnel_T, grad_green_x, green,
                             green_remainder_modes, green_surface_batch,
                             reference_field_plane, reference_field_plane_grad,
                             transmitted_direction)
from layerscat.nystrom import Grid
from layerscat.specfun import EULER_GAMMA, hankel1
from layerscat.surface import builtin

MED = MediumPair(2.7, 3.5)
ETA = math.sqrt(2.7 * 3.5)


@pytest.fixture(scope="module")
def dbvp_problem():
    return build_problem(preset_config("example1-dbvp"))


@pytest.fixture(scope="module")
def ibvp_problem():
    return build_problem(preset_config("example1-ibvp"))


@pytest.fixture(scope="module")
def flat_dbvp():
    return build_problem(preset_config("example2-dbvp"))


@pytest.fixture(scope="module")
def flat_ibvp():
    return build_problem(preset_config("example2-ibvp"))


def test_cutoff_properties():
    assert cutoff_chi(0.5) == 1.0
    assert cutoff_chi(4.0) == 0.0
    assert cutoff_chi(math.pi) == 0.0
    mid = cutoff_chi(2.0)
    assert 0.0 < mid < 1.0
    assert cutoff_chi(-2.0) == mid
    s = np.linspace(-5, 5, 401)
    vals = cutoff_chi(s)
    assert np.all((vals >= 0) & (vals <= 1))
    # smooth: central second difference stays bounded through the transitions
    h = 1e-4
    for s0 in (1.0, 2.2, 3.1):
        d2 = (cutoff_chi(s0 + h) - 2 * cutoff_chi(s0) + cutoff_chi(s0 - h)) / h**2
        assert abs(d2) < 50


def _zero_remainder(n, m):
    z = np.zeros((n, m), dtype=complex)
    return z, z.copy(), z.copy()


def test_flat_diagonals_dbvp(flat_dbvp):
    # remainder-free smooth parts on the diagonal of the flat-surface kernel
    s = np.array([0.3])
    a, b = _ab_matrices(flat_dbvp, s, s, _zero_remainder(1, 1))
    km, eta = 3.5, flat_dbvp.eta
    # L2(s,s) = 0 for a flat surface, so b = i eta M2(s,s)
    m2 = (0.5j - EULER_GAMMA / math.pi - math.log(0.5 * km) / math.pi)
    assert b[0, 0] == pytest.approx(1j * eta * m2, abs=1e-14)
    assert m2 == pytest.approx(-0.3618646903626847 + 0.5j, abs=1e-14)
    # a(s,s) = i eta M1(s,s) = -i eta / pi
    assert a[0, 0] == pytest.approx(-1j * eta / math.pi, abs=1e-14)


def test_flat_diagonals_ibvp(flat_ibvp):
    s = np.array([-0.8])
    a, b = _ab_matrices(flat_ibvp, s, s, _zero_remainder(1, 1))
    km = 3.5
    # L2(s,s) = 0 (flat), so b = M2(s,s) with beta = 1
    m2 = 2j * km * (0.25j - math.log(0.5 * km) / (2 * math.pi)
                    - EULER_GAMMA / (2 * math.pi))
    assert b[0, 0] == pytest.approx(m2, abs=1e-13)
    assert m2 == pytest.approx(-1.75 - 1.2665264162693965j, abs=1e-13)
    assert a[0, 0] == pytest.approx(-1j * km / math.pi, abs=1e-14)


def test_curved_diagonal_formulas(dbvp_problem, ibvp_problem):
    surf = dbvp_problem.surface
    s = np.array([0.4])
    d2f = float(surf.d2f(0.4))
    df = float(surf.df(0.4))
    sp2 = 1.0 + df * df
    aD, bD = _ab_matrices(dbvp_problem, s, s, _zero_remainder(1, 1))
    aI, bI = _ab_matrices(ibvp_problem, s, s, _zero_remainder(1, 1))
    km, eta = 3.5, dbvp_problem.eta
    l2_d = -d2f / (2 * math.pi * sp2)
    m2_d = (0.5j - EULER_GAMMA / math.pi
            - math.log(0.5 * km * math.sqrt(sp2)) / math.pi) * math.sqrt(sp2)
    assert bD[0, 0] == pytest.approx(l2_d + 1j * eta * m2_d, abs=1e-13)
    l2_i = d2f / (2 * math.pi * sp2)
    m2_i = 2j * km * (0.25j - math.log(0.5 * km) / (2 * math.pi)
                      - EULER_GAMMA / (2 * math.pi)
                      - math.log(math.sqrt(sp2)) / (2 * math.pi)) * math.sqrt(sp2)
    assert bI[0, 0] == pytest.approx(l2_i + m2_i, abs=1e-13)


@pytest.mark.parametrize("pair", [(0.0, 0.01), (0.3, -0.7), (1.0, 2.5),
                                  (2.0, -3.0), (0.0, 3.5)])
def test_split_reconstruction_dbvp(dbvp_problem, pair):
    s, t = pair
    split = split_dbvp(dbvp_problem)
    raw = kernel_dbvp_raw(dbvp_problem, s, t)
    log_term = math.log(4 * math.sin((s - t) / 2) ** 2)
    rec = split.A(s, t) * log_term / (2 * math.pi) + split.B(s, t)
    assert abs(rec - raw) <= 1e-10 * max(1.0, abs(raw))
    assert split.support_radius == math.pi


@pytest.mark.parametrize("pair", [(0.0, 0.01), (0.3, -0.7), (2.0, -3.0)])
def test_split_reconstruction_ibvp(ibvp_problem, pair):
    s, t = pair
    split = split_ibvp(ibvp_problem)
    raw = kernel_ibvp_raw(ibvp_problem, s, t)
    log_term = math.log(4 * math.sin((s - t) / 2) ** 2)
    rec = split.A(s, t) * log_term / (2 * math.pi) + split.B(s, t)
    assert abs(rec - raw) <= 1e-10 * max(1.0, abs(raw))


def test_split_support(dbvp_problem):
    split = split_dbvp(dbvp_problem)
    for tau in (math.pi, 3.5, 7.0):
        assert split.A(0.0, tau) == 0.0


def test_b_continuity(dbvp_problem, ibvp_problem):
    # diagonal limit exists: differences decay ~linearly down to the
    # double-precision floor of the near-diagonal geometric cancellation
    s0 = 0.4
    for split in (split_dbvp(dbvp_problem), split_ibvp(ibvp_problem)):
        b0 = split.B(s0, s0)
        d3 = abs(split.B(s0, s0 + 1e-3) - b0)
        d5 = abs(split.B(s0, s0 + 1e-5) - b0)
        d7 = abs(split.B(s0, s0 + 1e-7) - b0)
        assert d3 <= 5e-2
        assert d5 <= d3 / 5
        assert d7 <= 1e-3


def test_raw_kernel_singular_on_diagonal(dbvp_problem):
    with pytest.raises(SingularityError):
        kernel_dbvp_raw(dbvp_problem, 0.3, 0.3)


def test_kernel_composition_against_oracle(dbvp_problem):
    # independent composition: oracle G plus centered differences of oracle G
    s, t = 0.3, -0.7
    surf = dbvp_problem.surface
    x = (s, float(surf.f(s)))
    y = (t, float(surf.f(t)))
    h = 1e-5
    g = green_oracle(2.7, 3.5, x, y)
    dy1 = (green_oracle(2.7, 3.5, x, (y[0] + h, y[1]))
           - green_oracle(2.7, 3.5, x, (y[0] - h, y[1]))) / (2 * h)
    dy2 = (green_oracle(2.7, 3.5, x, (y[0], y[1] + h))
           - green_oracle(2.7, 3.5, x, (y[0], y[1] - h))) / (2 * h)
    nt = surf.normal(t)
    jt = float(surf.speed(t))
    ref = 2.0 * (nt[0] * dy1 + nt[1] * dy2 + 1j * ETA * g) * jt
    assert kernel_dbvp_raw(dbvp_problem, s, t) == pytest.approx(ref, abs=2e-5)


def test_kernel_far_field_decay(dbvp_problem, ibvp_problem):
    # |kappa(s,t)| <= C (1 + |s-t|)^{-3/2}: fit C on moderate separations and
    # require the same envelope (5% slack) out to |s-t| = 60
    taus = np.array([math.pi, 5.0, 9.0, 15.0, 25.0])
    far = np.array([40.0, 60.0])
    for prob, raw in ((dbvp_problem, kernel_dbvp_raw), (ibvp_problem, kernel_ibvp_raw)):
        vals = np.array([abs(raw(prob, 0.0, t)) for t in taus])
        c_fit = (vals * (1 + taus) ** 1.5).max()
        assert c_fit < 25.0
        far_vals = np.array([abs(raw(prob, 0.0, t)) for t in far])
        assert np.all(far_vals <= 1.05 * c_fit * (1 + far) ** -1.5)


def test_dirichlet_kernel_eta_decomposition(dbvp_problem):
    # removing the i eta G part leaves exactly the double-layer kernel
    s, t = 0.5, -0.4
    surf = dbvp_problem.surface
    x = (s, float(surf.f(s)))
    y = (t, float(surf.f(t)))
    jt = float(surf.speed(t))
    kappa = kernel_dbvp_raw(dbvp_problem, s, t)
    no_eta = kappa - 2j * dbvp_problem.eta * green(MED, x, y) * jt
    from layerscat.green import grad_green_y
    gy = grad_green_y(MED, x, y)
    nt = surf.normal(t)
    assert no_eta == pytest.approx(2.0 * (nt[0] * gy[0] + nt[1] * gy[1]) * jt,
                                   abs=1e-10)


def test_rhs_point_source(dbvp_problem, ibvp_problem):
    # manufactured fixture g = +G(., y0): Dirichlet rhs = -2 G
    y0 = (1.0, -1.3)
    surf = dbvp_problem.surface
    for s in (0.0, 1.2):
        x = (s, float(surf.f(s)))
        ref = green(MED, x, y0)
        assert rhs_dbvp(dbvp_problem, s) == pytest.approx(-2.0 * ref, abs=1e-9)
        assert abs(rhs_dbvp(dbvp_problem, s)) == pytest.approx(2 * abs(ref), abs=1e-9)
    # impedance rhs = +2 g with g = (d/dnu - i k- beta) G(., y0)
    val = rhs_ibvp(ibvp_problem, 0.7)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_rhs_plane_wave_flat(flat_dbvp):
    theta = 4 * math.pi / 3
    for s in (-0.5, 1.0):
        ut = reference_field_plane(MED, theta, (s, -1.0))
        assert rhs_dbvp(flat_dbvp, s) == pytest.approx(2.0 * ut, abs=1e-13)


def test_rhs_impedance_plane_fd(flat_ibvp):
    # g = -du0/dnu + i k- beta u0 on the flat surface, checked by finite
    # differences of the reference field
    theta = 4 * math.pi / 3
    s, h = 0.3, 1e-6
    u0 = reference_field_plane(MED, theta, (s, -1.0))
    dn = -(reference_field_plane(MED, theta, (s, -1.0 + h))
           - reference_field_plane(MED, theta, (s, -1.0 - h))) / (2 * h)
    g_ref = -dn + 1j * 3.5 * u0
    assert rhs_ibvp(flat_ibvp, s) == pytest.approx(2.0 * g_ref, abs=1e-6)
    g1, g2 = reference_field_plane_grad(MED, theta, (s, -1.0))
    assert dn == pytest.approx(-g2, abs=1e-6)


def _plane_u0(med, theta_d, x):
    """u0 = T e^{ik- d_t.x} and its gradient at one point below the
    interface, where every surface node lies."""
    x1, x2 = x
    assert x2 < 0
    dt = transmitted_direction(med, theta_d)
    ut = (fresnel_T(med, math.pi + theta_d)
          * np.exp(1j * med.k_minus * (x1 * dt[0] + x2 * dt[1])))
    return ut, 1j * med.k_minus * dt[0] * ut, 1j * med.k_minus * dt[1] * ut


def _scalar_data(problem, s):
    """Boundary data node by node from scalar formulas, one per incident
    type and boundary kind: the oracle of the batched data_g."""
    med, surf, inc = problem.medium, problem.surface, problem.incident
    impedance = problem.kind == "impedance"
    out = []
    for si in np.atleast_1d(s):
        si = float(si)
        x = (si, float(surf.f(si)))
        df = float(surf.df(si))
        sp = math.sqrt(1 + df * df)
        ikb = 1j * med.k_minus * complex(problem.beta(si)) if impedance else 0.0
        if inc["type"] == "plane":
            u0, g1, g2 = _plane_u0(med, inc["theta_d"], x)
            out.append(-(df * g1 - g2) / sp + ikb * u0 if impedance else -u0)
        else:
            y0 = tuple(inc["y0"])
            gval = green(med, x, y0)
            if not impedance:
                out.append(gval)
                continue
            g1, g2 = grad_green_x(med, x, y0)
            out.append((df * g1 - g2) / sp - ikb * gval)
    return np.array(out)


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_batched_data_matches_scalar_oracle(preset):
    # the batched boundary data (reciprocity for point sources, vectorised
    # reference field for plane waves) against per-node scalar evaluation
    cfg = config_from_dict(dict(_PRESETS[preset], N=8))
    problem = build_problem(cfg)
    nodes = Grid(half_width_A=cfg.A, N=cfg.N).nodes
    for s in (nodes, np.array([-7.3, -0.41, 0.123, 2.9, 11.05])):
        got = problem.data_g(s)
        ref = _scalar_data(problem, s)
        assert got.shape == s.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    one = problem.data_g(0.77)
    assert isinstance(one, complex)
    ref = _scalar_data(problem, 0.77)[0]
    assert abs(one - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("kind", ["dirichlet", "impedance"])
def test_batched_point_data_fallback_near_interface(kind):
    # v_min = 0.014 defeats the shared rule: the data comes from the checked
    # pointwise fallback and must still match scalar green()
    cfg = config_from_dict({"problem": kind, "k_plus": 2.7, "k_minus": 3.5,
                            "surface": {"expr": "-0.004"},
                            "incident": {"type": "point", "y0": [1.0, -0.01]},
                            "N": 8})
    problem = build_problem(cfg)
    s = np.array([-2.0, 0.3, 1.0, 4.5])
    assert np.abs(problem.data_g(s) - _scalar_data(problem, s)).max() <= 1e-9


@pytest.mark.parametrize("gap, raises", [(1e-8, True), (1e-12, False)])
def test_batched_data_accuracy_check(monkeypatch, gap, raises):
    # the checked batch compares the doubled rule with the single rule, as
    # green() does; a single-rule pass shifted by gap must trip the 1e-10 test
    # exactly when gap exceeds it, and the doubled-rule values are returned
    field_batch = sommerfeld.field_batch

    def shifted(*args, refine=1, **kwargs):
        out = field_batch(*args, refine=refine, **kwargs)
        return out if refine == 2 else {m: v + gap for m, v in out.items()}

    monkeypatch.setattr(sommerfeld, "field_batch", shifted)
    t = np.linspace(-4, 4, 9)
    f = -1 + 0.3 * np.sin(0.7 * np.pi * t)
    y0 = (1.0, -1.3)
    if raises:
        with pytest.raises(AccuracyError) as exc:
            green_surface_batch(MED, y0, t, f, grad_y=True, check=True)
        assert exc.value.estimate == pytest.approx(gap, rel=1e-3)
        return
    out = green_surface_batch(MED, y0, t, f, grad_y=True, check=True)
    ref = [green(MED, (tj, fj), y0) for tj, fj in zip(t, f)]
    assert np.abs(out["val"] - ref).max() <= 1e-12


def test_problem_validation():
    surf = builtin("gamma1")
    with pytest.raises(DomainError):
        BoundaryProblem(kind="dirichlet", medium=MED, surface=surf,
                        data_g=lambda s: 0.0, eta=-1.0)
    with pytest.raises(DomainError):
        BoundaryProblem(kind="impedance", medium=MED, surface=surf,
                        data_g=lambda s: 0.0,
                        beta=lambda s: -1.0 + 0 * np.asarray(s, float))
    with pytest.raises(DomainError):
        BoundaryProblem(kind="mixed", medium=MED, surface=surf,
                        data_g=lambda s: 0.0)


# ---------------------------------------------------------------------------
# Jump relations of the layer potentials (smooth compactly supported density)
# ---------------------------------------------------------------------------

def _bump(t):
    t = np.asarray(t, dtype=float)
    out = np.where(np.abs(t) < 2.0, np.cos(np.pi * t / 4.0) ** 2, 0.0)
    return out


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _layer_potentials(surface, x, want):
    """Double-layer W / single-layer V (value or normal-gradient pieces) of the
    bump density: free-space part by adaptive quadrature, layer part by
    composite Gauss-Legendre on the smooth remainder."""
    km = 3.5
    fs = surface.f
    dfs = surface.df

    def geometry(t):
        y = (t, float(fs(t)))
        j = math.hypot(1.0, float(dfs(t)))
        nu = (float(dfs(t)) / j, -1.0 / j)
        return y, j, nu

    def phi_part(t):
        y, j, nu = geometry(t)
        r = math.hypot(x[0] - y[0], x[1] - y[1])
        h1 = hankel1(1, km * r)
        if want == "W":
            fac = -0.25j * km * h1 / r
            val = fac * ((y[0] - x[0]) * nu[0] + (y[1] - x[1]) * nu[1])
        elif want == "V":
            val = 0.25j * hankel1(0, km * r)
        else:  # normal gradient of V at x, direction nu0
            fac = -0.25j * km * h1 / r
            val = fac * ((x[0] - y[0]) * want[0] + (x[1] - y[1]) * want[1])
        return val * _bump(t) * j

    def rem_part(t_arr):
        total = 0.0
        for t in t_arr:
            y, j, nu = geometry(t)
            modes = green_remainder_modes(MED, x, y, modes=("val", "dy1", "dy2"),
                                          check=False)
            if want == "W":
                val = nu[0] * modes["dy1"] + nu[1] * modes["dy2"]
            elif want == "V":
                val = modes["val"]
            else:
                val = -want[0] * modes["dy1"] + want[1] * modes["dy2"]
            total += val * _bump(t) * j
        return total

    hint = [x[0]] if -2 < x[0] < 2 else None
    re = quad(lambda t: phi_part(t).real, -2, 2, limit=400, points=hint)[0]
    im = quad(lambda t: phi_part(t).imag, -2, 2, limit=400, points=hint)[0]
    nodes = 2.0 * _GL_X
    weights = 2.0 * _GL_W
    rem_total = 0.0
    for t, w in zip(nodes, weights):
        rem_total += w * rem_part([t])
    return re + 1j * im + rem_total


def test_jump_relations():
    surf = builtin("gamma1")
    hs = (1e-2, 1e-3, 1e-4)
    for t0 in (0.0, -0.7, 0.7, 1.3, -1.6):
        y0 = (t0, float(surf.f(t0)))
        nu = surf.normal(t0)
        psi0 = float(_bump(t0))

        def at(h, sign, want):
            x = (y0[0] + sign * h * nu[0], y0[1] + sign * h * nu[1])
            return _layer_potentials(surf, x, want)

        # double layer: W_- - W_+ = psi (minus side = along +nu, out of D)
        diffs = [at(h, +1, "W") - at(h, -1, "W") for h in hs]
        extrap = (10 * diffs[2] - diffs[1]) / 9.0
        assert abs(extrap - psi0) <= 1e-3

        # single layer continuous across the surface
        vdiffs = [at(h, +1, "V") - at(h, -1, "V") for h in hs]
        vex = (10 * vdiffs[2] - vdiffs[1]) / 9.0
        assert abs(vex) <= 1e-3

        # normal-derivative jump of the single layer:
        # dV+/dnu - dV-/dnu = psi (plus side = inside D, x - h nu)
        want = (float(nu[0]), float(nu[1]))
        gdiffs = [at(h, -1, want) - at(h, +1, want) for h in hs]
        gex = (10 * gdiffs[2] - gdiffs[1]) / 9.0
        assert abs(gex - psi0) <= 1e-3


def test_surface_remainder_at_assembly_scale():
    # shared-rule matrices agree with pointwise evaluation on a full-width
    # production grid (third surface, reversed medium ordering)
    from layerscat.bie import surface_remainder
    med = MediumPair(3.0, 4.0)
    surf = builtin("gamma3")
    a_half = 10 * math.pi
    n = 16
    t = -a_half + (math.pi / n) * np.arange(int(2 * a_half * n / math.pi) + 1)
    f = np.asarray(surf.f(t), float)
    R, R1, R2 = surface_remainder(med, t, f)
    rng = np.random.default_rng(0)
    for _ in range(8):
        i, j = rng.integers(0, t.size, 2)
        m = green_remainder_modes(med, (t[i], f[i]), (t[j], f[j]),
                                  modes=("val", "dy1", "dy2"))
        assert abs(R[i, j] - m["val"]) <= 1e-11
        assert abs(R1[i, j] - m["dy1"]) <= 1e-11
        assert abs(R2[i, j] - m["dy2"]) <= 1e-11
