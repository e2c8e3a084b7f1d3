"""Kernels, splits, diagonal limits, right-hand sides, jump relations."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import boundary_data, speed, unit_normal
from oracle import (full_remainder, grad_green_x, grad_green_y, green_oracle,
                    green_remainder_terms, kernel_dbvp_raw, kernel_ibvp_raw,
                    kernel_rows, layer_normal, layer_sum,
                    remainder_triple, split_dbvp, split_ibvp, split_matrices)

from layerscat import sommerfeld
from layerscat.bie import BoundaryProblem, cutoff_chi, rhs_vector
from layerscat.cli import (_PRESETS, build_problem, config_from_dict,
                           preset_config)
from layerscat.errors import AccuracyError, DomainError, SingularityError
from layerscat.green import (MediumPair, _reference_field, fresnel_R, green,
                             green_surface_batch, reference_field_plane,
                             transmitted_direction)
from layerscat.nystrom import Grid, assemble
from layerscat.specfun import EULER_GAMMA, hankel1
from layerscat.surface import builtin

MED = MediumPair(2.7, 3.5)
ETA = math.sqrt(2.7 * 3.5)
PLANE = {"type": "plane", "theta_d": 4 * math.pi / 3}


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


def _diagonal_ab(problem, s):
    """(a, b) of kappa = a ln|s-t| + b at the diagonal entry (s, s): there
    chi = 1 and the log correction vanishes, so a = A/pi and b = B."""
    A, B = split_matrices(problem, s, s, np.zeros((1, 1), dtype=complex))
    return A / math.pi, B


def test_flat_diagonals_dbvp(flat_dbvp):
    # remainder-free smooth parts on the diagonal of the flat-surface kernel
    s = np.array([0.3])
    a, b = _diagonal_ab(flat_dbvp, s)
    km, eta = 3.5, flat_dbvp.eta
    # L2(s,s) = 0 for a flat surface, so b = i eta M2(s,s)
    m2 = (0.5j - EULER_GAMMA / math.pi - math.log(0.5 * km) / math.pi)
    assert b[0, 0] == pytest.approx(1j * eta * m2, abs=1e-14)
    assert m2 == pytest.approx(-0.3618646903626847 + 0.5j, abs=1e-14)
    # a(s,s) = i eta M1(s,s) = -i eta / pi
    assert a[0, 0] == pytest.approx(-1j * eta / math.pi, abs=1e-14)


def test_flat_diagonals_ibvp(flat_ibvp):
    s = np.array([-0.8])
    a, b = _diagonal_ab(flat_ibvp, s)
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
    df, d2f = (float(v) for v in surf.jet(0.4)[1:])
    sp2 = 1.0 + df * df
    aD, bD = _diagonal_ab(dbvp_problem, s)
    aI, bI = _diagonal_ab(ibvp_problem, s)
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


@pytest.mark.parametrize("pair", [(0.0, 0.01), (0.3, -0.7), (2.0, -3.0),
                                  (1.0, 2.5), (0.0, 3.5)])
def test_split_reconstruction_ibvp(ibvp_problem, pair):
    s, t = pair
    split = split_ibvp(ibvp_problem)
    raw = kernel_ibvp_raw(ibvp_problem, s, t)
    log_term = math.log(4 * math.sin((s - t) / 2) ** 2)
    rec = split.A(s, t) * log_term / (2 * math.pi) + split.B(s, t)
    assert abs(rec - raw) <= 1e-10 * max(1.0, abs(raw))


@pytest.mark.parametrize("preset,raw_kernel,sign", [
    ("example1-dbvp", kernel_dbvp_raw, 1.0),
    ("example1-ibvp", kernel_ibvp_raw, -1.0),
])
def test_split_matrices_reconstruct_raw_kernel(preset, raw_kernel, sign):
    # every off-diagonal pair of the assembled (A, B), across the band
    # |s-t| < 1, the cutoff transition 1 < |s-t| < pi and beyond pi,
    # reproduces the independent scalar kernel (impedance: kappa_bar = -K)
    problem = build_problem(preset_config(preset))
    nodes = np.linspace(-2.5, 2.5, 7)
    A, B = kernel_rows(problem, nodes, nodes)
    for i, s in enumerate(nodes):
        for j, t in enumerate(nodes):
            if i == j:
                continue
            log_term = math.log(4 * math.sin((s - t) / 2) ** 2)
            rec = sign * (A[i, j] * log_term / (2 * math.pi) + B[i, j])
            raw = raw_kernel(problem, s, t)
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
    x = (s, float(surf(s)))
    y = (t, float(surf(t)))
    h = 1e-5
    g = green_oracle(2.7, 3.5, x, y)
    dy1 = (green_oracle(2.7, 3.5, x, (y[0] + h, y[1]))
           - green_oracle(2.7, 3.5, x, (y[0] - h, y[1]))) / (2 * h)
    dy2 = (green_oracle(2.7, 3.5, x, (y[0], y[1] + h))
           - green_oracle(2.7, 3.5, x, (y[0], y[1] - h))) / (2 * h)
    nt = unit_normal(surf, t)
    jt = float(speed(surf, t))
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
    x = (s, float(surf(s)))
    y = (t, float(surf(t)))
    jt = float(speed(surf, t))
    kappa = kernel_dbvp_raw(dbvp_problem, s, t)
    no_eta = kappa - 2j * dbvp_problem.eta * green(MED, x, y) * jt
    gy = grad_green_y(MED, x, y)
    nt = unit_normal(surf, t)
    assert no_eta == pytest.approx(2.0 * (nt[0] * gy[0] + nt[1] * gy[1]) * jt,
                                   abs=1e-10)


def test_rhs_point_source(dbvp_problem, ibvp_problem):
    # manufactured fixture g = +G(., y0): Dirichlet rhs = -2 G
    y0 = (1.0, -1.3)
    surf = dbvp_problem.surface
    for s in (0.0, 1.2):
        x = (s, float(surf(s)))
        ref = green(MED, x, y0)
        assert rhs_vector(dbvp_problem, s) == pytest.approx(-2.0 * ref, abs=1e-9)
        assert abs(rhs_vector(dbvp_problem, s)) == pytest.approx(2 * abs(ref), abs=1e-9)
    # impedance rhs = +2 g with g = (d/dnu - i k- beta) G(., y0)
    val = rhs_vector(ibvp_problem, 0.7)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_rhs_plane_wave_flat(flat_dbvp):
    theta = 4 * math.pi / 3
    for s in (-0.5, 1.0):
        ut = reference_field_plane(MED, theta, (s, -1.0))
        assert rhs_vector(flat_dbvp, s) == pytest.approx(2.0 * ut, abs=1e-13)


def test_rhs_impedance_plane_fd(flat_ibvp):
    # g = -du0/dnu + i k- beta u0 on the flat surface, checked by finite
    # differences of the reference field
    theta = 4 * math.pi / 3
    s, h = 0.3, 1e-6
    u0 = reference_field_plane(MED, theta, (s, -1.0))
    dn = -(reference_field_plane(MED, theta, (s, -1.0 + h))
           - reference_field_plane(MED, theta, (s, -1.0 - h))) / (2 * h)
    g_ref = -dn + 1j * 3.5 * u0
    assert rhs_vector(flat_ibvp, s) == pytest.approx(2.0 * g_ref, abs=1e-6)
    g1, g2 = _reference_field(MED, theta, (s, -1.0))[1:]
    assert dn == pytest.approx(-g2, abs=1e-6)


def _plane_u0(med, theta_d, x):
    """u0 = T e^{ik- d_t.x} and its gradient at one point below the
    interface, where every surface node lies."""
    x1, x2 = x
    assert x2 < 0
    dt = transmitted_direction(med, theta_d)
    ut = ((fresnel_R(med, math.pi + theta_d) + 1.0)
          * np.exp(1j * med.k_minus * (x1 * dt[0] + x2 * dt[1])))
    return ut, 1j * med.k_minus * dt[0] * ut, 1j * med.k_minus * dt[1] * ut


def _scalar_data(cfg, problem, s):
    """Boundary data node by node from scalar formulas, one per incident
    type of the config and boundary kind: the oracle of the batched data
    that rhs_vector forms."""
    med, surf, inc = problem.medium, problem.surface, cfg.incident
    impedance = problem.kind == "impedance"
    out = []
    for si in np.atleast_1d(s):
        si = float(si)
        x = (si, float(surf(si)))
        df = float(surf.jet(si)[1])
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
        got = boundary_data(problem, s)
        ref = _scalar_data(cfg, problem, s)
        assert got.shape == s.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    one = boundary_data(problem, 0.77)
    assert isinstance(one, complex)
    ref = _scalar_data(cfg, problem, 0.77)[0]
    assert abs(one - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("kind", ["dirichlet", "impedance"])
def test_point_data_at_thinnest_clearance_takes_shared_rule(monkeypatch,
                                                            kind):
    # the thinnest surface validation accepts, with the source just below
    # it: at A/pi = 10 the shared rule fits (v_min = 0.0203), so no node
    # takes the pointwise fallback (at A/pi = 20 the panel limit sends it
    # there)
    green_mod = importlib.import_module("layerscat.green")

    def no_fallback(*args, **kwargs):
        raise AssertionError("boundary data took the pointwise fallback")

    monkeypatch.setattr(green_mod, "_green_terms", no_fallback)
    cfg = config_from_dict(
        {"problem": kind, "k_plus": 2.7, "k_minus": 3.5,
         "surface": {"expr": "-0.0101"}, "A_over_pi": 10, "N": 2,
         "incident": {"type": "point", "y0": [0.0, -0.0102]}})
    g = boundary_data(build_problem(cfg), Grid(half_width_A=cfg.A, N=cfg.N).nodes)
    assert np.all(np.isfinite(g))


@pytest.mark.parametrize("kind", ["dirichlet", "impedance"])
def test_batched_point_data_fallback_near_interface(kind):
    # v_min = 0.014 defeats the shared rule: the data comes from the checked
    # pointwise fallback and must still match scalar green().  Config
    # validation refuses a surface this close to the interface, so the
    # surface goes in after it
    cfg = replace(config_from_dict(
        {"problem": kind, "k_plus": 2.7, "k_minus": 3.5, "surface": "gamma2",
         "incident": {"type": "point", "y0": [1.0, -1.3]}, "N": 8}),
        surface={"expr": "-0.004"}, incident={"type": "point",
                                              "y0": [1.0, -0.01]})
    problem = build_problem(cfg)
    s = np.array([-2.0, 0.3, 1.0, 4.5])
    assert np.abs(boundary_data(problem, s) - _scalar_data(cfg, problem, s)).max() <= 1e-9


@pytest.mark.parametrize("gap, raises", [(1e-8, True), (1e-12, False)])
def test_batched_data_accuracy_check(monkeypatch, gap, raises):
    # the checked batch compares the doubled rule with the single rule, as
    # green() does; a single-rule pass shifted by gap must trip the 1e-10 test
    # exactly when gap exceeds it, and the doubled-rule values are returned
    remainder_matrices = sommerfeld.remainder_matrices

    def shifted(*args, refine=1, **kwargs):
        out = remainder_matrices(*args, refine=refine, **kwargs)
        return out if refine == 2 else out + gap

    monkeypatch.setattr(sommerfeld, "remainder_matrices", shifted)
    t = np.linspace(-4, 4, 9)
    f = -1 + 0.3 * np.sin(0.7 * np.pi * t)
    y0 = (1.0, -1.3)
    if raises:
        for normal in ((0.0, 1.0, 1.0), None):
            with pytest.raises(AccuracyError) as exc:
                green_surface_batch(MED, y0, t, f, normal=normal, check=True)
            assert exc.value.estimate == pytest.approx(gap, rel=1e-3)
        return
    green_surface_batch(MED, y0, t, f, normal=(0.0, 1.0, 1.0), check=True)
    out = green_surface_batch(MED, y0, t, f, check=True)
    ref = [green(MED, (tj, fj), y0) for tj, fj in zip(t, f)]
    assert np.abs(out - ref).max() <= 1e-12


def test_batched_data_nan_estimate_raises(monkeypatch):
    # the two-pass test is relative to max(1, max|value|), and a NaN in the
    # single-rule pass (a NaN estimate) must still fail it
    remainder_matrices = sommerfeld.remainder_matrices

    def broken(*args, refine=1, **kwargs):
        out = remainder_matrices(*args, refine=refine, **kwargs)
        if refine == 1:
            out[0] = np.nan
        return out

    monkeypatch.setattr(sommerfeld, "remainder_matrices", broken)
    t = np.linspace(-4, 4, 9)
    f = -1 + 0.3 * np.sin(0.7 * np.pi * t)
    with pytest.raises(AccuracyError) as exc:
        green_surface_batch(MED, (1.0, -1.3), t, f, normal=(0.0, 1.0, 1.0),
                            check=True)
    assert math.isnan(exc.value.estimate)


def test_problem_validation():
    surf = builtin("gamma1")
    with pytest.raises(DomainError):
        BoundaryProblem(kind="dirichlet", medium=MED, surface=surf,
                        incident=PLANE, eta=-1.0)
    # beta is checked where it is used, at the nodes, before any layer sum
    problem = BoundaryProblem(kind="impedance", medium=MED, surface=surf,
                              incident=PLANE,
                              beta=lambda s: -1.0 + 0 * np.asarray(s, float))
    with pytest.raises(DomainError, match="Re beta > 0"):
        assemble(problem, Grid(half_width_A=math.pi, N=4))
    with pytest.raises(DomainError):
        BoundaryProblem(kind="mixed", medium=MED, surface=surf,
                        incident=PLANE)


@pytest.mark.parametrize("incident", [{"type": "spherical", "y0": [1.0, -1.3]},
                                      {"theta_d": 4 * math.pi / 3}, None])
def test_problem_refuses_unknown_incident(incident):
    with pytest.raises(DomainError, match="unknown incident"):
        BoundaryProblem(kind="dirichlet", medium=MED, surface=builtin("gamma2"),
                        incident=incident)


@pytest.mark.parametrize("preset", ["example1-dbvp", "example2-ibvp"])
def test_problem_built_directly_matches_build_problem(preset):
    # a BoundaryProblem made from the spec alone, with no config, gives the
    # right-hand side of the one build_problem makes, bit for bit
    raw = _PRESETS[preset]
    cfg = config_from_dict(dict(raw, N=8))
    kwargs = {"beta": raw["beta"]} if raw["problem"] == "impedance" else {}
    direct = BoundaryProblem(kind=raw["problem"],
                             medium=MediumPair(raw["k_plus"], raw["k_minus"]),
                             surface=builtin(raw["surface"]),
                             incident=raw["incident"], **kwargs)
    nodes = Grid(half_width_A=cfg.A, N=cfg.N).nodes
    for s in (nodes, 0.77):
        assert np.array_equal(rhs_vector(direct, s),
                              rhs_vector(build_problem(cfg), s))


def test_impedance_beta_checked_before_layer_integrals(monkeypatch):
    # Re beta = 2 - 0.04 t fails beyond t = 50: assemble must say so
    # before the shared-rule layer integrals run
    calls = []
    real = sommerfeld.remainder_matrices

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sommerfeld, "remainder_matrices", spy)
    problem = build_problem(config_from_dict(
        dict(_PRESETS["example2-ibvp"], beta={"expr": "2-0.04*t"})))
    with pytest.raises(DomainError, match="Re beta > 0"):
        assemble(problem, Grid(half_width_A=20 * math.pi, N=4))
    assert calls == []


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

    def geometry(t):
        f, df = (float(v) for v in surface.jet(t)[:2])
        j = math.hypot(1.0, df)
        return (t, f), j, (df / j, -1.0 / j)

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
            r, r1, r2 = green_remainder_terms(MED, x, y, grad=True)
            if want == "W":
                val = nu[0] * r1 + nu[1] * r2
            elif want == "V":
                val = r
            else:
                val = -want[0] * r1 + want[1] * r2
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
        y0 = (t0, float(surf(t0)))
        nu = unit_normal(surf, t0)
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
    med = MediumPair(3.0, 4.0)
    surf = builtin("gamma3")
    a_half = 10 * math.pi
    n = 16
    t = -a_half + (math.pi / n) * np.arange(int(2 * a_half * n / math.pi) + 1)
    f = np.asarray(surf(t), float)
    R, R1, R2 = full_remainder(med, t, f)
    rng = np.random.default_rng(0)
    for _ in range(8):
        i, j = rng.integers(0, t.size, 2)
        r, r1, r2 = green_remainder_terms(med, (t[i], f[i]), (t[j], f[j]),
                                          grad=True)
        assert abs(R[i, j] - r) <= 1e-11
        assert abs(R1[i, j] - r1) <= 1e-11
        assert abs(R2[i, j] - r2) <= 1e-11


@pytest.mark.parametrize("kp,km", [(3.0, 4.0), (3.5, 2.7)])
@pytest.mark.parametrize("refine", [1, 2])
def test_remainder_fold_symmetric_matches_rectangular(kp, km, refine):
    # the node-set layer sum (syrk for R, one product with [P Q] for the
    # rest) and the rectangular path with targets = sources (three sums,
    # combined by oracle.layer_sum) evaluate the same folded sums, with the
    # coefficients at the end that carries the normal, the columns
    # (Dirichlet) or the rows (impedance, the transposed form).  1e-13 on
    # each of R, dR/dy1 and dR/dy2, carried through the coefficients
    surf = builtin("gamma3")
    t = np.linspace(-3 * math.pi, 3 * math.pi, 97)
    f = np.asarray(surf(t), float)
    med = MediumPair(kp, km)
    for rows, a in ((False, 2j * math.sqrt(kp * km)),
                    (True, 2j * km * (1.0 + 0.5j + 0.2 * np.sin(t)))):
        normal = layer_normal(surf, t, a, rows)
        rect = layer_sum(full_remainder(med, t, f, refine), normal)
        got = sommerfeld.remainder_matrices(kp, km, t, f, refine=refine,
                                            normal=normal)
        assert got.shape == rect.shape == (t.size, t.size)
        scale = np.abs(normal[0]).max() \
            + np.abs(normal[1] * (1 + np.abs(normal[2]))).max()
        assert np.abs(got - rect).max() <= 1e-13 * scale


def test_surface_remainder_against_pointwise_k_plus_above():
    # k+ > k-: the part of the rule below both branch points covers [0, k+]
    med = MediumPair(3.5, 2.7)
    surf = builtin("gamma3")
    t = np.linspace(-10 * math.pi, 10 * math.pi, 161)
    f = np.asarray(surf(t), float)
    s = t[::9] + 0.05
    fs = np.asarray(surf(s), float)
    sym = full_remainder(med, t, f)
    rect = remainder_triple(med, t, f, s, fs)
    rng = np.random.default_rng(1)
    for _ in range(4):
        i, j = rng.integers(0, s.size), rng.integers(0, t.size)
        for x, (R, R1, R2) in (((s[i], fs[i]), [m[i] for m in rect]),
                               ((t[9 * i], f[9 * i]), [m[9 * i] for m in sym])):
            r, r1, r2 = green_remainder_terms(med, x, (t[j], f[j]), grad=True)
            assert abs(R[j] - r) <= 1e-11
            assert abs(R1[j] - r1) <= 1e-11
            assert abs(R2[j] - r2) <= 1e-11


@pytest.mark.parametrize("kp,km", [(2.7, 3.5), (3.5, 2.7)])
def test_remainder_targets_above_interface(kp, km):
    # targets at or above the interface take the factor e^{-S+ x2}: the
    # shared rule then gives all of G (case 2) and its source gradient
    med = MediumPair(kp, km)
    t = np.linspace(-3, 3, 13)
    f = -0.8 + 0.3 * np.sin(0.9 * t)
    s = np.array([-2.5, 0.0, 0.7, 3.2])
    fs = np.array([0.0, 0.4, 1.3, 0.05])
    val, dy1, dy2 = remainder_triple(med, t, f, s, fs)
    for i in range(s.size):
        for j in range(t.size):
            x, y = (s[i], fs[i]), (t[j], f[j])
            assert abs(val[i, j] - green(med, x, y)) <= 1e-10
            g1, g2 = grad_green_y(med, x, y)
            assert abs(dy1[i, j] - g1) <= 1e-10
            assert abs(dy2[i, j] - g2) <= 1e-10
    with pytest.raises(DomainError):
        sommerfeld.remainder_matrices(kp, km, t, f, s_nodes=[0.0, 1.0],
                                      fs_vals=[0.5, -0.5])
    with pytest.raises(DomainError, match=r"node set takes a normal"):
        sommerfeld.remainder_matrices(kp, km, t, f)


def test_remainder_fold_against_extended_precision_sum():
    # the real/complex BLAS fold reproduces the rule's sum of the
    # mirror-subtracted integrand base e^{S-(f_i+f_j)} 2cos(xi (t_i - t_j)),
    # base = w (k+^2 - k-^2) / (2 S- (S+ + S-)^2) / pi (and its derivative
    # factors), summed entry by entry in long double from the rule's nodes;
    # the layer sums R, -dR/dy2 ((a, b, f') = (0, 1, 0)) and
    # dR/dy1 - dR/dy2 ((0, 1, 1)) against the same combinations
    kp, km = 3.0, 4.0
    t = np.linspace(-3 * math.pi, 3 * math.pi, 97)
    f = np.asarray(builtin("gamma3")(t), float)
    i4, m2, d12 = (sommerfeld.remainder_matrices(kp, km, t, f, s_nodes=t,
                                                 fs_vals=f, normal=normal)
                   for normal in (None, (0.0, 1.0, 0.0), (0.0, 1.0, 1.0)))
    xi, w, sp, sm = sommerfeld.real_axis_rule(kp, km, t[-1] - t[0],
                                              -2 * f.max(), False)
    x = xi.astype(np.longdouble)
    sp, sm = sp.astype(np.clongdouble), sm.astype(np.clongdouble)
    gap = np.longdouble(kp) ** 2 - np.longdouble(km) ** 2
    base = w.astype(np.longdouble) * gap / (2 * sm * (sp + sm) ** 2) / np.pi
    for i, j in [(0, 96), (10, 11), (48, 48), (70, 5), (33, 90)]:
        e = base * np.exp(sm * (np.longdouble(f[i]) + np.longdouble(f[j])))
        ph = x * (np.longdouble(t[i]) - np.longdouble(t[j]))
        r1, r2 = np.sum(e * x * np.sin(ph)), np.sum(e * sm * np.cos(ph))
        ref = (np.sum(e * np.cos(ph)), -r2, r1 - r2)
        for mat, r in zip((i4, m2, d12), ref):
            assert abs(mat[i, j] - complex(r)) <= 2e-15
