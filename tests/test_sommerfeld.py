"""The shared spectral rule: accuracy against pointwise evaluation, stability
under refinement, its size against the fixed-cutoff rule, its panel limit."""

import math

import numpy as np
import pytest
from oracle import (full_remainder, grad_green_y, green_remainder_terms,
                    layer_normal, remainder_triple)

from layerscat import sommerfeld
from layerscat.cli import preset_config, run
from layerscat.errors import DomainError
from layerscat.green import MediumPair, green
from layerscat.nystrom import Grid
from layerscat.surface import builtin

MEDIA = [(3.0, 4.0), (2.7, 3.5), (3.5, 2.7)]


def _grid(surface, a_half=10 * math.pi, n=16):
    """The nodes of a full-width grid on [-10 pi, 10 pi]: 321 at N = 16."""
    t = -a_half + (math.pi / n) * np.arange(int(2 * a_half * n / math.pi) + 1)
    return t, np.asarray(builtin(surface)(t), float)


@pytest.mark.parametrize("surface", ["gamma1", "gamma2", "gamma3"])
@pytest.mark.parametrize("kp,km", MEDIA)
def test_shared_rule_against_pointwise(kp, km, surface):
    # the mirror-subtracted rule gives R below the interface and the plain
    # one G above it; corner pairs |s - t| = u_max set the panel count and
    # the diagonal is where R is least smooth in the rule's eyes
    med = MediumPair(kp, km)
    t, f = _grid(surface)
    n = t.size
    rem = full_remainder(med, t, f)
    for i, j in [(0, n - 1), (n - 1, 0), (0, 0), (n // 2, n // 2),
                 (n - 1, n - 1), (37, 250)]:
        ref = green_remainder_terms(med, (t[i], f[i]), (t[j], f[j]),
                                    grad=True, tol=1e-13)
        for mat, r in zip(rem, ref):
            assert abs(mat[i, j] - r) <= 1e-13
    s = np.array([t[0], 0.3, t[-1]])
    fs = np.array([0.2, 0.0, 1.1])
    up = remainder_triple(med, t, f, s, fs)
    for i in range(s.size):
        for j in (0, n // 2, n - 1):
            x, y = (s[i], fs[i]), (t[j], f[j])
            ref = (green(med, x, y, tol=1e-13),)
            ref += grad_green_y(med, x, y, tol=1e-13)
            for mat, r in zip(up, ref):
                assert abs(mat[i, j] - r) <= 1e-13


@pytest.mark.parametrize("kind", ["dirichlet", "impedance"])
@pytest.mark.parametrize("kp,km", [(3.0, 4.0), (3.5, 2.7)])
def test_layer_sum_against_pointwise(kp, km, kind):
    # the one node-set sum L = R diag(a) + N diag(b), N = f' dR/dy1 - dR/dy2,
    # with the Dirichlet coefficients (a = 2i eta, b = 2/J at the columns)
    # or the impedance ones (a = 2i k- beta with a complex beta, b = -2/J at
    # the rows, where L is the transpose), entry by entry: the normal sits
    # at node q of the pair (p, q), L[i, j] at (p, q) = (i, j) or (j, i)
    med = MediumPair(kp, km)
    surf = builtin("gamma1")
    t, f = _grid("gamma1")
    n = t.size
    rows = kind == "impedance"
    a = (2j * km * (1.0 + 0.5j + 0.3 * np.cos(t)) if rows
         else 2j * math.sqrt(kp * km))
    normal = layer_normal(surf, t, a, rows)
    got = sommerfeld.remainder_matrices(kp, km, t, f, normal=normal)
    coef_a, coef_b, df, _ = normal
    for i, j in [(0, n - 1), (n - 1, 0), (n // 2, n // 2), (37, 250),
                 (161, 149)]:
        p, q = (j, i) if rows else (i, j)
        r, r1, r2 = green_remainder_terms(med, (t[p], f[p]), (t[q], f[q]),
                                          grad=True)
        ref = coef_a[q] * r + coef_b[q] * (df[q] * r1 - r2)
        assert abs(got[i, j] - ref) <= 1e-10


@pytest.mark.parametrize("kp,km", MEDIA)
def test_shared_rule_refinement_stable(kp, km):
    # S+- from the exact squares of the substitutions keep the rule's error
    # at rounding level as the panels multiply; sqrt(xi^2 - k^2) of the
    # rounded nodes lets the 1/S- factor grow it with refine
    t, f = _grid("gamma3")
    med = MediumPair(kp, km)
    coarse = full_remainder(med, t, f, refine=1)
    for refine in (2, 3):
        fine = full_remainder(med, t, f, refine=refine)
        for a, b in zip(coarse, fine):
            assert np.abs(a - b).max() <= 1e-14


def _fixed_cutoff_rule(k_plus, k_minus, u_max, v_min):
    """Size of the shared rule before it was sized by a tolerance: cutoff
    w0 = 38 / v_min + 1, one oscillation per 16-point panel, each segment
    clipped at 4000 panels.  Returns (nodes, whether a segment was clipped)."""
    k1, k2 = sorted((k_plus, k_minus))
    phase = u_max / (2 * math.pi)
    w0 = 38.0 / v_min + 1.0
    c = 0.5 * (k2 - k1)
    counts = [max(math.ceil(n), 3) for n in (
        k1 * phase + 0.15 * k1 * v_min,
        2 * c * phase + 0.3 * c * v_min,
        (math.hypot(k2, w0) - k2) * phase + 0.2 * w0 * v_min)]
    return 16 * sum(min(n, 4000) for n in counts), max(counts) > 4000


@pytest.mark.parametrize("kp,km", [(3.0, 4.0), (4.0, 3.0), (1.0, 40.0)])
def test_shared_rule_never_larger_than_fixed_cutoff(kp, km):
    checked = 0
    for u_max in (1.0, 20 * math.pi, 80 * math.pi):
        for v_min in (0.021, 0.2, 2.0, 10.0):
            old, clipped = _fixed_cutoff_rule(kp, km, u_max, v_min)
            for above in (False, True):
                try:
                    xi = sommerfeld.real_axis_rule(kp, km, u_max, v_min,
                                                   above)[0]
                except DomainError:
                    # refused only where the fixed rule ran under-resolved
                    assert clipped
                    continue
                assert xi.size <= old
                checked += 1
    assert checked >= 12


def test_shared_rule_refuses_too_many_panels():
    # at A/pi = 40 (u_max = 80 pi) the rule needs more than 64,000 points on
    # a segment once v_min falls to 0.06; it says so instead of clipping
    with pytest.raises(DomainError, match="panels"):
        sommerfeld.real_axis_rule(3.0, 4.0, 80 * math.pi, 0.06, False)
    # where it fits, the doubled rule of the two-pass check is twice the size
    one = sommerfeld.real_axis_rule(3.0, 4.0, 80 * math.pi, 0.3, False)
    two = sommerfeld.real_axis_rule(3.0, 4.0, 80 * math.pi, 0.3, False,
                                    refine=2)
    assert two[0].size == 2 * one[0].size
    # roughplane-ibvp: example3 media, A = 10 pi, gamma3 (v_min = 2 * 0.84)
    for refine in (1, 2):
        xi = sommerfeld.real_axis_rule(3.0, 4.0, 20 * math.pi, 1.68, False,
                                       refine=refine)[0]
        assert xi.size <= 1000 * refine


def test_shared_rule_fits_thin_clearance_at_wide_window():
    # at A/pi = 40 and v_min = 0.1 the 32-point panels fit under the point
    # cap (16-point ones did not): the rule must still give R to rounding
    a_half = 40 * math.pi
    t = np.linspace(-a_half, a_half, 161)
    f = np.full_like(t, -0.05)
    med = MediumPair(3.0, 4.0)
    rem = full_remainder(med, t, f)
    n = t.size
    for i, j in [(0, n - 1), (n - 1, 0), (0, 0), (n // 2, n // 2), (40, 121)]:
        ref = green_remainder_terms(med, (t[i], f[i]), (t[j], f[j]),
                                    grad=True, tol=1e-13)
        for mat, r in zip(rem, ref):
            assert abs(mat[i, j] - r) <= 1e-13


def test_shared_rule_refinement_stable_off_surface():
    # targets off the surface, on both sides of the interface, as in field
    # evaluation and the two-pass check of green_surface_batch; near the
    # window's centre u_max is about half the surface's span, where 16-point
    # panels of two oscillations left the two passes 1e-13 to 1e-12 apart
    t, f = _grid("gamma3", n=64)
    s = np.linspace(-2.0, 2.0, 9)
    for x2 in (0.3, -0.2, -0.5):
        fs = np.full_like(s, x2)
        coarse, fine = (remainder_triple(MediumPair(3.0, 4.0), t, f, s, fs,
                                         refine=r) for r in (1, 2))
        for a, b in zip(coarse, fine):
            assert np.abs(a - b).max() <= 1e-14


@pytest.mark.parametrize("normal,products", [(None, 2),
                                             ((0.0, 1.0, 1.0), 6)])
def test_point_set_sums_make_only_the_products_needed(monkeypatch, normal,
                                                      products):
    # between point sets each rule block (one _fold_factors call for the
    # targets, one for the sources) makes two products for I alone, the C
    # and S halves, and six for a normal's layer sum (I, dI/dy1, dI/dy2)
    calls = {"gemm": 0, "factors": 0}
    gemm, factors = sommerfeld._gemm, sommerfeld._fold_factors

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(sommerfeld, "_gemm", spy("gemm", gemm))
    monkeypatch.setattr(sommerfeld, "_fold_factors", spy("factors", factors))
    t, f = _grid("gamma3")
    sommerfeld.remainder_matrices(3.0, 4.0, t, f, s_nodes=[0.5], fs_vals=[0.3],
                                  normal=normal)
    blocks = calls["factors"] // 2
    assert blocks >= 2          # the real part and the complex part
    assert calls["gemm"] == products * blocks


def _factor_errors(t, f, refine=1):
    """Largest error of the fold factors of the shared rule at nodes t, f,
    from _fold_factors and from np.cos/np.sin of the rounded phase, each
    against a long-double reference, on the real and the complex part of a
    rule spanning the nodes (about 64 points of each, spread over it)."""
    u_max = float(t[-1] - t[0])
    xi, _, sp, sm = sommerfeld.real_axis_rule(3.0, 4.0, u_max, 0.6, False,
                                              refine=refine)
    real = (sp.imag == 0) & (sm.imag == 0)
    out = []
    for sel, expo in ((real, sm.real), (~real, sm)):
        every = max(1, np.count_nonzero(sel) // 64)
        x, e = xi[sel][::every], expo[sel][::every]
        scale = np.linspace(0.5, 2.0, x.size)
        got = sommerfeld._fold_factors(x, e, t, f, scale)
        phase = np.multiply.outer(t, x)
        amp = np.exp(np.multiply.outer(f, e)) * scale
        direct = np.stack((np.cos(phase) * amp, np.sin(phase) * amp))
        wide = np.clongdouble if np.iscomplexobj(e) else np.longdouble
        phase = np.multiply.outer(t.astype(np.longdouble),
                                  x.astype(np.longdouble))
        amp = np.exp(np.multiply.outer(f.astype(np.longdouble),
                                       e.astype(wide)))
        amp *= scale.astype(np.longdouble)
        ref = np.stack((np.cos(phase) * amp, np.sin(phase) * amp))
        out.append((float(np.abs(got - ref).max()),
                    float(np.abs(direct - ref).max())))
    return out


@pytest.mark.parametrize("a_over_pi", [10, 40])
def test_grid_fold_factors_as_accurate_as_direct(a_over_pi):
    # the product of the anchors' and offsets' exact phases, with the
    # first-order term of the nodes' rounding, against cos/sin of each
    # rounded phase: the first is off by a few rounding errors of 1 (1e-16
    # to 1e-15 here), the second by up to half an ulp of a phase near 100
    # to 400.  Without the nodes' term the grid factors' error is 3 to 3.7
    # times the direct one; from the anchors' and offsets' rounded phases
    # it is 0.8 to 1.3 times it.
    t = Grid(a_over_pi * math.pi, 64).nodes
    f = -0.3 - 0.2 * np.cos(t) ** 2
    assert sommerfeld._anchors(t)[2] is not None
    for got, direct in _factor_errors(t, f):
        assert got <= 0.25 * direct


def test_jittered_nodes_fold_factors_fall_back():
    # off an arithmetic progression each node is its own anchor, with one
    # zero offset and no correction: the factors are cos/sin of each
    # rounded phase
    t = Grid(10 * math.pi, 16).nodes
    t = t + 1e-3 * np.random.default_rng(5).uniform(-1.0, 1.0, t.size)
    f = -0.3 - 0.2 * np.cos(t) ** 2
    anchors, offsets, d = sommerfeld._anchors(t)
    assert anchors is t and offsets.tolist() == [0.0] and d is None
    for got, direct in _factor_errors(t, f):
        assert got <= direct


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("kp,km", [(3.0, 4.0), (3.5, 2.7)])
def test_fold_amplitude_matches_complex_exp(kp, km, above):
    # on the real axis each exponent (S- below, -S+ above the interface) is
    # real or imaginary; the amplitude is one exp of the exponents, and the
    # factors stay within 4 ulp of cos and sin times the complex exp of each
    t = Grid(10 * math.pi, 16).nodes
    height = np.full_like(t, 0.4) if above else -0.3 - 0.2 * np.cos(t) ** 2
    xi, w, sp, sm = sommerfeld.real_axis_rule(kp, km, t[-1] - t[0], 0.6,
                                              above)
    real = (sp.imag == 0) & (sm.imag == 0)
    expo = (-sp if above else sm)[~real]
    x, scale = xi[~real], np.sqrt(w[~real] * (1.0 + 0.5j))
    # both kinds on (k1, k2) when the exponent's wavenumber is the smaller
    mixed = 0 < np.count_nonzero(expo.imag) < expo.size
    assert mixed == ((kp < km) == above)
    got = sommerfeld._fold_factors(x, expo, t, height, scale)
    # cos and sin alone (zero exponent, unit scale), times the complex exp
    cs = sommerfeld._fold_factors(x, np.zeros(x.size), t, height, 1.0)
    ref = cs * (np.exp(np.multiply.outer(height, expo)) * scale)
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("n_per_pi", [4, 16, 64])
@pytest.mark.parametrize("a_over_pi", [1, 10, 11, 13, 40, 80])
def test_progression_check_accepts_grid_nodes(a_over_pi, n_per_pi):
    # Grid.nodes is t_0 + h j to within 4 ulps of its largest |t|, h from
    # its end nodes (at A/pi = 11 and 13 that h rounds away from pi/N, so
    # a bitwise rebuild misses the grid), so every production call
    # (assembly, boundary data, field evaluation) takes the anchored path
    t = Grid(a_over_pi * math.pi, n_per_pi).nodes
    anchors, offsets, d = sommerfeld._anchors(t)
    m = math.isqrt(t.size - 1) + 1
    assert offsets.size == m > 1 and d is not None
    assert np.array_equal(anchors, t[::m])
    assert np.abs(d).max() <= 4 * np.spacing(np.abs(t).max())


def _nudged(f):
    """f with node 3 one ulp further below the interface: the nodes are no
    longer at one height, so their sums take the factor route (the least
    |f|, and with it the rule, is unchanged)."""
    g = f.copy()
    g[3] = np.nextafter(g[3], -np.inf)
    return g


@pytest.mark.parametrize("n_per_pi", [4, 16, 64])
@pytest.mark.parametrize("a_over_pi", [1, 10])
@pytest.mark.parametrize("kp,km", [(3.5, 2.7), (2.7, 3.5)])
def test_plane_tables_match_factor_route(kp, km, a_over_pi, n_per_pi):
    # sums over a plane's nodes through the anchor and offset tables (the
    # contraction with weights, targets on both sides, and the one-target
    # sum above and below the interface, each with and without a normal)
    # against the same call on the nudged plane, which takes the factors
    t = Grid(a_over_pi * math.pi, n_per_pi).nodes
    f = np.full_like(t, -1.0)
    rng = np.random.default_rng(n_per_pi + a_over_pi)
    w = rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size)
    normal = (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size),
              rng.uniform(0.5, 2.0, t.size), rng.standard_normal(t.size))
    calls = [dict(s_nodes=[0.3, -2.0, 1.7, 0.9], fs_vals=[0.4, -0.3, 0.0, -0.8],
                  weights=w, normal=nrm) for nrm in (None, normal)]
    calls += [dict(s_nodes=[x1], fs_vals=[x2], normal=nrm)
              for x1, x2 in ((0.7, 0.5), (-1.3, -0.4)) for nrm in (None, normal)]
    for kwargs in calls:
        table = sommerfeld.remainder_matrices(kp, km, t, f, **kwargs)
        factor = sommerfeld.remainder_matrices(kp, km, t, _nudged(f), **kwargs)
        assert np.abs(table - factor).max() <= 1e-14 * np.abs(factor).max()


@pytest.mark.parametrize("preset,plane,a_over_pi", [
    pytest.param(name, plane, a, id=f"{name}-{plane}" + (f"-{a}" if a != 10 else ""))
    for name, plane, a in [("example1-dbvp", False, 10), ("example1-ibvp", False, 10),
                           ("example3-ibvp", False, 10), ("example2-dbvp", True, 10),
                           ("example2-ibvp", True, 10), ("example2-dbvp", True, 11)]])
def test_only_a_plane_takes_the_tables(monkeypatch, preset, plane, a_over_pi):
    # the route follows the sources alone: on gamma1 and gamma3 _tables
    # builds none and the nodes make fold factors; on a plane (assembly's
    # one row, the field's contraction) every sum over the nodes takes the
    # tables, and no n x q factor array is made on them, on a grid whose
    # h rounds away from pi/N (A/pi = 11) too
    tables, sizes = [], []
    table_fn, factors = sommerfeld._tables, sommerfeld._fold_factors

    def spy_tables(*args):
        out = table_fn(*args)
        tables.append(out is not None)
        return out

    def spy_factors(xi, expo, pos, *args):
        sizes.append(pos.size)
        return factors(xi, expo, pos, *args)

    monkeypatch.setattr(sommerfeld, "_tables", spy_tables)
    monkeypatch.setattr(sommerfeld, "_fold_factors", spy_factors)
    cfg = preset_config(preset, N=8, A_over_pi=a_over_pi,
                        eval_points=[[1.0, 0.3], [0.4, -0.5]])
    run(cfg)
    assert set(tables) == {plane}
    assert (Grid(cfg.A, cfg.N).node_count in sizes) != plane


@pytest.mark.parametrize("a_over_pi", [10, 40])
def test_plane_tables_as_accurate_as_direct(a_over_pi):
    # with unit weights (one node per row) and unit coefficients (one rule
    # point per row) the tables' sums are the factors cos(xi t), sin(xi t)
    # themselves: like _fold_factors', off by a few rounding errors of 1,
    # well inside the half ulp of a phase that cos/sin of it carry
    t = Grid(a_over_pi * math.pi, 64).nodes
    xi = sommerfeld.real_axis_rule(3.0, 4.0, t[-1] - t[0], 0.6, False)[0]
    x = xi[::max(1, xi.size // 64)]
    tables = sommerfeld._tables(x, t, np.full_like(t, -1.0))
    nodes = np.linspace(0, t.size - 1, 64).astype(int)
    rows = sommerfeld._table_rows(x, tables, np.eye(t.size)[nodes] + 0j)
    one, zero = np.eye(x.size), np.zeros((x.size, x.size))
    cols = np.stack([sommerfeld._table_cols(x, tables, np.stack(ab, axis=1))
                     for ab in ((one, zero), (zero, one))])
    phase = np.multiply.outer(t.astype(np.longdouble), x.astype(np.longdouble))
    ref = np.stack((np.cos(phase), np.sin(phase)))
    direct = np.stack((np.cos(np.multiply.outer(t, x)),
                       np.sin(np.multiply.outer(t, x))))
    assert np.all(rows.imag == 0)
    bound = 0.25 * float(np.abs(direct - ref).max())
    assert float(np.abs(rows.real - ref[:, nodes]).max()) <= bound
    assert float(np.abs(np.swapaxes(cols, 1, 2) - ref).max()) <= bound
