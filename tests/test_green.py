"""Two-layered Green function: values, gradients, invariants, reference field."""

import cmath
import importlib
import math

import numpy as np
import pytest

from conftest import GOLDEN_CSV
from oracle import (batch_triple, grad_green_x, grad_green_y,
                    green_remainder, read_golden, write_golden)

from layerscat.errors import DomainError, SingularityError
from layerscat.green import (MediumPair, _green_terms, _phi_terms, _plane_waves,
                             _reference_field, fresnel_R, green,
                             green_surface_batch, reference_field_plane,
                             transmitted_direction)
from layerscat.specfun import vertical_wavenumber
from layerscat.specfun import hankel1
from layerscat.surface import builtin

MED = MediumPair(2.7, 3.5)


def phi_free(k, x, y):
    """Phi_k(x, y) = (i/4) H1_0(k |x - y|), as green._phi_terms gives it."""
    return _phi_terms(k, x[0] - y[0], x[1] - y[1], False)[0]


def test_medium_pair_invariants():
    assert MED.n == 3.5 / 2.7
    with pytest.raises(DomainError):
        MediumPair(2.0, 2.0)
    with pytest.raises(DomainError):
        MediumPair(-1.0, 2.0)


def test_phi_free_value():
    # (i/4) H1_0(1) at k = 1, |x-y| = 1
    val = phi_free(1.0, (0.0, 0.0), (1.0, 0.0))
    ref = 0.25j * hankel1(0, 1.0)
    assert val == pytest.approx(ref, abs=1e-15)
    assert val.real == pytest.approx(-0.02206424, abs=1e-8)
    assert val.imag == pytest.approx(0.19129942, abs=1e-8)


def test_phi_free_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        if np.hypot(*(x - y)) < 1e-3:
            continue
        assert phi_free(2.2, x, y) == pytest.approx(phi_free(2.2, y, x), rel=1e-14)


def test_phi_free_helmholtz_residual():
    k, h = 1.3, 1e-3
    y = (0.0, 0.0)
    x = (0.7, 0.4)
    lap = (phi_free(k, (x[0] + h, x[1]), y) + phi_free(k, (x[0] - h, x[1]), y)
           + phi_free(k, (x[0], x[1] + h), y) + phi_free(k, (x[0], x[1] - h), y)
           - 4 * phi_free(k, x, y)) / h**2
    assert abs(lap + k * k * phi_free(k, x, y)) <= 1e-4


def test_phi_free_singularity():
    with pytest.raises(SingularityError):
        phi_free(1.0, (0.3, 0.2), (0.3, 0.2))


def test_green_equal_wavenumber_limit():
    med = MediumPair(2.7, 2.7 * (1 + 1e-12))
    x, y = (0.0, 0.5), (0.3, -0.4)
    assert abs(green(med, x, y) - phi_free(2.7, x, y)) <= 1e-6


def test_green_reciprocity():
    x, y = (1.0, 0.7), (-0.5, -1.2)
    assert abs(green(MED, x, y) - green(MED, y, x)) <= 1e-9
    x, y = (0.3, 1.1), (-0.4, 0.6)
    assert abs(green(MED, x, y) - green(MED, y, x)) <= 1e-9
    x, y = (0.2, -0.8), (-0.3, -1.1)
    assert abs(green(MED, x, y) - green(MED, y, x)) <= 1e-9


def test_green_golden_values():
    rows = read_golden(GOLDEN_CSV)
    for kp, km, x, y, ref, tol in rows:
        med = MediumPair(kp, km)
        assert abs(green(med, x, y) - ref) <= 1e-9 + 10 * tol


def test_golden_csv_is_oracle_output(tmp_path):
    # the golden values are green_oracle's own output: regenerating them
    # reproduces the committed file byte for byte
    path = tmp_path / "green_golden.csv"
    write_golden(path)
    assert path.read_bytes() == GOLDEN_CSV.read_bytes()


def test_green_singularity():
    with pytest.raises(SingularityError):
        green(MED, (0.1, -0.4), (0.1, -0.4))


def test_grad_green_y_finite_difference():
    x, y = (0.4, 0.6), (-0.2, -0.9)
    h = 1e-4
    g1, g2 = grad_green_y(MED, x, y)
    fd1 = (green(MED, x, (y[0] + h, y[1])) - green(MED, x, (y[0] - h, y[1]))) / (2 * h)
    fd2 = (green(MED, x, (y[0], y[1] + h)) - green(MED, x, (y[0], y[1] - h))) / (2 * h)
    assert abs(g1 - fd1) <= 1e-5
    assert abs(g2 - fd2) <= 1e-5


def test_grad_green_x_finite_difference():
    # the oracle's field-point gradient is the source gradient of the
    # ends-swapped call (reciprocity); central differences of green() in x
    # check it for each sign pattern of (x2, y2)
    h = 1e-4
    for x2, y2 in ((0.6, 0.9), (0.6, -0.9), (-0.6, 0.9), (-0.6, -0.9)):
        x, y = (0.4, x2), (-0.2, y2)
        g1, g2 = grad_green_x(MED, x, y)
        fd1 = (green(MED, (x[0] + h, x[1]), y)
               - green(MED, (x[0] - h, x[1]), y)) / (2 * h)
        fd2 = (green(MED, (x[0], x[1] + h), y)
               - green(MED, (x[0], x[1] - h), y)) / (2 * h)
        assert abs(g1 - fd1) <= 1e-5
        assert abs(g2 - fd2) <= 1e-5


def test_grad_free_space_limit():
    # nearly coincident branch points: relax the quadrature tolerance
    med = MediumPair(2.7, 2.7 * (1 + 1e-12))
    k = 2.7
    x, y = (0.1, 0.8), (0.5, -0.7)
    g1, g2 = grad_green_y(med, x, y, tol=1e-8)
    r = math.hypot(x[0] - y[0], x[1] - y[1])
    fac = -0.25j * k * hankel1(1, k * r) / r
    assert abs(g1 - fac * (y[0] - x[0])) <= 1e-5
    assert abs(g2 - fac * (y[1] - x[1])) <= 1e-5


def test_grad_on_interface_rejected():
    with pytest.raises(DomainError):
        grad_green_y(MED, (0.0, 0.5), (0.3, 0.0))
    with pytest.raises(DomainError):
        grad_green_x(MED, (0.3, 0.0), (0.0, -0.5))


def test_remainder_consistency_and_smoothness():
    x = (0.0, -1.0)
    y = (1e-4 / math.sqrt(2), -1.0 + 1e-4 / math.sqrt(2))
    r_xy = green_remainder(MED, x, y)
    r_xx = green_remainder(MED, x, x)
    assert abs(r_xy - r_xx) <= 1e-3
    y2 = (0.3, -0.7)
    total = phi_free(3.5, x, y2) + green_remainder(MED, x, y2)
    assert abs(total - green(MED, x, y2)) <= 1e-10


def test_remainder_equal_wavenumber_regression():
    # with nearly equal wavenumbers the interface response vanishes
    med = MediumPair(2.7, 2.7 * (1 + 1e-12))
    val = green_remainder(med, (0.0, -1.0), (0.3, -0.7))
    assert abs(val) <= 1e-6
    # frozen regression value (brute-force oracle, k = 2.7/3.5)
    val = green_remainder(MED, (0.0, -1.0), (0.3, -0.7))
    ref = green(MED, (0.0, -1.0), (0.3, -0.7)) - phi_free(3.5, (0.0, -1.0), (0.3, -0.7))
    assert abs(val - ref) <= 1e-10


def test_remainder_domain():
    with pytest.raises(DomainError):
        green_remainder(MED, (0.0, 0.5), (0.3, -0.7))


@pytest.mark.parametrize("x, y", [
    ((math.nan, 0.5), (0.0, -1.0)), ((0.0, 0.5), (math.inf, -1.0)),
    ((0.0, 0.5), (0.0, -math.inf)),
])
def test_green_refuses_non_finite_point(x, y):
    with pytest.raises(DomainError, match="point has non-finite components"):
        green(MED, x, y)


def test_fresnel_identity():
    # flux balance with T = R + 1: 1 - |R|^2 = Re(i S) |T|^2 / sin(theta),
    # S = S(cos theta, n); beyond the critical angle i S is imaginary and
    # |R| = 1
    rng = np.random.default_rng(2)
    for theta in rng.uniform(0, 2 * math.pi, size=100):
        r = fresnel_R(MED, theta)
        flux = (1j * vertical_wavenumber(math.cos(theta), MED.n)).real
        assert 1 - abs(r) ** 2 == pytest.approx(
            flux * abs(r + 1.0) ** 2 / math.sin(theta), abs=1e-12)


def test_fresnel_normal_incidence():
    med = MediumPair(1.0, 3.0)  # n = 3
    assert fresnel_R(med, math.pi / 2) == pytest.approx(-0.5, abs=1e-14)
    assert fresnel_R(med, math.pi / 2) + 1.0 == pytest.approx(0.5, abs=1e-14)


def test_fresnel_matched_media_limit():
    med = MediumPair(1.0, 1.0 + 1e-10)
    theta = 1.1
    assert abs(fresnel_R(med, theta)) <= 1e-4
    assert fresnel_R(med, theta) + 1.0 == pytest.approx(1.0, abs=1e-4)


def test_reference_field_continuity():
    theta_d = 4 * math.pi / 3
    for x1 in (-1.3, 0.0, 2.1):
        up = reference_field_plane(MED, theta_d, (x1, 1e-9))
        dn = reference_field_plane(MED, theta_d, (x1, -1e-9))
        assert abs(up - dn) <= 1e-7
        gu = _reference_field(MED, theta_d, (x1, 1e-9))[1:]
        gd = _reference_field(MED, theta_d, (x1, -1e-9))[1:]
        assert abs(gu[1] - gd[1]) <= 1e-7
        assert abs(gu[0] - gd[0]) <= 1e-7


def test_reference_field_snell():
    theta_d = 4 * math.pi / 3
    dt = transmitted_direction(MED, theta_d)
    assert MED.k_minus * dt[0] == pytest.approx(MED.k_plus * math.cos(theta_d), abs=1e-14)
    assert abs(dt[0]**2 + dt[1]**2 - 1.0) <= 1e-14


def test_reference_field_gradient_consistency():
    theta_d = 4.6
    h = 1e-6
    for x in ((0.4, 0.7), (-0.2, -0.9)):
        g = _reference_field(MED, theta_d, x)[1:]
        f1 = (reference_field_plane(MED, theta_d, (x[0] + h, x[1]))
              - reference_field_plane(MED, theta_d, (x[0] - h, x[1]))) / (2 * h)
        f2 = (reference_field_plane(MED, theta_d, (x[0], x[1] + h))
              - reference_field_plane(MED, theta_d, (x[0], x[1] - h))) / (2 * h)
        assert abs(g[0] - f1) <= 1e-6
        assert abs(g[1] - f2) <= 1e-6


def test_reference_field_requires_downward():
    with pytest.raises(DomainError):
        reference_field_plane(MED, 0.7, (0.0, 1.0))


def test_reference_field_is_plane_waves_with_fresnel_coefficients():
    rng = np.random.default_rng(9)
    x = (rng.uniform(-4, 4, 50), rng.uniform(-2, 2, 50))
    for med, theta_d in ((MED, 4 * math.pi / 3),
                         (MediumPair(3.5, 2.7), math.pi + 0.25)):
        r = fresnel_R(med, math.pi + theta_d)
        coeffs = (1.0, r, r + 1.0, 0.0)
        for got, want in zip(_reference_field(med, theta_d, x),
                             _plane_waves(med, theta_d, coeffs, x)):
            assert np.array_equal(got, want)


def test_reference_field_on_point_set_matches_pointwise():
    # both sides of the interface, propagating and evanescent transmission
    rng = np.random.default_rng(10)
    x1 = rng.uniform(-4, 4, 60)
    x2 = np.concatenate((rng.uniform(0, 2, 30), rng.uniform(-2, -1e-3, 30)))
    for med, theta_d in ((MED, 4 * math.pi / 3),
                         (MediumPair(3.5, 2.7), math.pi + 0.25)):
        u = reference_field_plane(med, theta_d, (x1, x2))
        g1, g2 = _reference_field(med, theta_d, (x1, x2))[1:]
        assert u.shape == g1.shape == g2.shape == x1.shape
        for i in range(x1.size):
            x = (x1[i], x2[i])
            assert abs(u[i] - reference_field_plane(med, theta_d, x)) <= 1e-15
            p1, p2 = _reference_field(med, theta_d, x)[1:]
            scale = med.k_minus + med.k_plus
            assert abs(g1[i] - p1) <= 1e-15 * scale
            assert abs(g2[i] - p2) <= 1e-15 * scale


def test_scalar_rule_refuses_beyond_panel_limit():
    # at |x1 - y1| = 40000 the doubled pass needs more than 4000 panels on a
    # segment; clipped to 4000, both passes were one rule and the two-pass
    # check passed on a value off by 8.8e-9
    with pytest.raises(DomainError, match="panels"):
        green(MED, (40000.0, 0.3), (0.0, -0.2))


def test_decay_slope():
    rs = np.array([4.0, 8.0, 16.0, 32.0])
    for med in (MED, MediumPair(3.5, 2.7)):
        vals = np.array([abs(green(med, (0.0, -0.5), (r, -0.5), tol=1e-11))
                         for r in rs])
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        assert -1.8 <= slope <= -1.2


@pytest.mark.parametrize("med", [MED, MediumPair(3.5, 2.7)],
                         ids=lambda m: f"{m.k_plus}-{m.k_minus}")
@pytest.mark.parametrize("other", [0.4, -0.6])
@pytest.mark.parametrize("end", ["x", "y"])
def test_green_end_on_interface_matches_one_sided_limits(med, other, end):
    # an end at height exactly 0 lies at or above the interface: slope -S+
    # in the spectral integral and, with the other end above, the k+ Hankel
    # terms.  G and its first derivatives are continuous across the
    # interface, so their values there match the limits from above and
    # below, the other end on either side.  At height 0 the value alone is
    # the same from either side's formula; the height derivatives are not,
    # and catch a side rule that the spectral and Hankel parts apply
    # differently.  The pointwise path differentiates its second end, so
    # the ends-swapped call gives the other end's gradient
    def g(z):
        a, b = (0.6, z), (-0.3, other)
        x, y = (a, b) if end == "x" else (b, a)
        return np.concatenate(([green(med, x, y)],
                               _green_terms(med, x, y, True, 1e-10),
                               _green_terms(med, y, x, True, 1e-10)[1:]))

    for z in (1e-10, -1e-10):
        assert np.abs(g(0.0) - g(z)).max() <= 1e-8


def _one_sided_limit(fn, eps, sign):
    # Richardson from eps and 2 eps toward the interface from one side
    return 2.0 * fn(sign * eps) - fn(sign * 2 * eps)


def test_transmission_continuity():
    y = (0.0, -1.0)
    eps = 1e-5
    for x1 in (0.3, -1.2):
        jump = abs(_one_sided_limit(lambda e: green(MED, (x1, e), y, tol=1e-12), eps, +1)
                   - _one_sided_limit(lambda e: green(MED, (x1, e), y, tol=1e-12), eps, -1))
        assert jump <= 1e-6

        def d2(e):
            return grad_green_x(MED, (x1, e), y, tol=1e-12)[1]

        jd = abs(_one_sided_limit(d2, eps, +1) - _one_sided_limit(d2, eps, -1))
        assert jd <= 1e-6


def test_helmholtz_residual():
    h = 1e-3
    y = (0.3, -1.1)
    for x, k in (((0.5, 0.8), MED.k_plus), ((-0.4, -0.6), MED.k_minus)):
        g0 = green(MED, x, y, tol=1e-13)
        lap = (green(MED, (x[0] + h, x[1]), y, tol=1e-13)
               + green(MED, (x[0] - h, x[1]), y, tol=1e-13)
               + green(MED, (x[0], x[1] + h), y, tol=1e-13)
               + green(MED, (x[0], x[1] - h), y, tol=1e-13) - 4 * g0) / h**2
        assert abs(lap + k * k * g0) <= 1e-3 * abs(g0)


@pytest.mark.parametrize("med", [MED, MediumPair(3.5, 2.7)],
                         ids=lambda m: f"{m.k_plus}-{m.k_minus}")
def test_surface_batch_matches_pointwise(med):
    t = np.linspace(-4, 4, 9)
    f = -1 + 0.3 * np.sin(0.7 * np.pi * t) * np.exp(-0.4 * t * t)
    for x in ((0.6, 0.56), (1.0, -0.2)):
        val, dy1, dy2 = batch_triple(med, x, t, f)
        for j, (tj, fj) in enumerate(zip(t, f)):
            assert abs(val[j] - green(med, x, (tj, fj))) <= 1e-10
            gy = grad_green_y(med, x, (tj, fj))
            assert abs(dy1[j] - gy[0]) <= 1e-9
            assert abs(dy2[j] - gy[1]) <= 1e-9


def test_surface_batch_target_set_both_sides(monkeypatch):
    # one checked call on targets above, on and below the interface: one
    # shared rule per side, no pointwise fallback, the scalar values
    from layerscat import sommerfeld
    calls = []
    spectral_point = sommerfeld.spectral_point

    def spy(*args, **kwargs):
        calls.append(args)
        return spectral_point(*args, **kwargs)

    monkeypatch.setattr(sommerfeld, "spectral_point", spy)
    t = np.linspace(-4, 4, 9)
    f = -1 + 0.3 * np.sin(0.7 * np.pi * t) * np.exp(-0.4 * t * t)
    x1 = np.array([[0.6, -1.2], [1.0, 2.5]])
    x2 = np.array([[0.56, 0.0], [-0.2, -0.4]])
    val, dy1, dy2 = batch_triple(MED, (x1, x2), t, f, check=True)
    assert calls == []
    assert val.shape == x1.shape + t.shape
    for i in np.ndindex(x1.shape):
        x = (x1[i], x2[i])
        for j, (tj, fj) in enumerate(zip(t, f)):
            assert abs(val[i][j] - green(MED, x, (tj, fj))) <= 1e-10
            gy = grad_green_y(MED, x, (tj, fj))
            assert abs(dy1[i][j] - gy[0]) <= 1e-10
            assert abs(dy2[i][j] - gy[1]) <= 1e-10
    with pytest.raises(DomainError):        # sources above the interface
        green_surface_batch(MED, (x1, x2), t, -f)


@pytest.mark.parametrize("x", [(0.6, 0.56), (-5.3, -0.2), (9.0, 1.5)])
def test_surface_batch_rule_spans_one_target(monkeypatch, x):
    # a one-target call sizes the shared rule by max|x1 - t_j|, not by the
    # span of the target and source abscissae together
    from layerscat import sommerfeld
    seen = []
    rule = sommerfeld.real_axis_rule

    def spy(k_plus, k_minus, u_max, v_min, *args, **kwargs):
        seen.append((u_max, v_min))
        return rule(k_plus, k_minus, u_max, v_min, *args, **kwargs)

    monkeypatch.setattr(sommerfeld, "real_axis_rule", spy)
    t = np.linspace(-4, 4, 9)
    f = -1 + 0.3 * np.sin(0.7 * np.pi * t)
    green_surface_batch(MED, x, t, f)
    assert seen == [(np.abs(x[0] - t).max(), abs(x[1]) + np.abs(f).min())]


def test_outputs_finite():
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = (rng.uniform(-3, 3), rng.uniform(-2, 2))
        y = (rng.uniform(-3, 3), rng.uniform(-2, 2))
        if math.hypot(x[0] - y[0], x[1] - y[1]) < 0.3:
            continue
        g = green(MED, x, y)
        assert cmath.isfinite(g)


def test_accuracy_error_carries_estimate():
    # nearly coincident branch points defeat the default tolerance; the error
    # reports the achieved estimate
    from layerscat.errors import AccuracyError
    med = MediumPair(2.7, 2.7 * (1 + 1e-12))
    with pytest.raises(AccuracyError) as exc:
        grad_green_y(med, (0.1, 0.8), (0.5, -0.7), tol=1e-14)
    assert exc.value.estimate > 1e-14


def test_green_large_coordinates():
    # stated domain |x2|, |y2| <= 20 stays finite and reciprocal
    for x, y in (((0.0, 18.0), (3.0, -19.0)), ((1.0, -15.0), (-2.0, -19.5)),
                 ((0.5, 19.0), (0.0, 17.0))):
        g = green(MED, x, y)
        assert cmath.isfinite(g)
        assert abs(g - green(MED, y, x)) <= 1e-9


def test_randomized_media_against_oracle():
    from oracle import green_oracle
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(12):
        kp = rng.uniform(1.2, 4.5)
        km = rng.uniform(1.2, 4.5)
        if abs(kp - km) < 0.2:
            km = kp + 0.7
        x = (rng.uniform(-3, 3), rng.uniform(-2.5, 2.5))
        y = (rng.uniform(-3, 3), rng.uniform(-2.5, 2.5))
        v = x[1] + y[1] if x[1] * y[1] >= 0 else abs(x[1]) + abs(y[1])
        if abs(v) < 0.3 or math.hypot(x[0] - y[0], x[1] - y[1]) < 0.2:
            continue
        med = MediumPair(kp, km)
        assert abs(green(med, x, y) - green_oracle(kp, km, x, y)) <= 1e-9
        checked += 1
    assert checked >= 6


def test_small_separation_near_interface():
    # |x - y| down to the 1e-3 contract floor, straddling the interface:
    # refinement-stable and reciprocal
    pairs = [((0.0, 1e-3), (0.0, -1e-4)), ((0.0, 6e-4), (8e-4, -6e-4)),
             ((0.0, 5e-4), (1e-3, 2e-4))]
    for x, y in pairs:
        g = green(MED, x, y, tol=1e-10)
        assert abs(g - green(MED, x, y, tol=5e-13)) <= 1e-10
        assert abs(g - green(MED, y, x, tol=1e-10)) <= 1e-10
        assert cmath.isfinite(g)


def test_surface_batch_fallback_near_interface():
    # surfaces hugging the interface defeat the shared real-axis rule; the
    # batch evaluator falls back to pointwise contour evaluation
    t = np.linspace(-3, 3, 7)
    f = np.full_like(t, -0.01)
    out = green_surface_batch(MED, (0.5, 0.0), t, f)
    ref = np.array([green(MED, (0.5, 0.0), (tj, -0.01)) for tj in t])
    assert np.abs(out - ref).max() <= 1e-9


@pytest.mark.parametrize("x", [(0.5, 0.0), (0.5, 0.5), (0.5, -0.3)])
def test_surface_batch_layer_sum_per_source(x):
    # a normal with coefficients and slope per source gives a_j G + b_j
    # (f'_j dG/dy1 - dG/dy2) on the shared rule, above and below the
    # interface, and on the pointwise fallback (x2 = 0 beside a surface at
    # -0.01: v_min = 0.01); the same combination formed here from the value
    # and the two source derivatives agrees to rounding
    t = np.linspace(-3, 3, 7)
    f = np.full_like(t, -0.01) if x[1] == 0.0 else -1 + 0.3 * np.sin(t)
    a, b, df = 1j * (1 + 0.1 * t), 1 / (1 + t * t), 0.3 * t
    got = green_surface_batch(MED, x, t, f, normal=(a, b, df))
    val, dy1, dy2 = batch_triple(MED, x, t, f)
    ref = a * val + b * (df * dy1 - dy2)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_surface_batch_order_one_hankel_only_for_gradient(monkeypatch):
    # below the interface the batch adds the direct term Phi_{k-}(x, y); its
    # order-1 Hankel pass serves only a normal's layer sum, here
    # (a, b, f') = (1, 0, 0), which is G itself
    green_mod = importlib.import_module("layerscat.green")
    orders = []

    def spy(order, z):
        orders.append(order)
        return hankel1(order, z)

    monkeypatch.setattr(green_mod, "hankel1", spy)
    t = np.linspace(-4, 4, 9)
    f = -1 + 0.3 * np.sin(0.7 * np.pi * t)
    x = (1.0, -0.2)
    val = green_surface_batch(MED, x, t, f)
    assert orders == [0]
    grad = green_surface_batch(MED, x, t, f, normal=(1.0, 0.0, 0.0))
    assert orders == [0, 0, 1]
    assert np.array_equal(grad, val)


def test_surface_batch_memory_below_matches_above():
    # the direct term goes into the shared rule's output in place, in row
    # blocks: a call below the interface peaks (tracemalloc) no more than
    # 10% above the same call above it, with and without the gradient
    import tracemalloc
    med = MediumPair(2.7, 3.5)
    t = -10 * math.pi + (math.pi / 32) * np.arange(641)
    f = np.asarray(builtin("gamma3")(t), float)
    x1 = np.linspace(-9.0, 9.0, 780)
    peak = {}
    for x2 in (-0.5, 0.5):
        for grad in (False, True):
            tracemalloc.start()
            try:
                green_surface_batch(med, (x1, np.full_like(x1, x2)), t, f,
                                    normal=(0.0, 1.0, 1.0) if grad else None)
                peak[x2, grad] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for grad in (False, True):
        assert peak[-0.5, grad] <= 1.1 * peak[0.5, grad]
