"""Hankel functions, their Bessel parts, and the vertical wavenumber."""

import math

import numpy as np
import pytest
import scipy.special as sp

from layerscat.errors import DomainError
from layerscat.specfun import hankel1, vertical_wavenumber


def bessel_j(order, z):
    """J_order as the real part of hankel1's one pass, as assembly reads it."""
    return np.real(hankel1(order, z))


def bessel_y(order, z):
    """Y_order as the imaginary part of hankel1's one pass."""
    return np.imag(hankel1(order, z))


def series_j0(z, terms=40):
    """Ascending-series reference, summed independently of the library."""
    q = z * z / 4.0
    total, term = 1.0, 1.0
    for m in range(1, terms):
        term *= -q / (m * m)
        total += term
    return total


def series_j1(z, terms=40):
    q = z * z / 4.0
    total, term = 1.0, 1.0
    for m in range(1, terms):
        term *= -q / (m * (m + 1))
        total += term
    return 0.5 * z * total


def test_bessel_j_series_oracle():
    assert bessel_j(0, 1.0) == pytest.approx(series_j0(1.0), abs=1e-15)
    assert bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-15)
    for z in (0.3, 1.7, 2.9, 4.4):
        assert bessel_j(0, z) == pytest.approx(series_j0(z), abs=5e-15)
        assert bessel_j(1, z) == pytest.approx(series_j1(z), abs=5e-15)


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_against_scipy(order):
    z = np.concatenate([np.linspace(1e-8, 5, 801),
                        np.linspace(5.001, 100, 1601),
                        np.linspace(100, 450, 300)])
    ref_j = sp.jv(order, z)
    ref_y = sp.yv(order, z)
    env = np.minimum(np.sqrt(2 / (np.pi * z)), 1.0)
    scale = np.maximum(np.abs(ref_j), env)
    assert np.all(np.abs(bessel_j(order, z) - ref_j) <= 1e-13 * scale)
    scale_y = np.maximum(np.abs(ref_y), env)
    assert np.all(np.abs(bessel_y(order, z) - ref_y) <= 1e-13 * scale_y)


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_against_mpmath(order):
    # arbitrary-precision reference, independent of the Cephes code in scipy
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate([np.geomspace(1e-6, 5.0, 60),
                        np.linspace(5.0, 450.0, 141)[1:]])
    with mpmath.workdps(30):
        ref_j = np.array([float(mpmath.besselj(order, mpmath.mpf(v))) for v in z])
        ref_y = np.array([float(mpmath.bessely(order, mpmath.mpf(v))) for v in z])
    env = np.minimum(np.sqrt(2 / (np.pi * z)), 1.0)
    for mine, ref in ((bessel_j(order, z), ref_j), (bessel_y(order, z), ref_y)):
        assert np.all(np.abs(mine - ref) <= 1e-13 * np.maximum(np.abs(ref), env))


def test_hankel_values():
    h0 = hankel1(0, 1.0)
    assert h0.real == pytest.approx(0.7651976865579666, abs=1e-14)
    assert h0.imag == pytest.approx(0.0882569642156769, abs=1e-13)
    h1 = hankel1(1, 1.0)
    assert h1.real == pytest.approx(0.4400505857449335, abs=1e-14)
    assert h1.imag == pytest.approx(-0.7812128213002887, abs=1e-13)


def test_hankel_relative_accuracy():
    z = np.geomspace(1e-8, 100, 4001)
    mine0 = hankel1(0, z)
    mine1 = hankel1(1, z)
    ref0 = sp.hankel1(0, z)
    ref1 = sp.hankel1(1, z)
    assert np.all(np.abs(mine0 - ref0) <= 1e-12 * np.abs(ref0))
    assert np.all(np.abs(mine1 - ref1) <= 1e-12 * np.abs(ref1))


def test_hankel_derivative_identity():
    # d/dz H1_0(z) = -H1_1(z), by central differences
    for z in (0.7, 3.3, 12.0, 40.0):
        h = 1e-6
        fd = (hankel1(0, z + h) - hankel1(0, z - h)) / (2 * h)
        assert fd == pytest.approx(-hankel1(1, z), rel=1e-8)


def test_hankel_domain_error():
    with pytest.raises(DomainError):
        hankel1(0, 0.0)
    with pytest.raises(DomainError):
        hankel1(1, -2.0)


@pytest.mark.parametrize("fn", [bessel_j, bessel_y, hankel1])
@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_bessel_arrays_validated_like_scalars(fn, order, bad):
    # one bad entry among good ones fails the whole array, as a scalar does
    with pytest.raises(DomainError):
        fn(order, bad)
    with pytest.raises(DomainError):
        fn(order, np.array([0.5, bad, 7.0]))
    with pytest.raises(DomainError):
        fn(order, np.full((2, 2), bad))
    with pytest.raises(DomainError):
        fn(2, np.array([1.0]))


def test_bessel_zero_only_where_y_is_finite():
    # z = 0, where Y has its log singularity, fails a whole array
    for order in (0, 1):
        with pytest.raises(DomainError):
            hankel1(order, np.array([1.0, 0.0]))


@pytest.mark.parametrize("order", [0, 1])
def test_hankel_parts_are_bessel_bit_for_bit(order):
    # assembly takes J_n as Re H_n, so the parts must be the Cephes J_n and
    # Y_n exactly, on both sides of the series/asymptotic cut at z = 5 and
    # out to z = 450
    j, y = (sp.j0, sp.y0) if order == 0 else (sp.j1, sp.y1)
    z = np.concatenate([np.geomspace(1e-6, 4.9, 299),
                        np.nextafter(5.0, [0.0, np.inf]), [5.0],
                        np.linspace(5.01, 450.0, 2000)]).reshape(2, -1)
    h = hankel1(order, z)
    assert h.shape == z.shape
    assert np.array_equal(h.real, j(z))
    assert np.array_equal(h.imag, y(z))
    for zi in (0.7, 5.0, 5.0000001, 449.0):
        assert hankel1(order, zi) == complex(j(zi), y(zi))


def branch_sqrt(z, upper_cut):
    """Square root with the cut along the positive (upper) or negative
    imaginary axis: argument ranges (-3pi/2, pi/2) resp. (-pi/2, 3pi/2)."""
    z = np.asarray(z, dtype=complex)
    th = np.angle(z)
    if upper_cut:
        th = np.where(th > np.pi / 2, th - 2 * np.pi, th)
    else:
        th = np.where(th <= -np.pi / 2, th + 2 * np.pi, th)
    return np.sqrt(np.abs(z)) * np.exp(0.5j * th)


def two_cut_root(z, a):
    """Reference S(z, a) = S1(z - a) S2(z + a), S1 cut upward from a, S2
    downward from -a: the decaying sheet on the whole cut plane."""
    return branch_sqrt(z - a, True) * branch_sqrt(z + a, False)


def ray_points(k_plus, k_minus, w0):
    """Both ray tails xi = T0 + p e^{+-i pi/4} of sommerfeld, T0 =
    hypot(max k, w0), at p = 0 and p in geomspace(1e-12, 1e5)."""
    p = np.concatenate(([0.0], np.geomspace(1e-12, 1e5, 400)))
    t0 = np.hypot(max(k_plus, k_minus), w0)
    return np.concatenate([t0 + np.exp(s * 0.25j * np.pi) * p for s in (1, -1)])


def test_sqrt_branches_fixed_points():
    # the reference's branches: S1 cuts along the upper imaginary axis
    # (upper_cut), S2 the lower one
    for upper in (True, False):
        assert branch_sqrt(0, upper) == 0
        assert abs(branch_sqrt(4.0, upper) - 2.0) <= 1e-15
    # -1 approached as e^{-i pi} on branch 1, e^{+i pi} on branch 2
    assert abs(branch_sqrt(-1.0 + 0j, True) + 1j) <= 1e-15
    assert abs(branch_sqrt(-1.0 + 0j, False) - 1j) <= 1e-15


def test_sqrt_branches_square_to_argument():
    rng = np.random.default_rng(7)
    z = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    for upper in (True, False):
        s = branch_sqrt(z, upper)
        assert np.abs(s * s - z).max() < 1e-13 * (1 + np.abs(z)).max()


def test_two_cut_root_is_the_real_formula_on_the_real_axis():
    x = np.linspace(-12.0, 12.0, 481)
    assert np.all(np.abs(two_cut_root(x + 0j, 3.5) - vertical_wavenumber(x, 3.5))
                  <= 1e-14 * 12)


@pytest.mark.parametrize("k_plus,k_minus", [(2.7, 3.5), (3.5, 2.7), (3.0, 4.0)])
@pytest.mark.parametrize("w0", [1.0, 50.0, 6000.0])
def test_principal_root_is_the_two_cut_root_on_the_rays(k_plus, k_minus, w0):
    # beyond both branch points Re(xi^2 - k^2) >= w0^2, where the principal
    # root is the decaying sheet that the two-cut product defines everywhere
    xi = ray_points(k_plus, k_minus, w0)
    for k in (k_plus, k_minus):
        ref = two_cut_root(xi, k)
        s = vertical_wavenumber(xi, k)
        assert np.all(np.abs(s - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("z", [0.5 + 1e-9j, 3.5 + 0j, 1j, -1 + 1j, 0.5 + 3j,
                               -4.0 - 2.0j])
def test_complex_root_off_the_principal_sheet_refused(z):
    # Re(z^2 - a^2) <= 0 (a = 3.5): the principal root need not be the
    # decaying sheet there, so no caller may get it silently
    with pytest.raises(DomainError):
        vertical_wavenumber(z, 3.5)
    with pytest.raises(DomainError):
        vertical_wavenumber(np.array([8.0 + 1j, z]), 3.5)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_vertical_wavenumber_refuses_bad_a(a):
    with pytest.raises(DomainError, match="requires a finite a > 0, got"):
        vertical_wavenumber(1.0, a)


@pytest.mark.parametrize("z", [math.nan, np.array([0.0, math.inf]),
                               complex(math.nan, 1.0)])
def test_vertical_wavenumber_refuses_non_finite_z(z):
    with pytest.raises(DomainError, match="vertical_wavenumber requires finite input"):
        vertical_wavenumber(z, 1.0)


def test_vertical_wavenumber_real_cases():
    assert vertical_wavenumber(0.0, 1.0) == pytest.approx(-1j, abs=1e-15)
    assert vertical_wavenumber(2.0, 1.0) == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert vertical_wavenumber(0.5, 1.0) == pytest.approx(-0.8660254037844386j, abs=1e-15)


def test_vertical_wavenumber_square_identity():
    a = 3.5
    xi = np.linspace(-10 * a, 10 * a, 4001)
    s = vertical_wavenumber(xi, a)
    target = xi * xi - a * a
    assert np.abs(s * s - target).max() <= 1e-12 * np.abs(target).max()


def test_vertical_wavenumber_sign_invariants():
    for a in (1.0, 2.7, 3.5):
        xi = np.linspace(-10 * a, 10 * a, 2001)
        s = vertical_wavenumber(xi, a)
        assert np.all(s.real >= -1e-15)
        assert np.all(s.imag <= 1e-15)


def test_wronskian():
    z = np.linspace(0.1, 50, 5000)
    w = bessel_j(1, z) * bessel_y(0, z) - bessel_j(0, z) * bessel_y(1, z)
    ref = 2.0 / (np.pi * z)
    assert np.abs(w - ref).max() <= 1e-10 * ref.min() + 1e-10 * np.abs(ref).max()
    assert np.all(np.abs(w - ref) <= 1e-10 * np.abs(ref) + 1e-13)


def test_no_nan_escapes():
    z = np.linspace(0.0, 120.0, 1201)[1:]
    assert np.all(np.isfinite(hankel1(0, z)))
    assert np.all(np.isfinite(hankel1(1, z)))
    x = np.linspace(-50, 50, 501)
    assert np.all(np.isfinite(vertical_wavenumber(x, 2.7)))
    xi = ray_points(2.7, 3.5, 1.0)
    assert np.all(np.isfinite(vertical_wavenumber(xi, 2.7)))
    assert np.all(np.isfinite(vertical_wavenumber(xi, 3.5)))
