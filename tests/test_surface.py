"""Surface profiles: geometry, builtins, derivative consistency, and the
one check of a run's surface on its window."""

import math

import numpy as np
import pytest

from conftest import speed, unit_normal

from layerscat.cli import config_from_dict
from layerscat.errors import ConfigError, DomainError
from layerscat.surface import builtin


def test_flat_surface_geometry():
    flat = builtin("gamma2")
    assert flat(3.7) == -1.0
    assert speed(flat, 0.2) == 1.0
    assert np.allclose(unit_normal(flat, 1.5), [0.0, -1.0])
    assert flat.jet(0.0)[1] == 0.0 and flat.jet(0.0)[2] == 0.0


def test_gamma1_point_value():
    surf = builtin("gamma1")
    # direct high-precision evaluation of the profile at s = 1
    expected = -1.0 + 0.3 * math.sin(0.7 * math.pi) * math.exp(-0.4)
    assert surf(1.0) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(-0.8373099073260912, abs=1e-15)


def test_gamma1_bounds():
    surf = builtin("gamma1")
    grid = np.linspace(-30, 30, 20001)
    vmax = np.asarray(surf(grid)).max()
    assert vmax < 0
    assert vmax == pytest.approx(-0.74824, abs=1e-4)


def test_gamma3_periodicity():
    surf = builtin("gamma3")
    period = 2.0 / 0.3
    s = np.linspace(-7, 7, 101)
    assert np.allclose(surf(s + period), surf(s), atol=1e-12)


def test_normals_unit_length():
    rng = np.random.default_rng(11)
    for name in ("gamma1", "gamma2", "gamma3"):
        surf = builtin(name)
        s = rng.uniform(-20, 20, size=1000)
        n = unit_normal(surf, s)
        assert np.abs(np.hypot(n[..., 0], n[..., 1]) - 1.0).max() < 1e-14
        # outward normal of the domain above the curve points downward
        assert np.all(n[..., 1] < 0)


@pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma3"])
def test_derivatives_match_finite_differences(name):
    surf = builtin(name)
    rng = np.random.default_rng(3)
    s = rng.uniform(-15, 15, size=1000)
    h = 1e-5
    _, df, d2f = surf.jet(s)
    fd1 = (surf(s + h) - surf(s - h)) / (2 * h)
    assert np.abs(fd1 - df).max() < 1e-6
    fd2 = (surf.jet(s + h)[1] - surf.jet(s - h)[1]) / (2 * h)
    assert np.abs(fd2 - d2f).max() < 1e-6


def test_all_builtins_below_interface():
    grid = np.linspace(-40, 40, 8001)
    for name in ("gamma1", "gamma2", "gamma3"):
        assert np.asarray(builtin(name)(grid)).max() < 0


def test_unknown_builtin():
    with pytest.raises(DomainError):
        builtin("gamma9")


def _config(surface):
    return config_from_dict({
        "problem": "dirichlet", "k_plus": 2.7, "k_minus": 3.5,
        "surface": surface,
        "incident": {"type": "plane", "theta_d": 4 * math.pi / 3}, "N": 4})


def test_surface_above_interface_rejected():
    # config_from_dict's scan of the window [-A, A] is the one surface check
    for expr in ("0.2", "1+0*t"):
        with pytest.raises(ConfigError, match="reaches the interface at t = "):
            _config({"expr": expr})


def test_surface_not_finite_rejected():
    # -1 - 0*exp(t^2) is NaN where exp(t^2) overflows (|t| > 26.6), first at
    # the window's end; the scan used to say "reaches the interface"
    with pytest.raises(ConfigError, match="not finite at t = -31.4159"):
        _config({"expr": "-1-0*exp(t^2)"})
    # f is finite, but the jet's f'' overflows on the way (1e200^2): assembly
    # would fail in the LU on infs, naming no point
    with pytest.raises(ConfigError, match="f'' not finite at t = "):
        _config({"expr": "-2+1e-200*sin(1e200*t)"})
