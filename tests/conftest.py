"""Shared fixtures: solved example problems (cached per session) and helpers."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from layerscat.cli import _PRESETS, build_problem, config_from_dict
from layerscat.nystrom import Grid, solve

GOLDEN_CSV = Path(__file__).parent / "data" / "green_golden.csv"


@pytest.fixture(scope="session")
def solved():
    """solved(preset, N, **overrides) -> (config, problem, solution), memoized."""
    cache = {}

    def get(preset, N, **overrides):
        key = (preset, N, tuple(sorted(overrides.items())))
        if key not in cache:
            raw = dict(_PRESETS[preset])
            raw.update(overrides)
            raw["N"] = N
            cfg = config_from_dict(raw)
            problem = build_problem(cfg)
            grid = Grid(half_width_A=cfg.A, N=cfg.N)
            cache[key] = (cfg, problem, solve(problem, grid))
        return cache[key]

    return get


def speed(surface, t):
    """Arc-length factor sqrt(1 + f'(t)^2) of a surface."""
    d = surface.jet(t)[1]
    return np.sqrt(1.0 + d * d)


def unit_normal(surface, t):
    """Unit normal (f'(t), -1) / speed out of the domain above, on the last
    axis: shape (2,) at one t, (..., 2) on an array."""
    d = np.asarray(surface.jet(t)[1], dtype=float)
    sp = np.sqrt(1.0 + d * d)
    return np.stack([d / sp, -np.ones_like(d) / sp], axis=-1)


def boundary_data(problem, s):
    """The boundary data g~(s) inside rhs_vector's -2 g~ (Dirichlet) or
    +2 g~ (impedance); the halving is exact."""
    from layerscat.bie import rhs_vector

    return rhs_vector(problem, s) / (-2.0 if problem.kind == "dirichlet" else 2.0)


def nystrom_interpolate(problem, sol, s_points):
    """Natural Nystrom interpolation of the solved density at off-node points:
    psi(s) = rhs(s) + sum_j alpha_j(s) psi_j."""
    from oracle import kernel_rows

    from layerscat.bie import rhs_vector
    from layerscat.nystrom import log_weight

    s = np.asarray(s_points, dtype=float)
    t = sol.grid.nodes
    A, B = kernel_rows(problem, s, t)
    rw = log_weight(sol.grid.N, s[:, None], t[None, :])
    alpha = rw * A + sol.grid.h * B
    return np.asarray(rhs_vector(problem, s), dtype=complex) + alpha @ sol.values
