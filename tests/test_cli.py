"""Configuration validation, CLI subcommands, presets, inline expressions."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import layerscat
from layerscat import sommerfeld
from layerscat.cli import (_PRESETS, _jsonable, config_from_dict,
                           convergence_sweep, main, preset_config, run)
from layerscat.errors import ConfigError
from layerscat.exprs import parse_expression
from layerscat.green import MediumPair, green
from layerscat.surface import builtin

BASE = {
    "problem": "dirichlet", "k_plus": 2.7, "k_minus": 3.5,
    "surface": "gamma2",
    "incident": {"type": "plane", "theta_d": 4 * math.pi / 3},
    "N": 8, "eval_points": [[1.0, -0.2]],
}


def test_config_roundtrip():
    cfg = config_from_dict(BASE)
    assert cfg.N == 8
    assert cfg.A == pytest.approx(10 * math.pi)
    assert cfg.eta is None
    assert cfg.digest() == config_from_dict(BASE).digest()


@pytest.mark.parametrize("patch,field", [
    ({"N": 0}, "N"),
    ({"problem": "neumann"}, "problem"),
    ({"k_plus": -1.0}, "k_plus"),
    ({"k_plus": 3.5}, "k_plus/k_minus"),
    ({"incident": {"type": "plane", "theta_d": 0.4}}, "theta_d"),
    ({"incident": {"type": "point"}}, "y0"),
    ({"surface": 42}, "surface"),
    ({"A_over_pi": 0}, "A_over_pi"),
    ({"eval_points": [[1.0]]}, "eval_points"),
    ({"eta": -2.0}, "eta"),
    ({"A_over_pi": "x"}, "A_over_pi"),
    ({"A_over_pi": float("inf")}, "A_over_pi"),
    ({"A": "x"}, "A"),
    ({"eta": "x"}, "eta"),
    ({"eta": float("inf")}, "eta"),
    ({"eval_points": [["a", 1]]}, "eval_points"),
    ({"N": 2.5}, "N"),
    ({"A": float("inf")}, "A"),
    ({"incident": {"type": "point", "y0": ["a", -3.0]}}, "y0"),
    ({"beta": [1, "x"]}, "beta"),
    ({"beta": {"expr": 5}}, "beta"),
    ({"surface": {"expr": 5}}, "surface"),
    ({"beta": 1e400}, "beta"),
    ({"beta": [1e400, 0]}, "beta"),
    # JSON booleans are not numbers (float(True) would give 1.0)
    ({"k_plus": True}, "k_plus"),
    ({"N": True}, "N"),
    ({"problem": "impedance", "beta": True}, "beta"),
])
def test_config_validation_errors(patch, field):
    raw = dict(BASE)
    raw.update(patch)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize("patch,key", [
    ({"A_over_Pi": 40}, "A_over_Pi"),
    ({"n": 64}, "n"),
    ({"A": 10 * math.pi}, "A"),
    ({"incident": {"type": "plane", "theta_d": 4.2, "theta": 4.0}}, "theta"),
    ({"incident": {"type": "plane", "theta_d": 4.2, "y0": [0, -2]}}, "y0"),
    ({"incident": {"type": "point", "y0": [0, -2], "theta_d": 4.2}}, "theta_d"),
    ({"surface": {"expr": "-1", "exp": "-2"}}, "exp"),
    ({"beta": {"expr": "1", "re": 2}}, "re"),
])
def test_config_unknown_keys_rejected(patch, key):
    # a misspelt key used to run silently with the default value
    with pytest.raises(ConfigError, match=re.escape(f"unknown key(s) {key!r}")):
        config_from_dict(dict(BASE, **patch))


@pytest.mark.parametrize("raw,key", [
    (dict(BASE, beta=5.0), "beta"),
    (dict(_PRESETS["example2-ibvp"], eta=2.0), "eta"),
])
def test_cli_key_that_sets_nothing_exit_code(tmp_path, capsys, raw, key):
    # beta on a Dirichlet config and eta on an impedance one used to be
    # validated, then ignored: the result was that of the config without it
    cfg_path = tmp_path / "idle.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert f"key {key!r} sets nothing" in capsys.readouterr().err


def test_cli_eval_point_below_surface_exit_code(tmp_path, capsys, monkeypatch):
    # (1, -1.5) lies below the flat surface x2 = -1 of gamma2, where no field
    # is defined; it used to be reported with abs_error 0.66 against the
    # four-wave formula continued below the boundary.  The check comes
    # before the solve.
    from layerscat import cli as cli_mod

    def no_solve(problem, grid):
        raise AssertionError("solved a config with a point below the surface")

    monkeypatch.setattr(cli_mod, "solve", no_solve)
    raw = dict(BASE, eval_points=[[0.0, 0.5], [1.0, -1.5]])
    cfg_path = tmp_path / "below.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert "(1.0, -1.5) lies below the surface" in capsys.readouterr().err


@pytest.mark.parametrize("x2", [-1.0, -1.0 + 1e-8])
def test_cli_eval_point_on_surface_exit_code(tmp_path, capsys, monkeypatch,
                                             x2):
    # a point on the flat surface x2 = -1, or 1e-8 above it, passed the
    # below-surface check, ran the whole solve, then failed in field
    # evaluation with exit 3; within 1e-6 of the surface it is refused
    # before the solve, with exit 2
    from layerscat import cli as cli_mod

    def no_solve(problem, grid):
        raise AssertionError("solved a config with a point on the surface")

    monkeypatch.setattr(cli_mod, "solve", no_solve)
    raw = dict(_PRESETS["example2-dbvp"], N=4, eval_points=[[0.0, x2]])
    cfg_path = tmp_path / "on.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert f"(0.0, {x2!r}) lies within 1e-06 of the surface" \
        in capsys.readouterr().err


def test_readme_config_block_validates():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"),
                      re.S).group(1)
    cfg = config_from_dict(json.loads(block))
    assert (cfg.problem, cfg.surface, cfg.N) == ("impedance", "gamma2", 32)


def test_point_source_must_be_below_surface():
    raw = dict(BASE)
    raw["surface"] = "gamma1"
    raw["incident"] = {"type": "point", "y0": [1.0, -0.5]}
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_cli_point_source_above_surface_exit_code(tmp_path, capsys):
    # the source at x2 = -0.5 lies above the surface gamma1 (x2 = -0.84 at
    # t = 1): validation refuses it (exit 2), naming the point
    raw = dict(BASE, surface="gamma1",
               incident={"type": "point", "y0": [1.0, -0.5]})
    cfg_path = tmp_path / "above.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert "incident.y0: (1.0, -0.5) must lie strictly below the surface" \
        in capsys.readouterr().err


def test_preset_list_and_overrides():
    for name in ("example1-dbvp", "example1-ibvp", "example2-dbvp",
                 "example2-ibvp", "example3-dbvp", "example3-ibvp"):
        cfg = preset_config(name, N=8)
        assert cfg.N == 8
    with pytest.raises(ConfigError):
        preset_config("example9-dbvp")


def test_run_report_example1():
    rep = run(preset_config("example1-dbvp", N=16))
    row = rep.rows[0]
    assert row["rel_error"] <= 2.5e-4 * 1.2    # expected error scale at N = 16
    assert rep.node_count == 20 * 16 + 1
    assert rep.residual_norm <= 1e-10


def test_sweep_single_n_equals_run():
    cfg = preset_config("example2-dbvp", N=8)
    rows = convergence_sweep(cfg, [8])
    rep = run(cfg)
    assert rows[0]["value"] == pytest.approx(rep.rows[0]["total"], abs=1e-13)
    with pytest.raises(ConfigError):
        convergence_sweep(cfg, [16, 8])


def test_cli_solve_and_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = dict(BASE)
    bad["N"] = 0
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 2
    cfg_path.write_text(json.dumps(dict(BASE, A_over_Pi=40)), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    capsys.readouterr()
    # a number as out_dir used to pass validation, run the whole solve and
    # then die in pathlib with a TypeError traceback (exit 1)
    cfg_path.write_text(json.dumps(dict(BASE, out_dir=5)), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert "out_dir" in capsys.readouterr().err
    # an unknown built-in surface names the built-ins; a file that is not
    # JSON, a --N list with a non-integer and presets run without a name
    cfg_path.write_text(json.dumps(dict(BASE, surface="gamma9")), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert ("unknown surface 'gamma9'; expected one of "
            "['gamma1', 'gamma2', 'gamma3']") in capsys.readouterr().err
    cfg_path.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--N", "4,x"]) == 2
    assert "bad --N list '4,x'" in capsys.readouterr().err
    assert main(["presets", "run"]) == 2
    assert "presets run requires a preset name" in capsys.readouterr().err


def test_cli_numerical_error_exit_code(tmp_path, capsys, monkeypatch):
    from layerscat import cli as cli_mod
    from layerscat.errors import SolverError

    def boom(cfg):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run", boom)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 3
    capsys.readouterr()


def test_cli_impedance_beta_checked_on_every_node(tmp_path, capsys):
    # Re beta = 2 - 0.04 t is positive on [-40, 40] but not on the window
    # [-20 pi, 20 pi]: config validation checks beta there (exit 2)
    raw = dict(_PRESETS["example2-ibvp"], beta={"expr": "2-0.04*t"},
               A_over_pi=20, N=4)
    cfg_path = tmp_path / "beta.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert "Re beta > 0" in capsys.readouterr().err


@pytest.mark.parametrize("preset,key,shown", [
    ("example2-dbvp", "eta", "eta = 1e+308"),
    ("example2-ibvp", "beta", "beta = 1e+308+0j"),
    ("example1-dbvp", "eta", "eta = 1e+308"),
    ("example1-ibvp", "beta", "beta = 1e+308+0j"),
], ids=["eta", "beta", "eta-point", "beta-point"])
def test_cli_overflowing_coefficient_names_its_row(tmp_path, capsys, preset,
                                                   key, shown):
    # a finite eta or beta of 1e308 passes validation but overflows the
    # kernel coefficient 2i eta or 2i k- beta, under plane (example2) and
    # point (example1) incidence.  The solve exits 3 before the layer
    # integrals and the point-source data's two-pass check, with one line
    # naming the row, its node and the coefficient there, and no warning
    raw = dict(_PRESETS[preset], N=4, **{key: 1e308})
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(cfg_path)]) == 3
    assert not caught
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"numerical failure: collocation system not finite in row 0 "
        f"(node t = -31.4159, {shown})"]


@pytest.mark.parametrize("beta", [1e6, 1e8, 1e12])
def test_cli_large_impedance_beta_point_source_solves(tmp_path, capsys, beta):
    # the two-pass check of the point-source data is relative to the sum it
    # checks, whose size (and estimate) grows like the coefficient -i k- beta:
    # a large but finite beta used to exit 3 ("shared spectral rule did not
    # reach tolerance", estimate 2.9e-10 at 1e6).  It solves, and its error
    # against the exact scattered field G(x, y0) stays near that of beta = 1
    raw = {"problem": "impedance", "k_plus": 2.7, "k_minus": 3.5,
           "surface": "gamma1",
           "incident": {"type": "point", "y0": [0.3, -2.5]},
           "A_over_pi": 2, "N": 4, "eval_points": [[0.6, 0.56]]}
    cfg_path = tmp_path / "beta.json"
    cfg_path.write_text(json.dumps(dict(raw, beta=beta)), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    one, big = (run(config_from_dict(dict(raw, beta=b))).rows[0]["abs_error"]
                for b in (1.0, beta))
    assert big <= 10 * one


@pytest.mark.parametrize("beta,message", [
    ({"expr": "exp(t^2)"}, "beta: not finite at t = -31.4159"),
    ({"expr": "1+0*exp(t^2)"}, "beta: not finite at t = -31.4159"),
    (-1.0, "beta: Re beta > 0 fails at t = -31.4159"),
], ids=["overflow", "nan", "negative"])
def test_cli_beta_checked_on_the_window(tmp_path, capsys, beta, message):
    # each used to pass validation and fail in the solve (exit 3), the first
    # in the LU on infs, the others without naming a point
    raw = dict(_PRESETS["example2-ibvp"], beta=beta, N=4)
    cfg_path = tmp_path / "beta.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("expr", [
    "-1+" + "(" * 400 + "0*t" + ")" * 400,     # SyntaxError in ast.parse
    "-1+" + "-" * 3000 + "0*t",                # RecursionError in ast.parse
    "-1" + "+0*t" * 2000,                      # parses; too deep for _jet
], ids=["parentheses", "minus", "sum"])
def test_cli_deep_expression_is_config_error(tmp_path, capsys, expr):
    # 400 parentheses raised an uncaught RecursionError (exit 1)
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text(json.dumps(dict(BASE, surface={"expr": expr})),
                        encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "surface expression" in err and "Traceback" not in err


def test_cli_surface_bounds_checked_on_the_window(tmp_path, capsys):
    # the bump reaches x2 = 1 at t = 50: outside the construction-time
    # sample [-40, 40], inside the window [-20 pi, 20 pi].  Config
    # validation refuses it there (exit 2), naming the point, rather than
    # assembly failing on the nodes (exit 3)
    raw = dict(BASE, surface={"expr": "-1 + 2*exp(-(t-50)^2)"},
               A_over_pi=20, N=4)
    with pytest.raises(ConfigError, match="interface at t = 50"):
        config_from_dict(raw)
    cfg_path = tmp_path / "bump.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert "interface at t = 50" in capsys.readouterr().err
    # on the default window [-10 pi, 10 pi] the bump is out of reach
    assert config_from_dict(dict(raw, A_over_pi=10)).A_over_pi == 10


def test_cli_surface_clearance_checked(tmp_path, capsys):
    # a surface within 0.01 of the interface passed validation, then failed
    # in assembly with exit 3 (the shared rule on the nodes needs
    # v_min = 2 min|f| > 0.02); validation refuses it with exit 2, naming
    # the highest point on [-A, A] and the clearance.  -0.03 still solves
    raw = dict(BASE, surface={"expr": "-0.005"}, eval_points=[[1.0, 0.5]])
    cfg_path = tmp_path / "thin.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "x2 = -0.005" in err and "clearance above 0.01" in err
    row = run(config_from_dict(dict(raw, surface={"expr": "-0.03"}))).rows[0]
    assert np.isfinite(row["scattered"])


def test_cli_eval_point_over_nonfinite_surface_refused(tmp_path, capsys):
    # f = -1 - 0.001 exp(t^2) is finite on [-pi, pi] but overflows at the
    # point's x1 = 40: the run used to exit 0 with numpy warnings (and the
    # distance would be NaN).  It is a config error naming the point, one
    # line and no warning
    raw = {"problem": "impedance", "k_plus": 2.7, "k_minus": 3.5,
           "surface": {"expr": "-1-0.001*exp(t^2)"},
           "incident": {"type": "plane", "theta_d": 4.18879020478639},
           "N": 4, "A_over_pi": 1, "eval_points": [[40.0, 0.5]]}
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(cfg_path)]) == 2
    assert not caught
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "eval_points: (40.0, 0.5)" in err[0]
    assert "not finite" in err[0]


def test_config_point_check_memory_does_not_grow_with_nodes():
    # the point check brackets each point's nearest surface point by its
    # vertical gap and refines there; it used to seed every point from
    # every point of the [-A, A] grid, 4800 x 3143 arrays at 363 MB
    x1 = np.linspace(-8, 8, 1200)
    pts = [[float(a), b] for b in (0.9, 0.3, -0.3, -0.7) for a in x1]
    raw = dict(_PRESETS["example2-dbvp"], N=16, eval_points=pts)
    tracemalloc.start()
    try:
        assert len(config_from_dict(raw).eval_points) == 4800
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_cli_rule_panel_limit_exit_code(tmp_path, capsys):
    # at A/pi = 40 a surface at -0.03 (v_min = 0.06) needs more than 64,000
    # points on a segment of the shared rule: assembly refuses with exit 3
    raw = dict(_PRESETS["example3-dbvp"], surface={"expr": "-0.03"},
               A_over_pi=40, N=4)
    cfg_path = tmp_path / "panels.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path)]) == 3
    assert "panels" in capsys.readouterr().err


def test_exact_reference_needs_flat_surface_and_constant_beta():
    # the bump at t = 50 lies inside the window [-20 pi, 20 pi] but outside
    # [-30, 30]: the flat four-wave field is no reference there
    bump = dict(BASE, surface={"expr": "-1+0.5*exp(-(t-50)^2)"},
                A_over_pi=20, N=4)
    row = run(config_from_dict(bump)).rows[0]
    assert "exact_total" not in row and "abs_error" not in row
    row = run(config_from_dict(dict(bump, surface="gamma2"))).rows[0]
    assert "exact_total" in row and "abs_error" in row
    # a flat surface with varying beta has no four-wave solution either
    varying = dict(_PRESETS["example2-ibvp"], beta={"expr": "1+0.2*cos(0.3*t)"},
                   N=4)
    row = run(config_from_dict(varying)).rows[0]
    assert "exact_total" not in row and "abs_error" not in row


def test_exact_reference_samples_beyond_window_quietly():
    # beta = 1 + 0 exp(t^2) is finite on the window [-5 pi, 5 pi] but not
    # on [-30, 30], where the exact reference samples it: the run warns
    # nothing and reports no four-wave reference; with beta = 1 it does
    raw = dict(_PRESETS["example2-ibvp"], beta={"expr": "1+0*exp(t^2)"},
               A_over_pi=5, N=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = run(config_from_dict(raw)).rows[0]
    assert "exact_total" not in row and "abs_error" not in row
    row = run(config_from_dict(dict(raw, beta=1.0))).rows[0]
    assert "exact_total" in row and "abs_error" in row


def test_cli_presets(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert "example1-dbvp" in out and len(out) == 6
    assert main(["presets", "run", "example2-dbvp", "--N", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["N"] == 8
    assert payload["rows"][0]["total"]["re"] != 0


def test_cli_greens(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    assert main(["greens", "--config", str(cfg_path),
                 "--grid", "0:1:2,-0.5:0.5:3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "x1,x2,re,im"
    assert len(out) == 2 + 6
    med = MediumPair(BASE["k_plus"], BASE["k_minus"])
    rows = [[float(v) for v in line.split(",")] for line in out[2:]]
    assert sorted({x2 for _, x2, _, _ in rows}) == [-0.5, 0.0, 0.5]
    for x1, x2, re, im in rows:
        assert abs(complex(re, im) - green(med, (x1, x2), (0.0, -1.3))) <= 1e-10
    above = dict(BASE, incident={"type": "point", "y0": [0.0, 0.5]})
    cfg_path.write_text(json.dumps(above), encoding="utf-8")
    assert main(["greens", "--config", str(cfg_path),
                 "--grid", "0:1:2,-0.5:0.5:3"]) == 2
    capsys.readouterr()


def test_cli_greens_non_finite_grid_exit_code(tmp_path, capsys):
    # a NaN bound used to reach green_surface_batch: exit 3, with numpy
    # arrays in the message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    for grid in ("nan:1:2,0:1:2", "0:1:2,0:inf:2"):
        assert main(["greens", "--config", str(cfg_path), "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert f"bad --grid spec {grid!r}" in err and "finite bounds" in err


def test_cli_greens_grid_through_source_exit_code(tmp_path, capsys):
    # a grid point at y_ref = (0, -1.3) of a plane run used to exit 3 with
    # "free-space kernel evaluated at coincident points"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    for grid in ("0:0:1,-1.3:-1.3:1", "-1:1:3,-1.3:0:3"):
        assert main(["greens", "--config", str(cfg_path), f"--grid={grid}"]) == 2
        out = capsys.readouterr()
        assert "greens: grid point (0, -1.3) is y_ref (0.0, -1.3)" in out.err
        assert out.out == ""


@pytest.mark.parametrize("grid", ["0:1:0,0:1:2", "0:1:2,0:1:0", "0:1:-1,0:1:2"])
def test_cli_greens_zero_count_exit_code(tmp_path, capsys, grid):
    # a zero count used to print a header-only table and exit 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    assert main(["greens", "--config", str(cfg_path), "--grid", grid]) == 2
    out = capsys.readouterr()
    assert f"bad --grid spec {grid!r}" in out.err and "counts >= 1" in out.err
    assert out.out == ""


def test_cli_sweep_out_writes_table(tmp_path, capsys):
    # the hash line, the header and one row per N, named by the config hash
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--N", "4,8",
                 "--out", str(out)]) == 0
    rows = json.loads(capsys.readouterr().out)
    digest = config_from_dict(BASE).digest()
    (path,) = out.iterdir()
    assert path.name == f"sweep_dirichlet_{digest}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == [f"# config_sha256={digest}",
                         "N,node_count,re_value,im_value,abs_error,rel_error,diff_prev"]
    assert len(lines) == 2 + len(rows)
    for line, row in zip(lines[2:], rows):
        cols = line.split(",")
        assert (int(cols[0]), int(cols[1])) == (row["N"], row["node_count"])
        assert complex(float(cols[2]), float(cols[3])) == \
            complex(row["value"]["re"], row["value"]["im"])


@pytest.mark.parametrize("cmd", [["solve"], ["greens", "--grid", "0:1:2,0:1:2"]])
def test_cli_out_names_a_file_exit_code(tmp_path, capsys, cmd):
    # an --out that names an existing file used to end in a traceback (exit 1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE, N=4)), encoding="utf-8")
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    argv = [cmd[0], "--config", str(cfg_path), *cmd[1:], "--out", str(taken)]
    assert main(argv) == 2
    assert f"cannot write {taken}" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_run_evaluates_points_in_one_call(monkeypatch):
    # perfbench traces field evaluation as the span potentials._eval_scattered:
    # cli.run must reach it under that name, once for all its points
    from layerscat import cli as cli_mod, potentials
    assert cli_mod._eval_scattered is potentials._eval_scattered
    calls = []

    def spy(sol, problem, x):
        calls.append(x)
        return potentials._eval_scattered(sol, problem, x)

    monkeypatch.setattr(cli_mod, "_eval_scattered", spy)
    raw = dict(BASE, N=4, eval_points=[[1.0, -0.2], [0.5, 0.4], [-1.0, 0.0]])
    rep = run(config_from_dict(raw))
    assert len(calls) == 1
    assert [(r["x1"], r["x2"]) for r in rep.rows] == [(1.0, -0.2), (0.5, 0.4),
                                                      (-1.0, 0.0)]


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_jsonable_writes_null_for_non_finite():
    # RFC 8259 has no NaN or Infinity: a strict parser reads the report
    obj = {"a": math.nan, "b": complex(math.inf, 0.1234567890123456789),
           "c": [-math.inf, 2.0], "d": 3}
    text = json.dumps(_jsonable(obj))
    assert json.loads(text, parse_constant=_no_constant) == {
        "a": None, "b": {"re": None, "im": 0.123456789012346},
        "c": [None, 2.0], "d": 3}


def test_cli_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--N", "4,8"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert [r["N"] for r in rows] == [4, 8]
    assert rows[0]["diff_prev"] is None
    assert rows[1]["diff_prev"] > 0


def test_expression_parser_matches_builtin():
    # the jet of the expression, typed or built in, against gamma3's
    # hand-derived f, f', f''
    expr = "-1+0.16*sin(0.3*pi*t)"
    s = np.linspace(-9, 9, 301)
    w = 0.3 * np.pi
    f = -1.0 + 0.16 * np.sin(w * s)
    df = 0.16 * w * np.cos(w * s)
    d2f = -0.16 * w * w * np.sin(w * s)
    for surf in (parse_expression(expr), builtin("gamma3")):
        f0, f1, f2 = surf.jet(s)
        assert np.allclose(f0, f, atol=1e-14)
        assert np.allclose(f1, df, atol=1e-14)
        assert np.allclose(f2, d2f, atol=1e-13)


def test_expression_gamma1():
    # the jet of the expression, typed or built in, against gamma1's
    # hand-derived f and f''
    expr = "-1+0.3*sin(0.7*pi*t)*exp(-0.4*t^2)"
    s = np.linspace(-6, 6, 201)
    w = 0.7 * np.pi
    e, sn, c = np.exp(-0.4 * s * s), np.sin(w * s), np.cos(w * s)
    f = -1.0 + 0.3 * sn * e
    d2f = 0.3 * e * (-w * w * sn - 1.6 * w * s * c + (0.64 * s * s - 0.8) * sn)
    for surf in (parse_expression(expr), builtin("gamma1")):
        assert np.allclose(surf(s), f, atol=1e-14)
        assert np.allclose(surf.jet(s)[2], d2f, atol=1e-12)


def test_expression_symbolic_derivatives():
    node = parse_expression("(t^2+1)*cos(2*t)")
    s = np.linspace(-2, 2, 101)
    h = 1e-6
    fd = (node(s + h) - node(s - h)) / (2 * h)
    assert np.abs(node.jet(s)[1] - fd).max() < 1e-8


@pytest.mark.parametrize("text", [
    "t^3 - 2*t^2 + 3*t^1 - 4*t^0",
    "-sin(cos(0.5*t))*exp(-t^2)",
    "cos(t)^3*exp(sin(2*t)) - -t",
    "exp(-(t-0.3)^2)*sin(3*t^2)+cos(exp(0.2*t))",
])
def test_expression_jet_matches_finite_differences(text):
    # 4th-order central differences: f' from f, f'' from the jet's f'
    f = parse_expression(text)
    s = np.linspace(-2, 2, 81)
    h = 1e-3

    def central(g):
        return (g(s - 2 * h) - 8 * g(s - h) + 8 * g(s + h) - g(s + 2 * h)) / (12 * h)

    _, df, d2f = f.jet(s)
    for exact, fd in ((df, central(f)), (d2f, central(lambda x: f.jet(x)[1]))):
        assert np.abs(exact - fd).max() <= 1e-9 * (1 + np.abs(exact).max())


@pytest.mark.parametrize("text", [
    "gamma1", "gamma2", "gamma3", "2.5", "pi", "t", "t^0", "(1+t)^0", "t^3",
    "sin(t)", "cos(2*t)", "exp(-t)", "-t", "t+1", "t-1", "2*t",
    "-(t^2+1)*cos(2*t) + exp(sin(pi*t))^2 - 3",
])
def test_expression_value_is_jet_value(text):
    # expr(t) walks the tree for f alone, with the operations the jet
    # applies to f: equal bit for bit, NaN and infinities included
    expr = builtin(text) if text.startswith("gamma") else parse_expression(text)
    s = np.append(np.linspace(-4, 4, 97), [np.nan, np.inf, -np.inf, 1e300])
    with np.errstate(all="ignore"):
        assert np.array_equal(expr(s), expr.jet(s)[0], equal_nan=True)
        assert np.array_equal(expr(0.3), expr.jet(0.3)[0])


@pytest.mark.parametrize("kind", ["dirichlet", "impedance"])
def test_point_source_over_plane(kind, monkeypatch):
    # no preset puts a point source over a flat surface: its boundary data
    # is one target (y0) over the plane's nodes, summed through the tables
    # (no fold factors on the nodes), and the scattered field is checked
    # against the scalar green()
    raw = {"problem": kind, "k_plus": 3.5, "k_minus": 2.7, "surface": "gamma2",
           "incident": {"type": "point", "y0": [0.5, -1.5]}, "N": 16,
           "eval_points": [[1.0, 0.3], [0.4, -0.5]]}
    sizes, factors = [], sommerfeld._fold_factors

    def spy(xi, expo, pos, *args):
        sizes.append(pos.size)
        return factors(xi, expo, pos, *args)

    monkeypatch.setattr(sommerfeld, "_fold_factors", spy)
    report = run(config_from_dict(raw))
    assert sizes and report.node_count not in sizes
    assert len(report.rows) == 2
    assert all(row["rel_error"] <= 1e-5 for row in report.rows)


@pytest.mark.parametrize("tail", [" ", "\t", "\n"])
def test_expression_trailing_whitespace(tail):
    s = np.linspace(-3, 3, 61)
    surface_text = "-1+0.1*cos(0.5*t)"
    padded = parse_expression(surface_text + tail).jet(s)
    plain = parse_expression(surface_text).jet(s)
    for a, b in zip(padded, plain):
        assert np.array_equal(a, b)
    beta_text = "1+0.2*cos(0.3*t)"
    assert np.array_equal(parse_expression(beta_text + tail)(s),
                          parse_expression(beta_text)(s))


def test_cli_expression_with_trailing_space(tmp_path, capsys):
    raw = dict(_PRESETS["example2-dbvp"], surface={"expr": "-1+0.1*cos(0.5*t) "})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path), "--N", "4"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "sin(", "t + q", "t^0.5", "t/2", "+t", "1j*t", "True*t", "t.real",
    "sin(t, 1)", "sin(x=t)", "2**-1", "t^2^2", "[t]", "__import__('os')",
])
def test_expression_errors(text):
    # a surface above the interface is config_from_dict's to refuse
    # (tests/test_surface.py)
    with pytest.raises(ConfigError, match="surface expression"):
        parse_expression(text)


def test_expression_surface_solvable():
    raw = dict(BASE)
    raw["surface"] = {"expr": "-1+0.1*cos(0.5*t)"}
    raw["N"] = 4
    rep = run(config_from_dict(raw))
    assert rep.rows[0]["total"] is not None


def test_sweep_error_table():
    # convergence-table rows: ascending N, decreasing relative-error column
    cfg = preset_config("example1-dbvp")
    rows = convergence_sweep(cfg, [8, 16])
    assert [r["N"] for r in rows] == [8, 16]
    assert rows[1]["rel_error"] < rows[0]["rel_error"]
    assert rows[0]["rel_error"] <= 5e-3 and rows[1]["rel_error"] <= 1e-3


def test_presets_complete_quickly_at_n8():
    import time
    for name in ("example1-dbvp", "example1-ibvp", "example2-dbvp",
                 "example2-ibvp", "example3-dbvp", "example3-ibvp"):
        t0 = time.perf_counter()
        rep = run(preset_config(name, N=8))
        assert time.perf_counter() - t0 < 60.0
        assert rep.rows and rep.residual_norm <= 1e-10


def test_expression_beta_impedance():
    raw = {
        "problem": "impedance", "k_plus": 2.7, "k_minus": 3.5,
        "surface": "gamma2",
        "incident": {"type": "plane", "theta_d": 4 * math.pi / 3},
        "beta": {"expr": "1+0.2*cos(0.3*t)"},
        "N": 4, "eval_points": [[1.0, -0.2]],
    }
    rep = run(config_from_dict(raw))
    assert rep.residual_norm <= 1e-10
    raw["beta"] = {"expr": "0-1*t^0"}   # Re beta <= 0 rejected
    with pytest.raises(Exception):
        run(config_from_dict(raw))


def test_cli_import_leaves_scipy_special_unloaded():
    """Importing the CLI must not load scipy.special.

    Loading it after layerscat.cli took 44-84 ms per cold interpreter on a
    2-vCPU x86_64 VM (numpy 2.4, scipy 1.17), against a set-up time
    (import, config, problem, grid) of about 0.42 s.
    """
    env = dict(os.environ,
               PYTHONPATH=str(Path(layerscat.__file__).resolve().parents[1]))
    code = ("import sys, layerscat.cli; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
