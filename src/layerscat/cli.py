"""Configuration-driven experiment runner and command-line interface.

Config files are JSON:

    {
      "problem":  "dirichlet" | "impedance",
      "k_plus":   2.7,
      "k_minus":  3.5,
      "surface":  "gamma1" | "gamma2" | "gamma3" | {"expr": "-1+0.16*sin(0.3*pi*t)"},
      "incident": {"type": "plane", "theta_d": 4.1887902} |
                  {"type": "point", "y0": [1.0, -1.3]},
      "beta":     1.0 | [re, im] | {"expr": "..."},          (impedance only)
      "eta":      optional positive float (default sqrt(k+ k-)),
      "N":        16,
      "A_over_pi": 10,                                        (truncation A = 10 pi)
      "eval_points": [[0.6, 0.56]],
      "out_dir":  "results"                                   (optional CSV output)
    }

Subcommands: solve, sweep (N-convergence table), greens (tabulate the
two-layered Green function), presets (the six experiment presets).
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import exprs, surface as surface_mod
from .bie import BoundaryProblem
from .errors import ConfigError, LayerScatError
from .green import (MediumPair, _reference_field, green, green_surface_batch,
                    reference_field_plane)
from .nystrom import Grid, solve
from .potentials import (_eval_scattered, four_wave_exact,
                         point_source_exact)

_DEF_A_OVER_PI = 10


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration."""

    problem: str
    k_plus: float
    k_minus: float
    surface_spec: object
    incident: dict
    beta_spec: object = 1.0
    eta: Optional[float] = None
    N: int = 16
    A_over_pi: int = _DEF_A_OVER_PI
    eval_points: tuple = ()
    out_dir: Optional[str] = None

    @property
    def A(self) -> float:
        return self.A_over_pi * math.pi

    def canonical(self) -> dict:
        return {
            "problem": self.problem, "k_plus": self.k_plus, "k_minus": self.k_minus,
            "surface": self.surface_spec, "incident": self.incident,
            "beta": self.beta_spec, "eta": self.eta, "N": self.N,
            "A_over_pi": self.A_over_pi,
            "eval_points": [list(p) for p in self.eval_points],
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def config_from_dict(raw: dict, **overrides) -> RunConfig:
    """Validate a raw config mapping (file contents) into a RunConfig."""
    data = dict(raw)
    data.update({k: v for k, v in overrides.items() if v is not None})
    problem = data.get("problem")
    _require(problem in ("dirichlet", "impedance"),
             f"problem: expected 'dirichlet' or 'impedance', got {problem!r}")
    try:
        kp = float(data["k_plus"])
        km = float(data["k_minus"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("k_plus/k_minus: positive numbers required")
    _require(kp > 0 and km > 0 and math.isfinite(kp) and math.isfinite(km),
             "k_plus/k_minus: must be positive and finite")
    _require(kp != km, "k_plus/k_minus: two-layered medium requires k_plus != k_minus")
    surf = data.get("surface")
    _require(isinstance(surf, str) or (isinstance(surf, dict) and "expr" in surf),
             "surface: builtin name or {'expr': ...} required")
    inc = data.get("incident")
    _require(isinstance(inc, dict) and inc.get("type") in ("plane", "point"),
             "incident: {'type': 'plane'|'point', ...} required")
    if inc["type"] == "plane":
        try:
            theta = float(inc["theta_d"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError("incident.theta_d: number required")
        _require(math.pi - 1e-12 <= theta <= 2 * math.pi + 1e-12,
                 f"incident.theta_d: must lie in [pi, 2 pi], got {theta}")
        inc = {"type": "plane", "theta_d": theta}
    else:
        y0 = inc.get("y0")
        _require(isinstance(y0, (list, tuple)) and len(y0) == 2,
                 "incident.y0: [x1, x2] required")
        inc = {"type": "point", "y0": [float(y0[0]), float(y0[1])]}
        _require(all(map(math.isfinite, inc["y0"])), "incident.y0: must be finite")
    eta = data.get("eta")
    if eta is not None:
        eta = float(eta)
        _require(eta > 0, f"eta: must be positive, got {eta}")
    try:
        n = int(data.get("N", 16))
    except (TypeError, ValueError):
        raise ConfigError("N: positive integer required")
    _require(n >= 1, f"N: must be >= 1, got {n}")
    if "A_over_pi" in data:
        a_pi = data["A_over_pi"]
        _require(float(a_pi) == int(a_pi) and int(a_pi) >= 1,
                 f"A_over_pi: positive integer required, got {a_pi}")
        a_pi = int(a_pi)
    elif "A" in data:
        a_val = float(data["A"])
        a_pi = round(a_val / math.pi)
        _require(a_pi >= 1 and abs(a_val - a_pi * math.pi) < 1e-9,
                 f"A: must be a positive multiple of pi, got {a_val}")
    else:
        a_pi = _DEF_A_OVER_PI
    pts = data.get("eval_points", ())
    _require(isinstance(pts, (list, tuple)), "eval_points: list of [x1, x2] required")
    points = []
    for p in pts:
        _require(isinstance(p, (list, tuple)) and len(p) == 2,
                 f"eval_points: bad entry {p!r}")
        q = (float(p[0]), float(p[1]))
        _require(all(map(math.isfinite, q)), f"eval_points: non-finite entry {p!r}")
        points.append(q)
    return RunConfig(problem=problem, k_plus=kp, k_minus=km, surface_spec=surf,
                     incident=inc, beta_spec=data.get("beta", 1.0), eta=eta,
                     N=n, A_over_pi=a_pi, eval_points=tuple(points),
                     out_dir=data.get("out_dir"))


def load_config(path, **overrides) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return config_from_dict(raw, **overrides)


def _build_surface(spec) -> surface_mod.SurfaceProfile:
    if isinstance(spec, str):
        try:
            return surface_mod.builtin(spec)
        except LayerScatError as exc:
            raise ConfigError(str(exc))
    return exprs.surface_from_expression(spec["expr"])


def _build_beta(spec):
    if isinstance(spec, dict) and "expr" in spec:
        node = exprs.parse_expression(spec["expr"])
        return lambda s: np.asarray(node(s), dtype=complex)
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        c = complex(float(spec[0]), float(spec[1]))
    else:
        try:
            c = complex(float(spec))
        except (TypeError, ValueError):
            raise ConfigError(f"beta: number, [re, im], or {{'expr': ...}} required, got {spec!r}")
    return lambda s: np.full_like(np.asarray(s, dtype=float), c, dtype=complex)


def _incident_field(medium: MediumPair, incident: dict):
    """The field u_b that the scattered field cancels on the surface, as
    fn(x1, x2, grad) -> (u_b, (du_b/dx1, du_b/dx2) or None) on coordinate
    arrays.

    Plane wave: u_b = u0, the reference field.  Point source: u_b = -G(., y0),
    from one batched, two-pass-checked call with y0 as the field point
    (G(x, y0) = G(y0, x), and nabla_x G(x, y0) is nabla_y G(y0, y) at y = x).
    """
    if incident["type"] == "plane":
        theta = incident["theta_d"]

        def plane_wave(x1, x2, grad):
            u, g1, g2 = _reference_field(medium, theta, (x1, x2))
            return u, ((g1, g2) if grad else None)

        return plane_wave
    y0 = tuple(incident["y0"])

    def point_source(x1, x2, grad):
        g = green_surface_batch(medium, y0, x1, x2, grad_y=grad, check=True)
        return -g["val"], ((-g["dy1"], -g["dy2"]) if grad else None)

    return point_source


def build_problem(config: RunConfig) -> BoundaryProblem:
    """BoundaryProblem (with boundary data from the incident spec) for a config.

    The boundary data is g = -u_b (Dirichlet) or
    g = -(d u_b/d nu - i k- beta u_b) (impedance), evaluated lazily on the
    points data_g is called with.
    """
    med = MediumPair(config.k_plus, config.k_minus)
    surf = _build_surface(config.surface_spec)
    inc = config.incident
    if inc["type"] == "point":
        y0 = tuple(inc["y0"])
        if not float(y0[1]) < float(surf.f(y0[0])):
            raise ConfigError(f"incident.y0: {y0} must lie strictly below the surface")
    field_b = _incident_field(med, inc)
    impedance = config.problem == "impedance"
    beta = _build_beta(config.beta_spec) if impedance else None

    def data_g(s):
        s = np.asarray(s, dtype=float)
        t = np.atleast_1d(s)
        u, grad = field_b(t, np.asarray(surf.f(t), dtype=float), impedance)
        if impedance:
            g1, g2 = grad
            df = np.asarray(surf.df(t), dtype=float)
            dnu = (df * g1 - g2) / np.sqrt(1 + df * df)
            u = dnu - 1j * med.k_minus * np.asarray(beta(t), dtype=complex) * u
        return complex(-u[0]) if s.ndim == 0 else -u

    kwargs = {"beta": beta} if impedance else {"eta": config.eta}
    return BoundaryProblem(kind=config.problem, medium=med, surface=surf,
                           data_g=data_g, incident=dict(inc), **kwargs)


def _exact_reference(config: RunConfig, problem: BoundaryProblem):
    """Closed-form reference at an eval point, when one exists.

    Returns (label, fn) with fn(x) -> complex, or (None, None):
      * point incidence: exact scattered field G(x, y0);
      * plane incidence on a flat surface: exact total field (four waves).
    """
    inc = config.incident
    if inc["type"] == "point":
        y0 = tuple(inc["y0"])
        return "scattered", lambda x: point_source_exact(problem.medium, y0, x)
    surf = problem.surface
    grid = np.linspace(-30, 30, 601)
    vals = np.asarray(surf.f(grid), dtype=float)
    if np.ptp(vals) < 1e-14:
        beta0 = complex(np.asarray(problem.beta(0.0), dtype=complex)) \
            if problem.kind == "impedance" else 1.0
        fw = four_wave_exact(problem.medium, inc["theta_d"], problem.kind,
                             beta0=beta0, plane_height=float(vals[0]))
        return "total", fw.field
    return None, None


@dataclass
class RunReport:
    """Structured result of one solve: per-point values plus diagnostics."""

    config_hash: str
    problem: str
    N: int
    A_over_pi: int
    node_count: int
    condition_estimate: float
    residual_norm: float
    timings: dict
    rows: list = field(default_factory=list)

    def to_dict(self):
        return {
            "config_hash": self.config_hash, "problem": self.problem,
            "N": self.N, "A_over_pi": self.A_over_pi,
            "node_count": self.node_count,
            "condition_estimate": self.condition_estimate,
            "residual_norm": self.residual_norm,
            "timings": self.timings, "rows": self.rows,
        }


def _fmt(z: complex) -> str:
    return f"{z.real:.15g},{z.imag:.15g}"


def run(config: RunConfig) -> RunReport:
    """Solve one configuration, evaluate requested points, write CSV outputs."""
    problem = build_problem(config)
    grid = Grid(half_width_A=config.A, N=config.N)
    t0 = time.perf_counter()
    sol = solve(problem, grid)
    t_solve = time.perf_counter() - t0
    label, exact_fn = _exact_reference(config, problem)
    rows = []
    t0 = time.perf_counter()
    for x in config.eval_points:
        us, near = _eval_scattered(sol, problem, x)
        row = {"x1": x[0], "x2": x[1], "scattered": us, "near_surface": near}
        if config.incident["type"] == "plane":
            u0 = complex(reference_field_plane(problem.medium,
                                               config.incident["theta_d"], x))
            row["reference"] = u0
            row["total"] = us + u0
        if exact_fn is not None:
            ex = complex(exact_fn(x))
            approx = row["total"] if label == "total" else us
            row["exact_" + label] = ex
            row["abs_error"] = abs(approx - ex)
            row["rel_error"] = abs(approx - ex) / abs(ex) if ex != 0 else math.inf
        rows.append(row)
    t_eval = time.perf_counter() - t0
    report = RunReport(config_hash=config.digest(), problem=config.problem,
                       N=config.N, A_over_pi=config.A_over_pi,
                       node_count=grid.node_count,
                       condition_estimate=sol.condition_estimate,
                       residual_norm=sol.residual_norm,
                       timings={"solve_s": round(t_solve, 3),
                                "eval_s": round(t_eval, 3)},
                       rows=rows)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{config.problem}_N{config.N}_{report.config_hash}"
        dens_path = out / f"density_{stem}.csv"
        with open(dens_path, "w", encoding="utf-8") as fh:
            fh.write(f"# config_sha256={report.config_hash}\n")
            fh.write("j,t_j,re_psi,im_psi\n")
            for j, (tj, v) in enumerate(zip(grid.nodes, sol.values)):
                fh.write(f"{j},{tj:.15g},{_fmt(v)}\n")
        field_path = out / f"field_{stem}.csv"
        with open(field_path, "w", encoding="utf-8") as fh:
            fh.write(f"# config_sha256={report.config_hash}\n")
            fh.write("x1,x2,re,im,tag\n")
            for row in rows:
                tag = "total" if "total" in row else "scattered"
                val = row.get("total", row["scattered"])
                fh.write(f"{row['x1']:.15g},{row['x2']:.15g},{_fmt(val)},{tag}\n")
    return report


def convergence_sweep(config: RunConfig, n_list) -> list:
    """One run per N (ascending); rows carry values, errors and successive
    differences at the first eval point."""
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("sweep N list must be strictly ascending")
    rows = []
    prev = None
    for n in n_list:
        cfg = config_from_dict(config.canonical(), N=n,
                               out_dir=None)
        rep = run(cfg)
        row = {"N": n, "node_count": rep.node_count,
               "condition_estimate": rep.condition_estimate}
        if rep.rows:
            first = rep.rows[0]
            val = first.get("total", first["scattered"])
            row["value"] = val
            for key in ("abs_error", "rel_error"):
                if key in first:
                    row[key] = first[key]
            row["diff_prev"] = abs(val - prev) if prev is not None else math.nan
            prev = val
        rows.append(row)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"sweep_{config.problem}_{config.digest()}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# config_sha256={config.digest()}\n")
            fh.write("N,node_count,re_value,im_value,abs_error,rel_error,diff_prev\n")
            for row in rows:
                v = row.get("value", complex("nan"))
                fh.write(f"{row['N']},{row['node_count']},{_fmt(v)},"
                         f"{row.get('abs_error', math.nan):.15g},"
                         f"{row.get('rel_error', math.nan):.15g},"
                         f"{row.get('diff_prev', math.nan):.15g}\n")
    return rows


def greens_table(config: RunConfig, grid_spec: str):
    """Tabulate G(x, y_ref) on an 'x1min:x1max:n1,x2min:x2max:n2' grid.

    y_ref is the configured point source (or (0, -1.3) for plane runs)."""
    med = MediumPair(config.k_plus, config.k_minus)
    y0 = tuple(config.incident["y0"]) if config.incident["type"] == "point" \
        else (0.0, -1.3)
    try:
        spec1, spec2 = grid_spec.split(",")
        a1, b1, n1 = spec1.split(":")
        a2, b2, n2 = spec2.split(":")
        xs = np.linspace(float(a1), float(b1), int(n1))
        ys = np.linspace(float(a2), float(b2), int(n2))
    except ValueError:
        raise ConfigError(f"bad --grid spec {grid_spec!r}; "
                          "expected 'x1min:x1max:n1,x2min:x2max:n2'")
    rows = []
    for x2 in ys:
        for x1 in xs:
            g = green(med, (x1, x2), y0)
            rows.append((float(x1), float(x2), g))
    return y0, rows


_PRESETS = {
    "example1-dbvp": {
        "problem": "dirichlet", "k_plus": 2.7, "k_minus": 3.5,
        "surface": "gamma1", "incident": {"type": "point", "y0": [1.0, -1.3]},
        "N": 16, "eval_points": [[0.6, 0.56]]},
    "example1-ibvp": {
        "problem": "impedance", "k_plus": 2.7, "k_minus": 3.5,
        "surface": "gamma1", "incident": {"type": "point", "y0": [1.0, -1.3]},
        "beta": 1.0, "N": 16, "eval_points": [[0.6, 0.56]]},
    "example2-dbvp": {
        "problem": "dirichlet", "k_plus": 2.7, "k_minus": 3.5,
        "surface": "gamma2", "incident": {"type": "plane", "theta_d": 4 * math.pi / 3},
        "N": 16, "eval_points": [[1.0, -0.2]]},
    "example2-ibvp": {
        "problem": "impedance", "k_plus": 2.7, "k_minus": 3.5,
        "surface": "gamma2", "incident": {"type": "plane", "theta_d": 4 * math.pi / 3},
        "beta": 1.0, "N": 16, "eval_points": [[1.0, -0.2]]},
    "example3-dbvp": {
        "problem": "dirichlet", "k_plus": 3.0, "k_minus": 4.0,
        "surface": "gamma3", "incident": {"type": "plane", "theta_d": 17 * math.pi / 12},
        "N": 16, "eval_points": [[1.0, 0.3]]},
    "example3-ibvp": {
        "problem": "impedance", "k_plus": 3.0, "k_minus": 4.0,
        "surface": "gamma3", "incident": {"type": "plane", "theta_d": 17 * math.pi / 12},
        "beta": 1.0, "N": 16, "eval_points": [[1.0, 0.3]]},
}


def preset_config(name: str, **overrides) -> RunConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; see 'presets list'")
    return config_from_dict(_PRESETS[name], **overrides)


def _print_report(report: RunReport):
    print(json.dumps(_jsonable(report.to_dict()), indent=2))


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": float(f"{obj.real:.15g}"), "im": float(f"{obj.imag:.15g}")}
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="layerscat",
                                     description="Two-layered rough-surface scattering solver")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_solve = sub.add_parser("solve", help="solve one configuration")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--N", type=int, default=None)
    p_solve.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="convergence sweep over N")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--N", required=True,
                         help="comma-separated ascending list, e.g. 8,16,32,64")
    p_sweep.add_argument("--out", default=None)

    p_greens = sub.add_parser("greens", help="tabulate the two-layered Green function")
    p_greens.add_argument("--config", required=True)
    p_greens.add_argument("--grid", required=True)
    p_greens.add_argument("--out", default=None)

    p_presets = sub.add_parser("presets", help="list or run experiment presets")
    p_presets.add_argument("action", choices=["list", "run"])
    p_presets.add_argument("name", nargs="?")
    p_presets.add_argument("--N", type=int, default=None)
    p_presets.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.cmd == "solve":
            cfg = load_config(args.config, N=args.N, out_dir=args.out)
            _print_report(run(cfg))
        elif args.cmd == "sweep":
            try:
                n_list = [int(v) for v in args.N.split(",")]
            except ValueError:
                raise ConfigError(f"bad --N list {args.N!r}")
            cfg = load_config(args.config, out_dir=args.out)
            rows = convergence_sweep(cfg, n_list)
            print(json.dumps(_jsonable(rows), indent=2))
        elif args.cmd == "greens":
            cfg = load_config(args.config)
            y0, rows = greens_table(cfg, args.grid)
            lines = ["x1,x2,re,im"]
            lines += [f"{x1:.15g},{x2:.15g},{_fmt(g)}" for x1, x2, g in rows]
            text = "\n".join(lines) + "\n"
            if args.out:
                Path(args.out).mkdir(parents=True, exist_ok=True)
                (Path(args.out) / "greens.csv").write_text(text, encoding="utf-8")
            print(f"# G(., y0) with y0 = {y0}")
            sys.stdout.write(text)
        else:
            if args.action == "list":
                for name in sorted(_PRESETS):
                    print(name)
            else:
                if not args.name:
                    raise ConfigError("presets run requires a preset name")
                cfg = preset_config(args.name, N=args.N, out_dir=args.out)
                _print_report(run(cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LayerScatError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
