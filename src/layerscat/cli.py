"""Configuration-driven experiment runner and command-line interface.

Config files are JSON, one key per setting; any other key, also inside
incident, surface or beta, is a configuration error, and so is a key that
sets nothing for the problem (beta on a Dirichlet one, eta on an impedance
one):

    {
      "problem":  "dirichlet" | "impedance",
      "k_plus":   2.7,
      "k_minus":  3.5,
      "surface":  "gamma1" | "gamma2" | "gamma3" | {"expr": "-1+0.16*sin(0.3*pi*t)"},
      "incident": {"type": "plane", "theta_d": 4.1887902} |
                  {"type": "point", "y0": [1.0, -1.3]},
      "beta":     1.0 | [re, im] | {"expr": "..."},          (impedance only)
      "eta":      positive float, default sqrt(k+ k-),       (Dirichlet only)
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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import exprs, sommerfeld, surface as surface_mod
from .bie import BoundaryProblem
from .errors import ConfigError, DomainError, LayerScatError
from .green import (_SING_DIST, MediumPair, green, green_surface_batch,
                    reference_field_plane)
from .nystrom import Grid, solve
from .potentials import _check_points, _eval_scattered, four_wave_exact

_DEF_A_OVER_PI = 10


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration."""

    problem: str
    k_plus: float
    k_minus: float
    surface: object
    incident: dict
    beta: object = 1.0
    eta: Optional[float] = None
    N: int = 16
    A_over_pi: int = _DEF_A_OVER_PI
    eval_points: tuple = ()
    out_dir: Optional[str] = None

    @property
    def A(self) -> float:
        return self.A_over_pi * math.pi

    def digest(self) -> str:
        """Hash of every field but out_dir, as JSON with sorted keys."""
        values = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "out_dir"}  # asdict's JSON, without its deep copy
        blob = json.dumps(values, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _known_keys(mapping, allowed, where):
    """ConfigError naming every key of mapping that allowed lacks."""
    unknown = sorted(repr(k) for k in set(mapping) - set(allowed))
    _require(not unknown, f"{where}: unknown key(s) {', '.join(unknown)}")


def _number(value, name) -> float:
    """value as a finite float (never a bool), or ConfigError naming it."""
    _require(not isinstance(value, bool), f"{name}: number required, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: number required, got {value!r}") from None
    _require(math.isfinite(x), f"{name}: must be finite, got {value!r}")
    return x


def _on_window(grid, ok, msg):
    """ConfigError msg, naming the first t of grid where ok is False."""
    if not ok.all():
        raise ConfigError(f"{msg} at t = {grid[np.argmin(ok)]:.6g}")


def _integer(value, name) -> int:
    """value as an int (integral numbers only), or ConfigError."""
    x = _number(value, name)
    _require(x == int(x), f"{name}: integer required, got {value!r}")
    return int(x)


def config_from_dict(raw: dict, **overrides) -> RunConfig:
    """Validate a raw config mapping (file contents) into a RunConfig."""
    data = dict(raw)
    data.update({k: v for k, v in overrides.items() if v is not None})
    _known_keys(data, (f.name for f in fields(RunConfig)), "config")
    problem = data.get("problem")
    _require(problem in ("dirichlet", "impedance"),
             f"problem: expected 'dirichlet' or 'impedance', got {problem!r}")
    kp = _number(data.get("k_plus"), "k_plus")
    km = _number(data.get("k_minus"), "k_minus")
    _require(kp > 0 and km > 0, "k_plus/k_minus: must be positive")
    _require(kp != km, "k_plus/k_minus: two-layered medium requires k_plus != k_minus")
    surf = data.get("surface")
    _require(isinstance(surf, str) or (isinstance(surf, dict)
                                       and isinstance(surf.get("expr"), str)),
             "surface: builtin name or {'expr': '...'} required")
    if isinstance(surf, dict):
        _known_keys(surf, ("expr",), "surface")
    inc = data.get("incident")
    _require(isinstance(inc, dict) and inc.get("type") in ("plane", "point"),
             "incident: {'type': 'plane'|'point', ...} required")
    _known_keys(inc, ("type", "theta_d" if inc["type"] == "plane" else "y0"),
                "incident")
    if inc["type"] == "plane":
        theta = _number(inc.get("theta_d"), "incident.theta_d")
        _require(math.pi - 1e-12 <= theta <= 2 * math.pi + 1e-12,
                 f"incident.theta_d: must lie in [pi, 2 pi], got {theta}")
        inc = {"type": "plane", "theta_d": theta}
    else:
        y0 = inc.get("y0")
        _require(isinstance(y0, (list, tuple)) and len(y0) == 2,
                 "incident.y0: [x1, x2] required")
        inc = {"type": "point", "y0": [_number(v, "incident.y0") for v in y0]}
    beta = data.get("beta", 1.0)
    pair = isinstance(beta, (list, tuple))
    if isinstance(beta, dict):
        _require(isinstance(beta.get("expr"), str),
                 f"beta: {{'expr': '...'}} needs a string, got {beta!r}")
        _known_keys(beta, ("expr",), "beta")
    else:
        _require(not pair or len(beta) == 2, f"beta: [re, im] required, got {beta!r}")
        for v in beta if pair else [beta]:
            _number(v, "beta")
    eta = data.get("eta")
    if eta is not None:
        eta = _number(eta, "eta")
        _require(eta > 0, f"eta: must be positive, got {eta}")
    n = _integer(data.get("N", 16), "N")
    _require(n >= 1, f"N: must be >= 1, got {n}")
    a_pi = _integer(data.get("A_over_pi", _DEF_A_OVER_PI), "A_over_pi")
    _require(a_pi >= 1, f"A_over_pi: positive integer required, got {a_pi}")
    # one check of surface and beta on [-A, A]: f, f', f'' and beta finite,
    # f < -_MIN_DECAY / 2 (the shared rule's v_min = 2 min|f|), Re beta > 0
    a = a_pi * math.pi
    grid = np.linspace(-a, a, 2 * math.ceil(50 * a) + 1)
    prof = _build_surface(surf)
    with np.errstate(all="ignore"):
        jet = np.asarray(prof.jet(grid), dtype=float)
        _on_window(grid, np.isfinite(jet).all(0), "surface: f, f' or f'' not finite")
        (top,), (low,) = surface_mod.refine_min(lambda t, i: -prof(t), -a, a,
                                                (grid.size, 201, 201))
    high = -low     # the grid's highest node, then two rounds of 201
    _require(high < 0, f"surface: reaches the interface at t = {top:.6g}")
    gap = sommerfeld._MIN_DECAY / 2
    _require(high < -gap, f"surface: highest point on [-A, A] is x2 = "
             f"{high:.6g} at t = {top:.6g}; the shared spectral rule needs a "
             f"clearance above {gap:g} (v_min = 2 min|f| > {2 * gap:g})")
    if inc["type"] == "point":
        y0 = tuple(inc["y0"])
        with np.errstate(all="ignore"):
            below = y0[1] < float(prof(y0[0]))
        _require(below, f"incident.y0: {y0} must lie strictly below the surface")
    if problem == "impedance":
        with np.errstate(all="ignore"):
            b = _build_beta(beta)(grid)
        _on_window(grid, np.isfinite(b), "beta: not finite")
        _on_window(grid, b.real > 0, "beta: Re beta > 0 fails")
    pts = data.get("eval_points", ())
    _require(isinstance(pts, (list, tuple)), "eval_points: list of [x1, x2] required")
    points = []
    for p in pts:
        _require(isinstance(p, (list, tuple)) and len(p) == 2,
                 f"eval_points: bad entry {p!r}")
        points.append(tuple(_number(v, "eval_points") for v in p))
    try:
        _check_points(prof, *np.array(points).reshape(-1, 2).T)
    except DomainError as exc:
        raise ConfigError(f"eval_points: {exc}")
    out_dir = data.get("out_dir")
    _require(out_dir is None or isinstance(out_dir, str),
             f"out_dir: directory path string required, got {out_dir!r}")
    idle = "beta" if problem == "dirichlet" else "eta"
    _require(idle not in data, f"config: key {idle!r} sets nothing for a "
             f"{problem} problem")
    return RunConfig(problem=problem, k_plus=kp, k_minus=km, surface=surf,
                     incident=inc, beta=beta, eta=eta,
                     N=n, A_over_pi=a_pi, eval_points=tuple(points),
                     out_dir=out_dir)


def load_config(path, **overrides) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return config_from_dict(raw, **overrides)


def _build_surface(spec) -> exprs.Expression:
    """The surface, a parsed expression, of a spec: a built-in name or
    {"expr": ...}."""
    if isinstance(spec, str):
        try:
            return surface_mod.builtin(spec)
        except LayerScatError as exc:
            raise ConfigError(str(exc))
    return exprs.parse_expression(spec["expr"])


def _build_beta(spec) -> exprs.Expression:
    """beta, a parsed expression (a constant one for a number or [re, im]),
    from a spec that config_from_dict validated."""
    if isinstance(spec, dict):
        return exprs.parse_expression(spec["expr"])
    return exprs.constant(complex(*map(float, spec)) if isinstance(spec, (list, tuple))
                          else complex(float(spec)))


def build_problem(config: RunConfig) -> BoundaryProblem:
    """The BoundaryProblem of a validated config; bie.rhs_vector forms its
    boundary data from the incident spec."""
    kwargs = {"beta": _build_beta(config.beta)} if config.problem == "impedance" \
        else {"eta": config.eta}
    return BoundaryProblem(kind=config.problem,
                           medium=MediumPair(config.k_plus, config.k_minus),
                           surface=_build_surface(config.surface),
                           incident=config.incident, **kwargs)


def exact_reference(config: RunConfig, problem: BoundaryProblem, pts):
    """Closed-form reference at the points pts = (x1, x2), when one exists.

    Returns (label, values), a complex array, or (None, None):
      * point incidence: exact scattered field G(x, y0), one scalar green()
        per point, independent of the shared rule behind the boundary data;
      * plane incidence with surface and beta finite and constant on
        [-A, A] and [-30, 30] (spacing 0.1): exact total field (four waves).
    """
    inc = config.incident
    if inc["type"] == "point":
        y0 = tuple(inc["y0"])
        return "scattered", np.array(
            [green(problem.medium, x, y0) for x in zip(*pts)])
    half = max(30.0, config.A)
    sample = np.linspace(-half, half, 20 * math.ceil(half) + 1)
    with np.errstate(all="ignore"):     # beyond the validated window
        vals = np.asarray(problem.surface(sample), dtype=float)
        beta = np.asarray(problem.beta(sample), dtype=complex) \
            if problem.kind == "impedance" else np.ones(1)
        flat = np.ptp(vals) < 1e-14 and np.abs(beta - beta[0]).max() < 1e-14
    if not flat:
        return None, None
    fw = four_wave_exact(problem.medium, inc["theta_d"], problem.kind,
                         beta0=complex(beta[0]), plane_height=float(vals[0]))
    return "total", fw.field(pts)


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


def _fmt(z: complex) -> str:
    return f"{z.real:.15g},{z.imag:.15g}"


def _write(path: Path, text: str):
    """Write text to path, making its directory, or ConfigError naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _write_csv(path: Path, digest: str, header: str, lines):
    """A CSV file: the config hash line, the column header, then lines."""
    _write(path, "\n".join([f"# config_sha256={digest}", header, *lines]) + "\n")


def run(config: RunConfig) -> RunReport:
    """Solve one configuration, evaluate requested points, write CSV outputs.
    config_from_dict has refused evaluation points below the surface or
    within potentials._MIN_DIST of it."""
    problem = build_problem(config)
    grid = Grid(half_width_A=config.A, N=config.N)
    pts = np.array(config.eval_points, dtype=float).reshape(-1, 2).T
    t0 = time.perf_counter()
    sol = solve(problem, grid)
    t_solve = time.perf_counter() - t0
    rows = []
    t0 = time.perf_counter()
    scattered, near = _eval_scattered(sol, problem, pts)
    plane = config.incident["type"] == "plane"
    if plane:
        u0 = reference_field_plane(problem.medium, config.incident["theta_d"], pts)
    label, exact = exact_reference(config, problem, pts)
    for i, x in enumerate(config.eval_points):
        us = complex(scattered[i])
        row = {"x1": x[0], "x2": x[1], "scattered": us, "near_surface": bool(near[i])}
        if plane:
            row["reference"] = complex(u0[i])
            row["total"] = us + row["reference"]
        if label is not None:
            ex = complex(exact[i])
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
        out, digest = Path(config.out_dir), report.config_hash
        stem = f"{config.problem}_N{config.N}_{digest}"
        _write_csv(out / f"density_{stem}.csv", digest, "j,t_j,re_psi,im_psi",
                   (f"{j},{tj:.15g},{_fmt(v)}"
                    for j, (tj, v) in enumerate(zip(grid.nodes, sol.values))))
        tags = ["total" if "total" in row else "scattered" for row in rows]
        _write_csv(out / f"field_{stem}.csv", digest, "x1,x2,re,im,tag",
                   (f"{row['x1']:.15g},{row['x2']:.15g},{_fmt(row[tag])},{tag}"
                    for row, tag in zip(rows, tags)))
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
        _require(n >= 1, f"N: must be >= 1, got {n}")
        rep = run(replace(config, N=n, out_dir=None))
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
        digest = config.digest()
        _write_csv(Path(config.out_dir) / f"sweep_{config.problem}_{digest}.csv", digest,
                   "N,node_count,re_value,im_value,abs_error,rel_error,diff_prev",
                   (f"{row['N']},{row['node_count']},"
                    f"{_fmt(row.get('value', complex('nan')))},"
                    f"{row.get('abs_error', math.nan):.15g},"
                    f"{row.get('rel_error', math.nan):.15g},"
                    f"{row.get('diff_prev', math.nan):.15g}" for row in rows))
    return rows


def greens_table(config: RunConfig, grid_spec: str):
    """Tabulate G(x, y_ref) on an 'x1min:x1max:n1,x2min:x2max:n2' grid.

    y_ref, the configured point source (or (0, -1.3) for plane runs), is the
    one source of a checked green_surface_batch call on the grid."""
    med = MediumPair(config.k_plus, config.k_minus)
    y0 = tuple(config.incident["y0"]) if config.incident["type"] == "point" \
        else (0.0, -1.3)
    try:
        spec1, spec2 = grid_spec.split(",")
        a1, b1, n1 = spec1.split(":")
        a2, b2, n2 = spec2.split(":")
        lims = [float(v) for v in (a1, b1, a2, b2)]
        counts = int(n1), int(n2)
        if not all(map(math.isfinite, lims)) or min(counts) < 1:
            raise ValueError
        xs = np.linspace(*lims[:2], counts[0])
        ys = np.linspace(*lims[2:], counts[1])
    except ValueError:
        raise ConfigError(f"bad --grid spec {grid_spec!r}; expected "
                          "'x1min:x1max:n1,x2min:x2max:n2' with finite bounds "
                          "and counts >= 1")
    _require(y0[1] < 0, f"greens: y_ref {y0} must lie below the interface")
    x1, x2 = np.meshgrid(xs, ys)
    dist = np.hypot(x1 - y0[0], x2 - y0[1]).ravel()
    i = dist.argmin()
    _require(dist[i] >= _SING_DIST, f"greens: grid point ({x1.flat[i]:.6g}, "
             f"{x2.flat[i]:.6g}) is y_ref {y0}, where G is singular")
    g = green_surface_batch(med, (x1, x2), [y0[0]], [y0[1]], check=True)
    rows = [(float(a), float(b), complex(v))
            for a, b, v in zip(x1.ravel(), x2.ravel(), g.ravel())]
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
    print(json.dumps(_jsonable(asdict(report)), indent=2))


def _jsonable(obj):
    """obj with floats to 15 digits and non-finite ones None: JSON null,
    as RFC 8259 has no NaN or Infinity."""
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, float):
        return float(f"{obj:.15g}") if math.isfinite(obj) else None
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
                _write(Path(args.out) / "greens.csv", text)
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
