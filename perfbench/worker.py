"""Child process of run.py.  Two modes:

    worker.py setup   --workload W --seed S
        time one cold set-up: import layerscat, config_from_dict,
        build_problem, Grid;
    worker.py measure --workload W --seed S --seconds T --trace 0|1 [--spans-out F]
        run W through layerscat.cli.run until T seconds have passed, check
        every answer against its reference, and report.

Each mode prints one JSON object as its last stdout line.  The package is
imported from ./src of the current directory (the checkout root) and nowhere
else.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

#: self-check limits of a traced run, as shares of run_s: time in cli.run
#: outside every layer span, and the estimated cost of the span wrappers
MAX_UNATTRIBUTED = 0.05
MAX_TRACE_COST = 0.05


def _import_layerscat():
    """Import layerscat from ./src, refusing an installed copy elsewhere."""
    src = (Path.cwd() / "src").resolve()
    import layerscat
    where = Path(layerscat.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"layerscat imported from {where}, not from {src}")
    return layerscat


def setup(args):
    raw = workloads.config(args.workload, args.seed)
    t0 = time.perf_counter()
    _import_layerscat()
    from layerscat import cli
    from layerscat.nystrom import Grid
    cfg = cli.config_from_dict(raw)
    cli.build_problem(cfg)
    Grid(half_width_A=cfg.A, N=cfg.N)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    found[pkg.__name__] = int(getattr(lib, sym)())
                    break
    return found


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def references(wl, cfg):
    """Reference value per evaluation point, computed outside the timed ops."""
    from layerscat import MediumPair, four_wave_exact, green
    medium = MediumPair(cfg.k_plus, cfg.k_minus)
    if wl.name == "pointsource-dbvp":
        y0 = tuple(cfg.incident["y0"])
        return [green(medium, x, y0) for x in cfg.eval_points]
    if wl.name == "fieldmap-dbvp":
        exact = four_wave_exact(medium, cfg.incident["theta_d"], cfg.problem,
                                beta0=1.0, plane_height=-1.0)
        return [exact.field(x) for x in cfg.eval_points]
    return [workloads.ROUGHPLANE_REF64 for _ in cfg.eval_points]


def one_op(cli, cfg, wl, refs):
    """One cli.run call, timed and checked.  Any exception (a LayerScatError
    or a fault such as a LinAlgError), or a point whose error is not within
    its tolerance (NaN and inf included), marks the op failed."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        report = cli.run(cfg)
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return {"run_s": time.perf_counter() - t0, "failed": True,
                "why": f"{type(exc).__name__}: {exc} "
                       f"({Path(where.filename).name}:{where.lineno})"}
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    values = [row[wl.field] for row in report.rows]
    if len(values) != len(refs):
        return {"run_s": run_s, "failed": True,
                "why": f"{len(values)} field values for {len(refs)} points"}
    errs = [float(abs(v - r)) for v, r in zip(values, refs)]
    limits = [wl.tol * (abs(r) if wl.tol_kind == "relative" else 1.0) for r in refs]
    # "not e <= lim" rather than "e > lim", so that a NaN error is a miss
    misses = sum(1 for e, lim in zip(errs, limits) if not e <= lim)
    max_err = max(errs) if all(map(math.isfinite, errs)) else math.inf
    return {"run_s": run_s, "cpu_s": cpu_s, "failed": misses > 0,
            "why": f"{misses} points outside tolerance" if misses else "",
            "max_abs_error": max_err, "values": values,
            "unknowns": report.node_count}


def _loop(seconds, min_ops, step):
    start = time.perf_counter()
    ops = []
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(step(len(ops)))
    return ops


def _summary(ops):
    done = [o for o in ops if "max_abs_error" in o]
    return {
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
        "failures": sorted({o["why"] for o in ops if o["failed"]}),
        "run_s_samples": [o["run_s"] for o in ops],
        "cpu_s_samples": [o.get("cpu_s") for o in ops],
        "max_abs_error": (statistics.median(o["max_abs_error"] for o in done)
                          if done else None),
    }


def measure(args):
    wl = workloads.WORKLOADS[args.workload]
    _import_layerscat()
    from layerscat import cli
    cfg = cli.config_from_dict(workloads.config(args.workload, args.seed))
    refs = references(wl, cfg)
    result = {"environment": environment()}

    if not args.trace:
        ops = _loop(args.seconds, 1, lambda k: one_op(cli, cfg, wl, refs))
        result.update(_summary(ops))
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024.0)
        print(json.dumps(result))
        return

    import numpy as np
    from layerscat import nystrom

    densities = []
    solve = nystrom.solve

    def keep_density(problem, grid):
        sol = solve(problem, grid)
        densities.append(np.array(sol.values, copy=True))
        return sol

    # the tracer wraps functions by their module: this one is nystrom.solve
    keep_density.__module__ = solve.__module__
    undo = spans.patch_everywhere(solve, keep_density)
    tracer = spans.Tracer()

    def step(k):
        # even ops traced, odd ops untraced: the pairs give the overhead
        traced = k % 2 == 0
        if traced:
            tracer.op = k
            tracer.install()
        try:
            op = one_op(cli, cfg, wl, refs)
        finally:
            tracer.uninstall()
        op["traced"] = traced
        return op

    try:
        ops = _loop(args.seconds, 4, step)
    finally:
        spans.restore(undo)
    result.update(_summary(ops))
    if result["failed"]:
        result.update(layer_metrics={},
                      self_check=["ops failed, so no per-layer metrics"])
    else:
        result.update(_trace_report(tracer, ops, densities, wl))
    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))


def _trace_report(tracer, ops, densities, wl):
    """Per-layer metrics of the traced ops plus the traced run's self-check."""
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    by_op = spans.split_ops(tracer.spans)
    op_ids = [k for k, o in enumerate(ops) if o["traced"]]
    per_op = [by_op[k] for k in op_ids]
    problems = []

    if len(densities) != len(ops) or any(d.tobytes() != densities[0].tobytes()
                                         for d in densities):
        problems.append("densities differ between traced and untraced ops")
    if any(o.get("values") != ops[0].get("values") for o in ops):
        problems.append("field values differ between ops")

    # Self time is duration minus child durations and each op has one root
    # span, so self times sum to the op's time by construction.  What can go
    # wrong is checked instead: spans that do not nest, time that no layer
    # span covers, and wrappers that cost a visible part of the op.
    untraced_s = statistics.median(o["run_s"] for o in plain)
    overhead_s = statistics.median(o["run_s"] for o in traced) - untraced_s
    if any(t < -1e-6 for s in per_op for t in s.self_time):
        problems.append("a span has negative self time: spans do not nest")
    unattributed = statistics.median(s.self_s("cli.run") / s.run_s for s in per_op)
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(f"{unattributed:.1%} of the traced op is in no layer span "
                        f"(limit {MAX_UNATTRIBUTED:.0%})")
    wrapper_s = spans.wrapper_cost_s()
    estimated_s = wrapper_s * max(len(s.spans) for s in per_op)
    if estimated_s > MAX_TRACE_COST * untraced_s:
        problems.append(f"the wrappers cost about {estimated_s:.3f} s per op, more "
                        f"than {MAX_TRACE_COST:.0%} of run_s {untraced_s:.3f} s")

    def counts(s, op):
        return {"sommerfeld.rule.q": s.assembly_rule_q(),
                "nystrom.unknowns": op.get("unknowns"),
                "specfun.bessel.points": s.count(spans.BESSEL),
                "sommerfeld.spectral_point.calls":
                    s.calls(("sommerfeld.spectral_point",)),
                "green.scalar.calls": s.calls(spans.GREEN_SCALAR)}

    all_counts = [counts(s, o) for s, o in zip(per_op, traced)]
    if any(c != all_counts[0] for c in all_counts):
        problems.append(f"counts differ between traced ops: {all_counts}")

    eval_ms = [1e3 * d for s in per_op for d in s.durations("potentials._eval_scattered")]
    metrics, high_label = spans.layer_metrics(
        per_op, tracer.assemble_rss[op_ids[0]], traced[0].get("unknowns", 0), eval_ms)
    metrics["trace.overhead_s"] = overhead_s
    return {"layer_metrics": metrics, "eval_high_label": high_label,
            "unattributed_share": unattributed, "wrapper_cost_s": wrapper_s,
            "estimated_trace_cost_s": estimated_s,
            "eval_samples": len(eval_ms), "untraced_run_s": untraced_s,
            "traced_ops": len(traced), "self_check": problems,
            "dominant": wl.dominant, "span_count": len(tracer.spans)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    (setup if args.mode == "setup" else measure)(args)


if __name__ == "__main__":
    main()
