"""layerscat benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload pointsource-dbvp --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json (run_s, setup_s, peak_rss_mb, max_abs_error); with --trace 1
it reports the per-layer metrics of a run whose public layerscat functions
are wrapped in spans.  Lines before it are for people: the same numbers with
units, the failure ratio, and the environment.  The full record, and the
spans of a traced run, go to perfbench/results/.

Exit status: 0 when every op matched its reference (and, traced, the
self-check passed); 1 when the result line reports correct = false; 2 when
the checkout or the arguments are unusable, or a worker died outside an op,
with no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
#: cold set-up probes, about half before the measured ops and half after,
#: so that their median spans the run rather than one moment of the host
SETUP_PROBES = 21
SETUP_BUDGET_S = 40.0       # for all set-up probes together
DEADLINE_S = 170.0          # the whole command must end within 180 s


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one process, one BLAS thread: the load is a single closed-loop client
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(args, env, deadline):
    """Run worker.py, killing it at the perf_counter time ``deadline``;
    return its last stdout line as JSON, or exit 2."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        _fail(f"worker {args[0]} timed out after {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        _fail(f"worker {args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_rev(root):
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _metric_specs(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    root = Path.cwd().resolve()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}")
    if not (root / "src" / "layerscat" / "__init__.py").is_file():
        _fail(f"no src/layerscat under {root}: run from the root of a checkout")
    if not args.seconds > 0:
        _fail("--seconds must be positive")
    e2e_units, layer_units = _metric_specs(root)
    env = _child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_samples = []
    setup_left = 0.0 if args.trace else SETUP_BUDGET_S

    def probe_setup(count):
        nonlocal setup_left
        t0 = time.perf_counter()
        for _ in range(count):
            setup_samples.append(_run_child(["setup", *common], env,
                                            t0 + setup_left)["setup_s"])
        setup_left -= time.perf_counter() - t0

    if not args.trace:
        probe_setup(SETUP_PROBES // 2 + 1)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    measure = ["measure", *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        measure += ["--spans-out", str(RESULTS / f"{stem}-spans.jsonl")]
    res = _run_child(measure, env, start + DEADLINE_S - setup_left)
    if not args.trace:
        probe_setup(SETUP_PROBES - len(setup_samples))
    res["git_rev"] = _git_rev(root)
    res["setup_s_samples"] = setup_samples
    problems = res.get("self_check", [])
    correct = res["failed"] == 0 and not problems

    envr = res["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rev {res['git_rev']}")
    print(f"environment: python {envr['python']}, numpy {envr['numpy']}, "
          f"scipy {envr['scipy']}, BLAS {envr['blas']} threads "
          f"{envr['blas_threads']}, nproc {envr['nproc']} "
          f"({envr['cpus_usable']} usable)")
    print(f"ops attempted {res['attempted']}, failed {res['failed']}, "
          f"failed_ratio {res['failed'] / res['attempted']:.4g} (1)")
    for why in res["failures"]:
        print(f"  failure: {why}")

    runs = res["run_s_samples"]
    if not args.trace:
        values = {
            "run_s": statistics.median(runs),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": res["peak_rss_mb"],
            "max_abs_error": res["max_abs_error"],
        }
        tail = spans.tail_percentile(runs)
        print(f"run_s {values['run_s']:.4f} s  (median of {len(runs)} ops; "
              + (f"{tail[0]} {tail[1]:.4f} s)" if tail
                 else "too few samples for a tail percentile)"))
        print(f"setup_s {values['setup_s']:.4f} s  (median of "
              f"{len(setup_samples)} cold interpreters)")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        if values["max_abs_error"] is not None:
            print(f"max_abs_error {values['max_abs_error']:.4e} (1)")
        units = e2e_units
    else:
        values = res["layer_metrics"]
        if values:
            for name, unit in layer_units.items():
                print(f"{name} {values[name]:.6g} {unit}")
            print(f"potentials.eval.ms_per_point.high is the {res['eval_high_label']} "
                  f"of {res['eval_samples']} point evaluations")
            print(f"sommerfeld.spectral_point.s {values['sommerfeld.spectral_point.s']:.6g} s")
            print(f"green.scalar.s {values['green.scalar.s']:.6g} s")
            print(f"tracing overhead {values['trace.overhead_s']:.4f} s = traced run_s "
                  f"{values['trace.run_s']:.4f} s - untraced run_s "
                  f"{res['untraced_run_s']:.4f} s "
                  f"({res['traced_ops']} traced ops, {res['span_count']} spans)")
            print(f"dominant layer: {res['dominant']} = {values[res['dominant']]:.3f} "
                  f"of traced run_s")
            print(f"time in no layer span {res['unattributed_share']:.2%} of traced "
                  f"run_s; wrappers cost about {1e6 * res['wrapper_cost_s']:.2f} us "
                  f"per span, {res['estimated_trace_cost_s']:.3f} s per op")
        print("self-check: " + ("passed" if not problems else "; ".join(problems)))
        units = layer_units

    # a NaN or inf would make the result line invalid JSON: leave it out
    measured = {n: v for n, v in values.items()
                if v is not None and math.isfinite(v)}
    missing = [n for n in units if n not in measured]
    if missing:
        correct = False
        print(f"not measured or not finite: {', '.join(missing)}")
    metrics = {n: {"value": measured[n], "unit": u}
               for n, u in units.items() if n in measured}
    res["metrics"] = metrics
    (RESULTS / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
