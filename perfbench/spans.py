"""Spans around the public functions of each layerscat module, and the
per-layer metrics computed from them.

The wrappers are installed from outside the package, only for a traced run:
each one replaces a function on its defining module and on every other
layerscat module that imported it by name (``bie.hankel1``, ``cli.green``,
``potentials.green_surface_batch``, ...), so calls made through either name
are recorded.  Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import statistics
import sys
import time

#: the layers, in dependency order; a span's layer is its module
LAYERS = ("specfun", "surface", "sommerfeld", "green", "bie", "nystrom",
          "potentials", "cli")
#: private functions that are layer boundaries all the same: cli.run
#: evaluates each point through potentials._eval_scattered
PRIVATE_BOUNDARIES = {"potentials": ("_eval_scattered",)}

BESSEL = ("specfun.bessel_j", "specfun.bessel_y", "specfun.hankel1")
GREEN_SCALAR = ("green.green", "green.grad_green_x", "green.grad_green_y")
ASSEMBLY_LAYERS = ("sommerfeld", "bie", "specfun")
RHS = ("bie.rhs_vector",)


def _bessel_points(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return int(getattr(z, "size", 1))


def _rule_size(args, kwargs, result):
    return int(len(result[0]))


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: span name -> function(args, kwargs, result) giving the span's work count
COUNTERS = {name: _bessel_points for name in BESSEL}
COUNTERS["sommerfeld.real_axis_rule"] = _rule_size


def _layer_modules():
    return {layer: sys.modules[f"layerscat.{layer}"] for layer in LAYERS}


def patch_everywhere(original, replacement):
    """Replace ``original`` by ``replacement`` on every layerscat module that
    holds it.  Returns the undo list for :func:`restore`."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "layerscat"
                               or mod_name.startswith("layerscat.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo):
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class Tracer:
    """Records one span per call of every wrapped function.

    A span is ``[name, start, end, parent, op, count]``: ``parent`` indexes
    the enclosing span (-1 for none), ``op`` is the id of the cli.run call it
    belongs to, and ``count`` is the work count of COUNTERS (0 otherwise).
    Spans stay in memory until the caller writes them out.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self.assemble_rss = {}     # op -> (maxrss before, after) in MB
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        probe_rss = name == "nystrom.assemble"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_mb() if probe_rss else 0.0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe_rss:
                self.assemble_rss.setdefault(self.op, (rss0, _maxrss_mb()))
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        for layer, mod in _layer_modules().items():
            extra = PRIVATE_BOUNDARIES.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    self._undo += patch_everywhere(
                        obj, self._wrap(f"{layer}.{attr}", obj))

    def uninstall(self):
        restore(self._undo)
        self._undo = []


def wrapper_cost_s(calls=20000, repeats=5):
    """Seconds one span wrapper adds to a call: the best of ``repeats`` timings
    of ``calls`` calls of a no-op function, wrapped minus plain."""
    def noop(*args, **kwargs):
        return None

    traced = Tracer()._wrap("cost.noop", noop)

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(1, z=2)
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(best(traced) - best(noop), 0.0) / calls


def _percentile(values, q):
    """Nearest-rank percentile q (0..100) of a non-empty list."""
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]


def tail_percentile(values):
    """(label, value) of the highest of p99/p95/p90/p75/p50 with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return f"p{q}", _percentile(values, q)
    return None


class OpSpans:
    """The spans of one traced cli.run call, with self times precomputed."""

    def __init__(self, spans, index):
        self.spans = spans                    # list of span records
        local = {g: i for i, g in enumerate(index)}
        self.parent = [local.get(s[3], -1) for s in spans]
        self.duration = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child)]
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        if len(roots) != 1 or spans[roots[0]][0] != "cli.run":
            raise RuntimeError(f"expected one cli.run root span, got {len(roots)}")
        self.root = roots[0]

    @property
    def run_s(self):
        return self.duration[self.root]

    def _has_ancestor(self, i, names):
        p = self.parent[i]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.parent[p]
        return False

    def busy(self, names):
        """Wall time inside any of the named functions (outermost spans only,
        so a nested call is not counted twice)."""
        return sum(self.duration[i] for i, s in enumerate(self.spans)
                   if s[0] in names and not self._has_ancestor(i, names))

    def self_s(self, name):
        return sum(t for t, s in zip(self.self_time, self.spans) if s[0] == name)

    def calls(self, names):
        return sum(1 for s in self.spans if s[0] in names)

    def count(self, names):
        return sum(s[5] for s in self.spans if s[0] in names)

    def durations(self, name):
        return [d for d, s in zip(self.duration, self.spans) if s[0] == name]

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(t for t, s in zip(self.self_time, self.spans)
                   if s[0].startswith(prefix))

    def assembly_s(self):
        """Self time of sommerfeld, bie and specfun spans under nystrom.assemble,
        leaving out boundary data (bie.rhs_vector and the spans under it)."""
        return sum(t for i, (t, s) in enumerate(zip(self.self_time, self.spans))
                   if s[0].split(".")[0] in ASSEMBLY_LAYERS
                   and s[0] not in RHS
                   and self._has_ancestor(i, ("nystrom.assemble",))
                   and not self._has_ancestor(i, RHS))

    def assembly_rule_q(self):
        """Nodes of the shared rule that remainder_matrices builds."""
        return max((s[5] for i, s in enumerate(self.spans)
                    if s[0] == "sommerfeld.real_axis_rule"
                    and self._has_ancestor(i, ("sommerfeld.remainder_matrices",))),
                   default=0)


def split_ops(spans):
    """Group span records by op id -> OpSpans."""
    by_op = {}
    for g, s in enumerate(spans):
        by_op.setdefault(s[4], []).append(g)
    return {op: OpSpans([spans[g] for g in idx], idx)
            for op, idx in sorted(by_op.items()) if op >= 0}


def layer_metrics(ops, assemble_rss, unknowns, eval_ms):
    """Per-layer metrics: medians over the traced ops, plus the counts of the
    first op (the self-check verifies that every op repeats them).  Also
    returns the busy seconds of spectral_point and the scalar Green
    functions, which BENCHMARK.json carries as shares only."""
    def med(fn):
        return statistics.median(fn(o) for o in ops)

    first = ops[0]
    run_s = med(lambda o: o.run_s)
    label, high = tail_percentile(eval_ms) or ("max", max(eval_ms))
    rss0, rss1 = assemble_rss
    m = {
        "specfun.bessel.s": med(lambda o: o.busy(BESSEL)),
        "specfun.bessel.points": first.count(BESSEL),
        "specfun.vertical_wavenumber.calls":
            first.calls(("specfun.vertical_wavenumber",)),
        "sommerfeld.rule.q": first.assembly_rule_q(),
        "sommerfeld.remainder_matrices.s":
            med(lambda o: o.busy(("sommerfeld.remainder_matrices",))),
        "sommerfeld.spectral_point.calls":
            first.calls(("sommerfeld.spectral_point",)),
        "sommerfeld.spectral_point.s":
            med(lambda o: o.busy(("sommerfeld.spectral_point",))),
        "sommerfeld.spectral_point.share":
            med(lambda o: o.busy(("sommerfeld.spectral_point",)) / o.run_s),
        "sommerfeld.field_batch.s": med(lambda o: o.busy(("sommerfeld.field_batch",))),
        "green.scalar.calls": first.calls(GREEN_SCALAR),
        "green.scalar.s": med(lambda o: o.busy(GREEN_SCALAR)),
        "green.scalar.share": med(lambda o: o.busy(GREEN_SCALAR) / o.run_s),
        "green.reference_field_plane.calls":
            first.calls(("green.reference_field_plane",)),
        "green.green_surface_batch.self_s":
            med(lambda o: o.self_s("green.green_surface_batch")),
        "bie.rhs_vector.s": med(lambda o: o.busy(RHS)),
        "bie.kernel_matrices.self_s": med(lambda o: o.self_s("bie.kernel_matrices")),
        "bie.surface_remainder.self_s":
            med(lambda o: o.self_s("bie.surface_remainder")),
        "nystrom.assemble.self_s": med(lambda o: o.self_s("nystrom.assemble")),
        "nystrom.assemble.rss_growth_mb": rss1 - rss0,
        "nystrom.matrix_mb": 16.0 * unknowns * unknowns / 2**20,
        "nystrom.solve_system.s": med(lambda o: o.busy(("nystrom.solve_system",))),
        "nystrom.unknowns": unknowns,
        "potentials.eval.s": med(lambda o: o.busy(("potentials._eval_scattered",))),
        "potentials.eval.ms_per_point.p50": statistics.median(eval_ms),
        "potentials.eval.ms_per_point.high": high,
        "cli.build_problem.s": med(lambda o: o.busy(("cli.build_problem",))),
        "cli.run.self_s": med(lambda o: o.self_s("cli.run")),
        "bie.rhs_vector.share":
            med(lambda o: o.busy(RHS) / o.run_s),
        "assembly.share": med(lambda o: o.assembly_s() / o.run_s),
        "potentials.eval.share":
            med(lambda o: o.busy(("potentials._eval_scattered",)) / o.run_s),
        "trace.run_s": run_s,
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = med(lambda o: o.layer_self(layer))
    return m, label
