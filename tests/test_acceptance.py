"""Acceptance criteria: the experiment reproductions and property suites.

Each test prints one [PASS]/[FAIL] line for its criterion (run with -s to see
them); tolerances are the contract values, asserted directly.
"""

import math
import time

import numpy as np

from oracle import (GOLDEN_PAIRS, grad_green_x, green_oracle,
                    kernel_dbvp_raw, kernel_ibvp_raw, split_dbvp, split_ibvp)

from layerscat.green import MediumPair, green
from layerscat.nystrom import log_weight
from layerscat.potentials import eval_scattered, four_wave_exact

MED = MediumPair(2.7, 3.5)
X_EX2 = (1.0, -0.2)
THETA2 = 4 * math.pi / 3


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_flat_solution():
    t0 = time.perf_counter()
    cases = [
        (2.7, 3.5, "dirichlet", 0.737691867188743 + 0.215552888696214j),
        (2.7, 3.5, "impedance", 0.643898669829883 - 0.508543039062194j),
        (3.5, 2.7, "dirichlet", 0.347332742418633 - 2.094506667524657j),
        (3.5, 2.7, "impedance", 0.301680817549291 - 1.296995588516340j),
    ]
    worst = 0.0
    for kp, km, kind, ref in cases:
        fw = four_wave_exact(MediumPair(kp, km), THETA2, kind, beta0=1.0)
        worst = max(worst, abs(fw.field(X_EX2) - ref))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-9 and elapsed < 1.0,
            f"four-wave exact vs frozen reference values, worst |diff| = {worst:.3e} "
            f"(tol 1e-9), runtime {elapsed:.3f} s (< 1 s)")


def test_criterion_2_example2_numerical(solved):
    cases = [
        ("example2-ibvp", {}, 2e-3, "IBVP k+=2.7/k-=3.5"),
        ("example2-dbvp", {"k_plus": 3.5, "k_minus": 2.7}, 5e-3, "DBVP k+=3.5/k-=2.7"),
        ("example2-dbvp", {}, 2e-1, "DBVP k+=2.7/k-=3.5 (anomalous)"),
    ]
    details = []
    ok = True
    for preset, over, tol, label in cases:
        t0 = time.perf_counter()
        cfg, problem, sol = solved(preset, 64, **over)
        us = eval_scattered(sol, problem, X_EX2)
        from layerscat.green import reference_field_plane
        total = us + reference_field_plane(problem.medium, THETA2, X_EX2)
        fw = four_wave_exact(problem.medium, THETA2, problem.kind, beta0=1.0)
        err = abs(total - fw.field(X_EX2))
        elapsed = time.perf_counter() - t0
        ok = ok and err <= tol and elapsed <= 600.0
        details.append(f"{label}: |err| = {err:.3e} (tol {tol:g}, {elapsed:.0f} s)")
    _report(2, ok, "Example 2 N=64 vs exact; " + "; ".join(details))


def test_criterion_3_example1(solved):
    x = (0.6, 0.56)
    y0 = (1.0, -1.3)
    ok = True
    details = []
    for kp, km in ((2.7, 3.5), (3.5, 2.7)):
        med = MediumPair(kp, km)
        exact = green(med, x, y0)
        oracle_val = green_oracle(kp, km, x, y0)
        cross = abs(exact - oracle_val)
        ok = ok and cross <= 1e-8
        _, pd, sd = solved("example1-dbvp", 16, k_plus=kp, k_minus=km)
        err_d = abs(eval_scattered(sd, pd, x) - exact) / abs(exact)
        _, pi_, si = solved("example1-ibvp", 16, k_plus=kp, k_minus=km)
        err_i = abs(eval_scattered(si, pi_, x) - exact) / abs(exact)
        ok = ok and err_d <= 1e-3 and err_i <= 5e-2
        details.append(f"k+={kp}: DBVP {err_d:.3e} (tol 1e-3), "
                       f"IBVP {err_i:.3e} (tol 5e-2), oracle x-check {cross:.1e}")
    _report(3, ok, "Example 1 N=16 relative errors; " + "; ".join(details))


def test_criterion_4_example3_self_convergence(solved):
    ref64 = {
        ("dirichlet", 3.0): -0.944852841566305 - 1.331091527595565j,
        ("impedance", 3.0): -0.237865914715627 - 1.015312589980869j,
        ("dirichlet", 4.0): -0.491357758704568 + 0.044076306711977j,
        ("impedance", 4.0): -0.434406993647630 - 0.761644567519472j,
    }
    x = (1.0, 0.3)
    theta = 17 * math.pi / 12
    ok = True
    details = []
    for kind in ("dbvp", "ibvp"):
        for kp, km in ((3.0, 4.0), (4.0, 3.0)):
            vals = {}
            for n in (8, 16, 32, 64):
                cfg, problem, sol = solved(f"example3-{kind}", n,
                                           k_plus=kp, k_minus=km)
                from layerscat.green import reference_field_plane
                vals[n] = (eval_scattered(sol, problem, x)
                           + reference_field_plane(problem.medium, theta, x))
            d = [abs(vals[8] - vals[16]), abs(vals[16] - vals[32]),
                 abs(vals[32] - vals[64])]
            dec = d[0] > d[1] > d[2]
            ref = ref64[("dirichlet" if kind == "dbvp" else "impedance", kp)]
            near = abs(vals[64] - ref)
            ok = ok and dec and near <= 5e-2
            details.append(f"{kind} k+={kp}: diffs "
                           f"{d[0]:.1e}>{d[1]:.1e}>{d[2]:.1e} ({dec}), "
                           f"|N64 - ref| = {near:.1e} (tol 5e-2)")
    _report(4, ok, "Example 3; " + "; ".join(details))


def test_criterion_5_green_properties():
    t0 = time.perf_counter()
    ok = True
    notes = []

    # reciprocity
    worst = 0.0
    for x, y in (((1.0, 0.7), (-0.5, -1.2)), ((0.3, 1.1), (-0.4, 0.6)),
                 ((0.2, -0.8), (-0.3, -1.1))):
        worst = max(worst, abs(green(MED, x, y) - green(MED, y, x)))
    ok = ok and worst <= 1e-9
    notes.append(f"reciprocity {worst:.1e} (tol 1e-9)")

    # transmission continuity at eps = 1e-5 via one-sided limits
    y = (0.0, -1.0)
    eps = 1e-5

    def limit(fn, sign):
        return 2.0 * fn(sign * eps) - fn(sign * 2 * eps)

    jmp = abs(limit(lambda e: green(MED, (0.3, e), y, tol=1e-12), +1)
              - limit(lambda e: green(MED, (0.3, e), y, tol=1e-12), -1))
    jd = abs(limit(lambda e: grad_green_x(MED, (0.3, e), y, tol=1e-12)[1], +1)
             - limit(lambda e: grad_green_x(MED, (0.3, e), y, tol=1e-12)[1], -1))
    ok = ok and jmp <= 1e-6 and jd <= 1e-6
    notes.append(f"transmission continuity {max(jmp, jd):.1e} (tol 1e-6)")

    # Helmholtz finite-difference residual in each layer
    h = 1e-3
    ysrc = (0.3, -1.1)
    worst_ratio = 0.0
    for x, k in (((0.5, 0.8), MED.k_plus), ((-0.4, -0.6), MED.k_minus)):
        g0 = green(MED, x, ysrc, tol=1e-13)
        lap = (green(MED, (x[0] + h, x[1]), ysrc, tol=1e-13)
               + green(MED, (x[0] - h, x[1]), ysrc, tol=1e-13)
               + green(MED, (x[0], x[1] + h), ysrc, tol=1e-13)
               + green(MED, (x[0], x[1] - h), ysrc, tol=1e-13) - 4 * g0) / h**2
        worst_ratio = max(worst_ratio, abs(lap + k * k * g0) / abs(g0))
    ok = ok and worst_ratio <= 1e-3
    notes.append(f"Helmholtz residual {worst_ratio:.1e} (tol 1e-3)")

    # decay slope
    rs = np.array([4.0, 8.0, 16.0, 32.0])
    vals = np.array([abs(green(MED, (0.0, -0.5), (r, -0.5), tol=1e-11))
                     for r in rs])
    slope = float(np.polyfit(np.log(rs), np.log(vals), 1)[0])
    ok = ok and -1.8 <= slope <= -1.2
    notes.append(f"decay slope {slope:.2f} (in [-1.8,-1.2])")

    # oracle equivalence on the 25-pair grid (live brute-force quadrature)
    worst_eq = 0.0
    for x, y in GOLDEN_PAIRS:
        worst_eq = max(worst_eq, abs(green(MED, x, y)
                                     - green_oracle(2.7, 3.5, x, y)))
    ok = ok and worst_eq <= 1e-8
    notes.append(f"oracle equivalence (25 pairs) {worst_eq:.1e} (tol 1e-8)")

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(5, ok, "; ".join(notes) + f"; runtime {elapsed:.0f} s (< 300 s)")


def test_criterion_6_quadrature_kernel_suite(solved):
    ok = True
    notes = []

    # trigonometric exactness of the periodic-log weights
    worst = 0.0
    for m in (0, 1, 2):
        for n in (4, 8):
            hh = math.pi / n
            t = hh * np.arange(2 * n)
            for s in (0.0, 0.61):
                val = np.sum(2 * math.pi * log_weight(n, s, t) * np.exp(1j * m * t))
                ref = 0.0 if m == 0 else -(2 * math.pi / m) * np.exp(1j * m * s)
                worst = max(worst, abs(val - ref))
    ok = ok and worst <= 1e-12
    notes.append(f"log-rule trig exactness {worst:.1e} (tol 1e-12)")

    # kernel split reconstruction
    cfg, pd, _ = solved("example1-dbvp", 8)
    cfg, pi_, _ = solved("example1-ibvp", 8)
    worst_rec = 0.0
    sd, si = split_dbvp(pd), split_ibvp(pi_)
    for s, t in ((0.0, 0.01), (0.3, -0.7), (2.0, -3.0)):
        log_term = math.log(4 * math.sin((s - t) / 2) ** 2)
        for split, raw, prob in ((sd, kernel_dbvp_raw, pd), (si, kernel_ibvp_raw, pi_)):
            rec = split.A(s, t) * log_term / (2 * math.pi) + split.B(s, t)
            worst_rec = max(worst_rec, abs(rec - raw(prob, s, t)))
    ok = ok and worst_rec <= 1e-10
    notes.append(f"split reconstruction {worst_rec:.1e} (tol 1e-10)")

    # B continuity across the diagonal
    s0 = 0.4
    cont_ok = True
    for split in (sd, si):
        b0 = split.B(s0, s0)
        d3 = abs(split.B(s0, s0 + 1e-3) - b0)
        d5 = abs(split.B(s0, s0 + 1e-5) - b0)
        d7 = abs(split.B(s0, s0 + 1e-7) - b0)
        cont_ok = cont_ok and d5 <= d3 / 5 and d7 <= 1e-3
    ok = ok and cont_ok
    notes.append(f"B-continuity (decreasing to the fp floor): {cont_ok}")

    # jump relations under Richardson extrapolation (shared with test_bie)
    from conftest import unit_normal
    from test_bie import _bump, _layer_potentials
    from layerscat.surface import builtin
    surf = builtin("gamma1")
    hs = (1e-2, 1e-3, 1e-4)
    worst_jump = 0.0
    for t0 in (0.0, 0.7, -1.6):
        y0 = (t0, float(surf(t0)))
        nu = unit_normal(surf, t0)
        psi0 = float(_bump(t0))

        def at(h, sign, want):
            x = (y0[0] + sign * h * nu[0], y0[1] + sign * h * nu[1])
            return _layer_potentials(surf, x, want)

        diffs = [at(h, +1, "W") - at(h, -1, "W") for h in hs]
        w_ex = (10 * diffs[2] - diffs[1]) / 9.0
        vdiffs = [at(h, +1, "V") - at(h, -1, "V") for h in hs]
        v_ex = (10 * vdiffs[2] - vdiffs[1]) / 9.0
        want = (float(nu[0]), float(nu[1]))
        gdiffs = [at(h, -1, want) - at(h, +1, want) for h in hs]
        g_ex = (10 * gdiffs[2] - gdiffs[1]) / 9.0
        worst_jump = max(worst_jump, abs(w_ex - psi0), abs(v_ex),
                         abs(g_ex - psi0))
    ok = ok and worst_jump <= 1e-3
    notes.append(f"jump relations {worst_jump:.1e} (tol 1e-3)")
    _report(6, ok, "; ".join(notes))


def test_criterion_7_convergence_order(solved):
    # Superalgebraic convergence shows in the truncation-cancelling successive
    # differences |u_N - u_2N|; the error against the analytic solution sits
    # at the fixed-truncation plateau from N = 8 on.
    vals = {}
    errs = {}
    fw = four_wave_exact(MED, THETA2, "impedance", beta0=1.0)
    exact = fw.field(X_EX2)
    for n in (8, 16, 32, 64):
        cfg, problem, sol = solved("example2-ibvp", n)
        from layerscat.green import reference_field_plane
        vals[n] = (eval_scattered(sol, problem, X_EX2)
                   + reference_field_plane(MED, THETA2, X_EX2))
        errs[n] = abs(vals[n] - exact)
    d1 = abs(vals[8] - vals[16])
    d2 = abs(vals[16] - vals[32])
    d3 = abs(vals[32] - vals[64])
    ok = d1 > d2 and d3 <= 1.1 * d2
    _report(7, ok,
            f"Example 2 IBVP successive diffs {d1:.2e} > {d2:.2e}, "
            f"{d3:.2e} <= 1.1 x {d2:.2e}; errors vs exact at plateau: "
            + ", ".join(f"N={n}: {errs[n]:.2e}" for n in (8, 16, 32, 64)))
