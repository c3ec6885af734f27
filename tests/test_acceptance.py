"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""
import math
import time

import numpy as np
import pytest

import clocktree as ct
from clocktree.basis import a_norm, basis_norms, raw_coefficients
from clocktree.cli import main

from conftest import (
    circulant_matrix,
    random_feasible_lambdas,
    random_symmetric_probability,
    recursion_oracle,
)


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_q4_threshold():
    # bisection on existence of a non-trivial solution at lambda1 = 1/2
    start = time.perf_counter()
    lo, hi = 0.25, 0.45
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ct.q4_solutions(0.5, mid).n_nontrivial > 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - start
    # the 80 solves pinned at 3.5x or more of their median (16-27 ms on a
    # 2-core Xeon, 19 ms median over 12 fresh runs; the bound was 1.0 s)
    ok = abs(root - 1.0 / 3.0) < 1e-9 and elapsed < 0.1
    _report("criterion-1 q4-threshold", ok, f"lambda2c={root:.12f} t={elapsed * 1e3:.1f}ms")


def test_criterion_2_discriminant_roots():
    start = time.perf_counter()

    def delta(l2):
        return ct.quartic_invariants(ct.q5_quartic_coeffs(l2))[0]

    def bisect(lo, hi):
        flo = delta(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if delta(mid) * flo > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    first = bisect(0.36, 0.38)
    second = bisect(0.48, 0.4999)
    elapsed = time.perf_counter() - start
    # the two bisections pinned at 3.5x or more of their median (1.2-2.3 ms
    # on a 2-core Xeon, 1.3 ms median over 12 fresh runs; the bound was 1.0 s)
    ok = abs(first - 0.370748) < 5e-7 and abs(second - 0.494119) < 5e-7 and elapsed < 0.01
    _report(
        "criterion-2 discriminant-roots",
        ok,
        f"first={first:.7f} second={second:.7f} t={elapsed * 1e3:.2f}ms",
    )


def test_criterion_3_root_structure_counts():
    start = time.perf_counter()
    expected = {0.30: 0, 0.45: 2, 0.499: 4}
    details = []
    ok = True
    for l2, count in expected.items():
        analysis = ct.classify_quartic(ct.q5_quartic_coeffs(l2))
        got = sum(m for _, m in analysis.real_roots)
        structure_counts = {
            ct.RootStructure.NO_REAL: 0,
            ct.RootStructure.TWO_DISTINCT: 2,
            ct.RootStructure.FOUR_DISTINCT: 4,
        }
        ok = ok and got == count and structure_counts[analysis.structure] == count
        details.append(f"{l2}->{got}")
    elapsed = time.perf_counter() - start
    # the three classifications pinned at 3.5x or more of their median
    # (0.67-1.06 ms on a 2-core Xeon, 0.76 ms median over 12 fresh runs; the
    # bound was 1.0 s)
    ok = ok and elapsed < 0.005
    _report("criterion-3 root-counts", ok, f"{' '.join(details)} t={elapsed * 1e3:.2f}ms")


def test_criterion_4_potts_point_cardinality():
    # "exactly four different solutions" at lambda2 = 0.5: the quartic root at
    # alpha1 = 0 coincides with the trivial solution, so the verified set is
    # the trivial one plus three non-trivial boundary-law types
    s = ct.q5_solutions_at_critical(0.5)
    ok = (
        len(s.solutions) == 4
        and s.n_nontrivial == 3
        and s.solutions[0] == (0.0, 0.0)
        and all(r < 1e-9 for r in s.residuals)
    )
    _report("criterion-4 potts-point-cardinality", ok, f"solutions={s.solutions}")


def test_criterion_5_branch_degenerations():
    e04 = ct.q5_quartic_coeffs(0.4).e
    e05 = ct.q5_quartic_coeffs(0.5).e
    ok = abs(e04) < 1e-14 and abs(e05) < 1e-14
    # the alpha1 = 0 quartic root coincides with the trivial solution
    for l2 in (0.4, 0.5):
        roots = [r for r, _ in ct.classify_quartic(ct.q5_quartic_coeffs(l2)).real_roots]
        nearest = min(abs(r) for r in roots)
        ok = ok and nearest < 1e-7
        sols = ct.q5_solutions_at_critical(l2)
        ok = ok and all(max(abs(a[0]), abs(a[1])) > 1e-8 for a in sols.nontrivial)
    _report("criterion-5 branch-degenerations", ok, f"e(0.4)={e04:.2e} e(0.5)={e05:.2e}")


def test_criterion_6_q4_critical_line_sweep():
    start = time.perf_counter()
    res = 200
    cell = 0.6 / (res - 1)
    pts = ct.sweep(4, (0.0, 0.6), (0.0, 0.6), resolution=res)
    elapsed = time.perf_counter() - start
    rows = {}
    for p in pts:
        rows.setdefault(round(p.lambda2, 12), []).append(p)
    worst = 0.0
    ok = True
    for l2, row in rows.items():
        cells = sorted(p.lambda1 for p in row if p.regime is ct.Regime.PT_NOT_RPT)
        if l2 < 1.0 / 3.0 - cell or l2 > 0.5 + cell:
            ok = ok and not cells
            continue
        lo_edge = max(ct.q4_critical_line(l2), l2)
        if cells:
            dev = abs(cells[0] - lo_edge)
            worst = max(worst, dev)
            ok = ok and dev <= cell * 1.0001 and cells[-1] <= 0.5 + cell
        else:
            ok = ok and (0.5 - lo_edge) <= 2 * cell
    # pinned at 3.5x or more of its median (4-10 ms on a 2-core Xeon, 6 ms
    # median; about 40 ms when every grid point was evaluated)
    ok = ok and elapsed < 0.05
    _report(
        "criterion-6 q4-sweep-boundary",
        ok,
        f"res={res} worst-deviation={worst:.5f} cell={cell:.5f} t={elapsed:.1f}s",
    )


def test_q5_sweep_time_bound():
    # the q=5 grid at criterion 6's resolution, pinned at 3.5x or more of its
    # median (12-21 ms on a 2-core Xeon, 18 ms median; 0.08-0.14 s when every
    # grid point was evaluated, 0.38-0.40 s when every row was eigensolved)
    start = time.perf_counter()
    pts = ct.sweep(5, (0.0, 0.6), (0.0, 0.6), resolution=200)
    elapsed = time.perf_counter() - start
    ok = len(pts) == 200 * 200 and elapsed < 0.1
    _report("q5-sweep-time", ok, f"res=200 t={elapsed:.2f}s")


def test_q5_line_time_bound():
    # the transition line on the SVG overlay's grid, as `cli._critical_polyline`
    # runs it, pinned at 3.5x or more of its median (2.7-4.2 ms on a 2-core
    # Xeon, 3.6 ms median over 12 fresh runs of the test; 3.3-5.8 ms, 5.0 ms
    # median, when each fold candidate was checked on both of its sides)
    grid = [0.4 + 0.01 * i for i in range(11)]
    start = time.perf_counter()
    line = ct.q5_transition_line(grid)
    elapsed = time.perf_counter() - start
    ok = [l1 for l1, _ in line] == grid and not any(math.isnan(l2c) for _, l2c in line) and elapsed < 0.015
    _report("q5-line-time", ok, f"points=11 t={elapsed * 1e3:.2f}ms")


def test_q4_sweep_csv_time_bound(tmp_path):
    # criterion 6's grid through the CLI, its CSV written to a file, pinned
    # at 3.5x or more of its median (4.9-13.9 ms on a 2-core Xeon, 5.8 ms
    # median over 12 fresh runs of the file; 25 ms median when the CSV was
    # written one f-string per cell)
    out = tmp_path / "q4.csv"
    start = time.perf_counter()
    code = main(["sweep", "--q", "4", "--res", "200", "--out", str(out)])
    elapsed = time.perf_counter() - start
    ok = code == 0 and out.read_bytes().count(b"\n") == 1 + 200 * 200 and elapsed < 0.021
    _report("q4-sweep-csv-time", ok, f"res=200 t={elapsed * 1e3:.1f}ms")


def test_classify_scan_time_bound(tmp_path):
    # the 2,001 rows of lambda2 in 0.3:0.5:1e-4 classified and written to a
    # file, pinned at 3.5x or more of its median (165-294 ms on a 2-core
    # Xeon, 231 ms median over 12 fresh runs of the test)
    out = tmp_path / "scan.csv"
    start = time.perf_counter()
    code = main(["classify", "--scan", "0.3:0.5:1e-4", "--out", str(out)])
    elapsed = time.perf_counter() - start
    ok = code == 0 and out.read_bytes().count(b"\n") == 1 + 2001 and elapsed < 0.85
    _report("classify-scan-time", ok, f"rows=2001 t={elapsed * 1e3:.1f}ms")


def test_criterion_7_potts_identities():
    ok = True
    for q in range(2, 9):
        for d in range(2, 7):
            theta_cr, theta_rpt, l1 = ct.potts_thresholds(q, d)
            ok = ok and theta_cr == theta_rpt and abs(l1 - 1.0 / d) <= 1e-15
    theta, _, l1 = ct.potts_thresholds(5, 2)
    ok = ok and theta == 6.0 and l1 == 0.5
    _report("criterion-7 potts-identities", ok, "lambda1 = 1/d over q in 2..8, d in 2..6")


def test_criterion_8_jacobian_degeneration():
    grid = [0.46, 0.47, 0.48, 0.49, 0.4999]
    profile = ct.jacobian_profile(grid)
    dets = [abs(d) for _, d in profile]
    monotone = all(dets[i] > dets[i + 1] for i in range(len(dets) - 1))
    ok = monotone and dets[-1] < 1e-3
    _report(
        "criterion-8 jacobian-degeneration",
        ok,
        "dets=" + " ".join(f"{d:.2e}" for d in dets),
    )


def test_criterion_9_probe_threshold_consistency():
    start = time.perf_counter()
    above = ct.rpt_probe(
        ct.spec_from_lambdas(4, 0.55, 0.3), ct.Cayley(2), u=0.01, levels=400, tol=1e-12
    )
    below = ct.rpt_probe(
        ct.spec_from_lambdas(4, 0.45, 0.3), ct.Cayley(2), u=0.01, levels=400, tol=1e-12
    )
    elapsed = time.perf_counter() - start
    # the two probes pinned at 3.5x or more of their median in the machine's
    # slower spells (on a 2-core Xeon, whose speed comes in two spells, the
    # medians of three sets of 12 fresh runs read 1.74, 2.48 and 2.94 ms,
    # single runs 1.4-3.6 ms; 2.0-6.0 ms, medians 2.6 and 3.4 ms, when
    # each level summed its mass with np.add.reduce; 4-12 ms, 6 ms median,
    # when each level allocated its gemv result)
    ok = (
        above.verdict is ct.Verdict.BOUNDED_AWAY
        and below.verdict is ct.Verdict.CONVERGES_TO_UNIFORM
        and elapsed < 0.010
    )
    _report(
        "criterion-9 probe-threshold",
        ok,
        f"0.55->{above.verdict.value} 0.45->{below.verdict.value} t={elapsed * 1e3:.2f}ms",
    )


def test_criterion_10_property_suites(rng):
    ok = True
    notes = []

    # recursion <-> mode-map equivalence at 1e-13, 1000 random points
    worst = 0.0
    for _ in range(1000):
        q = 4 if rng.random() < 0.5 else 5
        l1, l2 = random_feasible_lambdas(rng, q)
        spec = ct.spec_from_lambdas(q, l1, l2)
        child = ct.SymmetricDist.from_probabilities(random_symmetric_probability(rng, q))
        expected = ct.recursion_step(spec, [child, child]).modes
        got = ct.mode_map(q, l1, l2, child.modes)
        worst = max(worst, abs(got[0] - expected[0]), abs(got[1] - expected[1]))
    ok = ok and worst < 1e-13
    notes.append(f"mode-map {worst:.1e}")

    # eigenvalue/row round trip at 1e-12
    from conftest import random_symmetric_row

    worst = 0.0
    for _ in range(300):
        q = int(rng.integers(3, 11))
        row = random_symmetric_row(rng, q)
        lam = ct.eigenvalues_from_row(q, row)
        worst = max(worst, float(np.abs(ct.row_from_eigenvalues(q, lam) - row).max()))
    ok = ok and worst < 1e-12
    notes.append(f"roundtrip {worst:.1e}")

    # A-norm contraction by factor lambda1
    contraction_ok = True
    for q in (4, 5):
        spec = ct.spec_from_lambdas(q, 0.47, 0.31)
        M = circulant_matrix(np.asarray(spec.row))
        u = np.full(q, 1.0 / q)
        for _ in range(200):
            p = random_symmetric_probability(rng, q)
            contraction_ok = contraction_ok and (
                a_norm(q, M @ p - u) <= spec.lambda1 * a_norm(q, p - u) + 1e-12
            )
    ok = ok and contraction_ok
    notes.append(f"contraction {contraction_ok}")

    # Fourier positivity and mode domination along 200 probe iterates
    pos_ok = True
    for q, l1, l2, u in ((4, 0.55, 0.3, 0.01), (5, 0.49, 0.40, 1.0)):
        spec = ct.spec_from_lambdas(q, l1, l2)
        M = spec.matrix()
        z = basis_norms(q)
        p = np.power(np.asarray(ct.weakened_row(spec, u).row), 2)
        p /= p.sum()
        for _ in range(200):
            coeffs = raw_coefficients(q, p)
            pos_ok = pos_ok and bool((coeffs > 0).all())
            weighted = z * coeffs
            pos_ok = pos_ok and all(
                weighted[1] >= abs(weighted[j]) - 1e-13 for j in range(2, len(weighted))
            )
            p = np.power(M @ p, 2)
            p /= p.sum()
    ok = ok and pos_ok
    notes.append(f"positivity+domination {pos_ok}")

    # analytic vs finite-difference Jacobian at 1e-6
    worst = 0.0
    for _ in range(50):
        l1, l2 = rng.uniform(0.2, 0.55, 2)
        a = tuple(rng.uniform(-0.3, 0.5, 2))
        jac, _ = ct.q5_jacobian(l1, l2, a)
        h = 1e-6
        fd = np.empty((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[:, i] = (
                ct.displacement(l1, l2, (a[0] + e[0], a[1] + e[1]))
                - ct.displacement(l1, l2, (a[0] - e[0], a[1] - e[1]))
            ) / (2 * h)
        worst = max(worst, float(np.abs(jac - fd).max()))
    ok = ok and worst < 1e-6
    notes.append(f"jacobian-fd {worst:.1e}")

    # linearization residual: log-log slope 2 +- 0.1
    spec = ct.spec_from_lambdas(4, 0.5, 0.3)
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    res = [ct.linearization_residual(spec, [ct.SymmetricDist(4, (float(e), 0.0))] * 2) for e in eps]
    slope = float(np.polyfit(np.log(eps), np.log(res), 1)[0])
    ok = ok and abs(slope - 2.0) < 0.1
    notes.append(f"slope {slope:.3f}")

    _report("criterion-10 property-suites", ok, "; ".join(notes))
