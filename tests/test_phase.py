"""Critical lines, regime classification, thresholds, sweeps."""
import ast
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import clocktree as ct
from clocktree.fixedpoint import q5_solution_counts


def test_critical_line_values():
    assert abs(ct.q4_critical_line(1.0 / 3.0) - 0.5) < 1e-15
    x = 2 * math.sqrt(3) / (4 + 2 * math.sqrt(3))
    assert abs(ct.q4_critical_line(x) - x) < 1e-12  # Potts diagonal crossing
    assert ct.q4_critical_line(1e-9) < 1e-8


def test_classify_point_examples():
    assert ct.classify_point(4, 0.5, 0.4).regime is ct.Regime.PT_NOT_RPT
    assert ct.classify_point(4, 0.5, 0.3).regime is ct.Regime.NO_PT
    p = ct.classify_point(4, 0.55, 0.3)
    assert p.regime is ct.Regime.PT_AND_RPT and p.n_nontrivial >= 1
    assert ct.classify_point(4, 0.2, 0.5).regime is ct.Regime.INFEASIBLE
    assert ct.classify_point(4, 0.40, 0.40).regime is ct.Regime.NO_PT
    with pytest.raises(ct.UnsupportedQ):
        ct.classify_point(6, 0.5, 0.3)


def test_robust_threshold_is_exact_on_the_binary_tree():
    # br(Cayley(2)) = 2 and 2 * lambda1 is exact, so the strict threshold
    # lambda1 * br > 1 holds for every float above 1/2 and not at 1/2
    above = (math.nextafter(0.5, 1.0), 0.5 + 1e-10, 0.5 + 5e-10)
    for q in (4, 5):
        assert ct.classify_point(q, 0.5, 0.45).regime is ct.Regime.PT_NOT_RPT
        for l1 in above:
            assert ct.classify_point(q, l1, 0.45).regime is ct.Regime.PT_AND_RPT, (q, l1)
        grid = ct.sweep(q, (0.5, 0.5 + 1e-10), (0.44, 0.46), resolution=2)
        assert [p.regime for p in grid] == [ct.Regime.PT_NOT_RPT] * 2 + [ct.Regime.PT_AND_RPT] * 2, q


def test_robust_threshold_does_not_overflow():
    # lambda1 * 2.0 overflowed for |lambda1| above about 9e307, with numpy's
    # RuntimeWarning (an error here); the labels are those it gave
    grid = ct.sweep(5, (-1e308, 1e307), (0.0, 0.6), resolution=3)
    assert [p.regime for p in grid] == [ct.Regime.INFEASIBLE] * 9


def test_classify_point_probe_confirms_rpt():
    res = ct.rpt_probe(ct.spec_from_lambdas(4, 0.55, 0.3), ct.Cayley(2), u=0.01, levels=400)
    assert res.verdict is ct.Verdict.BOUNDED_AWAY


def test_regime_flip_at_one_third():
    lo, hi = 0.25, 0.45
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ct.classify_point(4, 0.5, mid).regime is ct.Regime.NO_PT:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 1.0 / 3.0) < 1e-9


def test_potts_thresholds():
    theta, theta_rpt, l1 = ct.potts_thresholds(5, 2)
    assert theta == 6.0 and theta_rpt == 6.0 and l1 == 0.5
    theta, _, l1 = ct.potts_thresholds(4, 2)
    assert theta == 5.0 and l1 == 0.5
    theta, _, l1 = ct.potts_thresholds(5, 3)
    assert abs(theta - 3.5) < 1e-15 and abs(l1 - 1.0 / 3.0) < 1e-15


def test_potts_thresholds_lambda_is_inverse_degree():
    for q in range(2, 9):
        for d in range(2, 7):
            _, _, l1 = ct.potts_thresholds(q, d)
            assert abs(l1 - 1.0 / d) <= 1e-15


def test_transition_line_at_half():
    pts = ct.q5_transition_line([0.5], tol=1e-4)
    assert len(pts) == 1
    assert abs(pts[0][1] - 0.370748) < 1e-4


def test_transition_line_crosses_potts_diagonal():
    pts = ct.q5_transition_line([4.0 / 9.0], tol=1e-4)
    assert abs(pts[0][1] - 4.0 / 9.0) < 5e-4


def test_transition_line_monotone():
    grid = [0.44, 0.46, 0.48, 0.5]
    pts = ct.q5_transition_line(grid, tol=1e-4)
    values = [l2 for _, l2 in pts]
    assert all(not math.isnan(v) for v in values)
    assert all(values[i] >= values[i + 1] - 1e-3 for i in range(len(values) - 1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lambda2_bracket": (0.65, 0.5)},
        {"lambda2_bracket": (0.45, 0.45)},
        {"lambda2_bracket": (math.nan, 0.65)},
        {"lambda2_bracket": (0.33, math.inf)},
        {"lambda2_bracket": (0.33,)},
        {"lambda2_bracket": (0.33, 0.5, 0.65)},
        {"tol": math.nan},
    ],
    ids=["reversed", "empty", "nan-bottom", "infinite-top", "one-end", "three-ends", "nan-tol"],
)
def test_transition_line_rejects_bad_input(kwargs):
    # without the checks these returned a value with no error: the reversed
    # bracket 0.575, the empty one 0.45 and tol = nan 0.49
    with pytest.raises(ct.ClockTreeError):
        ct.q5_transition_line([0.45], **kwargs)


def test_transition_line_takes_lambda1_up_to_one_half_exactly():
    # it took lambda1 up to 1/2 + 1e-9 and answered the bracket's bottom,
    # 0.33003906250000004, for points that classify_point calls PT_AND_RPT
    for l1 in (0.5 + 1e-10, math.nextafter(0.5, 1.0)):
        with pytest.raises(ct.ClockTreeError, match="lambda1"):
            ct.q5_transition_line([l1])
    assert ct.q5_transition_line([0.5])[0][1] == pytest.approx(0.370748, abs=1e-4)


def test_transition_line_stops_below_the_float_spacing():
    # with tol under the float spacing at the line, 0.5*(lo + hi) rounds to
    # lo or hi once the two are adjacent floats; the bisection must stop
    # there.  It runs in a child process so that a hang fails the test.
    code = "import clocktree as ct; print([ct.q5_transition_line([0.45, 0.5], tol=t) for t in (0.0, 1e-17)])"
    env = {**os.environ, "PYTHONPATH": str(Path(ct.__file__).parents[1])}
    try:
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
    except subprocess.TimeoutExpired:
        pytest.fail("q5_transition_line with tol below the float spacing did not return within 60 s")
    for line in ast.literal_eval(run.stdout):
        for l1, l2c in line:
            # the line's own predicate flips between the neighbours of the reported float
            below, above = math.nextafter(l2c, 0.0), math.nextafter(l2c, 1.0)
            counts = q5_solution_counts(np.array([l1, l1]), np.array([below, above])).tolist()
            assert counts[0] == 0 and counts[1] >= 1, (l1, l2c, counts)


def test_jacobian_profile():
    grid = [0.45, 0.46, 0.47, 0.48, 0.49, 0.4999]
    profile = ct.jacobian_profile(grid)
    dets = [abs(d) for _, d in profile]
    assert all(dets[i] > dets[i + 1] for i in range(len(dets) - 1))
    assert dets[0] > 1e-3  # bounded away from zero in the interior
    assert dets[-1] < 1e-3  # degenerates at the threshold
    # endpoint robustness: just inside the interval the solver must not fail
    edge = ct.jacobian_profile([4.0 / 9.0 + 1e-4])
    assert math.isfinite(edge[0][1])
    # the float 4/9 lies below 4/9, where the lower branch does not exist yet
    with pytest.raises(ct.ClockTreeError, match=r"lower branch exists for lambda in \[4/9, 1/2\), got 0.4444444444444444"):
        ct.jacobian_profile([4.0 / 9.0])
    with pytest.raises(ct.ClockTreeError, match="lower branch exists"):
        ct.jacobian_profile([-math.inf])
    assert math.isfinite(ct.jacobian_profile([math.nextafter(4.0 / 9.0, 1.0)])[0][1])


def test_sweep_degenerate_grid():
    pts = ct.sweep(4, (0.5, 0.5), (0.4, 0.4), resolution=1)
    assert len(pts) == 1 and pts[0].regime is ct.Regime.PT_NOT_RPT


def test_sweep_row_major_and_marks_infeasible():
    pts = ct.sweep(4, (0.0, 0.6), (0.0, 0.6), resolution=5)
    assert len(pts) == 25
    l1s = np.linspace(0.0, 0.6, 5)
    l2s = np.linspace(0.0, 0.6, 5)
    for idx, p in enumerate(pts):
        i, j = divmod(idx, 5)
        assert p.lambda1 == pytest.approx(l1s[i]) and p.lambda2 == pytest.approx(l2s[j])
    assert any(p.regime is ct.Regime.INFEASIBLE for p in pts)


def test_sweep_rejects_non_finite_range():
    for bad in (math.nan, math.inf, -math.inf):
        for l1_range, l2_range in (((bad, 0.6), (0.0, 0.6)), ((0.0, bad), (0.0, 0.6)),
                                   ((0.0, 0.6), (bad, 0.6)), ((0.0, 0.6), (0.0, bad))):
            with pytest.raises(ct.ClockTreeError):
                ct.sweep(4, l1_range, l2_range, resolution=3)


def test_sweep_rejects_a_range_whose_span_overflows():
    # np.linspace(-1e308, 1e308, 3) overflowed in hi - lo and wrote nan and
    # inf as lambda2 values, with a RuntimeWarning and no error
    for l1_range, l2_range, name in (((0.0, 0.6), (-1e308, 1e308), "lambda2"),
                                     ((1.7e308, -1.7e308), (0.0, 0.6), "lambda1")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ct.ClockTreeError, match=name):
                ct.sweep(4, l1_range, l2_range, resolution=3)


@pytest.mark.parametrize("resolution", [0, -3, 2.5, "5", None])
def test_sweep_rejects_a_resolution_that_is_not_a_positive_integer(resolution):
    with pytest.raises(ct.ClockTreeError, match="resolution") as info:
        ct.sweep(4, (0.0, 0.6), (0.0, 0.6), resolution=resolution)
    assert not isinstance(info.value, ct.UnsupportedQ)  # the error is about the grid, not about q
    assert len(ct.sweep(4, (0.0, 0.6), (0.0, 0.6), resolution=np.int64(3))) == 9


def test_q4_sweep_boundary_small_grid():
    # at modest resolution the regime flip tracks the closed-form line cell by cell
    res = 50
    cell = 0.6 / (res - 1)
    pts = ct.sweep(4, (0.0, 0.6), (0.0, 0.6), resolution=res)
    _check_q4_boundary(pts, res, cell)


def _check_q4_boundary(pts, res, cell):
    l2_rows = {}
    for p in pts:
        l2_rows.setdefault(round(p.lambda2, 12), []).append(p)
    for l2, row in l2_rows.items():
        cells = sorted(p.lambda1 for p in row if p.regime is ct.Regime.PT_NOT_RPT)
        if l2 < 1.0 / 3.0 - cell or l2 > 0.5 + cell:
            assert not cells, (l2, cells)
            continue
        lo_edge = max(ct.q4_critical_line(l2), l2)
        if cells:
            assert abs(cells[0] - lo_edge) <= cell * 1.0001, (l2, cells[0], lo_edge)
            assert cells[-1] <= 0.5 + cell
        else:
            assert 0.5 - lo_edge <= 2 * cell, (l2, lo_edge)


def test_q5_sweep_boundary_matches_transition_line():
    # coarse q=5 grid against the numerically computed line, one-cell agreement
    res = 16
    l1_lo, l1_hi = 0.40, 0.50
    l2_lo, l2_hi = 0.33, 0.52
    cell1 = (l1_hi - l1_lo) / (res - 1)
    cell2 = (l2_hi - l2_lo) / (res - 1)
    pts = ct.sweep(5, (l1_lo, l1_hi), (l2_lo, l2_hi), resolution=res)
    line = dict(ct.q5_transition_line(sorted({round(p.lambda1, 12) for p in pts}), tol=1e-4))
    for p in pts:
        if p.regime is ct.Regime.INFEASIBLE:
            continue
        l2c = line[round(p.lambda1, 12)]
        if math.isnan(l2c):
            continue
        if p.regime is ct.Regime.PT_NOT_RPT:
            assert p.lambda2 >= l2c - cell2 * 1.0001, (p.lambda1, p.lambda2, l2c)
        elif p.regime is ct.Regime.NO_PT and p.lambda1 <= 0.5:
            assert p.lambda2 <= l2c + cell2 * 1.0001, (p.lambda1, p.lambda2, l2c)


def test_solver_probe_agreement_q4():
    # where the solver sees a transition the full-coupling probe keeps order,
    # and where it sees none below threshold the probe relaxes to uniform;
    # levels sized for the geometric rate 2*lambda1 away from the threshold
    for l1 in (0.38, 0.42, 0.46, 0.48, 0.49):
        for l2 in (0.2, 0.3, 0.36, 0.42, 0.44, 0.46):
            p = ct.classify_point(4, l1, l2)
            if p.regime is ct.Regime.INFEASIBLE:
                continue
            if abs(l1 * 2 - 1) < 2e-2:
                continue
            spec = ct.spec_from_lambdas(4, l1, l2)
            if min(spec.row) <= 0:
                continue
            probe = ct.rpt_probe(spec, ct.Cayley(2), u=1.0, levels=2500, tol=1e-12)
            if p.n_nontrivial >= 1:
                assert probe.verdict is ct.Verdict.BOUNDED_AWAY, (l1, l2)
            elif l1 * 2 < 1:
                assert probe.verdict is ct.Verdict.CONVERGES_TO_UNIFORM, (l1, l2)
