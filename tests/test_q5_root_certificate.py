"""The certified q=5 root path against the eigensolve of every row it replaced.

`ref_q5_counts` is `q5_solution_counts` as it was before the Bernstein
certificate: all six roots of the sextic from the companion eigensolve on
every row, then the same candidate tail and verifier.  `ref_transition_line`
is `q5_transition_line` without its fold check: plain bisection of the whole
bracket, one batched call per step.  Both must be reproduced exactly: the
counts are printed in the sweep CSV, the line to 17 digits.
"""
import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree import fixedpoint
from clocktree.fixedpoint import (
    _ACCEPTED,
    V5,
    _bernstein_table,
    _q5_box_roots,
    _q5_candidates,
    _q5_sextic,
    _solution_counts,
    _verify_candidates,
    q5_solution_counts,
)
from clocktree.spectral import feasible_lambdas

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

WINDOW = ((0.40, 0.52), (0.30, 0.56))


def ref_q5_counts(lambda1, lambda2):
    return _solution_counts(5, _q5_candidates, np.asarray(lambda1, dtype=float), np.asarray(lambda2, dtype=float))


def ref_transition_line(lambda1_grid, tol=1e-4, lambda2_bracket=(0.33, 0.65)):
    grid = list(lambda1_grid)
    l1s = np.array(grid, dtype=float)
    lo, hi = (np.full(len(grid), float(end)) for end in lambda2_bracket)
    found = q5_solution_counts(l1s, hi) > 0
    active = found & (hi - lo > tol)
    while active.any():
        mid = 0.5 * (lo + hi)
        exists = q5_solution_counts(l1s[active], mid[active]) > 0
        hi[active] = np.where(exists, mid[active], hi[active])
        lo[active] = np.where(exists, lo[active], mid[active])
        active &= hi - lo > tol
    return list(zip(grid, np.where(found, 0.5 * (lo + hi), math.nan).tolist()))


def _grid(l1_range, l2_range, res):
    l1s, l2s = np.linspace(*l1_range, res), np.linspace(*l2_range, res)
    l1, l2 = np.repeat(l1s, res), np.tile(l2s, res)
    keep = feasible_lambdas(5, l1, l2)
    return l1[keep], l2[keep]


def _assert_same_counts(l1, l2):
    l1, l2 = np.asarray(l1, dtype=float), np.asarray(l2, dtype=float)
    got, want = q5_solution_counts(l1, l2), ref_q5_counts(l1, l2)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(l1[i], l2[i], got[i], want[i]) for i in bad[:5]]


# ---------------------------------------------------------------------------
# the box that holds every fixed point
# ---------------------------------------------------------------------------

POINT = st.floats(-1e3, 1e3, allow_nan=False)
HUGE = st.floats(1e100, 1e150).flatmap(lambda m: st.sampled_from([m, -m]))


@SETTINGS
@given(x=st.one_of(POINT, HUGE), y=st.one_of(POINT, HUGE))
def test_first_mode_sum_of_squares(x, y):
    # x = lambda1 alpha1, y = lambda2 alpha2: 2v D -+ N1 are sums of squares, so |N1/D| <= 2v
    v = V5
    d = 0.2 + x * x + y * y
    n1 = 0.4 * x + 2.0 * v * x * y + v * y * y
    size = 1.0 + x * x + y * y
    assert abs((2.0 * v * d - n1) - v * ((x - y) ** 2 + (x - 2.0 * v) ** 2)) <= 1e-14 * size
    assert abs((2.0 * v * d + n1) - v * ((x + y) ** 2 + (x + 2.0 * v) ** 2 + 2.0 * y * y)) <= 1e-14 * size
    a1, _ = ct.mode_map_q5(1.0, 1.0, (x, y))
    assert abs(a1) <= 2.0 * v * (1.0 + 1e-15)


def test_accepted_candidates_lie_in_the_box():
    l1, l2 = _grid(*WINDOW, 200)
    a1, a2, valid = _q5_candidates(l1, l2)
    status, _ = _verify_candidates(5, l1[:, None], l2[:, None], a1, a2, valid)
    accepted = np.abs(a1[status == _ACCEPTED])
    assert accepted.size > 10000
    assert accepted.max() <= 2.0 * V5 + fixedpoint.RESIDUAL_TOL < fixedpoint._BOX


def test_bernstein_table_is_exact_to_rounding():
    edges, table, margin = _bernstein_table()
    m = fixedpoint._BOX_PIECES
    assert edges[0] == -fixedpoint._BOX and edges[-1] == fixedpoint._BOX and 0.0 in edges
    for j in range(m):
        t, h = Fraction(edges[j]), Fraction(edges[j + 1]) - Fraction(edges[j])
        for i in range(7):
            for r in range(7):
                k = 6 - r
                # x^k = (t + h u)^k in the Bernstein basis of degree 6
                exact = sum(
                    math.comb(k, l) * t ** (k - l) * h**l * Fraction(math.comb(i, l), math.comb(6, l))
                    for l in range(min(i, k) + 1)
                )
                assert abs(Fraction(table[r, 7 * j + i]) - exact) <= abs(exact) * Fraction(2.0**-52)
    np.testing.assert_array_equal(margin, fixedpoint._MARGIN_ULPS * np.finfo(float).eps * np.abs(table))


# ---------------------------------------------------------------------------
# counts: bit-identical to the eigensolve of every row
# ---------------------------------------------------------------------------


def test_window_counts_and_path_shares():
    # the res-40 window: most rows are decided by the certificate
    l1, l2 = _grid(*WINDOW, 40)
    _assert_same_counts(l1, l2)
    roots, undecided = _q5_box_roots(_q5_sextic(l1, l2))
    no_root = ~undecided & np.isnan(roots[:, 0].real)
    certified = ~undecided & ~no_root
    assert no_root.mean() > 0.5 and certified.mean() > 0.25
    # eigensolved rows per feasible point, 1.0 before the certificate
    assert 0.0 < undecided.mean() < 0.1


def test_default_and_window_grids_at_res_200():
    _assert_same_counts(*_grid(*WINDOW, 200))
    _assert_same_counts(*_grid((0.0, 0.6), (0.0, 0.6), 200))


def _feasible(l1, l2):
    return bool(feasible_lambdas(5, np.array([l1]), np.array([l2]))[0])


@SETTINGS
@given(st.lists(st.tuples(st.floats(-0.4, 0.8), st.floats(-0.8, 0.8)), min_size=1, max_size=40))
def test_counts_at_feasible_points(points):
    points = [p for p in points if _feasible(*p)]
    if points:
        _assert_same_counts(*zip(*points))


@SETTINGS
@given(l1=st.floats(0.30, 0.50), data=st.data())
def test_counts_across_the_transition_line(l1, data):
    # the line to 1e-13, then a few ulps and 1e-9 to either side of it
    (_, l2c), = ct.q5_transition_line([l1], tol=1e-13)
    near = [l2c]
    for _ in range(4):
        near = [math.nextafter(near[0], 0.0)] + near + [math.nextafter(near[-1], 1.0)]
    l2 = near + [l2c - 1e-9, l2c + 1e-9] + data.draw(st.lists(st.floats(l2c - 1e-6, l2c + 1e-6), max_size=8))
    _assert_same_counts([l1] * len(l2), l2)
    below, above = ref_q5_counts([l1, l1], [l2c - 1e-9, l2c + 1e-9]).tolist()
    assert below == 0 and above >= 1


@SETTINGS
@given(st.lists(st.floats(-1e-12, 1e-12), min_size=1, max_size=20))
def test_counts_at_the_potts_fold(offsets):
    # lambda1 = lambda2 = 4/9, where the two diagonal fixed points merge
    lam = [4.0 / 9.0 + t for t in offsets]
    _assert_same_counts(lam, lam)


@SETTINGS
@given(l1=st.sampled_from([0.0, 0.5]), l2=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
def test_counts_at_lambda1_zero_and_half(l1, l2):
    _assert_same_counts([l1] * len(l2), l2)


@SETTINGS
@given(st.lists(st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.0)), min_size=1, max_size=20))
def test_counts_at_nonpositive_lambda2(points):
    _assert_same_counts(*zip(*points))


SUBNORMAL = st.floats(5e-324, 2.2250738585072014e-308).flatmap(lambda t: st.sampled_from([t, -t]))


@SETTINGS
@given(st.lists(st.tuples(st.floats(-0.8, 0.8), SUBNORMAL), min_size=1, max_size=20))
def test_counts_at_subnormal_lambda2(points):
    _assert_same_counts(*zip(*points))


# ---------------------------------------------------------------------------
# the transition line: bit-identical to one call per bisection step
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    grid=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=12),
    tol=st.sampled_from([0.1, 1e-3, 1e-4, 1e-7, 1e-12]),
)
def test_transition_line_equals_stepwise_bisection(grid, tol):
    got, want = ct.q5_transition_line(grid, tol=tol), ref_transition_line(grid, tol=tol)
    np.testing.assert_array_equal(np.array(got), np.array(want))
