"""The sweep by column breakpoints against evaluation at every grid point.

`phase._classify_grid` cuts each lambda1 column into runs at its
breakpoints and evaluates only the first point of each run: every point near
a breakpoint is a run of its own, a run starts at the upper point of each
grid cell that may hold a q = 5 fold of F (`q5_fold_cells`), and the other
points take their run's (feasible, n_nontrivial).  The reference here
evaluates every point with the same library calls: `feasible_lambdas` on the
whole grid, then the counts on its feasible points.  The breakpoint
polynomials of q = 4 are derived from the formulas of `_q4_candidates` with
sympy, as `test_q5_folds.py` derives F, and the cells of q = 5 are checked
against F's roots from mpmath.
"""
import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree import phase
from clocktree.fixedpoint import _FOLD_F, q4_fold_roots, q4_solution_counts, q5_fold_cells, q5_solution_counts
from clocktree.spectral import _raw_rows, feasibility_breakpoints, feasible_lambdas

from conftest import point_column

COUNTS = {4: q4_solution_counts, 5: q5_solution_counts}


def per_point(q, l1_range, l2_range, res):
    """(feasible, n_nontrivial) of every point of the sweep's grid, each evaluated."""
    l1s = np.linspace(l1_range[0], l1_range[1], res)
    l2s = np.linspace(l2_range[0], l2_range[1], res)
    lambda1, lambda2 = np.repeat(l1s, res), np.tile(l2s, res)
    with np.errstate(all="ignore"):
        feasible = feasible_lambdas(q, lambda1, lambda2)
    n = np.zeros(len(lambda1), dtype=int)
    n[feasible] = COUNTS[q](lambda1[feasible], lambda2[feasible])
    return feasible, n


def assert_sweep_is_per_point(q, l1_range, l2_range, res):
    grid = ct.sweep(q, l1_range, l2_range, resolution=res)
    feasible, n = per_point(q, l1_range, l2_range, res)
    got_feasible, got_n = (point_column(grid, runs) for runs in (grid.run_regime != 0, grid.run_n_nontrivial))
    wrong = np.flatnonzero((got_feasible != feasible) | (got_n != n))
    assert wrong.tolist() == [], (q, l1_range, l2_range, res)


def _random_ranges(seed, count, lo, hi):
    rng = random.Random(seed)
    for _ in range(count):
        yield (tuple(sorted(rng.uniform(lo, hi) for _ in range(2))),
               tuple(sorted(rng.uniform(lo, hi) for _ in range(2))),
               rng.randint(3, 89))


def _near_half_and_zero():
    # columns within 1e-15..1e-5 of lambda1 = 0 and 1/2, across the folds of both q
    for centre in (0.0, 0.5):
        for offset in (1e-15, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5):
            for l2_range, res in (((-1.0, 1.0), 41), ((0.3, 0.6), 37), ((0.395, 0.405), 60)):
                yield (centre - offset, centre + offset), l2_range, res
                yield (centre + offset, centre + 5 * offset), l2_range, res
                # one column on a fine axis: near F's triple root at (1/2, 2/5)
                # three of its roots lie within about 2e-4 of each other
                yield (centre - offset, centre - offset), l2_range, res


GRIDS = [
    # the benchmark's q4_grid and q5_window at seeds 1 and 5
    ((0.0005238319977577846, 0.6005238319977577), (0.000255688785566925, 0.6002556887855669), 200),
    ((0.0008100348159787336, 0.6008100348159787), (0.0006872178065309923, 0.600687217806531), 200),
    ((0.40092424745532745, 0.5209242474553274), (0.3008178551902558, 0.5608178551902558), 40),
    ((0.4008228167082186, 0.5208228167082186), (0.30087650811458505, 0.5608765081145851), 40),
    ((0.0, 0.6), (0.0, 0.6), 200),
    ((0.0, 0.6), (0.0, 0.6), 400),
    ((-1.5, 1.5), (-2.0, 2.0), 200),
    ((-0.0, 0.6), (-0.0, 0.6), 31),
    ((0.6, -0.0), (0.0, -0.6), 31),
    *_random_ranges(11, 40, -1.2, 1.2),
    *_near_half_and_zero(),
]


@pytest.mark.parametrize("q", [4, 5])
def test_sweep_equals_per_point_evaluation_on_fixed_grids(q):
    for l1_range, l2_range, res in GRIDS:
        assert_sweep_is_per_point(q, l1_range, l2_range, res)


_TINY = st.floats(-15.0, -6.0).map(lambda e: 10.0**e)
_END = st.one_of(
    st.floats(-1.2, 1.2),
    st.sampled_from([0.0, -0.0, 0.5, 1.0 / 3.0, math.sqrt(2.0) - 1.0, 0.4, 0.3707480445408525, 1.0, -1.0]),
    st.builds(lambda c, t, s: c + s * t, st.sampled_from([0.0, 0.5]), _TINY, st.sampled_from([1.0, -1.0])),
    st.floats(-1e300, 1e300),
)
_CENTRED = st.builds(
    lambda c, t1, t2, s: (c + s * t1, c + t2),
    st.sampled_from([0.0, 0.5]), _TINY, _TINY, st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    l1_range=st.one_of(st.tuples(_END, _END), _CENTRED),
    l2_range=st.tuples(_END, _END),
    res=st.integers(1, 60),
)
def test_sweep_equals_per_point_evaluation_on_drawn_ranges(l1_range, l2_range, res):
    for q in (4, 5):
        assert_sweep_is_per_point(q, l1_range, l2_range, res)


@pytest.mark.parametrize("q", [4, 5])
def test_a_sweep_evaluates_few_points(monkeypatch, q):
    # one row per grid point before: feasibility on every point, and the
    # counts on every feasible one (18,944 rows for q = 4, 20,100 for q = 5)
    rows = {"feasible": [], "counts": []}

    def feasible(q_, lambda1, lambda2):
        rows["feasible"].append(len(lambda1))
        return feasible_lambdas(q_, lambda1, lambda2)

    def counts(lambda1, lambda2):
        rows["counts"].append(len(lambda1))
        return COUNTS[q](lambda1, lambda2)

    monkeypatch.setattr(phase, "feasible_lambdas", feasible)
    monkeypatch.setattr(phase, f"q{q}_solution_counts", counts)
    grid = ct.sweep(q, (0.0, 0.6), (0.0, 0.6), resolution=200)
    assert len(rows["feasible"]) == 1 and len(rows["counts"]) == 1
    assert rows["feasible"][0] <= 0.05 * len(grid)
    assert rows["counts"][0] <= rows["feasible"][0]


def test_classify_point_computes_no_breakpoints(monkeypatch):
    def no_breakpoints(*args):
        raise AssertionError("a single point needs no breakpoints")

    monkeypatch.setattr(phase, "_breakpoints", no_breakpoints)
    for q, l1, l2 in ((5, 0.48, 0.42), (4, 0.5, 0.4), (4, 0.2, 0.5)):
        p = ct.classify_point(q, l1, l2)
        feasible, n = per_point(q, (l1, l1), (l2, l2), 1)
        assert (p.regime is not ct.Regime.INFEASIBLE, p.n_nontrivial) == (feasible[0], n[0])
    # a lambda2 axis that is not strictly increasing is evaluated point by point too
    assert_sweep_is_per_point(4, (0.4, 0.6), (0.3, 0.3), 3)


# ---------------------------------------------------------------------------
# the breakpoints themselves
# ---------------------------------------------------------------------------

L1, L2, A2 = sp.symbols("l1 l2 a2")
# the general branch of `_q4_candidates`: the alpha2 quadratic qa a2^2 + qb a2 + qc
# and P1, whose square root over l1 is alpha1
QA = -(L2 * L2 + 2 * L1 * L2)
QB = L1 * L2 + L2 - L1
QC = L1 / 2 - sp.Rational(1, 4)
P1 = L1 / 2 + L1 * L2 * A2 - sp.Rational(1, 4) - L2 * L2 * A2 * A2
FOLD = (L1 + 4) * L2**2 + (2 * L1 - 4) * L2 + L1
MERGE = L2**2 - 2 * L1 * (L1 + 1) * L2 + 2 * L1**2


def test_q4_breakpoint_polynomials_come_from_the_closed_form():
    # the alpha2 quadratic's discriminant is l1 times the fold polynomial
    assert sp.expand(QB**2 - 4 * QA * QC - L1 * FOLD) == 0
    # P1 vanishes at a root of the alpha2 quadratic where the resultant does:
    # l2 = 0, lambda1 = 1/2 (a column of its own) and the merge polynomial
    resultant = sp.resultant(QA * A2**2 + QB * A2 + QC, P1, A2)
    assert sp.expand(4 * resultant + L2**2 * (2 * L1 - 1) * MERGE) == 0
    # qa vanishes at l2 = 0 and -2 l1; the alpha1 = 0 pair's radicand
    # (2 l2 - 1)/(4 l2^2) changes sign at 1/2 (and at 0)
    assert set(sp.solve(QA, L2)) == {0, -2 * L1}
    assert sp.solve(2 * L2 - 1, L2) == [sp.Rational(1, 2)]


@pytest.mark.parametrize("l1", [-0.3, -1e-6, 1e-9, 0.05, 0.3, 1.0 / 3.0, 0.4142, 0.4143, 0.4999999, 0.5000001, 0.9, 7.0])
def test_q4_fold_roots_are_the_real_roots(l1):
    got = q4_fold_roots(np.array([l1]))[0]
    want = []
    for poly in (FOLD, MERGE):
        roots = sp.Poly(poly.subs(L1, sp.Float(l1, 30)), L2).nroots(n=30)
        want.append(sorted(float(r) for r in roots if abs(sp.im(r)) < 1e-25))
    for got_pair, want_pair in ((got[:2], want[0]), (got[2:4], want[1])):
        real = sorted(x for x in got_pair.tolist() if not math.isnan(x))
        assert real == pytest.approx(want_pair, rel=1e-13, abs=1e-15)
    assert got[4:].tolist() == [0.0, 0.5, -2.0 * l1]


def test_feasibility_breakpoints_are_the_roots_of_the_compared_quantities():
    l1 = np.array([-0.3, 0.0, 0.2, 0.5, 0.9, 1e250])
    table = feasibility_breakpoints(4, l1)
    assert table.tolist() == np.stack([-1.0 - 2.0 * l1, np.ones(6), 2.0 * l1 - 1.0, -l1, l1, l1], axis=1).tolist()
    # q = 5: r_0, r_1, r_2, r_0 - r_1, r_1 - r_2 and lambda1 - lambda2, each
    # at its own breakpoint, through the transform of `feasible_lambdas`
    for l1 in (-0.25, 0.1, 0.45, 0.7):
        b = feasibility_breakpoints(5, np.array([l1]))[0]
        spectra = np.stack([np.ones(6), np.full(6, l1), b, b, np.full(6, l1)], axis=1)
        raw = _raw_rows(5, spectra)
        quantities = [raw[0, 0], raw[1, 1], raw[2, 2], raw[3, 0] - raw[3, 1], raw[4, 1] - raw[4, 2], l1 - b[5]]
        assert max(map(abs, quantities)) < 1e-15


@functools.cache
def _real_roots_of_f(l1):
    """F's real roots in lambda2 at the float l1, from mpmath at 60 digits."""
    exact = [Fraction(0)] * 11
    for i, row in enumerate(_FOLD_F):
        for j, v in enumerate(row):
            exact[j] += v * Fraction(l1) ** i
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(x.numerator) / x.denominator for x in exact]
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)
        return [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-40]


def _cells_of_the_roots(l1, axis):
    """(the cells that `q5_fold_cells` returns, the cells [axis[k], axis[k + 1]] that hold a real root of F, ends included)."""
    columns, cells = q5_fold_cells(np.array([l1]), axis)
    assert set(columns.tolist()) <= {0}
    ends = axis.tolist()
    holding = {k for r in _real_roots_of_f(l1) for k in range(len(ends) - 1) if ends[k] <= r <= ends[k + 1]}
    return set(cells.tolist()), holding


AXES = [np.linspace(-1.0, 1.0, 201), np.linspace(0.30, 0.56, 40), np.linspace(0.395, 0.405, 60),
        np.linspace(0.3999, 0.4001, 41)]


def test_no_cell_that_holds_a_real_root_of_f_is_passed():
    # F has a triple root at (1/2, 2/5) and a double one at (1/2, 1/2): just
    # off lambda1 = 1/2 three of its roots lie within about 2e-4 of 2/5
    for l1 in (0.5 - 1e-11, 0.5 + 1e-11, 0.5 - 1e-8, 0.45, 0.3):
        for axis in AXES:
            got, holding = _cells_of_the_roots(l1, axis)
            assert holding <= got, (l1, axis[0], axis[-1])
            if l1 < 0.46:
                # away from the multiple roots only a cell that holds a root fails
                assert got == holding, (l1, axis[0], axis[-1])


# F's multiple real roots (lambda1, lambda2): the triple one, the double one
# at lambda2 = 1/2, and the double ones where F = dF/dlambda2 = 0 (mpmath)
MULTIPLE_ROOTS = [
    (0.5, 0.4), (0.5, 0.5), (0.3674268561437263, 0.5008916835657881), (0.4914978769584942, 0.5218954679980543),
    (0.494897427831781, 0.494897427831781), (0.5244535123714252, 0.4869435074656155),
]
_NEAR = st.floats(-15.0, -3.0).map(lambda e: 10.0**e)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    centre=st.sampled_from(MULTIPLE_ROOTS),
    offset=st.builds(lambda t, s: s * t, _NEAR, st.sampled_from([1.0, -1.0])),
    below=st.floats(-12.0, -1.0).map(lambda e: 10.0**e),
    above=st.floats(-12.0, -1.0).map(lambda e: 10.0**e),
    res=st.integers(2, 60),
)
def test_no_cell_near_a_multiple_root_of_f_is_passed_with_a_root(centre, offset, below, above, res):
    l1, l2 = centre
    got, holding = _cells_of_the_roots(l1 + offset, np.linspace(l2 - below, l2 + above, res))
    assert holding <= got
