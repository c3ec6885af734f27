"""The folds of the q=5 sextic and the transition line taken from them.

sympy derives the sextic's discriminant here from `_q5_sextic`'s own formula.
Its factor F is the table `_FOLD_F`; its other factors that depend on
lambda2 are 2 l2 - 1, whose only root 1/2 is a fold candidate as it stands,
and a squared factor, across whose roots no count changes.
`q5_transition_line` checks the candidates with one count call and bisects
only what the check leaves open, so its line is the bisection's
(`ref_transition_line`) to the bit wherever the count predicate is monotone
away from the candidate.  `ref_transition_line` is `q5_transition_line`
without its fold check: plain bisection of the whole bracket, one batched
count call per step.  The line is printed to 17 digits, so the two must agree
exactly.
"""
import math

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree import fixedpoint, phase
from clocktree.fixedpoint import _FOLD_F, q5_fold_bands, q5_solution_counts

L1, L2, X = sympy.symbols("l1 l2 x")


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


def _line_candidates(lambda1, lambda2_bracket=(0.33, 0.65)):
    """The band centres of `q5_fold_bands` that `q5_transition_line` checks in lambda2_bracket."""
    lo, hi = lambda2_bracket
    _, centre, _ = q5_fold_bands(np.array(lambda1))
    return centre[(centre > lo + phase._FOLD_STEP) & (centre < hi - phase._FOLD_STEP)]


def _table_poly(rows):
    """The integer polynomial in (l1, l2) of a table: row i holds l1^i's coefficients in l2, highest first."""
    degree = len(rows[-1]) - 1
    return sympy.Poly(
        sum(c * L1**i * L2 ** (degree - j) for i, row in enumerate(rows) for j, c in enumerate(row)), L1, L2
    )


def _counting_calls(monkeypatch):
    calls = []
    original = phase.q5_solution_counts

    def counted(l1, l2):
        calls.append(len(l1))
        return original(l1, l2)

    monkeypatch.setattr(phase, "q5_solution_counts", counted)
    return calls


# ---------------------------------------------------------------------------
# the tables are the discriminant's factors
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def discriminant_factors():
    """{factor: multiplicity} of the sextic's discriminant in x = sqrt(10) alpha1 (about 5 s)."""
    with pytest.MonkeyPatch.context() as mp:
        # _q5_sextic's formula with sqrt(10) exact; its float literals are integers
        mp.setattr(fixedpoint, "SQRT10", sympy.sqrt(10))
        coeffs = []
        for c in fixedpoint._q5_sextic(L1, L2).tolist():
            assert all(float(f).is_integer() for f in c.atoms(sympy.Float))
            coeffs.append(c.xreplace({f: sympy.Integer(int(f)) for f in c.atoms(sympy.Float)}))
    # alpha1 = x / sqrt(10) clears sqrt(10) from the coefficients
    sextic = sympy.Poly(sympy.expand(sum(c * (X / sympy.sqrt(10)) ** (6 - k) for k, c in enumerate(coeffs))), X)
    assert all(c.is_polynomial(L1, L2) and not c.has(sympy.sqrt(10)) for c in sextic.all_coeffs())
    _, factors = sympy.factor_list(sympy.discriminant(sextic, X), L1, L2)
    return {sympy.Poly(f, L1, L2): m for f, m in factors}


def _multiplicity(factors, poly):
    # factor_list normalises signs; a table may be the negated factor
    return factors.get(poly, factors.get(-poly))


def test_fold_tables_are_the_discriminant_factors(discriminant_factors):
    fold_f = _table_poly(_FOLD_F)
    assert _multiplicity(discriminant_factors, fold_f) == 1
    assert _multiplicity(discriminant_factors, sympy.Poly(2 * L2 - 1, L1, L2)) == 3
    assert _multiplicity(discriminant_factors, sympy.Poly(L1, L1, L2)) == 14
    assert _multiplicity(discriminant_factors, sympy.Poly(2 * L1 - 1, L1, L2)) == 1
    # the one other nonlinear factor is G, squared
    (g, m), = ((f, m) for f, m in discriminant_factors.items() if f.total_degree() > 1 and f not in (fold_f, -fold_f))
    assert (g.total_degree(), m) == (9, 2)
    assert len(discriminant_factors) == 5


def test_counts_do_not_change_across_the_squared_factor(discriminant_factors):
    # G enters squared, so the discriminant keeps its sign across G = 0 and
    # its roots need no candidate: the counts agree just below and above each
    (g,) = (f for f, m in discriminant_factors.items() if m == 2)
    for l1 in (0.05, 0.2, 0.3707, 0.45, 0.5):
        roots = [float(r) for r in sympy.Poly(g.as_expr().subs(L1, sympy.Rational(l1)), L2).real_roots()]
        assert roots, l1
        below, above = (q5_solution_counts(np.full(len(roots), l1), np.array(roots) + t) for t in (-1e-7, 1e-7))
        np.testing.assert_array_equal(below, above)


def test_fold_table_matches_the_tuples():
    table = fixedpoint._fold_table()
    assert not table.flags.writeable
    fold_f = _table_poly(_FOLD_F)
    rng = np.random.default_rng(3)
    for l1, l2 in rng.uniform(-1.0, 1.0, (20, 2)).tolist():
        value = (np.array(l1) ** np.arange(11)) @ table @ (l2 ** np.arange(10, -1, -1))
        exact = float(fold_f.eval({L1: sympy.Rational(l1), L2: sympy.Rational(l2)}))
        assert math.isclose(value, exact, rel_tol=1e-9, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# the tables and the paper's analysis at lambda1 = 1/2
# ---------------------------------------------------------------------------

QUINTIC = 24000 * L2**5 - 44425 * L2**4 + 40400 * L2**3 - 23360 * L2**2 + 7680 * L2 - 1024


def test_fold_at_half_is_the_quartic_discriminant():
    f_half = sympy.expand(_table_poly(_FOLD_F).as_expr().subs(L1, sympy.Rational(1, 2)))
    assert sympy.expand(f_half + (2 * L2 - 1) ** 2 * (5 * L2 - 2) ** 3 * QUINTIC / 16) == 0
    first, second = (float(r) for r in sympy.Poly(QUINTIC, L2).real_roots()[:2])
    assert abs(first - 0.370748) < 1e-6 and abs(second - 0.494119) < 1e-6
    # the quintic's roots are where the classify discriminant changes sign
    for root in (first, second):
        below, above = (ct.quartic_invariants(ct.q5_quartic_coeffs(root + t))[0] for t in (-1e-9, 1e-9))
        assert below * above < 0.0, root
    # the line at 1/2 lands on the first root, and the nearest fold band
    # holds it: its centre, unpolished, is about 1.3e-8 off and its radius
    # about 2.9e-6
    (_, line), = ct.q5_transition_line([0.5], tol=1e-12)
    assert abs(line - first) < 1e-9
    _, centre, radius = q5_fold_bands(np.array([0.5]))
    k = np.argmin(np.abs(centre - first))
    assert abs(centre[k] - first) <= radius[k] < 1e-5


def test_line_leaves_one_half_at_the_mirror_of_the_half_root():
    # F is symmetric in l1 and l2, so F(l1, 1/2) vanishes at l1 = 0.370748...:
    # the line is lambda2 = 1/2 (the 2 l2 - 1 factor) up to there and F's root
    # above it
    f = _table_poly(_FOLD_F).as_expr()
    assert sympy.expand(f - f.subs({L1: L2, L2: L1}, simultaneous=True)) == 0
    first = float(sympy.Poly(QUINTIC, L2).real_roots()[0])
    (_, left), (_, right) = ct.q5_transition_line([first - 1e-7, first + 1e-7], tol=1e-12)
    assert abs(left - 0.5) < 1e-9 and right < 0.5 - 1e-9


def test_second_fold_at_045_doubles_the_count():
    # F's second root in the bracket at lambda1 = 0.45, where a second pair
    # of fixed points appears
    fold = max(r for r in _line_candidates([0.45]).tolist() if r < 0.5)
    assert abs(fold - 0.4990843) < 1e-7
    below, above = q5_solution_counts(np.array([0.45, 0.45]), np.array([fold - 1e-7, fold + 1e-7])).tolist()
    assert (below, above) == (2, 4)


# ---------------------------------------------------------------------------
# the transition line: one checked call, bisection only where it is left open
# ---------------------------------------------------------------------------


def test_transition_line_falls_back_to_bisection(monkeypatch):
    # at lambda1 = 1/2 the bracket (0.40, 0.65) holds the folds 0.494119 and
    # 1/2, where the count goes from 2 to 4 and from 4 up: no candidate
    # passes, so the row is bisected from the whole bracket
    calls = _counting_calls(monkeypatch)
    line = ct.q5_transition_line([0.5], lambda2_bracket=(0.40, 0.65))
    monkeypatch.undo()
    assert len(calls) > 1
    assert line == ref_transition_line([0.5], lambda2_bracket=(0.40, 0.65))


def test_candidate_one_half_narrows_the_row(monkeypatch):
    # below lambda1 = 0.370748 the line is 1/2, a midpoint of the default
    # bracket, so its check leaves the node (0.49, 0.51): eight bisection
    # calls to tol 1e-4, where the whole bracket would take twelve
    calls = _counting_calls(monkeypatch)
    ct.q5_transition_line([0.3])
    monkeypatch.undo()
    assert _line_candidates([0.3]).tolist() == [0.5]
    assert calls == [1 + 2] + [1] * 8


def test_transition_line_on_a_fine_grid():
    # n values of lambda1 in (0.005, 1/2] per bracket; the line is 1/2 up to
    # 0.370748.  Below that the default bracket leaves its rows (0.49, 0.51)
    # to bisect, since 1/2 is one of its midpoints; (-0.5, 0.99) holds the
    # real roots of the squared factor G, which are no candidates.
    for bracket, n in (((0.33, 0.65), 400), ((0.2, 0.9), 60), ((-0.5, 0.99), 60)):
        grid = np.linspace(0.5, 0.005, n, endpoint=False)[::-1].tolist()
        for tol in (1e-4, 1e-12):
            got = ct.q5_transition_line(grid, tol=tol, lambda2_bracket=bracket)
            want = ref_transition_line(grid, tol=tol, lambda2_bracket=bracket)
            np.testing.assert_array_equal(np.array(got), np.array(want))
            assert not np.isnan(np.array(got)).any()
            # the count flips on rounding noise within about 2e-11 of 1/2
            assert all(abs(l2c - 0.5) <= max(tol, 1e-10) for l1, l2c in got if 0.01 <= l1 <= 0.37)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    grid=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=12),
    tol=st.sampled_from([0.1, 1e-3, 1e-4, 1e-7, 1e-12]),
)
def test_transition_line_equals_stepwise_bisection(grid, tol):
    got, want = ct.q5_transition_line(grid, tol=tol), ref_transition_line(grid, tol=tol)
    np.testing.assert_array_equal(np.array(got), np.array(want))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(l1=st.floats(0.30, 0.50))
def test_counts_across_the_transition_line(l1):
    (_, l2c), = ct.q5_transition_line([l1], tol=1e-13)
    below, above = q5_solution_counts(np.array([l1, l1]), np.array([l2c - 1e-9, l2c + 1e-9])).tolist()
    assert below == 0 and above >= 1
