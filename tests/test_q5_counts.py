"""The q=5 counts against sympy's exact count of the sextic's distinct real nonzero roots.

`q5_solution_counts` counts the roots of S(x/sqrt(10))/5 by a float Sturm
chain with a rounding bound, and the rows that bound leaves open in
integers.  Here its integer table is checked against `_q5_sextic` and
against the resultant of the fixed-point equations (`conftest.q5_cofactor`),
and its counts against sympy's count on that resultant at the exact values
of the floats (`conftest.q5_root_count`): at drawn feasible points, at every
float within 20 ulps of a fold for lambda1 in [0.3, 1/2], within 20 ulps
of lambda2 = 0, and at the heads of the benchmark's q=5 window; and that
both lambdas below 1/3 in size leave no fixed point.  The sign of S's
discriminant, which settles the chain's last term where only that is open,
is checked against sympy's.
lambda1 = 0, where the count is 0 by definition and S is a square, is left
to the tests of `q5_solutions`.
"""
import math
from functools import reduce

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree import exact, fixedpoint, phase
from clocktree.fixedpoint import _FOLD_F, _FOLD_G, _SEXTIC_X, q5_solution_counts

from conftest import q5_cofactor, q5_root_count, random_feasible_lambdas

L1, L2, X = sympy.symbols("l1 l2 x")


def _sextic_table():
    """`_SEXTIC_X` as sympy polynomials in (l1, l2), highest power of x first."""
    return [
        sympy.Poly(sum(c * L1**i * L2**j for i, row in enumerate(s_k) for j, c in enumerate(row)), L1, L2)
        for s_k in _SEXTIC_X
    ]


def test_the_table_is_the_sextic_in_x():
    # _q5_sextic's formula with sqrt(10) exact (its float literals are integers), at alpha1 = x/sqrt(10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixedpoint, "SQRT10", sympy.sqrt(10))
        coeffs = [
            c.xreplace({f: sympy.Integer(int(f)) for f in c.atoms(sympy.Float)})
            for c in fixedpoint._q5_sextic(L1, L2).tolist()
        ]
    sextic = sympy.Poly(sympy.expand(sum(c * (X / sympy.sqrt(10)) ** (6 - k) for k, c in enumerate(coeffs))), X)
    assert [sympy.Poly(5 * c, L1, L2) for c in _sextic_table()] == [
        sympy.Poly(c, L1, L2) for c in sextic.all_coeffs()
    ]
    # and the resultant of the fixed-point equations over l2^4 x, from first principles
    assert _sextic_table() == q5_cofactor()


def test_the_factored_low_coefficients_are_the_table():
    s5, s6 = _sextic_table()[5:]
    assert s5 == sympy.Poly(-16 * (2 * L1 - 1) * (2 * L2 - 1) * (L1 * L2 + 2 * L1 - 2 * L2), L1, L2)
    assert s6 == sympy.Poly(-8 * (2 * L1 - 1) * (2 * L2 - 1) ** 2, L1, L2)


def test_the_float_coefficients_are_within_their_bounds():
    rng = np.random.default_rng(8)
    l1, l2 = rng.uniform(-1.0, 1.0, (2, 200))
    l1[:20], l2[20:40] = 0.5, 0.5 + np.ldexp(rng.uniform(-1.0, 1.0, 20), -30)
    coeffs, errors = fixedpoint._sextic_x(l1, l2)
    table = _sextic_table()
    for n, point in enumerate(zip(l1.tolist(), l2.tolist())):
        exact = [c.eval(tuple(sympy.Rational(*t.as_integer_ratio()) for t in point)) for c in table]
        assert all(abs(sympy.Rational(*v.as_integer_ratio()) - e) <= sympy.Rational(*b.as_integer_ratio())
                   for v, e, b in zip(coeffs[:, n].tolist(), exact, errors[:, n].tolist())), point


def _table_poly(rows):
    """The polynomial in (l1, l2) of a fold table: row i holds l1^i's coefficients in l2, highest first."""
    degree = len(rows[-1]) - 1
    return sympy.Poly(sum(c * L1**i * L2 ** (degree - j) for i, row in enumerate(rows) for j, c in enumerate(row)), L1, L2)


def _exact_discriminant(lambda1, lambda2):
    """sympy's discriminant in x of S(x/sqrt(10))/5 at the exact values of two floats."""
    point = tuple(sympy.Rational(*float(t).as_integer_ratio()) for t in (lambda1, lambda2))
    return sympy.discriminant(sympy.Poly([c.eval(point) for c in _sextic_table()], X))


def test_the_discriminant_is_its_factors():
    # the constant and the tables' signs that `_discriminant_signs` reads
    f, g = _table_poly(_FOLD_F), _table_poly(_FOLD_G)
    rng = np.random.default_rng(4)
    for a, b in rng.uniform(-1.0, 1.0, (6, 2)).tolist():
        point = tuple(sympy.Rational(*t.as_integer_ratio()) for t in (a, b))
        l1, l2 = point
        factors = 8000 * l1**14 * (2 * l1 - 1) * (2 * l2 - 1) ** 3 * g.eval(point) ** 2 * f.eval(point)
        assert _exact_discriminant(a, b) == factors


# rows of the benchmark's transition lines whose Sturm chain leaves only its
# last term open: a step above the candidate 1/2, two checks 1e-7 beside a
# fold near (0.4807, 0.4040), and the top of the bracket
LAST_TERM_OPEN = [
    (0.4934409896914396, 0.5000001),
    (0.48069774085355815, 0.4040559922703291),
    (0.48069774085355815, 0.40405619227032913),
    (0.41209730795744837, 0.65),
]


def test_the_discriminant_signs_are_sympys():
    rng = np.random.default_rng(6)
    l1, l2 = rng.uniform(-1.0, 1.0, (2, 30))
    l1[:3], l2[:3] = [0.0, 0.5, 0.3], [0.4, 0.45, 0.5]
    l1 = np.concatenate([l1, [a for a, _ in LAST_TERM_OPEN]])
    l2 = np.concatenate([l2, [b for _, b in LAST_TERM_OPEN]])
    signs = fixedpoint._discriminant_signs(l1, l2).tolist()
    exact_signs = [int(sympy.sign(_exact_discriminant(a, b))) for a, b in zip(l1.tolist(), l2.tolist())]
    assert signs[:3] == exact_signs[:3] == [0, 0, 0]
    assert signs[3:] == exact_signs[3:]


def test_the_discriminant_settles_the_last_term_of_the_chain(monkeypatch):
    l1, l2 = (np.array(t) for t in zip(*LAST_TERM_OPEN))
    coeffs, errors = fixedpoint._sextic_x(l1, l2)
    _, certain = fixedpoint._sturm_chain(coeffs, errors, lambda i: np.zeros(len(i)))
    assert not certain.any()

    def no_integers(p):
        raise AssertionError("counted in integers")

    monkeypatch.setattr(exact, "sturm_count", no_integers)
    _assert_exact(l1.tolist(), l2.tolist())


def _assert_exact(l1, l2):
    got = q5_solution_counts(np.asarray(l1, dtype=float), np.asarray(l2, dtype=float)).tolist()
    want = [q5_root_count(a, b) for a, b in zip(l1, l2)]
    assert got == want, [(a, b, g, w) for a, b, g, w in zip(l1, l2, got, want) if g != w][:5]


def test_counts_are_exact_at_drawn_feasible_points():
    rng = np.random.default_rng(21)
    points = [random_feasible_lambdas(rng, 5) for _ in range(120)]
    _assert_exact(*zip(*((a, b) for a, b in points if a != 0.0)))


def _floats_around(value, ulps):
    down = up = value
    below, above = [], []
    for _ in range(ulps):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        below.append(down)
        above.append(up)
    return below[::-1] + [value] + above


def test_counts_are_exact_within_20_ulps_of_the_folds():
    # lambda2 = 1/2 and the real roots of F in (0.3, 0.7), where the counts
    # change; at lambda1 = 1/2 F has a triple root at 2/5, and the float 0.4
    # lies just above it
    fold_f = _table_poly(_FOLD_F)
    for l1 in (0.3, 0.37, 0.42, 0.48, 0.5):
        roots = sympy.Poly(fold_f.as_expr().subs(L1, sympy.Rational(*l1.as_integer_ratio())), L2).real_roots()
        folds = sorted({0.5} | {float(r) for r in roots if 0.3 < r < 0.7})
        l2 = reduce(list.__add__, (_floats_around(f, 20) for f in folds))
        _assert_exact([l1] * len(l2), l2)


def test_counts_are_exact_at_the_window_heads(monkeypatch):
    heads = []
    counts = phase.q5_solution_counts

    def recorded(l1, l2):
        heads.extend(zip(l1.tolist(), l2.tolist()))
        return counts(l1, l2)

    monkeypatch.setattr(phase, "q5_solution_counts", recorded)
    ct.sweep(5, (0.40, 0.52), (0.30, 0.56), resolution=40)
    monkeypatch.undo()
    assert len(heads) > 50
    _assert_exact(*zip(*heads))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(l1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), ulps=st.integers(-20, 20))
def test_counts_do_not_change_within_20_ulps_of_lambda2_zero(l1, ulps):
    # the elimination's resultant carries lambda2^4, but S itself keeps its
    # degree and its roots there; the counts, the residual-verified solver
    # and sympy agree on each float within 20 ulps of 0 (sympy, at about
    # 0.15 s a subnormal, on 0 and one of them), and the count is the same
    # on all of them, so that no breakpoint of a sweep need lie at 0
    l2 = _floats_around(0.0, 20)
    counts = q5_solution_counts(np.full(len(l2), l1), np.array(l2)).tolist()
    assert counts == [ct.q5_solutions(l1, b).n_nontrivial for b in l2] == [counts[20]] * len(l2)
    assert [q5_root_count(l1, b) for b in (0.0, l2[20 + ulps])] == [counts[20]] * 2


def test_the_float_four_ninths_has_no_fixed_point_yet():
    # the float 4/9 lies below 4/9, where the two diagonal fixed points merge
    lam = 4.0 / 9.0
    assert lam < sympy.Rational(4, 9)
    assert q5_solution_counts(np.array([lam]), np.array([lam])).tolist() == [0]
    assert ct.classify_point(5, lam, lam).regime is ct.Regime.NO_PT


def test_counts_step_at_the_fold_of_lambda1_one_half():
    # F's root 0.370748... at lambda1 = 1/2 lies between these two adjacent floats
    below, above = 0.3707480445408525, 0.37074804454085253
    l2 = _floats_around(below, 3)[:4] + _floats_around(above, 3)[3:]
    assert l2[3:5] == [below, above]
    assert q5_solution_counts(np.full(8, 0.5), np.array(l2)).tolist() == [0] * 4 + [2] * 4


def test_the_float_two_fifths_is_not_two_fifths_where_the_other_lambda_is_one_half():
    # there s_4 is (5 l2 - 2)(2 l2 - 1)/2 at lambda1 = 1/2 and
    # -2 (2 l1 - 1)(5 l1 - 2)^2 at lambda2 = 1/2, and the float 0.4 lies
    # 2.2e-17 above 2/5: S has a root near 0, a fixed point at alpha1 of
    # about -7e-17 and 1e-32, which the counts count and the solver, by
    # DEDUP_TOL, takes for the trivial one
    below, above = math.nextafter(0.4, 0.0), math.nextafter(0.4, 1.0)
    near = [0.39, below, 0.4, above, 0.41]
    half = [0.5] * len(near)
    for l1, l2 in ((half, near), (near, half)):
        assert q5_solution_counts(np.array(l1), np.array(l2)).tolist() == [2] * 5
        _assert_exact(l1, l2)
    assert ct.q5_solutions(0.5, 0.4).n_nontrivial == ct.q5_solutions(0.4, 0.5).n_nontrivial == 1


def test_no_fixed_point_while_both_lambdas_are_below_one_third():
    # the counts read 0 there without the chain; the solver and sympy agree
    rng = np.random.default_rng(5)
    l1, l2 = rng.uniform(-1.0, 1.0, (2, 40)) / 3.0
    l1[:4], l2[:4] = [1e-300, -5e-324, 0.333, 0.0], [-4.8e-14, 0.33, -0.333, 0.3333333333333333]
    assert q5_solution_counts(l1, l2).tolist() == [0] * 40
    assert [ct.q5_solutions(a, b).n_nontrivial for a, b in zip(l1.tolist(), l2.tolist())] == [0] * 40
    assert [q5_root_count(a, b) for a, b in zip(l1[4:].tolist(), l2[4:].tolist())] == [0] * 36


@pytest.mark.xfail(strict=True, reason="the solver's roots split the double root of the float 4/9 (ROADMAP item 22)")
def test_the_solver_finds_no_fixed_point_at_the_float_four_ninths():
    assert ct.q5_solutions(4.0 / 9.0, 4.0 / 9.0).n_nontrivial == 0


@pytest.mark.xfail(strict=True, reason="the solver takes a fixed point within DEDUP_TOL of (0, 0) for the trivial one (ROADMAP item 22)")
def test_the_solver_finds_the_fixed_point_beside_the_trivial_one_at_the_float_two_fifths():
    assert ct.q5_solutions(0.5, 0.4).n_nontrivial == 2
