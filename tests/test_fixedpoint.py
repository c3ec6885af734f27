"""Quartic machinery, elimination, closed-form and Newton solvers."""
import math

import numpy as np
import pytest

import clocktree as ct
from clocktree.fixedpoint import _p3, _p4, _residual

V = 1.0 / math.sqrt(10.0)


# ---------------------------------------------------------------------------
# quartic coefficients and invariants
# ---------------------------------------------------------------------------


def test_coeffs_vanish_at_zero():
    c = ct.q5_quartic_coeffs(0.0)
    assert c.as_array().tolist() == [0.0] * 5


def test_coeffs_positive_leading():
    for l2 in (0.01, 0.2, 0.5, 0.9):
        assert ct.q5_quartic_coeffs(l2).a > 0.0


def test_constant_term_degenerations():
    # e = 8 l^2 - 36 l^3 + 40 l^4 vanishes at 0.4 and 0.5, where a solution
    # branch crosses the trivial one
    assert abs(ct.q5_quartic_coeffs(0.4).e) < 1e-14
    assert ct.q5_quartic_coeffs(0.5).e == 0.0
    assert abs(ct.q5_quartic_coeffs(0.45).e) > 1e-3


def test_discriminant_roots_match_printed_digits():
    # bisection on the sign of Delta over the bracketing intervals
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

    lc = bisect(0.36, 0.38)
    lt = bisect(0.48, 0.4999)
    assert abs(lc - 0.370748) < 5e-7
    assert abs(lt - 0.494119) < 5e-7


def test_discriminant_against_root_product():
    # Delta = a^6 prod_{i<j} (r_i - r_j)^2 over all complex roots
    for l2 in (0.3, 0.42, 0.45, 0.48, 0.52):
        c = ct.q5_quartic_coeffs(l2)
        delta = ct.quartic_invariants(c)[0]
        roots = np.roots(c.as_array())
        prod = 1.0 + 0.0j
        for i in range(4):
            for j in range(i + 1, 4):
                prod *= (roots[i] - roots[j]) ** 2
        oracle = (c.a**6 * prod).real
        assert abs(delta - oracle) <= 1e-6 * max(abs(delta), abs(oracle))


def test_invariants_error_on_degenerate():
    with pytest.raises(ct.DegenerateQuartic):
        ct.quartic_invariants(ct.q5_quartic_coeffs(0.0))
    with pytest.raises(ct.DegenerateQuartic):
        ct.classify_quartic(ct.q5_quartic_coeffs(0.0))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_regimes():
    a30 = ct.classify_quartic(ct.q5_quartic_coeffs(0.30))
    assert a30.structure is ct.RootStructure.NO_REAL
    assert a30.delta > 0 and a30.p > 0
    assert a30.real_root_count() == 0

    a45 = ct.classify_quartic(ct.q5_quartic_coeffs(0.45))
    assert a45.structure is ct.RootStructure.TWO_DISTINCT
    assert a45.delta < 0
    assert a45.real_root_count() == 2

    a499 = ct.classify_quartic(ct.q5_quartic_coeffs(0.499))
    assert a499.structure is ct.RootStructure.FOUR_DISTINCT
    assert a499.delta > 0 and a499.p < 0 and a499.d < 0
    assert a499.real_root_count() == 4


def test_classification_matches_root_count_randomly(rng):
    count_of = {
        ct.RootStructure.NO_REAL: 0,
        ct.RootStructure.TWO_DISTINCT: 2,
        ct.RootStructure.FOUR_DISTINCT: 4,
    }
    for _ in range(10000):
        l2 = float(rng.uniform(0.01, 0.95))
        analysis = ct.classify_quartic(ct.q5_quartic_coeffs(l2))
        if analysis.structure in count_of:
            assert analysis.real_root_count() == count_of[analysis.structure], l2
        else:
            # measure-zero multiple-root case hit head on
            assert analysis.structure is ct.RootStructure.DOUBLE_ROOT_PLUS


def test_classification_synthetic_multiple_roots():
    def from_roots_coeffs(coeffs):
        return ct.QuarticCoeffs(*coeffs, lambda2=float("nan"))

    def roots_close(analysis, expected):
        # multiple roots carry the usual eps^(1/m) extraction error
        assert len(analysis.real_roots) == len(expected)
        for (root, mult), (x, m) in zip(analysis.real_roots, expected):
            assert mult == m and abs(root - x) < 1e-4

    # (x^2+1)^2: two complex double roots, no real ones
    a = ct.classify_quartic(from_roots_coeffs([1, 0, 2, 0, 1]))
    assert a.structure is ct.RootStructure.NO_REAL and a.real_root_count() == 0
    # (x-1)^2 (x-2)(x-3): one double + two simple
    a = ct.classify_quartic(from_roots_coeffs([1, -7, 17, -17, 6]))
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 2
    roots_close(a, [(1.0, 2), (2.0, 1), (3.0, 1)])
    # (x-1)^2 (x^2+1): one real double + complex pair
    a = ct.classify_quartic(from_roots_coeffs([1, -2, 2, -2, 1]))
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 0
    roots_close(a, [(1.0, 2)])
    # (x-1)^3 (x-2): triple + simple
    a = ct.classify_quartic(from_roots_coeffs([1, -5, 9, -7, 2]))
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 1
    roots_close(a, [(1.0, 3), (2.0, 1)])
    # (x-1)^4
    a = ct.classify_quartic(from_roots_coeffs([1, -4, 6, -4, 1]))
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS
    roots_close(a, [(1.0, 4)])
    # (x-1)^2 (x+1)^2: two real doubles
    a = ct.classify_quartic(from_roots_coeffs([1, 0, -2, 0, 1]))
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS
    roots_close(a, [(-1.0, 2), (1.0, 2)])


# ---------------------------------------------------------------------------
# elimination and special case
# ---------------------------------------------------------------------------


def test_alpha2_of_zero_is_zero():
    assert ct.q5_alpha2_from_alpha1(0.0, 0.45) == 0.0


def test_elimination_produces_fixed_points():
    for l2 in (0.42, 0.45, 0.48):
        analysis = ct.classify_quartic(ct.q5_quartic_coeffs(l2))
        for root, _ in analysis.real_roots:
            a2 = ct.q5_alpha2_from_alpha1(root, l2)
            assert _residual(5, 0.5, l2, (root, a2)) < 1e-9


def test_at_special_point_guard():
    with pytest.raises(ct.AtSpecialPoint):
        ct.q5_alpha2_from_alpha1(V, 0.45)
    # just off the removable point the value is finite but the pair is not a
    # fixed point away from the special lambda2
    for s in (1 + 1e-6, 1 - 1e-6):
        a1 = V * s
        a2 = ct.q5_alpha2_from_alpha1(a1, 0.45)
        assert math.isfinite(a2)
        assert _residual(5, 0.5, 0.45, (a1, a2)) > 1e-6


def test_special_case():
    star = ct.q5_special_lambda2()
    assert abs(star - 37.0 / 96.0) < 1e-15
    assert abs(star - 0.385417) < 1e-6
    sol = ct.q5_special_case(star)
    assert sol is not None
    assert _residual(5, 0.5, star, sol) < 1e-9
    assert ct.q5_special_case(0.4) is None


def test_factorization_identity():
    # 5 a1^3 P3^2 + 20 l2^2 P4^2 a1 - 20 l2 v a1 P3 P4 - 20 v l2^2 P4^2
    #   = a1^3 (a1 - v)^2 q_{l2}(a1), relative accuracy 1e-10
    for l2 in (0.1, 0.25, 0.37, 0.45, 0.55):
        c = ct.q5_quartic_coeffs(l2)
        for a1 in np.linspace(-0.5, 0.6, 45):
            p3 = _p3(a1, l2)
            p4 = _p4(a1, l2)
            terms = [
                5.0 * a1**3 * p3 * p3,
                20.0 * l2 * l2 * p4 * p4 * a1,
                -20.0 * l2 * V * a1 * p3 * p4,
                -20.0 * V * l2 * l2 * p4 * p4,
            ]
            lhs = math.fsum(terms)
            rhs = a1**3 * (a1 - V) ** 2 * c(a1)
            scale = max(max(abs(t) for t in terms), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# solution sets
# ---------------------------------------------------------------------------


def test_q5_solutions_below_threshold_trivial_only():
    s = ct.q5_solutions_at_critical(0.30)
    assert s.solutions == ((0.0, 0.0),)
    assert s.includes_trivial


def test_q5_solutions_two_distinct_regime():
    s = ct.q5_solutions_at_critical(0.45)
    assert s.n_nontrivial == 2
    assert all(r < 1e-9 for r in s.residuals)
    assert s.solutions[0] == (0.0, 0.0)
    a1s = [a for a, _ in s.nontrivial]
    assert a1s == sorted(a1s)


def test_q5_solutions_at_potts_point():
    # four solutions in total: the quartic root at alpha1 = 0 is the trivial
    # one, the other three are the symmetric boundary-law types
    s = ct.q5_solutions_at_critical(0.5)
    assert len(s.solutions) == 4
    assert s.n_nontrivial == 3
    diag = [a for a in s.nontrivial if abs(a[0] - a[1]) < 1e-12]
    assert len(diag) == 1 and abs(diag[0][0] - 0.4743416490252569) < 1e-9
    swapped = [a for a in s.nontrivial if abs(a[0] - a[1]) > 1e-6]
    assert len(swapped) == 2
    (b1, b2), (c1, c2) = swapped
    assert abs(b1 - c2) < 1e-9 and abs(b2 - c1) < 1e-9


def test_q5_solutions_probability_reconstruction():
    for l2 in (0.40, 0.45, 0.5):
        for a in ct.q5_solutions_at_critical(l2).solutions:
            ct.SymmetricDist(5, a)  # raises if not a probability vector


def test_q5_degenerate_lambda2():
    s = ct.q5_solutions_at_critical(0.0)
    assert s.solutions == ((0.0, 0.0),)
    assert any("degenerate" in n for n in s.notes)


def test_q5_tiny_lambda2_trivial_only():
    # the quartic's coefficients underflow to 0 below lambda2 ~ 1e-162 and its
    # invariants below ~1e-26; neither makes the quartic degenerate
    for l2 in (1e-25, 1e-30, 1e-100, 1e-200, 2.7e-229, 5e-324):
        s = ct.q5_solutions_at_critical(l2)
        assert s.solutions == ((0.0, 0.0),)
        assert s.rejected == ()


def test_q4_solutions_below_window():
    assert ct.q4_solutions(0.5, 0.30).n_nontrivial == 0


def test_q4_solutions_closed_form():
    s = ct.q4_solutions(0.5, 0.40)
    assert s.n_nontrivial == 2
    vals = sorted(s.nontrivial)
    assert abs(vals[0][0] + 0.3499271061118827) < 1e-12
    assert abs(vals[1][0] - 0.3499271061118827) < 1e-12
    assert abs(vals[0][1] - 0.17857142857142858) < 1e-12
    assert all(r < 1e-10 for r in s.residuals)


def test_q4_radicand_boundary_collapses():
    s = ct.q4_solutions(0.5, 1.0 / 3.0)
    assert s.n_nontrivial == 0


def test_q4_infeasible_is_note_not_error():
    s = ct.q4_solutions(0.2, 0.5)
    assert any("feasib" in n for n in s.notes)


def test_q4_tiny_positive_lambda2():
    # 4*lambda2*lambda2 underflows to 0 here; the point is feasible and has
    # only the trivial solution
    s = ct.q4_solutions(0.1, 1e-200)
    assert s.solutions == ((0.0, 0.0),) and s.notes == ()
    for l2 in (1e-200, 5e-324):
        p = ct.classify_point(4, 0.1, l2)
        assert (p.feasible, p.regime, p.n_nontrivial, p.error) == (True, ct.Regime.NO_PT, 0, None)
        assert ct.sweep(4, (0.1, 0.1), (l2, l2), resolution=1) == [p]


def test_q4_pure_alpha2_solutions():
    # alpha1 = 0 branch appears for lambda2 > 1/2 (outside the non-increasing
    # region, still a solution of the equations)
    s = ct.q4_solutions(0.3, 0.6)
    pure = [a for a in s.nontrivial if a[0] == 0.0]
    assert len(pure) == 2
    expected = math.sqrt(2 * 0.6 - 1) / (2 * 0.6)
    assert abs(abs(pure[0][1]) - expected) < 1e-12


def test_q4_general_solver_matches_closed_form_at_half():
    # the general quadratic-intersection path evaluated at lambda1 = 1/2
    # (reached from either side) reproduces the closed form values
    closed = sorted(ct.q4_solutions(0.5, 0.4).nontrivial)
    for d in (1e-6, -1e-6):
        near = ct.q4_solutions(0.5 + d, 0.4)
        big = sorted(a for a in near.nontrivial if abs(a[0]) > 0.01)
        for (a1, a2), (b1, b2) in zip(closed, big):
            assert abs(a1 - b1) < 1e-4 and abs(a2 - b2) < 1e-4


def test_q4_small_branch_below_threshold():
    # just below lambda1 = 1/2 an extra small-amplitude pair bifurcates off
    # the trivial solution (amplitude ~ sqrt(1/2 - lambda1))
    s = ct.q4_solutions(0.4999, 0.4)
    small = [a for a in s.nontrivial if abs(a[0]) < 0.05]
    assert len(small) == 2
    assert all(_residual(4, 0.4999, 0.4, a) < 1e-9 for a in small)


# ---------------------------------------------------------------------------
# Newton, Jacobian, continuation
# ---------------------------------------------------------------------------


def test_newton_trivial_root():
    assert ct.newton_solve(0.45, 0.4, (0.0, 0.0)) == (0.0, 0.0)


def test_newton_recovers_analytic_solutions():
    for base in ct.q5_solutions_at_critical(0.45).nontrivial:
        r = ct.newton_solve(0.5, 0.45, (base[0] + 5e-5, base[1] - 5e-5))
        assert r is not None
        assert max(abs(r[0] - base[0]), abs(r[1] - base[1])) < 1e-9


def test_newton_seed_perturbation_stability(rng):
    for base in ct.q5_solutions_at_critical(0.48).nontrivial:
        for _ in range(5):
            seed = (base[0] + rng.uniform(-1e-4, 1e-4), base[1] + rng.uniform(-1e-4, 1e-4))
            r = ct.newton_solve(0.5, 0.48, seed)
            assert r is not None
            assert max(abs(r[0] - base[0]), abs(r[1] - base[1])) < 1e-8


def test_continuation_to_printed_example_point():
    s = ct.q5_solutions(0.48, 0.47)
    assert s.n_nontrivial >= 1
    assert all(r < 1e-9 for r in s.residuals)


def test_jacobian_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(50):
        l1, l2 = rng.uniform(0.2, 0.55, 2)
        a = tuple(rng.uniform(-0.3, 0.5, 2))
        jac, det = ct.q5_jacobian(l1, l2, a)
        fd = np.empty((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            plus = ct.displacement(l1, l2, (a[0] + e[0], a[1] + e[1]))
            minus = ct.displacement(l1, l2, (a[0] - e[0], a[1] - e[1]))
            fd[:, i] = (plus - minus) / (2 * h)
        assert np.abs(jac - fd).max() < 1e-6
        assert abs(det - np.linalg.det(jac)) < 1e-12


def test_jacobian_at_origin_is_diagonal():
    for lam in (0.3, 0.45, 0.4999):
        _, det = ct.q5_jacobian(lam, lam, (0.0, 0.0))
        assert abs(det - (1 - 2 * lam) ** 2) < 1e-12


def test_jacobian_degenerates_at_threshold():
    diag = ct.q5_potts_diagonal_solutions(0.4999)
    assert diag is not None
    _, det = ct.q5_jacobian(0.4999, 0.4999, diag[0])
    assert abs(det) < 1e-3


# ---------------------------------------------------------------------------
# Potts boundary laws
# ---------------------------------------------------------------------------


def test_boundary_laws_existence_interval():
    assert ct.potts_boundary_laws(5, 0.40) is None
    with pytest.raises(ct.RadicandNegative):
        ct.potts_boundary_laws(5, 0.40, strict=True)
    with pytest.raises(ct.UnsupportedQ):
        ct.potts_boundary_laws(4, 0.45)


def test_boundary_laws_double_at_interval_edge():
    bl = ct.potts_boundary_laws(5, 4.0 / 9.0)
    assert bl is not None
    assert abs(bl.theta - 5.0) < 1e-12
    assert abs(bl.a_plus - bl.a_minus) < 1e-5
    assert max(bl.residual_plus, bl.residual_minus) < 1e-9


def test_boundary_laws_verified_pair():
    bl = ct.potts_boundary_laws(5, 0.45)
    assert bl is not None
    assert bl.residual_plus < 1e-9 and bl.residual_minus < 1e-9
    # the printed sign convention yields negative boundary-law components and
    # fails the residual check; the flip must have been recorded
    assert bl.sign_convention == "theta-1"
    assert bl.a_plus > 0 and bl.a_minus > 0
    # the verified values agree with the diagonal closed form
    diag = ct.q5_potts_diagonal_solutions(0.45)
    assert abs(bl.modes_plus[0] - diag[1][0]) < 1e-9
    assert abs(bl.modes_minus[0] - diag[0][0]) < 1e-9


def test_boundary_law_lower_branch_merges_with_free():
    bl = ct.potts_boundary_laws(5, 0.4999999)
    assert bl is not None
    assert abs(bl.modes_minus[0]) < 1e-3
    assert abs(bl.modes_plus[0] - 0.47434) < 1e-3
