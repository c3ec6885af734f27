"""The q=5 elimination solver against the analysis it generalizes and the solver it replaced.

`ref_q5_solutions_at_critical` is the paper's analysis at lambda1 = 1/2:
the real roots of the quartic q_{lambda2} (`q5_quartic_analysis`), alpha2
from the rational elimination alpha2 = P4(alpha1)/P3(alpha1), and the
special alpha1 = v solution at lambda2 = 37/96 that the elimination
cannot reach.  It is the oracle for the paper's formulas; near the folds,
within about 7.4e-6 above lambda2 = 0.370748 and 5.8e-8 above 0.494119,
its quartic classifier misses a root pair.

`ref_q5_solutions` is the continuation solver that `q5_solutions` replaced:
Newton continuation (`ref_newton_solve`) of the lambda1 = 1/2 solutions,
then a 300-level probe-seeded Newton run.  It misses branches that are not
connected to the lambda1 = 1/2 solutions, so it is a one-sided reference:
every solution it finds must be among the new solver's.  Where the
lambda1 = 1/2 analysis raises (lambda2 outside [0, 1)) it continues nothing
and only the probe seed runs.
"""
import functools
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree.fixedpoint import (
    _ACCEPTED,
    DEDUP_TOL,
    RESIDUAL_TOL,
    V5,
    _assemble,
    _q5_candidates,
    _q5_sextic,
    _verify_candidates,
    q5_fold_bands,
    q5_solution_counts,
)
from clocktree.spectral import SymmetricDist, feasible_lambdas, spec_from_lambdas, validate_non_increasing

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the lambda1 = 1/2 analysis: quartic roots and the rational elimination
# ---------------------------------------------------------------------------


class RefAtSpecialPoint(ct.ClockTreeError):
    """Rational elimination evaluated at the removable point alpha1 = v."""


class RefP3Vanishes(ct.ClockTreeError):
    """Cubic denominator of the elimination vanishes; only the trivial solution."""


def ref_p3(alpha1, lambda2):
    v, t = V5, lambda2
    w = alpha1 - v
    return math.fsum(
        [
            4.0 * t * w * w,
            -5.0 * t * v * alpha1 * alpha1 * w,
            20.0 * t * v * v * alpha1 * alpha1,
            -8.0 * t * t * w * w,
            -20.0 * t * t * v * alpha1 * w * w,
        ]
    )


def ref_p4(alpha1, lambda2):
    v, t = V5, lambda2
    w = alpha1 - v
    return 5.0 * v * alpha1**4 + 5.0 * v * t * alpha1 * alpha1 * w * w


def ref_alpha2_from_alpha1(alpha1, lambda2):
    """alpha2 = P4(alpha1)/P3(alpha1).

    Raises RefAtSpecialPoint within 1e-12 of the removable point alpha1 = v
    and RefP3Vanishes when the denominator vanishes.
    """
    if abs(alpha1 - V5) < 1e-12:
        raise RefAtSpecialPoint(f"alpha1 = {alpha1!r} is at the special point v = {V5!r}")
    p3 = ref_p3(alpha1, lambda2)
    w = alpha1 - V5
    p3_scale = max(
        abs(4.0 * lambda2 * w**2),
        abs(5.0 * lambda2 * V5 * alpha1 * alpha1 * w),
        abs(20.0 * lambda2 * V5 * V5 * alpha1 * alpha1),
        abs(8.0 * lambda2 * lambda2 * w**2),
        abs(20.0 * lambda2 * lambda2 * V5 * alpha1 * w**2),
        1e-30,
    )
    if abs(p3) <= 1e-12 * p3_scale:
        raise RefP3Vanishes(f"P3({alpha1!r}) vanishes at lambda2 = {lambda2!r}")
    return ref_p4(alpha1, lambda2) / p3


def ref_special_lambda2():
    """The unique lambda2 at which alpha1 = v solves the system (= 37/96)."""
    v = V5
    return (v / 5.0 + v**3 / 4.0 + v**3 / 16.0) / (2.0 * v / 5.0 + 2.0 * v**3)


def ref_special_case(lambda2, tol=1e-9):
    """(v, v/(4*lambda2)) within tol of lambda2 = 37/96, else None."""
    if abs(lambda2 - ref_special_lambda2()) < tol:
        return (V5, V5 / (4.0 * lambda2))
    return None


def ref_q5_solutions_at_critical(lambda2):
    """The q=5 fixed points at lambda1 = 1/2 from the quartic's roots and the elimination."""
    if not (0.0 <= lambda2 < 1.0):
        raise ct.ClockTreeError(f"lambda2 must lie in [0, 1), got {lambda2!r}")
    if lambda2 == 0.0:
        return _assemble(5, 0.5, 0.0, [], ["degenerate quartic at lambda2 = 0: trivial solution only"])
    candidates, notes = [], []
    for root, _mult in ct.q5_quartic_analysis(lambda2).real_roots:
        if abs(root) <= DEDUP_TOL:
            continue  # the alpha1 = 0 root is the trivial solution
        try:
            candidates.append((root, ref_alpha2_from_alpha1(root, lambda2)))
        except RefAtSpecialPoint:
            notes.append(f"quartic root {root!r} hit the special point v")
        except RefP3Vanishes:
            notes.append(f"quartic root {root!r} lies on the P3 = 0 branch (trivial only)")
    special = ref_special_case(lambda2)
    if special is not None:
        candidates.append(special)
        notes.append("special alpha1 = v solution included")
    return _assemble(5, 0.5, lambda2, candidates, notes)


# ---------------------------------------------------------------------------
# the continuation reference
# ---------------------------------------------------------------------------


def ref_newton_solve(lambda1, lambda2, seed, damping=0.5, max_iter=100):
    """Damped Newton iteration on the q=5 displacement map.

    Returns a point with sup-norm displacement below 1e-12, or None when the
    iteration meets a singular Jacobian or does not converge within max_iter.
    """
    x = np.array(seed, dtype=float)
    for _ in range(max_iter):
        t = ct.displacement(lambda1, lambda2, (x[0], x[1]))
        err = np.abs(t).max()
        if err < 1e-12:
            return (float(x[0]), float(x[1]))
        jt, det = ct.q5_jacobian(lambda1, lambda2, (x[0], x[1]))
        if not math.isfinite(det) or abs(det) < 1e-300:
            return None
        step = np.linalg.solve(jt, t)
        factor = 1.0
        for _ in range(60):
            cand = x - factor * step
            if np.abs(ct.displacement(lambda1, lambda2, (cand[0], cand[1]))).max() < err:
                break
            factor *= damping
        else:
            return None
        x = x - factor * step
    return None


@functools.lru_cache(maxsize=None)
def ref_critical_solutions(lambda2):
    return ref_q5_solutions_at_critical(lambda2)


def ref_continuation_path(start, target, step):
    if target == start:
        return [target]
    n = max(1, int(math.ceil(abs(target - start) / step)))
    return [start + (target - start) * (i + 1) / n for i in range(n)]


def ref_probe_seeded_candidate(lambda1, lambda2):
    try:
        spec = spec_from_lambdas(5, lambda1, lambda2)
    except ValueError:
        return None
    if min(spec.row) <= 0.0 or not validate_non_increasing(spec).feasible:
        return None
    M = spec.matrix()
    p = np.asarray(spec.row) ** 2
    p /= p.sum()
    for _ in range(300):
        p = np.power(M @ p, 2)
        p /= p.sum()
        if np.abs(p - 0.2).max() < 1e-9:
            return None
    if np.abs(p - 0.2).max() < 1e-6:
        return None
    dist = SymmetricDist.from_probabilities(p)
    return ref_newton_solve(lambda1, lambda2, (dist.modes[0], dist.modes[1]))


def ref_q5_solutions(lambda1, lambda2, step=0.005):
    if abs(lambda1 - 0.5) < 1e-12:
        return ref_critical_solutions(lambda2)
    try:
        seeds = ref_critical_solutions(lambda2).nontrivial
    except ct.ClockTreeError:
        seeds = []
    current = [np.array(s) for s in seeds]
    if current:
        for l1 in ref_continuation_path(0.5, lambda1, step):
            survivors = []
            for s in current:
                r = ref_newton_solve(l1, lambda2, (s[0], s[1]))
                if r is not None and max(abs(r[0]), abs(r[1])) > DEDUP_TOL:
                    survivors.append(np.array(r))
            current = survivors
            if not current:
                break
    candidates = [(float(s[0]), float(s[1])) for s in current]
    cand = ref_probe_seeded_candidate(lambda1, lambda2)
    if cand is not None:
        candidates.append(cand)
    return _assemble(5, lambda1, lambda2, candidates)


def _contains(solutions, alpha, tol=1e-8):
    return any(max(abs(s[0] - alpha[0]), abs(s[1] - alpha[1])) <= tol for s in solutions)


# ---------------------------------------------------------------------------
# the Potts diagonal: both diagonal fixed points are found
# ---------------------------------------------------------------------------


def test_potts_point_has_both_diagonal_roots():
    lower, upper = ct.q5_potts_diagonal_solutions(0.45)
    sols = ct.q5_solutions(0.45, 0.45).solutions
    assert abs(lower[0] - 0.1543) < 1e-4 and abs(upper[0] - 0.3200) < 1e-4
    assert _contains(sols, lower) and _contains(sols, upper)


def test_potts_diagonal_window_has_both_roots():
    # lambda in (4/9, 1/2): the lower branch exists but is not connected to
    # the lambda1 = 1/2 solutions by continuation in lambda1
    missing = []
    for lam in np.linspace(4.0 / 9.0, 0.5, 41)[1:-1].tolist():
        sols = ct.q5_solutions(lam, lam).solutions
        for root in ct.q5_potts_diagonal_solutions(lam):
            if not _contains(sols, root):
                missing.append((lam, root))
    assert missing == []


# ---------------------------------------------------------------------------
# lambda2 < 0 is an ordinary feasible region for q = 5
# ---------------------------------------------------------------------------


def test_negative_lambda2_points_are_not_failures():
    points = ct.sweep(5, (0.3, 0.6), (-0.2, -0.05), resolution=4)
    l1 = np.array([p.lambda1 for p in points])
    l2 = np.array([p.lambda2 for p in points])
    feasible = feasible_lambdas(5, l1, l2)
    assert feasible.sum() == 8
    for p, f in zip(points, feasible.tolist()):
        assert p.error is None, (p.lambda1, p.lambda2, p.error)
        assert p.feasible == f
        assert p.regime is not ct.Regime.CRITICAL


def test_negative_lambda2_at_half():
    s = ct.q5_solutions(0.5, -0.1)
    assert s.solutions[0] == (0.0, 0.0)
    assert all(r < 1e-9 for r in s.residuals)


# ---------------------------------------------------------------------------
# the sextic is the resultant
# ---------------------------------------------------------------------------


def _cleared_equations(l1, l2, a1):
    """Coefficients in alpha2, highest first, of a1*D - N1 and a2*D - N2 (`mode_map_q5`)."""
    v = V5
    e1 = [l2 * l2 * (a1 - v), -2.0 * v * l1 * l2 * a1, a1 * (0.2 + l1 * l1 * a1 * a1 - 0.4 * l1)]
    e2 = [l2 * l2, 0.0, 0.2 + l1 * l1 * a1 * a1 - 0.4 * l2 - 2.0 * v * l1 * l2 * a1, -v * l1 * l1 * a1 * a1]
    return e1, e2


def test_cleared_equations_are_the_mode_map(rng):
    for _ in range(50):
        l1, l2, a1, a2 = rng.uniform(-0.7, 0.7, 4)
        e1, e2 = _cleared_equations(l1, l2, a1)
        den = 0.2 + a1 * a1 * l1 * l1 + a2 * a2 * l2 * l2
        f1, f2 = ct.mode_map_q5(l1, l2, (a1, a2))
        assert math.isclose(np.polyval(e1, a2), (a1 - f1) * den, rel_tol=1e-9, abs_tol=1e-14)
        assert math.isclose(np.polyval(e2, a2), (a2 - f2) * den, rel_tol=1e-9, abs_tol=1e-14)


def test_sextic_is_the_resultant(rng):
    # Res_alpha2(E1, E2) = a1 l2^4 (a1 - v)^2 S(a1) / (5000 (sqrt(10) a1 - 1)^2)
    #                    = a1 l2^4 S(a1) / 50000
    for _ in range(200):
        l1, l2 = rng.uniform(-0.8, 0.8, 2)
        a1 = rng.uniform(-1.0, 1.0)
        e1, e2 = _cleared_equations(l1, l2, a1)
        sylvester = np.zeros((5, 5))
        for i in range(3):
            sylvester[i, i : i + 3] = e1
        for i in range(2):
            sylvester[3 + i, i : i + 4] = e2
        sextic = np.polyval(_q5_sextic(np.array([l1]), np.array([l2]))[0], a1)
        want = a1 * l2**4 * (a1 - V5) ** 2 * sextic / (5000.0 * (math.sqrt(10.0) * a1 - 1.0) ** 2)
        assert math.isclose(np.linalg.det(sylvester), want, rel_tol=1e-10, abs_tol=1e-300)


def test_sextic_at_half_is_the_quartic():
    for l2 in (0.3, 0.45, 0.5, -0.2):
        c = _q5_sextic(np.array([0.5]), np.array([l2]))[0]
        assert c[5] == 0.0 and c[6] == 0.0
        quartic = ct.q5_quartic_coeffs(l2).as_array()
        np.testing.assert_allclose(c[:5], 25.0 / (4.0 * l2 * l2) * quartic, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# agreement with the lambda1 = 1/2 analysis and the continuation reference
# ---------------------------------------------------------------------------


def _same_solutions(got, want, tol=1e-8):
    return len(got) == len(want) and all(
        max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= tol for a, b in zip(got, want)
    )


def test_agrees_with_critical_analysis():
    grid = [i / 200.0 for i in range(200)] + [37.0 / 96.0, ref_special_lambda2()]
    # the discriminant roots, where the quartic's root count changes
    grid = [l2 for l2 in grid if abs(l2 - 0.370748) > 1e-3 and abs(l2 - 0.494119) > 1e-3]
    for l2 in grid:
        want = ref_q5_solutions_at_critical(l2)
        got = ct.q5_solutions(0.5, l2)
        assert _same_solutions(got.solutions, want.solutions), (l2, got.solutions, want.solutions)
        assert all(r < 1e-9 for r in got.residuals)


def test_potts_point_zero_roots_are_the_trivial_solution():
    # at (1/2, 1/2) the sextic is a1^3 times a cubic; its zero roots give
    # alpha2 = 0, the trivial solution, and nothing is rejected
    s = ct.q5_solutions(0.5, 0.5)
    assert s.n_nontrivial == 3 and s.rejected == ()


def test_special_solution_at_37_96():
    l2 = 37.0 / 96.0
    sols = ct.q5_solutions(0.5, l2).solutions
    assert _contains(sols, (V5, V5 / (4.0 * l2)))


def _feasible_point(l1, l2):
    return bool(feasible_lambdas(5, np.array([l1]), np.array([l2]))[0])


def _isolated_solutions(l1, l2, solutions):
    """The solutions whose displacement Jacobian is invertible.

    Where it is singular (a fold, or the trivial solution at lambda2 = 1/2)
    Newton stops within about sqrt(1e-9) of the fixed point, and the
    reference can report a near-trivial point such as (5e-12, 1e-6) that is
    only the degenerate trivial solution.
    """
    return [a for a in solutions if abs(ct.q5_jacobian(l1, l2, a)[1]) > 1e-6]


@SETTINGS
@given(l1=st.floats(0.40, 0.52), l2=st.floats(0.30, 0.56))
def test_finds_every_continuation_solution_in_window(l1, l2):
    new = ct.q5_solutions(l1, l2)
    for alpha in _isolated_solutions(l1, l2, ref_q5_solutions(l1, l2).solutions):
        assert _contains(new.solutions, alpha), (l1, l2, alpha, new.solutions)
    assert q5_solution_counts(np.array([l1]), np.array([l2]))[0] == new.n_nontrivial


@SETTINGS
@given(l1=st.floats(0.5 + 1e-6, 0.7), t=st.floats(-0.5, 1.0))
def test_finds_every_continuation_solution_at_robust_points(l1, t):
    l2 = t * l1
    if not _feasible_point(l1, l2):
        return
    new = ct.q5_solutions(l1, l2)
    # lambda1 * br(T) > 1 guarantees a transition
    assert new.n_nontrivial >= 1
    for alpha in _isolated_solutions(l1, l2, ref_q5_solutions(l1, l2).solutions):
        assert _contains(new.solutions, alpha), (l1, l2, alpha, new.solutions)


# ---------------------------------------------------------------------------
# degenerate cases of the alpha2 recovery and of the root count
# ---------------------------------------------------------------------------


def test_lambda2_zero():
    # E1 does not involve alpha2: l1^2 a1^2 = 2 l1/5 - 1/5, and E2 gives
    # a2 = v l1^2 a1^2 / (1/5 + l1^2 a1^2)
    for l1 in (0.55, 0.6):
        a1 = math.sqrt(0.4 * l1 - 0.2) / l1
        a2 = V5 * (0.4 * l1 - 0.2) / (0.4 * l1)
        s = ct.q5_solutions(l1, 0.0)
        assert _same_solutions(s.solutions, [(0.0, 0.0), (-a1, a2), (a1, a2)], tol=1e-12)
        assert ct.classify_point(5, l1, 0.0).n_nontrivial == 2
    assert abs(ct.q5_solutions(0.6, 0.0).nontrivial[1][0] - 1.0 / 3.0) < 1e-12


def test_double_root_at_potts_fold_counted_once():
    # at lambda = 4/9 the two diagonal fixed points merge; within a few ulps
    # below it the rounded sextic cannot tell one double root from two roots
    lam = 4.0 / 9.0
    assert ct.q5_solutions(lam, lam).n_nontrivial == 1
    assert _contains(ct.q5_solutions(lam, lam).solutions, (0.75 * V5, 0.75 * V5))
    for _ in range(8):
        lam = math.nextafter(lam, 0.0)
        assert ct.q5_solutions(lam, lam).n_nontrivial <= 1, lam


def test_two_fixed_points_sharing_alpha1_are_both_found():
    # a point of the res-51 sweep of [0, 0.565393234768397]^2 close to G = 0,
    # where two fixed points share alpha1 to about 2e-7: both estimates of
    # alpha2 are off by up to 2.5e-6, which the residual check rejects, so
    # without the Newton step on (E1, E2) the count reads 4 between
    # neighbours of 6 in its column
    axis = np.linspace(0.0, 0.565393234768397, 51)
    l1, l2 = float(axis[49]), float(axis[48])
    s = ct.q5_solutions(l1, l2)
    assert (s.n_nontrivial, s.rejected) == (6, ())
    pair = [a for a in s.nontrivial if abs(a[0] + 0.054879) < 1e-6]
    assert len(pair) == 2 and abs(pair[0][1] - pair[1][1]) > 0.2
    assert q5_solution_counts(np.full(3, l1), axis[46:49]).tolist() == [6, 6, 6]


def test_lambda1_zero_drops_the_degree():
    # the sextic's four leading coefficients vanish; no root is invented
    for l2 in (-0.2, 0.0, 0.3):
        s = ct.q5_solutions(0.0, l2)
        assert s.solutions == ((0.0, 0.0),)


# ---------------------------------------------------------------------------
# the grid counts are the per-point view's, at the places where a slip shows
# ---------------------------------------------------------------------------


def _assert_counts_match_points(l1, l2):
    l1, l2 = np.asarray(l1, dtype=float), np.asarray(l2, dtype=float)
    got = q5_solution_counts(l1, l2).tolist()
    want = [ct.q5_solutions(a, b).n_nontrivial for a, b in zip(l1.tolist(), l2.tolist())]
    assert got == want, [(a, b, g, w) for a, b, g, w in zip(l1, l2, got, want) if g != w][:5]


COUNT_SETTINGS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@COUNT_SETTINGS
@given(st.lists(st.tuples(st.floats(-0.4, 0.8), st.floats(-0.8, 0.8)), min_size=1, max_size=20))
def test_counts_at_feasible_points(points):
    points = [p for p in points if _feasible_point(*p)]
    if points:
        _assert_counts_match_points(*zip(*points))


@COUNT_SETTINGS
@given(st.lists(st.floats(-1e-12, 1e-12), min_size=1, max_size=10))
def test_counts_at_the_potts_fold(offsets):
    # lambda1 = lambda2 = 4/9, where the two diagonal fixed points merge
    lam = [4.0 / 9.0 + t for t in offsets]
    _assert_counts_match_points(lam, lam)


@COUNT_SETTINGS
@given(l1=st.sampled_from([0.0, 0.5]), l2=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10))
def test_counts_at_lambda1_zero_and_half(l1, l2):
    _assert_counts_match_points([l1] * len(l2), l2)


@COUNT_SETTINGS
@given(st.lists(st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.0)), min_size=1, max_size=10))
def test_counts_at_nonpositive_lambda2(points):
    _assert_counts_match_points(*zip(*points))


SUBNORMAL = st.floats(5e-324, 2.2250738585072014e-308).flatmap(lambda t: st.sampled_from([t, -t]))


@COUNT_SETTINGS
@given(st.lists(st.tuples(st.floats(-0.8, 0.8), SUBNORMAL), min_size=1, max_size=10))
def test_counts_at_subnormal_lambda2(points):
    _assert_counts_match_points(*zip(*points))


# ---------------------------------------------------------------------------
# every fixed point has |alpha1| <= 2v
# ---------------------------------------------------------------------------

POINT = st.floats(-1e3, 1e3, allow_nan=False)
HUGE = st.floats(1e100, 1e150).flatmap(lambda m: st.sampled_from([m, -m]))


@SETTINGS
@given(x=st.one_of(POINT, HUGE), y=st.one_of(POINT, HUGE))
def test_first_mode_sum_of_squares(x, y):
    # x = lambda1 alpha1, y = lambda2 alpha2, D = 1/5 + x^2 + y^2 and
    # N1 = 2x/5 + 2v x y + v y^2: the first mode of the map is N1/D, and
    # 2v D -+ N1 are sums of squares (2/5 = 4 v^2), so |N1/D| <= 2v
    v = V5
    d = 0.2 + x * x + y * y
    n1 = 0.4 * x + 2.0 * v * x * y + v * y * y
    size = 1.0 + x * x + y * y
    assert abs((2.0 * v * d - n1) - v * ((x - y) ** 2 + (x - 2.0 * v) ** 2)) <= 1e-14 * size
    assert abs((2.0 * v * d + n1) - v * ((x + y) ** 2 + (x + 2.0 * v) ** 2 + 2.0 * y * y)) <= 1e-14 * size
    a1, _ = ct.mode_map_q5(1.0, 1.0, (x, y))
    assert abs(a1) <= 2.0 * v * (1.0 + 1e-15)


def test_accepted_candidates_obey_the_first_mode_bound():
    l1s, l2s = np.linspace(0.40, 0.52, 200), np.linspace(0.30, 0.56, 200)
    l1, l2 = np.repeat(l1s, 200), np.tile(l2s, 200)
    keep = feasible_lambdas(5, l1, l2)
    l1, l2 = l1[keep], l2[keep]
    a1, a2, valid = _q5_candidates(l1, l2)
    status, _ = _verify_candidates(5, l1[:, None], l2[:, None], a1, a2, valid)
    accepted = np.abs(a1[status == _ACCEPTED])
    assert accepted.size > 10000
    # a fixed point is within RESIDUAL_TOL of its image
    assert accepted.max() <= 2.0 * V5 + RESIDUAL_TOL


# ---------------------------------------------------------------------------
# the transition line
# ---------------------------------------------------------------------------

# q5_transition_line on 0.40, 0.41, ..., 0.50 computed with the continuation solver
CONTINUATION_LINE = [
    0.483711, 0.475977, 0.467539, 0.458398, 0.448867, 0.438789,
    0.428320, 0.417148, 0.404961, 0.390898, 0.370742,
]


def test_transition_line_matches_continuation():
    grid = [0.40 + 0.01 * i for i in range(10)] + [0.5]
    line = ct.q5_transition_line(grid)
    assert [l1 for l1, _ in line] == grid
    for (_, got), want in zip(line, CONTINUATION_LINE):
        assert abs(got - want) < 1e-4
    assert abs(line[-1][1] - 0.370748) < 1e-4


def test_transition_line_is_batched_bisection(monkeypatch):
    # at the default tol the fold candidates' check is the only call: the
    # top of each bracket and both ends of each candidate's bisection node
    calls = []
    original = ct.phase.q5_solution_counts

    def counted(l1, l2):
        calls.append(len(l1))
        return original(l1, l2)

    monkeypatch.setattr(ct.phase, "q5_solution_counts", counted)
    line = ct.q5_transition_line([0.42, 0.46, 0.5], tol=1e-4)
    monkeypatch.undo()
    _, centre, _ = q5_fold_bands(np.array([0.42, 0.46, 0.5]))
    candidates = (centre > 0.33 + ct.phase._FOLD_STEP) & (centre < 0.65 - ct.phase._FOLD_STEP)
    assert calls == [3 + 2 * np.count_nonzero(candidates)]
    for l1, l2c in line:
        assert ct.q5_solutions(l1, l2c + 1e-4).n_nontrivial >= 1
        assert ct.q5_solutions(l1, l2c - 1e-4).n_nontrivial == 0
