"""Quartic machinery, the elimination oracle, closed-form solvers and the Jacobian.

The P4/P3 elimination, the 37/96 special case and damped Newton are the
test-local references of `test_q5_elimination`.  `ref_threshold_candidates`
is the quartic root step as it took its candidates where Delta is nonzero,
by a threshold on the imaginary parts.
"""
import itertools
import math
import re
import struct
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree.fixedpoint import (
    _RESIDUAL,
    DEDUP_TOL,
    _assemble,
    _residual,
    _verify_candidates,
    q4_solution_counts,
)
from clocktree import quartic
from clocktree.quartic import _invariant_terms, _q5_reduced_quartic
from test_q5_elimination import (
    RefAtSpecialPoint,
    ref_alpha2_from_alpha1,
    ref_newton_solve,
    ref_p3,
    ref_p4,
    ref_special_case,
    ref_special_lambda2,
)

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


def _floats_around(x, n):
    """The n consecutive floats from n/2 below x (x among them), ascending."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return [struct.unpack("<d", struct.pack("<q", b))[0] for b in range(bits - n // 2, bits + n // 2)]


def _exact_delta_sign(coeffs):
    """The sign of Delta of the float coefficients, from their integer multiples."""
    ratios = [x.as_integer_ratio() for x in coeffs.as_array().tolist()]
    den = max(d for _, d in ratios)
    delta = sum(_invariant_terms(*(n * (den // d) for n, d in ratios))[0])
    return (delta > 0) - (delta < 0)


@pytest.mark.parametrize("root", [0.3707480445408525, 0.4941189983741158])
def test_printed_delta_has_the_structures_sign_on_every_float_near_a_root_of_delta(root):
    # a compensated sum of the rounded float terms has the opposite sign to
    # the exact Delta on 187 of the 40,000 floats around the first root
    for l2 in _floats_around(root, 40_000):
        analysis = ct.q5_quartic_analysis(l2)
        sign = _exact_delta_sign(analysis.coeffs)
        assert (analysis.structure is ct.RootStructure.TWO_DISTINCT) == (sign < 0), l2
        assert (analysis.delta > 0) - (analysis.delta < 0) == sign, l2


def _exact_invariants(coeffs):
    return [sum(terms) for terms in _invariant_terms(*map(Fraction, coeffs.as_array().tolist()))]


# the least magnitude that rounds past the largest float: halfway to 2^1024 rounds up, to even
_OVERFLOW = Fraction(2**1024 - 2**970)
_SIGNED = st.sampled_from([1.0, -1.0])
_COEFF = st.one_of(
    st.just(0.0),
    st.builds(lambda s, x: s * x, _SIGNED, st.floats(1e-300, 1e100)),
    st.builds(lambda s, k: s * k * 5e-324, _SIGNED, st.integers(1, 2**52 - 1)),  # subnormal
)


def _double_root(r, s, p, k):
    """(x - r)^2 (x^2 + s x + p) times 2^k, integers r, s, p: Delta is exactly 0."""
    ints = np.polymul(np.polymul([1, -r], [1, -r]), [1, s, p]).tolist()
    return ct.QuarticCoeffs(*(math.ldexp(c, k) for c in ints))


_DOUBLE_ROOTS = st.builds(
    _double_root, st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-1074, 300)
)


@settings(max_examples=400, deadline=None)
@given(coeffs=st.builds(lambda c: ct.QuarticCoeffs(*c), st.tuples(*[_COEFF] * 5)) | _DOUBLE_ROOTS)
@example(coeffs=_double_root(3, 1, 5, -1074))
@example(coeffs=_double_root(2, -3, 7, 0))
@example(coeffs=ct.QuarticCoeffs(1e100, 0.0, 1e100, 0.0, 0.0))  # Delta = 0, D overflows
@example(coeffs=ct.QuarticCoeffs(5e-324, 0.0, -5e-324, 0.0, 5e-324))
def test_invariants_are_the_exact_values_rounded_once(coeffs):
    exact = _exact_invariants(coeffs)
    if not any(coeffs.as_array().tolist()):
        with pytest.raises(ct.DegenerateQuartic):
            ct.quartic_invariants(coeffs)
    elif any(abs(x) >= _OVERFLOW for x in exact):
        with pytest.raises(ct.ClockTreeError, match="overflow"):
            ct.quartic_invariants(coeffs)
    else:
        got = ct.quartic_invariants(coeffs)
        assert list(got) == [float(x) for x in exact]
        # a value below the subnormals is a zero of its sign
        assert [math.copysign(1.0, g) for g, x in zip(got, exact) if x] == [math.copysign(1.0, x) for x in exact if x]


def test_classify_quartic_evaluates_the_invariants_once(monkeypatch):
    calls = {"terms": 0, "fsum": 0}

    def count(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(quartic, "_invariant_terms", count("terms", quartic._invariant_terms))
    monkeypatch.setattr(math, "fsum", count("fsum", math.fsum))
    for l2 in (0.3707480445408525, 0.45, -0.2):
        ct.classify_quartic(ct.q5_quartic_coeffs(l2))
    assert calls == {"terms": 3, "fsum": 0}


def test_the_quartic_overflows_where_delta_does():
    # Delta has degree 24 in lambda2 and overflows from about 5.6325e12 and
    # -5.6329e12; a float term of it overflows from about 1.5875e12
    for l2 in (1.6e12, 5.63e12, -5.63e12):
        assert math.isfinite(ct.q5_quartic_analysis(l2).delta)
    # at 1e77 the leading coefficient is inf, at -1e300 a power of lambda2 overflows
    for l2 in (5.64e12, -5.64e12, 1e77, -1e300):
        with pytest.raises(ct.ClockTreeError, match="overflow"):
            ct.q5_quartic_analysis(l2)
    # a coefficient that is not finite is refused as such, not as an overflow
    for bad in (math.inf, -math.inf, math.nan):
        coeffs = (1.0, 0.0, bad, 0.0, 1.0)
        message = f"the quartic's coefficients must be finite, got {coeffs}"
        with pytest.raises(ct.ClockTreeError, match=re.escape(message)):
            ct.quartic_invariants(ct.QuarticCoeffs(*coeffs))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_regimes():
    a30 = ct.classify_quartic(ct.q5_quartic_coeffs(0.30))
    assert a30.structure is ct.RootStructure.NO_REAL
    assert a30.delta > 0 and a30.p > 0
    assert sum(m for _, m in a30.real_roots) == 0

    a45 = ct.classify_quartic(ct.q5_quartic_coeffs(0.45))
    assert a45.structure is ct.RootStructure.TWO_DISTINCT
    assert a45.delta < 0
    assert sum(m for _, m in a45.real_roots) == 2

    a499 = ct.classify_quartic(ct.q5_quartic_coeffs(0.499))
    assert a499.structure is ct.RootStructure.FOUR_DISTINCT
    assert a499.delta > 0 and a499.p < 0 and a499.d < 0
    assert sum(m for _, m in a499.real_roots) == 4


# the float lambda2 of each golden row `classify --lambda2`, and the floats
# between which the structure of the rounded quartic flips: 5 times from
# 0.37074804454085236 to ...264 and 7 times from 0.49411899837411505 to
# ...1162, because the coefficients round differently at each float
_NEAR_ROOT = {
    0.3707480445408525: (0.37074804454085125, 0.3707480445408523, 0.37074804454085264),
    0.4941189983741158: (0.49411899837411594, 0.494118998374115, 0.4941189983741162),
}


@pytest.mark.parametrize("root", list(_NEAR_ROOT))
def test_classification_near_the_discriminant_roots(root):
    # the first two real roots of Delta in lambda2, where a real root pair
    # of the quartic appears; on either side the roots are simple, and the
    # structure and the roots must be those of sympy's real roots of the
    # quartic's own (rounded) coefficients
    x = sympy.Symbol("x")
    count_of = {0: ct.RootStructure.NO_REAL, 2: ct.RootStructure.TWO_DISTINCT, 4: ct.RootStructure.FOUR_DISTINCT}
    golden, lo, hi = _NEAR_ROOT[root]
    # within a few floats of a root of Delta two of the real roots lie about
    # 2e-8 apart, and the quartic evaluated in floats fixes them only to
    # about 1e-9 (its rounding over |q'|); they must still come out distinct
    lambda2s = [(root + offset, 1e-9) for offset in (-1e-6, -1e-8, -1e-10, 1e-10, 1e-8, 1e-6)]
    lambda2s += [(golden, 2e-9), (lo, 2e-9)]
    while lambda2s[-1][0] < hi:
        lambda2s.append((math.nextafter(lambda2s[-1][0], 1.0), 2e-9))
    for l2, atol in lambda2s:
        coeffs = ct.q5_quartic_coeffs(l2)
        quartic = sympy.Poly([sympy.Rational(c) for c in coeffs.as_array().tolist()], x)
        want = sorted(float(r) for r in set(quartic.real_roots()))
        analysis = ct.classify_quartic(coeffs)
        assert analysis.structure is count_of[len(want)], (l2, analysis.structure, want)
        assert [m for _, m in analysis.real_roots] == [1] * len(want), l2
        roots = [r for r, _ in analysis.real_roots]
        assert roots == sorted(set(roots)), l2
        np.testing.assert_allclose(roots, want, rtol=0, atol=atol)


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
            assert sum(m for _, m in analysis.real_roots) == count_of[analysis.structure], l2
        else:
            # measure-zero multiple-root case hit head on
            assert analysis.structure is ct.RootStructure.DOUBLE_ROOT_PLUS


def test_classification_synthetic_multiple_roots():
    def classify(coeffs):
        return ct.classify_quartic(ct.QuarticCoeffs(*coeffs))

    # (x^2+1)^2: two complex double roots, no real ones
    a = classify([1, 0, 2, 0, 1])
    assert a.structure is ct.RootStructure.NO_REAL and a.real_roots == ()
    # (x-1)^2 (x-2)(x-3): one double + two simple
    a = classify([1, -7, 17, -17, 6])
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 2
    assert a.real_roots == ((1.0, 2), (2.0, 1), (3.0, 1))
    # (x-1)^2 (x^2+1): one real double + complex pair
    a = classify([1, -2, 2, -2, 1])
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 0
    assert a.real_roots == ((1.0, 2),)
    # (x-1)^3 (x-2): triple + simple
    a = classify([1, -5, 9, -7, 2])
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 1
    assert a.real_roots == ((1.0, 3), (2.0, 1))
    # (x-1)^4
    a = classify([1, -4, 6, -4, 1])
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 0
    assert a.real_roots == ((1.0, 4),)
    # (x-1)^2 (x+1)^2: two real doubles
    a = classify([1, 0, -2, 0, 1])
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 0
    assert a.real_roots == ((-1.0, 2), (1.0, 2))
    # (x^2-2)^2: two irrational doubles, each the float nearest +-sqrt(2)
    r2 = math.sqrt(2.0)
    a = classify([1, 0, -4, 0, 4])
    assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 0
    assert a.real_roots == ((-r2, 2), (r2, 2))
    # (x-1)^2 (x^2-2), monic and times 3 and -5/2
    for scale in (1.0, 3.0, -2.5):
        a = classify([scale * c for c in (1, -2, -1, 4, -2)])
        assert a.structure is ct.RootStructure.DOUBLE_ROOT_PLUS and a.n_simple == 2
        assert a.real_roots == ((-r2, 1), (1.0, 2), (r2, 1)), scale


def test_classification_of_every_multiset_of_four_small_roots():
    # np.poly of roots in {-2, ..., 3} is exact; where a root is multiple the
    # squarefree factors give every root exactly, and four simple roots are
    # the polished companion eigenvalues, within a few ulps
    for roots in itertools.combinations_with_replacement([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0], 4):
        analysis = ct.classify_quartic(ct.QuarticCoeffs(*np.poly(roots).tolist()))
        want = tuple(sorted((x, roots.count(x)) for x in set(roots)))
        if len(want) < 4:
            assert analysis.real_roots == want, roots
            assert analysis.structure is ct.RootStructure.DOUBLE_ROOT_PLUS, roots
            assert analysis.n_simple == sum(m == 1 for _, m in want), roots
        else:
            assert analysis.structure is ct.RootStructure.FOUR_DISTINCT, roots
            assert [m for _, m in analysis.real_roots] == [1] * 4, roots
            np.testing.assert_allclose([r for r, _ in analysis.real_roots], roots, rtol=0, atol=4e-15)


@pytest.mark.parametrize("a", [0.0, 1e-320, -1e-320])
def test_classify_refuses_a_leading_coefficient_too_small_to_divide_by(a):
    with pytest.raises(ct.DegenerateQuartic, match="leading coefficient"):
        ct.classify_quartic(ct.QuarticCoeffs(a, 1.0, -3.0, 2.0, 0.5))


def ref_threshold_candidates(coeffs):
    """Every companion eigenvalue z within 1e-6 * max(1, max |eigenvalue|) of the real axis, polished by Newton steps.

    Newton starts from z.real + z.imag, so a conjugate pair starts from two
    points.
    """
    mon = coeffs.as_array() / coeffs.a
    comp = np.zeros((4, 4))
    comp[1:, :3] = np.eye(3)
    comp[:, 3] = -mon[:0:-1]
    eig = np.linalg.eigvals(comp)
    root_scale = max(1.0, float(np.abs(eig).max()))
    polished = []
    for z in eig:
        if abs(z.imag) > 1e-6 * root_scale:
            continue
        x = z.real + z.imag
        for _ in range(50):
            fx, dfx = coeffs(x), coeffs.derivative(x)
            if dfx == 0.0 or abs(fx) < 1e-15 * max(abs(coeffs.a), abs(coeffs.e), 1.0):
                break
            step = fx / dfx
            if abs(step) < 1e-17 * max(1.0, abs(x)):
                break
            x -= step
        polished.append(x)
    return sorted(polished)


def _from_roots(scale, roots):
    return ct.QuarticCoeffs(*(scale * np.poly(roots)).tolist())


def _near_complex(r, b, s, d):
    """A complex pair r +- b i, and real roots s and s + d."""
    return ct.QuarticCoeffs(*np.polymul([1.0, -2.0 * r, r * r + b * b], np.poly([s, s + d])).tolist())


_NONZERO = st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3)
_QUARTICS = st.one_of(
    st.builds(ct.q5_quartic_coeffs, st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)),
    st.builds(lambda a, rest: ct.QuarticCoeffs(a, *rest),
              _NONZERO, st.tuples(*[st.floats(-10.0, 10.0)] * 4)),
    # multiple roots
    st.builds(_from_roots, st.floats(0.1, 10.0), st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
                                                          min_size=4, max_size=4)),
    st.builds(_near_complex, st.floats(-2.0, 2.0), st.floats(-9.0, -3.0).map(lambda e: 10.0**e),
              st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0])),
)


@settings(max_examples=300, deadline=None)
@given(coeffs=_QUARTICS)
# (x^2 + 1)((x - 1)^2 + 1e-12): NO_REAL, where the threshold took the pair
# 1 +- 1e-6 i for a real double root
@example(coeffs=ct.QuarticCoeffs(*np.polymul([1.0, 0.0, 1.0], [1.0, -2.0, 1.0 + 1e-12]).tolist()))
# FOUR_DISTINCT with two roots closer than DEDUP_TOL: 1e-9 and 6e-9, and
# +-1.08e-19 of x^4 - x^2 + 1.175494351e-38, each pair once listed as a double root
@example(coeffs=_from_roots(1.0, [1e-9, 6e-9, -1.0, 2.0]))
@example(coeffs=ct.QuarticCoeffs(1.0, 0.0, -1.0, 0.0, 1.175494351e-38))
def test_roots_are_the_threshold_candidates_where_they_agree_with_the_structure(coeffs):
    # where Delta is exactly nonzero the structure fixes the real-root count:
    # the root step takes that many eigenvalues, the closest to the real axis,
    # which are the threshold's candidates wherever those are as many, each
    # listed once as a simple root, however close two of them lie
    if sum(_invariant_terms(*map(Fraction, coeffs.as_array().tolist()))[0]) == 0:
        return
    analysis = ct.classify_quartic(coeffs)
    count = {ct.RootStructure.NO_REAL: 0, ct.RootStructure.TWO_DISTINCT: 2, ct.RootStructure.FOUR_DISTINCT: 4}
    assert sum(m for _, m in analysis.real_roots) == count[analysis.structure]
    candidates = ref_threshold_candidates(coeffs)
    if len(candidates) == count[analysis.structure]:
        assert analysis.real_roots == tuple((float(x), 1) for x in candidates)
    assert all(type(x) is float and m == 1 for x, m in analysis.real_roots)


# ---------------------------------------------------------------------------
# the elimination oracle and the special case
# ---------------------------------------------------------------------------


def test_alpha2_of_zero_is_zero():
    assert ref_alpha2_from_alpha1(0.0, 0.45) == 0.0


def test_elimination_produces_fixed_points():
    for l2 in (0.42, 0.45, 0.48):
        analysis = ct.classify_quartic(ct.q5_quartic_coeffs(l2))
        for root, _ in analysis.real_roots:
            a2 = ref_alpha2_from_alpha1(root, l2)
            assert _residual(5, 0.5, l2, (root, a2)) < 1e-9


def test_at_special_point_guard():
    with pytest.raises(RefAtSpecialPoint):
        ref_alpha2_from_alpha1(V, 0.45)
    # just off the removable point the value is finite but the pair is not a
    # fixed point away from the special lambda2
    for s in (1 + 1e-6, 1 - 1e-6):
        a1 = V * s
        a2 = ref_alpha2_from_alpha1(a1, 0.45)
        assert math.isfinite(a2)
        assert _residual(5, 0.5, 0.45, (a1, a2)) > 1e-6


def test_special_case():
    star = ref_special_lambda2()
    assert abs(star - 37.0 / 96.0) < 1e-15
    assert abs(star - 0.385417) < 1e-6
    sol = ref_special_case(star)
    assert sol is not None
    assert _residual(5, 0.5, star, sol) < 1e-9
    assert ref_special_case(0.4) is None


def test_factorization_identity():
    # 5 a1^3 P3^2 + 20 l2^2 P4^2 a1 - 20 l2 v a1 P3 P4 - 20 v l2^2 P4^2
    #   = a1^3 (a1 - v)^2 q_{l2}(a1), relative accuracy 1e-10
    for l2 in (0.1, 0.25, 0.37, 0.45, 0.55):
        c = ct.q5_quartic_coeffs(l2)
        for a1 in np.linspace(-0.5, 0.6, 45):
            p3 = ref_p3(a1, l2)
            p4 = ref_p4(a1, l2)
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


def test_q5_critical_counts_just_above_the_discriminant_roots():
    # 0.370749 lies about 1e-6 above the first root of Delta (0.3707480445...)
    # and 0.494119 about 1.6e-9 above the second (0.4941189984...): the
    # quartic has its new real pair there, and every real root but alpha1 = 0
    # is a fixed point
    x = sympy.Symbol("x")
    want = []
    for l2 in (0.370749, 0.494119):
        quartic = sympy.Poly([sympy.Rational(c) for c in ct.q5_quartic_coeffs(l2).as_array().tolist()], x)
        want.append(sum(1 for r in set(quartic.real_roots()) if abs(r) > DEDUP_TOL))
        s = ct.q5_solutions_at_critical(l2)
        assert s.n_nontrivial == want[-1], (l2, s.solutions)
        assert all(r < 1e-9 for r in s.residuals)
    assert want == [2, 4]


def test_the_printed_quartic_is_classified_until_a_coefficient_underflows():
    # the switch to the quartic divided by lambda2^2 sat at |lambda2| of
    # about 1.95e-26, where float invariants once underflowed: below it,
    # `classify` printed one quartic's coefficients and another's structure.
    # e = 8 lambda2^2 + ... leaves the normal floats between 6e-155 and
    # 5e-155; at 0.5 and 0.8 a coefficient cancels to 0.0 instead
    for l2 in (1e-25, 1e-30, -1e-100, 6e-155, 0.5, 0.8):
        assert ct.q5_quartic_analysis(l2).coeffs == ct.q5_quartic_coeffs(l2)
    for l2 in (5e-155, -1e-160, 5e-324):
        assert ct.q5_quartic_analysis(l2).coeffs == _q5_reduced_quartic(l2)


def test_q5_tiny_lambda2_trivial_only():
    # the quartic's coefficients underflow to 0 below lambda2 ~ 1e-162 and its
    # invariants below ~1e-26; neither makes the quartic degenerate
    for l2 in (1e-25, 1e-30, 1e-100, 1e-200, 2.7e-229, 5e-324):
        s = ct.q5_solutions_at_critical(l2)
        assert s.solutions == ((0.0, 0.0),)
        assert s.rejected == ()


@pytest.mark.parametrize("q", [4, 5])
def test_a_candidate_whose_residual_is_nan_is_rejected(q):
    # the mode map of (1e200, 1e200) overflows to inf/inf = nan, a residual
    # that fails `residual >= 1e-9`, and the candidate was accepted
    a1, a2 = np.array([[1e200]]), np.array([[1e200]])
    status, residual = _verify_candidates(q, 0.3, 0.2, a1, a2, True)
    assert math.isnan(residual[0, 0]) and status[0, 0] == _RESIDUAL
    sols = _assemble(q, 0.3, 0.2, [(1e200, 1e200)])
    assert sols.solutions == ((0.0, 0.0),) and sols.rejected == ("(1e+200, 1e+200): residual nan",)


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
        assert (p.feasible, p.regime, p.n_nontrivial) == (True, ct.Regime.NO_PT, 0)
        assert list(ct.sweep(4, (0.1, 0.1), (l2, l2), resolution=1)) == [p]


@pytest.mark.parametrize(
    "lambda1, lambda2", [(0.52, 1e-20), (0.52, 1e-10), (0.52, 1e-9), (0.9, 1e-8), (0.9, 1e-12), (0.52, -1e-10)]
)
def test_q4_tiny_lambda2_keeps_the_nontrivial_pair(lambda1, lambda2):
    # the alpha2 quadratic has qa = -lambda2 (lambda2 + 2 lambda1), so its
    # root near -qc/qb cancels in (-qb - sq)/(2 qa); the pair it gave was
    # rejected on residual (1.1e-7 at (0.52, 1e-10)), though it is accepted
    # at lambda2 = 0
    s = ct.q4_solutions(lambda1, lambda2)
    a2 = (0.5 * lambda1 - 0.25) / lambda1  # the root at lambda2 = 0
    assert s.n_nontrivial == 2 and s.rejected == ()
    for (a1, b), res in zip(s.nontrivial, s.residuals[1:]):
        assert abs(b - a2) < 1e-6 and abs(abs(a1) - math.sqrt(lambda1 / 2 - 0.25) / lambda1) < 1e-6
        assert res < 1e-15
    assert q4_solution_counts(np.array([lambda1]), np.array([lambda2])).tolist() == [2]


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
# Newton (the test-local reference), Jacobian, continuation
# ---------------------------------------------------------------------------


def test_newton_trivial_root():
    assert ref_newton_solve(0.45, 0.4, (0.0, 0.0)) == (0.0, 0.0)


def test_newton_recovers_analytic_solutions():
    for base in ct.q5_solutions_at_critical(0.45).nontrivial:
        r = ref_newton_solve(0.5, 0.45, (base[0] + 5e-5, base[1] - 5e-5))
        assert r is not None
        assert max(abs(r[0] - base[0]), abs(r[1] - base[1])) < 1e-9


def test_newton_seed_perturbation_stability(rng):
    for base in ct.q5_solutions_at_critical(0.48).nontrivial:
        for _ in range(5):
            seed = (base[0] + rng.uniform(-1e-4, 1e-4), base[1] + rng.uniform(-1e-4, 1e-4))
            r = ref_newton_solve(0.5, 0.48, seed)
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
    assert ct.potts_boundary_laws(0.40) is None


@pytest.mark.parametrize("lam", [1.0, 1e308, -1e308])
def test_boundary_laws_that_are_not_finite_nonzero_floats_raise(lam):
    # theta = (1 + 4 lambda)/(1 - lambda) is not a positive finite float;
    # each was a ZeroDivisionError
    with pytest.raises(ct.ClockTreeError, match="lambda = "):
        ct.potts_boundary_laws(lam)


def test_boundary_laws_outside_the_potts_domain_raise():
    # theta = (1 + 4 lambda)/(1 - lambda) <= 0 is no Potts model; -10 and
    # 1.0000001 returned a verified pair and -0.25 (theta = 0) None
    for lam in (-10.0, -4.0, -0.25, 1.0000001, 1.5):
        with pytest.raises(ct.NotAProbability, match="lambda = "):
            ct.potts_boundary_laws(lam)


@pytest.mark.parametrize("lam", [0.5, 0.6, 0.9, 0.9999999999, 1.0 - 2.0**-52])
def test_boundary_laws_exist_up_to_one(lam):
    # the pair is verified on all of [4/9, 1); at 1/2 the minus branch is the
    # free solution (a- = 4, modes 0), above 1/2 its modes are negative.  At
    # the last two theta - 1 - s rounded to 0 in the form 8/(theta - 1 - s)
    bl = ct.potts_boundary_laws(lam)
    assert bl is not None and max(bl.residual_plus, bl.residual_minus) < 1e-9
    if lam == 0.5:
        assert bl.a_minus == 4.0 and bl.modes_minus == (0.0, 0.0)
    else:
        assert bl.modes_minus[0] < 0.0 < bl.modes_plus[0]


def test_boundary_laws_double_at_interval_edge():
    # the float 4/9 lies 2^-52/9 below 4/9, where there is no pair; the next
    # float up has one, the two laws within 1e-7 of each other
    assert ct.potts_boundary_laws(4.0 / 9.0) is None
    bl = ct.potts_boundary_laws(math.nextafter(4.0 / 9.0, 1.0))
    assert bl is not None
    assert abs(bl.theta - 5.0) < 1e-12
    assert abs(bl.a_plus - bl.a_minus) < 1e-7
    assert max(bl.residual_plus, bl.residual_minus) < 1e-9


def test_potts_diagonal_solutions_exist_from_four_ninths():
    # below 4/9 there is none, the float 4/9 included, which lies 2^-52/9
    # below it, nor at a lambda that is not finite (each gave a pair of nans);
    # from the next float up the lower root lies below the upper
    for lam in (0.3, 0.44, 4.0 / 9.0, math.nan, math.inf, -math.inf):
        assert ct.q5_potts_diagonal_solutions(lam) is None
    for lam in (math.nextafter(4.0 / 9.0, 1.0), 0.45):
        lower, upper = ct.q5_potts_diagonal_solutions(lam)
        assert 0.0 < lower[0] == lower[1] < upper[0] == upper[1]


def test_boundary_laws_radicand_clamp_just_below_four_ninths():
    # two floats below 4/9 the radicand is negative; a clamp on it once
    # returned the double root there
    lam = math.nextafter(math.nextafter(4.0 / 9.0, 0.0), 0.0)
    assert ct.potts_boundary_laws(lam) is None
    assert ct.q5_potts_diagonal_solutions(lam) is None


def test_boundary_laws_verified_pair():
    bl = ct.potts_boundary_laws(0.45)
    assert bl is not None
    assert bl.residual_plus < 1e-9 and bl.residual_minus < 1e-9
    # the printed sign convention yields negative boundary-law components and
    # fails the residual check; the flip must have been recorded
    assert bl.sign_convention == "theta-1" and bl.mode_conversion == "bl-ratio"
    assert bl.a_plus > 0 and bl.a_minus > 0
    # on (4/9, 0.999] the laws multiply to 4, the modes are the diagonal
    # pair, and the bl-ratio conversion of each law gives its modes
    for lam in np.linspace(4.0 / 9.0, 0.999, 2002)[1:].tolist():
        bl = ct.potts_boundary_laws(lam)
        assert abs(bl.a_plus * bl.a_minus - 4.0) <= math.ulp(4.0), lam
        lower, upper = ct.q5_potts_diagonal_solutions(lam)
        assert (bl.modes_minus, bl.modes_plus) == (lower, upper), lam
        for a, modes in ((bl.a_plus, upper), (bl.a_minus, lower)):
            z = 16.0 / (a * a)
            assert abs((z - 1.0) / (math.sqrt(2.5) * (z + 4.0)) - modes[0]) < 1e-15, lam


# a- = 8/(theta - 1 - s) cancels as lambda -> 1, and the lower diagonal root
# (3 lambda - r)/(4 sqrt(10) lambda) as lambda -> 1/2; both references are
# mpmath's at 50 digits, at the float lambda
@pytest.mark.parametrize("lam, a_minus", [
    (0.999, 4994.999199199066373495941),
    (0.9999, 49994.99991999750577809254),
    (1.0 - 2.0**-52, 22517998136852474.99999999999999982236),
])
def test_boundary_law_minus_near_one_to_the_last_digits(lam, a_minus):
    assert abs(ct.potts_boundary_laws(lam).a_minus - a_minus) <= 4e-16 * a_minus


@pytest.mark.parametrize("lam, lower", [
    (0.4999999, 1.686549359753517723162211e-07),
    (0.5 - 2.0**-40, 1.533906547988158454130016e-12),
])
def test_potts_lower_root_near_half_to_the_last_digits(lam, lower):
    (got, _), _ = ct.q5_potts_diagonal_solutions(lam)
    assert abs(got - lower) <= 4e-16 * lower


@pytest.mark.parametrize("lam", [1.0, 2.0, 1e10, 3e153, 3.2e153, 4.5e153, 1e300, sys.float_info.max])
def test_potts_diagonal_roots_at_large_lambda_to_the_last_digits(lam):
    # sqrt(10)*lam*(3*lam + r) overflowed from about 3.1e153, which made the
    # lower root -0.0, and r^2 from about 4.5e153, which made the upper one
    # inf; at the largest float 9*lam - 4 overflowed its division.  The true
    # roots tend to -0.4216/lam and 3/(2 sqrt(10)).  mpmath at 50 digits, at
    # the float lam; the lower root at the largest float is subnormal.
    with mpmath.workdps(50):
        x = mpmath.mpf(lam)
        s = 3 * x + mpmath.sqrt((9 * x - 4) * (x + 4))
        want = (4 * (1 - 2 * x) / (mpmath.sqrt(10) * x * s), s / (4 * mpmath.sqrt(10) * x))
    (lower, _), (upper, _) = ct.q5_potts_diagonal_solutions(lam)
    for got, root in zip((lower, upper), want):
        assert abs(got - root) <= 4e-16 * abs(root) + math.ulp(0.0)


def test_boundary_law_lower_branch_merges_with_free():
    bl = ct.potts_boundary_laws(0.4999999)
    assert bl is not None
    assert abs(bl.modes_minus[0]) < 1e-3
    assert abs(bl.modes_plus[0] - 0.47434) < 1e-3
