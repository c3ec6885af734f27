"""The q=5 solve path against a straightforward copy of it, bit for bit, and the count path's work.

`ref_polynomial_roots`, `ref_q5_candidates` and `ref_fold_roots` are the
sextic's root finder, candidate builder and F's roots written plainly:
one companion stack per degree behind boolean row masks, one Horner pass per
evaluation, the two alpha2 estimates stacked.  The library computes the
same numbers with fewer array operations, so every output must match to the
byte (`tobytes`, so that NaN payloads and signed zeros count), and an input
that raises must raise the same exception.  The work count pins the one
batched eigensolve, of F's companions, that a transition line makes, and
that a q=5 sweep makes none (its folds are placed in grid cells by a sign
test, and the counts of both come from a Sturm chain, without roots), and
how few of their rows the chain leaves to integers, so that neither grows
unnoticed.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree import exact, phase
from clocktree.fixedpoint import (
    RESIDUAL_TOL,
    V5,
    _FOLD_TABLE,
    _fold_roots,
    _polynomial_roots,
    _q5_candidates,
    _q5_sextic,
)
from clocktree.recursion import mode_map_q5

SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def ref_polyval(coeffs, x):
    p = np.zeros_like(x)
    for k in range(coeffs.shape[1]):
        p = p * x + coeffs[:, k, None]
    return p


def ref_polynomial_roots(coeffs):
    n, m = coeffs.shape
    roots = np.full((n, m - 1), complex(np.nan, np.nan))
    big = np.abs(coeffs) > 1e-13 * np.abs(coeffs).max(axis=1, keepdims=True)
    lead = np.where(big.any(axis=1), big.argmax(axis=1), m - 1)
    for first in sorted(set(lead.tolist()) - {m - 1}):
        deg, rows = m - 1 - first, lead == first
        companion = np.zeros((int(rows.sum()), deg, deg))
        companion[:, 0, :] = -coeffs[rows, first + 1 :] / coeffs[rows, first, None]
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        roots[rows, :deg] = np.linalg.eigvals(companion)
    return roots


def ref_q5_candidates(lambda1, lambda2):
    with np.errstate(all="ignore"):
        coeffs = _q5_sextic(lambda1, lambda2)
        roots = ref_polynomial_roots(coeffs)
        slope = coeffs[:, :-1] * np.arange(6, 0, -1)
        x = roots.real
        p = ref_polyval(coeffs, x)
        step = p / ref_polyval(slope, x)
        x = np.where((np.abs(step) <= 1e-6) & (np.abs(ref_polyval(coeffs, x - step)) < np.abs(p)), x - step, x)

        def indistinct(at):
            bound = 32.0 * np.finfo(float).eps * ref_polyval(np.abs(coeffs), np.abs(at))
            return np.abs(ref_polyval(coeffs, at)) <= bound

        valid = (roots.imag == 0.0) | indistinct(x)
        order = np.argsort(np.where(valid, x, np.inf), axis=1)
        x, valid = np.take_along_axis(x, order, axis=1), np.take_along_axis(valid, order, axis=1)
        valid[:, 1:] &= ~indistinct(0.5 * (x[:, :-1] + x[:, 1:]))

        l1, l2 = lambda1[:, None], lambda2[:, None]
        a, b, c = x - V5, -2.0 * V5 * l1 * x, x * (l1 * l1 * x * x - 0.4 * l1 + 0.2)
        e, f = l1 * l1 * x * x - 2.0 * V5 * l1 * l2 * x - 0.4 * l2 + 0.2, -V5 * l1 * l1 * x * x

        def e2(a2):
            return (l2 * l2 * a2 * a2 + e) * a2 + f

        a2 = np.stack([-(b * c + l2 * f * a * a) / (l2 * (b * b - a * c + e * a * a)), -f / e])
        a2 = np.where(x == 0.0, 0.0, a2)
        polished = a2 - e2(a2) / (3.0 * l2 * l2 * a2 * a2 + e)
        a2 = np.where(np.abs(e2(polished)) < np.abs(e2(a2)), polished, a2)
        f1, f2 = mode_map_q5(l1, l2, (x, a2))
        residual = np.maximum(np.abs(x - f1), np.abs(a2 - f2))
        a2 = np.where(residual[0] <= residual[1], a2[0], a2[1])
        rows, slots = np.nonzero(valid & (residual.min(axis=0) >= RESIDUAL_TOL))
        if len(rows):
            at, p1, p2 = (rows, slots), lambda1[rows], lambda2[rows]
            s, t = x[at], a2[at]
            r1, r2 = (p2 * p2 * a[at] * t + p2 * b[at]) * t + c[at], (p2 * p2 * t * t + e[at]) * t + f[at]
            j11 = (p2 * t - 2.0 * V5 * p1) * p2 * t + 3.0 * p1 * p1 * s * s - 0.4 * p1 + 0.2
            j12, j21 = (2.0 * p2 * a[at] * t + b[at]) * p2, 2.0 * p1 * ((p1 * s - V5 * p2) * t - V5 * p1 * s)
            j22 = 3.0 * p2 * p2 * t * t + e[at]
            det = j11 * j22 - j12 * j21
            d1, d2 = (r1 * j22 - r2 * j12) / det, (r2 * j11 - r1 * j21) / det
            small = np.maximum(np.abs(d1), np.abs(d2)) <= 1e-5
            x[rows[small], slots[small]] -= d1[small]
            a2[rows[small], slots[small]] -= d2[small]
    return x, a2, valid


def ref_fold_roots(lambda1):
    with np.errstate(all="ignore"):
        coeffs = (np.asarray(lambda1, dtype=float)[:, None] ** np.arange(11)) @ _FOLD_TABLE
        return coeffs, ref_polynomial_roots(coeffs)


def _outcome(f, *args):
    """Each output array as (dtype, shape, bytes), or the type of the exception f raised."""
    try:
        out = f(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def _assert_same(f, ref, *args):
    got, want = _outcome(f, *args), _outcome(ref, *args)
    assert got == want


SUBNORMAL = st.floats(5e-324, 2.2250738585072014e-308).flatmap(lambda t: st.sampled_from([t, -t]))
# lambda1 = 0 drops S's degree to 2, 1e-300 keeps it in name only, 1/2 is
# the quartic's line, and F has a triple root at (1/2, 2/5)
LAMBDA1 = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.5, 0.5 - 1e-11, 0.5 + 1e-11, 0.4]),
    st.floats(0.5 - 1e-6, 0.5 + 1e-6),
    st.floats(-0.4, 0.8),
    SUBNORMAL,
)
LAMBDA2 = st.one_of(
    st.sampled_from([0.0, -0.0, 0.4, 0.5, 37 / 96]),
    st.floats(0.4 - 1e-6, 0.4 + 1e-6),
    st.floats(-0.8, 0.0),
    st.floats(-0.8, 0.8),
    SUBNORMAL,
)
POINTS = st.lists(st.tuples(LAMBDA1, LAMBDA2), max_size=12)


def _columns(points):
    l1 = np.array([p[0] for p in points], dtype=float)
    l2 = np.array([p[1] for p in points], dtype=float)
    return l1, l2


@SETTINGS
@given(points=POINTS)
def test_candidates_are_the_reference_bit_for_bit(points):
    l1, l2 = _columns(points)
    _assert_same(_q5_candidates, ref_q5_candidates, l1, l2)
    _assert_same(_polynomial_roots, ref_polynomial_roots, _q5_sextic(l1, l2))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("l1", [0.0, 1e-300, 0.5, 0.45])
def test_empty_and_single_batches_are_the_reference(n, l1):
    lambda1, lambda2 = np.full(n, l1), np.full(n, 0.45)
    _assert_same(_q5_candidates, ref_q5_candidates, lambda1, lambda2)
    _assert_same(_fold_roots, ref_fold_roots, lambda1)
    for m in (3, 7, 11):
        _assert_same(_polynomial_roots, ref_polynomial_roots, np.ones((n, m)))


COEFF = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300]),
    st.floats(-1e3, 1e3),
    st.integers(-50, 50).map(float),
    SUBNORMAL,
)


@st.composite
def _coefficient_batches(draw, finite=True):
    """Rows of S-like or F-like length, many with leading zeros, so that one batch mixes degrees."""
    m = draw(st.sampled_from([7, 11]))
    element = COEFF if finite else st.one_of(COEFF, st.sampled_from([np.inf, -np.inf, np.nan]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = draw(st.lists(element, min_size=m, max_size=m))
        zeros = draw(st.sampled_from([0, 0, 0, 1, 2, 4, m - 2, m - 1, m]))
        rows.append([0.0] * zeros + row[zeros:])
    return np.array(rows, dtype=float).reshape(len(rows), m)


@SETTINGS
@given(coeffs=_coefficient_batches())
def test_roots_of_mixed_degrees_are_the_reference(coeffs):
    _assert_same(_polynomial_roots, ref_polynomial_roots, coeffs)


@settings(SETTINGS, max_examples=100)
@given(coeffs=_coefficient_batches(finite=False))
def test_roots_of_non_finite_coefficients_are_the_reference(coeffs):
    # a row with an infinite or NaN coefficient keeps no leading coefficient
    # and reads NaN; the outcome, a raised LinAlgError included, is the same
    _assert_same(_polynomial_roots, ref_polynomial_roots, coeffs)


def test_eigvals_refuses_a_non_finite_companion():
    # _polynomial_roots must keep non-finite rows away from eigvals, which
    # raises this LinAlgError on them
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvals(np.array([[[np.inf, 1.0], [1.0, 0.0]]]))


FOLD_LAMBDA1 = st.one_of(
    LAMBDA1,
    st.sampled_from([1e30, -1e31, 1e200, np.inf, -np.inf, np.nan, -4.0]),
)


@SETTINGS
@given(lambda1=st.lists(FOLD_LAMBDA1, max_size=12))
def test_fold_roots_are_the_reference_bit_for_bit(lambda1):
    _assert_same(_fold_roots, ref_fold_roots, np.array(lambda1, dtype=float))


# ---------------------------------------------------------------------------
# the work count: one batched eigensolve for a line and none for a sweep, and
# the rows whose count goes to integers
# ---------------------------------------------------------------------------


def _eigvals_shapes(monkeypatch, run):
    shapes, eigvals = [], np.linalg.eigvals

    def counted(a):
        shapes.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    run()
    monkeypatch.undo()
    return shapes


def _integer_rows(monkeypatch, run):
    """How many rows `q5_solution_counts` counts in integers while run() runs."""
    rows, sturm_count = [], exact.sturm_count

    def counted(p):
        rows.append(p)
        return sturm_count(p)

    monkeypatch.setattr(exact, "sturm_count", counted)
    run()
    monkeypatch.undo()
    return len(rows)


LINE_GRID = [0.40 + 0.01 * (i + 0.25) for i in range(10)] + [0.5]


def test_a_transition_line_makes_one_eigensolve(monkeypatch):
    # F's companions at the 11 lambda1; the counts of the candidates' checks
    # come from a Sturm chain, and the bisection asks the counts nothing
    shapes = _eigvals_shapes(monkeypatch, lambda: phase.q5_transition_line(LINE_GRID))
    assert shapes == [(11, 10, 10)]


def test_a_q5_sweep_makes_no_eigensolve(monkeypatch):
    # F's folds are placed in grid cells by a sign test on its Bernstein
    # coefficients, and the counts of the run heads come from a Sturm chain
    shapes = _eigvals_shapes(monkeypatch, lambda: ct.sweep(5, (0.40, 0.52), (0.30, 0.56), resolution=40))
    assert shapes == []


def test_no_row_of_a_line_or_a_sweep_is_counted_in_integers(monkeypatch):
    # the float chain certifies every count of the window's sweep; of the
    # line's 50 it leaves the last sign of one open, a step above the fold
    # candidate 1/2, where two roots of S lie about 1e-7 apart, and the sign
    # of S's discriminant settles it
    assert _integer_rows(monkeypatch, lambda: ct.sweep(5, (0.40, 0.52), (0.30, 0.56), resolution=40)) == 0
    assert _integer_rows(monkeypatch, lambda: phase.q5_transition_line(LINE_GRID)) == 0
