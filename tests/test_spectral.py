"""Transfer matrices: spectra, rows, specializations, feasibility, weakening."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree.basis import a_norm, basis_norms, raw_basis_vector, raw_coefficients
from clocktree.spectral import _cosine_table, feasible_lambdas

from conftest import (
    circulant_matrix,
    dft_eigenvalues,
    random_symmetric_probability,
    random_symmetric_row,
)

C1, C2 = math.cos(2 * math.pi / 5), math.cos(4 * math.pi / 5)


def test_row_q5_closed_form():
    l1, l2 = 0.45, 0.3
    row = ct.row_from_eigenvalues(5, [1, l1, l2, l2, l1])
    assert abs(row[0] - (1 + 2 * l1 + 2 * l2) / 5) < 1e-14
    assert abs(row[1] - (1 + 2 * l1 * C1 + 2 * l2 * C2) / 5) < 1e-14
    assert abs(row[2] - (1 + 2 * l1 * C2 + 2 * l2 * C1) / 5) < 1e-14
    assert row[1] == row[4] and row[2] == row[3]


def test_row_q4_closed_form():
    l1, l2 = 0.5, 0.4
    row = ct.row_from_eigenvalues(4, [1, l1, l2, l1])
    assert np.abs(row - np.array([(1 + 2 * l1 + l2), (1 - l2), (1 - 2 * l1 + l2), (1 - l2)]) / 4).max() < 1e-14


def test_row_all_zero_eigenvalues_uniform():
    row = ct.row_from_eigenvalues(4, [1, 0, 0, 0])
    assert np.abs(row - 0.25).max() < 1e-15


def test_eigenvalues_identity_row():
    lam = ct.eigenvalues_from_row(5, [1, 0, 0, 0, 0])
    assert np.abs(lam - 1.0).max() < 1e-14


def test_eigenvalues_hand_checked_dft():
    # four-point sums by hand: lambda = (1, 0.4, 0.2, 0.4)
    lam = ct.eigenvalues_from_row(4, [0.5, 0.2, 0.1, 0.2])
    assert np.abs(lam - np.array([1.0, 0.4, 0.2, 0.4])).max() < 1e-14


def test_roundtrip_row_eigenvalues(rng):
    for _ in range(1000):
        q = int(rng.integers(3, 11))
        row = random_symmetric_row(rng, q)
        lam = ct.eigenvalues_from_row(q, row)
        assert np.abs(lam - dft_eigenvalues(row).real).max() < 1e-12
        back = ct.row_from_eigenvalues(q, lam)
        assert np.abs(back - row).max() < 1e-12
        lam2 = ct.eigenvalues_from_row(q, back)
        assert np.abs(lam2 - lam).max() < 1e-12


def test_spectrum_errors():
    with pytest.raises(ct.SpectrumAsymmetric):
        ct.row_from_eigenvalues(4, [1, 0.5, 0.3, 0.2])
    with pytest.raises(ct.NotStochastic):
        ct.row_from_eigenvalues(4, [1, 0.9, 0.0, 0.9])
    with pytest.raises(ct.RowAsymmetric):
        ct.eigenvalues_from_row(4, [0.4, 0.3, 0.2, 0.1])
    with pytest.raises(ct.NotAProbability):
        ct.eigenvalues_from_row(4, [0.8, 0.2, 0.2, 0.2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_spectra_and_rows_are_refused(bad):
    # a NaN eigenvalue made an all-NaN row that passed every check: the
    # matrix was "feasible", and a probe on it UNDECIDED with NaN distances
    for q, l1, l2 in ((4, bad, 0.1), (4, 0.3, bad), (5, bad, 0.1), (5, 0.3, bad)):
        with pytest.raises(ct.NotStochastic, match="finite"):
            ct.spec_from_lambdas(q, l1, l2)
    with pytest.raises(ct.NotStochastic, match="finite"):
        ct.row_from_eigenvalues(4, [1.0, bad, 0.1, bad])
    with pytest.raises(ct.NotAProbability, match="finite"):
        ct.eigenvalues_from_row(4, [bad, 0.25, 0.25, 0.25])
    with pytest.raises(ct.NotAProbability, match="finite"):
        ct.TransferSpec.from_row(5, [0.2, bad, 0.2, 0.2, bad])
    for q in (4, 5):
        assert feasible_lambdas(q, [bad, 0.3, bad], [0.1, bad, bad]).tolist() == [False] * 3
    for solutions in (ct.q4_solutions, ct.q5_solutions):
        for l1, l2 in ((bad, 0.3), (0.3, bad)):
            with pytest.raises(ct.ClockTreeError, match="must be finite"):
                solutions(l1, l2)


@pytest.mark.parametrize("q, lam", [(5, (1.0, 1e308, 1e308, 1e308, 1e308)),
                                    (4, (1.0, 1e308, -1e308, 1e308)),
                                    (5, (1.0, -1.7e308, 1e308, 1e308, -1.7e308))])
def test_a_row_whose_sums_overflow_is_not_stochastic(q, lam):
    # the sums overflowed with a RuntimeWarning from numpy, and the error
    # named an imaginary part of 2e292 instead of the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ct.NotStochastic, match="overflow"):
            ct.row_from_eigenvalues(q, lam)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(1e-3, 1e3))
def test_potts_from_theta_takes_theta_as_given(theta):
    # exp(log(theta)) is not theta for about half of all theta in (1, 50)
    spec = ct.make_potts_from_theta(5, theta)
    assert spec.eigenvalues == (1.0,) + (ct.potts_lambda(5, theta),) * 4


def test_make_potts():
    spec = ct.make_potts_from_theta(5, 6.0)
    assert abs(spec.lambda1 - 0.5) < 1e-15 and abs(spec.lambda2 - 0.5) < 1e-15
    spec0 = ct.make_potts(4, 0.0)
    assert np.abs(np.asarray(spec0.row) - 0.25).max() < 1e-15
    assert abs(spec0.lambda1) < 1e-15 and abs(spec0.lambda2) < 1e-15
    # theta from lambda: e^beta = (1 + lambda*(q-1))/(1 - lambda)
    assert abs(ct.potts_theta(5, 0.45) - (1 + 0.45 * 4) / 0.55) < 1e-14
    assert abs(ct.potts_theta(5, 0.45) - 5.090909090909091) < 1e-12
    # a positive finite float up to both ends of lambda's open interval (-1/(q-1), 1)
    assert 0.0 < ct.potts_theta(5, math.nextafter(-0.25, 0.0)) < 1e-15
    assert 1e16 < ct.potts_theta(5, math.nextafter(1.0, 0.0)) < math.inf
    assert ct.potts_theta(3, math.nextafter(-0.5, 0.0)) > 0.0
    # potts rows are (a, b, ..., b) with a >= b for positive coupling
    row = np.asarray(ct.make_potts_from_theta(5, 3.0).row)
    assert np.abs(row[1:] - row[1]).max() < 1e-15 and row[0] > row[1]


@pytest.mark.parametrize(
    "q, lam", [(5, 1.0), (5, 1.5), (5, 1e308), (5, -0.25), (5, -4.0), (5, -1e308), (5, math.nan), (3, -0.5)]
)
def test_potts_theta_outside_its_domain_raises(q, lam):
    # theta = e^beta is a positive finite float only for lam in (-1/(q-1), 1):
    # lam = 1 divided by zero, 1e308 gave -inf and -0.25 gave theta = 0
    with pytest.raises(ct.NotAProbability, match="lambda = "):
        ct.potts_theta(q, lam)


def test_make_standard_clock():
    spec = ct.make_standard_clock(5, 0.0)
    assert np.abs(np.asarray(spec.row) - 0.2).max() < 1e-15
    strong = ct.make_standard_clock(4, 30.0)
    assert strong.lambda1 > 0.999 and strong.lambda2 > 0.999
    # oracle: direct exponentials
    j = np.arange(4)
    expected = np.exp(1.3 * np.cos(2 * np.pi * j / 4))
    expected /= expected.sum()
    assert np.abs(np.asarray(ct.make_standard_clock(4, 1.3).row) - expected).max() < 1e-14


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("coupling", [800.0, -800.0, 1e4, -1e4])
def test_standard_clock_at_strong_coupling(q, coupling):
    # exp(J cos) overflows from J of about 710, and the cosines of j and
    # q - j differ in their last bits, which J = -800 magnifies to 1e-13
    row = np.asarray(ct.make_standard_clock(q, coupling).row)
    assert np.isfinite(row).all()
    assert row[1:].tobytes() == row[:0:-1].tobytes()
    assert abs(math.fsum(row) - 1.0) <= 1e-15
    # the point mass at 0 for J > 0; the states farthest from 0 for J < 0
    limit, states = np.zeros(q), [0] if coupling > 0 else sorted({q // 2, q - q // 2})
    limit[states] = 1.0 / len(states)
    assert np.abs(row - limit).max() < 1e-200


def test_standard_clock_never_in_pt_window():
    # along the q=4 clock locus lambda2 = lambda1^2; with lambda1 <= 1/2 that
    # keeps lambda2 < 1/3, so no non-robust transition anywhere on the locus
    from clocktree.fixedpoint import q4_solutions
    from clocktree.phase import q4_critical_line

    for coupling in np.linspace(0.05, 1.09, 40):
        spec = ct.make_standard_clock(4, float(coupling))
        l1, l2 = spec.lambda1, spec.lambda2
        assert abs(l2 - l1 * l1) < 1e-12
        if l1 <= 0.5:
            assert l2 < 1.0 / 3.0
            assert q4_solutions(l1, l2).n_nontrivial == 0
            # the locus stays strictly below the fold line's peak ordinate
            assert l2 < 1.0 / 3.0 < 0.5 or q4_critical_line(l2) > l1


def test_validate_non_increasing():
    assert ct.validate_non_increasing(ct.spec_from_lambdas(4, 0.5, 0.4)) is None
    assert np.abs(np.asarray(ct.spec_from_lambdas(4, 0.5, 0.4).row) - [0.6, 0.15, 0.1, 0.15]).max() < 1e-14
    assert "r1" in ct.validate_non_increasing(ct.spec_from_lambdas(4, 0.2, 0.5))
    for lam in (0.0, 0.3, 0.7, 0.99):
        assert ct.validate_non_increasing(ct.spec_from_lambdas(5, lam, lam)) is None


def test_apply_transfer():
    spec = ct.spec_from_lambdas(5, 0.5, 0.3)
    zero = ct.SymmetricDist.uniform(5)
    assert ct.apply_transfer(spec, zero).modes == (0.0, 0.0)
    d = ct.SymmetricDist(5, (0.2, 0.1))
    out = ct.apply_transfer(spec, d)
    assert abs(out.modes[0] - 0.1) < 1e-15 and abs(out.modes[1] - 0.03) < 1e-15
    with pytest.raises(ct.DimensionMismatch):
        ct.apply_transfer(spec, ct.SymmetricDist.uniform(4))


def test_symmetric_dist_raw_coefficients_are_the_basis_coefficients(rng):
    # a_0 = 1/q for every probability vector, a_j = <p, phi_j>/z_j, and the
    # modes are the normalized coefficients alpha_j = a_j * sqrt(z_j)
    for q in (3, 4, 5, 8):
        for _ in range(20):
            p = random_symmetric_probability(rng, q)
            dist = ct.SymmetricDist.from_probabilities(p)
            raw = dist.raw_coefficients()
            assert raw.shape == (q // 2 + 1,) and abs(raw[0] - 1.0 / q) < 1e-15
            assert np.abs(raw - raw_coefficients(q, p)).max() < 1e-15
            assert np.abs(np.array(dist.modes) - raw[1:] * np.sqrt(basis_norms(q)[1:])).max() < 1e-15


def test_apply_transfer_matches_matrix_product(rng):
    from conftest import random_feasible_lambdas

    for q in (4, 5):
        for _ in range(200):
            l1, l2 = random_feasible_lambdas(rng, q)
            spec = ct.spec_from_lambdas(q, l1, l2)
            p = random_symmetric_probability(rng, q)
            d = ct.SymmetricDist.from_probabilities(p)
            direct = circulant_matrix(np.asarray(spec.row)) @ p
            assert np.abs(ct.apply_transfer(spec, d).probabilities() - direct).max() < 1e-13


def test_weakened_row():
    spec = ct.spec_from_lambdas(4, 0.5, 1.0 / 3.0)
    assert ct.weakened_row(spec, 1.0) is spec
    half = ct.weakened_row(spec, 0.5)
    expected = np.sqrt(np.asarray(spec.row))
    expected /= expected.sum()
    assert np.abs(np.asarray(half.row) - expected).max() < 1e-14
    # u -> 0 flattens the row toward uniform
    phi_max = np.abs(np.log(np.asarray(spec.row))).max()
    tiny = ct.weakened_row(spec, 1e-6)
    assert np.abs(np.asarray(tiny.row) - 0.25).max() < 1e-5 * phi_max
    with pytest.raises(ct.ZeroRowEntry):
        ct.weakened_row(ct.spec_from_lambdas(4, 0.5, 0.0), 0.5)


def test_transfer_operator_bound(rng):
    # sup over unit-A-norm symmetric f of ||M f||_A is at most 1
    for q in (4, 5):
        spec = ct.spec_from_lambdas(q, 0.5, 0.35)
        M = circulant_matrix(np.asarray(spec.row))
        for _ in range(300):
            f = rng.normal(size=q)
            mirror = np.concatenate(([f[0]], f[1:][::-1]))
            f = 0.5 * (f + mirror)
            norm = a_norm(q, f)
            if norm < 1e-12:
                continue
            f /= norm
            assert a_norm(q, M @ f) <= 1.0 + 1e-12


def test_contraction_in_a_norm(rng):
    # ||M f - uniform||_A <= lambda1 ||f - uniform||_A on probability vectors
    for q in (4, 5):
        for lams in ((0.5, 0.3), (0.45, 0.45), (0.25, 0.1)):
            spec = ct.spec_from_lambdas(q, *lams)
            M = circulant_matrix(np.asarray(spec.row))
            u = np.full(q, 1.0 / q)
            for _ in range(100):
                p = random_symmetric_probability(rng, q)
                lhs = a_norm(q, M @ p - u)
                rhs = spec.lambda1 * a_norm(q, p - u)
                assert lhs <= rhs + 1e-12


def test_inner_product_formulas(rng):
    # sum_j h1(j) h2(j) via the RAW coefficients, orthogonality of the basis
    for _ in range(200):
        h1 = random_symmetric_probability(rng, 4)
        h2 = random_symmetric_probability(rng, 4)
        a1 = raw_coefficients(4, h1)
        a2 = raw_coefficients(4, h2)
        expected = 0.25 + 2.0 * a1[1] * a2[1] + 4.0 * a1[2] * a2[2]
        assert abs(float(h1 @ h2) - expected) < 1e-13
    for _ in range(200):
        h1 = random_symmetric_probability(rng, 5)
        h2 = random_symmetric_probability(rng, 5)
        a1 = raw_coefficients(5, h1)
        a2 = raw_coefficients(5, h2)
        expected = 0.2 + 2.5 * (a1[1] * a2[1] + a1[2] * a2[2])
        assert abs(float(h1 @ h2) - expected) < 1e-13


def test_symmetric_dist_roundtrip(rng):
    for q in (4, 5, 6, 7):
        for _ in range(50):
            p = random_symmetric_probability(rng, q)
            d = ct.SymmetricDist.from_probabilities(p)
            back = d.probabilities()
            assert np.abs(back - p).max() < 1e-13
            mirror = np.concatenate(([back[0]], back[1:][::-1]))
            assert np.abs(back - mirror).max() < 1e-13
            assert abs(back.sum() - 1.0) < 1e-12


def test_symmetric_dist_validation():
    with pytest.raises(ct.NotAProbability):
        ct.SymmetricDist(4, (1.0, 0.0))  # reconstructs negative
    d = ct.SymmetricDist.point_mass(5)
    p = d.probabilities()
    assert abs(p[0] - 1.0) < 1e-12 and np.abs(p[1:]).max() < 1e-12


def test_lambda0_exact():
    spec = ct.spec_from_lambdas(4, 0.3, 0.2)
    assert spec.eigenvalues[0] == 1.0
    with pytest.raises(ct.SpectrumAsymmetric):
        ct.TransferSpec(q=4, eigenvalues=(0.9999, 0.3, 0.2, 0.3), row=(0.4, 0.2, 0.2, 0.2))


# ---------------------------------------------------------------------------
# bit identity with the direct-summation loops the tables replace
# ---------------------------------------------------------------------------


def _loop_row_from_eigenvalues(q, eigenvalues):
    """Reference: the real part of a complex DFT loop over Python-int k."""
    lam = np.asarray(eigenvalues, dtype=float)
    for j in range(1, q):
        if abs(lam[j] - lam[q - j]) > 1e-12:
            raise ct.SpectrumAsymmetric(
                f"lambda_{j} = {float(lam[j])!r} differs from lambda_{q - j} = {float(lam[q - j])!r}"
            )
    row = np.empty(q)
    for l in range(q):
        total = complex(0.0)
        for kk in range(q):
            total += lam[kk] * np.exp(2j * math.pi * l * kk / q)
        row[l] = total.real / q
    if row.min() < -1e-12:
        raise ct.NotStochastic(f"row entry {row.argmin()} = {row.min():.6e} below -1e-12")
    for l in range(1, q // 2 + 1):
        m = 0.5 * (row[l] + row[q - l]) if l != q - l else row[l]
        row[l] = m
        row[q - l] = m
    return np.where((row < 0.0) & (row >= -1e-12), 0.0, row)


def _loop_eigenvalues_from_row(q, row):
    """Reference: complex DFT loop over Python-int k."""
    r = np.asarray(row, dtype=float)
    for kk in range(1, q):
        if abs(r[kk] - r[q - kk]) > 1e-12:
            raise ct.RowAsymmetric(f"r_{kk} = {float(r[kk])!r} differs from r_{q - kk} = {float(r[q - kk])!r}")
    if r.min() < -1e-12:
        raise ct.NotAProbability(f"row entry {r.argmin()} = {r.min():.6e} below -1e-12")
    if abs(r.sum() - 1.0) > 1e-12:
        raise ct.NotAProbability(f"row sums to {float(r.sum())!r}, not 1")
    lam = np.empty(q)
    for j in range(q):
        total = complex(0.0)
        for kk in range(q):
            total += r[kk] * np.exp(-2j * math.pi * j * kk / q)
        lam[j] = total.real
    lam[0] = 1.0
    for j in range(1, q // 2 + 1):
        m = 0.5 * (lam[j] + lam[q - j]) if j != q - j else lam[j]
        lam[j] = m
        lam[q - j] = m
    return lam


def _loop_matrix(row):
    q = len(row)
    r = np.asarray(row)
    return np.array([[r[(j - i) % q] for j in range(q)] for i in range(q)])


def _same_bits(a, b):
    """Equal as float64 bit patterns, so -0.0 differs from 0.0 (np.array_equal merges them)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(fn, *args):
    """The result of fn(*args), or its exception's type and message."""
    try:
        return fn(*args)
    except ct.ClockTreeError as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _same_bits(got, want)


def test_transforms_bit_identical_to_loops(rng):
    for q in range(3, 65):
        for _ in range(3):
            row = random_symmetric_row(rng, q)
            lam = _loop_eigenvalues_from_row(q, row)
            assert _same_bits(ct.eigenvalues_from_row(q, row), lam)
            assert _same_bits(ct.row_from_eigenvalues(q, lam), _loop_row_from_eigenvalues(q, lam))
            spec = ct.TransferSpec.from_row(q, row)
            assert _same_bits(spec.matrix(), _loop_matrix(spec.row))
        # signed zeros: the loops start every sum at +0.0
        for zero in (0.0, -0.0):
            lam = np.full(q, zero)
            assert _same_bits(ct.row_from_eigenvalues(q, lam), _loop_row_from_eigenvalues(q, lam))


def test_transform_tables_hold_the_loops_scalar_entries():
    # each entry of the one cosine table is the real part of both loops'
    # scalar exponentials, bit for bit with signed zeros, for every q a
    # TransferSpec accepts
    for q in range(3, 65):
        spectrum = [[np.exp(-2j * math.pi * j * kk / q).real for kk in range(q)] for j in range(q)]
        assert _same_bits(_cosine_table(q), spectrum)
        row = [[np.exp(2j * math.pi * l * kk / q).real for kk in range(q)] for l in range(q)]
        assert _same_bits(_cosine_table(q), row)
        assert all(_same_bits(raw_basis_vector(q, j), spectrum[j]) for j in range(q))


def test_potts_and_clock_bit_identical_to_loops():
    for q in range(3, 20):
        for beta in (0.0, 0.3, 0.7, 2.5):
            lam = np.full(q, ct.potts_lambda(q, math.exp(beta)))
            lam[0] = 1.0
            spec = ct.make_potts(q, beta)
            assert _same_bits(spec.row, _loop_row_from_eigenvalues(q, lam))
            assert _same_bits(spec.matrix(), _loop_matrix(spec.row))
        for coupling in (0.0, 0.4, 1.3, 5.0):
            exponent = coupling * np.cos(2.0 * math.pi * np.minimum(np.arange(q), q - np.arange(q)) / q)
            row = np.exp(exponent - exponent.max())
            row /= row.sum()
            spec = ct.make_standard_clock(q, coupling)
            assert _same_bits(spec.eigenvalues, _loop_eigenvalues_from_row(q, row))


def test_an_exactly_symmetric_spectrum_is_not_refused_as_asymmetric():
    # both were refused for an imaginary part of 1.455e-11: 1e5 times the
    # rounding of the sines, which cancel only analytically
    assert ct.row_from_eigenvalues(4, [1e6, 1e5, 1e5, 1e5]).tolist() == [325000.0, 225000.0, 225000.0, 225000.0]
    assert ct.row_from_eigenvalues(5, [1e6] + [1e5] * 4).tolist() == [280000.0] + [180000.0] * 4


def test_transform_errors_name_first_offending_index():
    q = 7
    lam = np.array([1.0, 0.3, 0.2, 0.1, 0.15, 0.25, 0.3])  # lambda_2 and lambda_3 both asymmetric
    want = _outcome(_loop_row_from_eigenvalues, q, lam)
    assert want[0] is ct.SpectrumAsymmetric and "lambda_2 =" in want[1]
    _assert_same(_outcome(ct.row_from_eigenvalues, q, lam), want)
    lam = np.array([1.0, 0.3, 0.2, 0.1, 0.1, 0.2, 0.3])
    lam[1:4] += 0.9e-12  # within the symmetry slack: the row of its cosine sums
    want = _outcome(_loop_row_from_eigenvalues, q, lam)
    assert not isinstance(want, tuple)
    _assert_same(_outcome(ct.row_from_eigenvalues, q, lam), want)
    lam = np.array([1.0, 0.9, -0.9, -0.9, -0.9, -0.9, 0.9])  # several negative row entries
    want = _outcome(_loop_row_from_eigenvalues, q, lam)
    assert want[0] is ct.NotStochastic
    _assert_same(_outcome(ct.row_from_eigenvalues, q, lam), want)
    row = np.array([0.4, 0.1, 0.05, 0.15, 0.1, 0.1, 0.1])  # r_2 and r_3 both asymmetric
    want = _outcome(_loop_eigenvalues_from_row, q, row)
    assert want[0] is ct.RowAsymmetric and "r_2 =" in want[1]
    _assert_same(_outcome(ct.eigenvalues_from_row, q, row), want)
    row = np.array([0.6, 0.25, -0.05, 0.0, 0.0, -0.05, 0.25])  # r_2 and r_5 negative
    want = _outcome(_loop_eigenvalues_from_row, q, row)
    assert want[0] is ct.NotAProbability and "row entry 2 " in want[1]
    _assert_same(_outcome(ct.eigenvalues_from_row, q, row), want)


# ---------------------------------------------------------------------------
# the row's imaginary parts never decide an outcome
# ---------------------------------------------------------------------------


def _imaginary_parts_refused(q, spectra):
    """Whether some sum_k lambda_k sin(2*pi*l*k/q) of each spectrum in an (n, q) batch exceeds 1e-12.

    The imaginary half of the complex row table, summed left to right, and
    the refusal it once fed; a NaN part never counted.
    """
    k = np.arange(q)
    table = np.exp(2j * math.pi * k[:, None] * k / q).imag
    parts = np.zeros((len(spectra), q))
    with np.errstate(all="ignore"):
        for kk in range(q):
            parts += spectra[:, kk, None] * table[:, kk]
        return (np.abs(parts) > 1e-12).any(axis=1)


def test_the_imaginary_parts_never_decide_feasibility(rng):
    # the refusal fires only where some |lambda| > 10 (from about 850 up),
    # and no point there is feasible: feasibility is the same without it
    for q in (4, 5):
        for _ in range(5):
            scale = 10.0 ** rng.uniform(0.0, 300.0, 200_000)
            l1, l2 = scale * rng.uniform(-1.0, 1.0, (2, len(scale)))
            middle = [l1, l2, l1] if q == 4 else [l1, l2, l2, l1]
            refused = _imaginary_parts_refused(q, np.stack([np.ones_like(l1), *middle], axis=1))
            large = np.maximum(np.abs(l1), np.abs(l2)) > 10.0
            assert refused.any() and not (refused & ~large).any()
            assert not (feasible_lambdas(q, l1, l2) & large).any()


def test_the_imaginary_parts_never_refuse_an_exactly_symmetric_spectrum(rng):
    # lambda_0 = 1: the spectra of random symmetric rows, and random spectra
    # up to |lambda| = 1e200.  The refusal came after the overflow and the
    # negative-entry checks, so it decided only where a row comes back.
    for q in range(3, 65):
        rows = [ct.eigenvalues_from_row(q, random_symmetric_row(rng, q)) for _ in range(100)]
        half = rng.uniform(-1.0, 1.0, (100, q // 2 + 1)) * 10.0 ** rng.uniform(-1.0, 200.0, (100, 1))
        drawn = np.concatenate([half, half[:, (q - 1) // 2:0:-1]], axis=1)
        spectra = np.concatenate([rows, drawn])
        spectra[:, 0] = 1.0
        for lam, refused in zip(spectra, _imaginary_parts_refused(q, spectra)):
            outcome = _outcome(ct.row_from_eigenvalues, q, lam)
            if isinstance(outcome, tuple):
                assert outcome[0] is not ct.SpectrumAsymmetric
            else:
                assert not refused


# ---------------------------------------------------------------------------
# spec builds per grid point: none for q=4, one for q=5
# ---------------------------------------------------------------------------


def _count_transforms(monkeypatch):
    from clocktree import spectral

    calls = []
    for name in ("row_from_eigenvalues", "eigenvalues_from_row"):
        fn = getattr(spectral, name)

        def counted(*args, _fn=fn, _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(spectral, name, counted)
    return calls


def test_classify_point_builds_no_spec_q4(monkeypatch):
    # q=4 feasibility and fixed points are grid arrays; no TransferSpec is built
    calls = _count_transforms(monkeypatch)
    point = ct.classify_point(4, 0.5, 0.4)
    assert point.regime is ct.Regime.PT_NOT_RPT and point.n_nontrivial > 0
    assert calls == []


def test_classify_point_builds_no_spec_q5(monkeypatch):
    # row entries r_2 = r_3 = 0, a point where the continuation solver found
    # nothing and fell back to a probe; the elimination solver verifies two
    # fixed points there, and like q=4 it builds no TransferSpec
    l2 = 0.3
    l1 = (1.0 + 2.0 * l2 * math.cos(2 * math.pi / 5)) / (-2.0 * math.cos(4 * math.pi / 5))
    calls = _count_transforms(monkeypatch)
    point = ct.classify_point(5, l1, l2)
    assert point.regime is ct.Regime.PT_AND_RPT
    assert point.n_nontrivial == 2
    assert calls == []


def test_spec_memo_keeps_signed_zero():
    assert math.copysign(1.0, ct.spec_from_lambdas(4, 0.0, 0.3).eigenvalues[1]) == 1.0
    spec = ct.spec_from_lambdas(4, -0.0, 0.3)
    assert math.copysign(1.0, spec.eigenvalues[1]) == -1.0
    assert math.copysign(1.0, ct.spec_from_lambdas(4, 0.3, -0.0).eigenvalues[2]) == -1.0
