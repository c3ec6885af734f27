"""Input refusals and reports that no other test reaches, each pinned by class and message.

Each case is one call that the library must refuse, with the exception
class it raises (exactly, not a subclass) and the start of its message, so
that a check removed or reworded by a later change fails here.  Messages
print Python floats: a value that reaches a message as a numpy scalar is
converted first, so under numpy 2 no `np.float64(...)` repr shows.
"""
import math

import numpy as np
import pytest

import clocktree as ct
from clocktree import cli, fixedpoint, potts, spectral

_SPEC = ct.spec_from_lambdas(4, 0.3, 0.1)
_TWO_EIGENVALUES = "two-eigenvalue constructor only supports q in {4, 5}, got q=6"

REFUSALS = {
    "a_norm": (lambda: ct.a_norm(4, np.zeros(5)), ct.AsymmetricVector, "expected a length-4 vector, got shape (5,)"),
    "SymmetricDist": (lambda: ct.SymmetricDist(5, (0.0,)), ct.DimensionMismatch, "q=5 needs 2 modes, got 1"),
    "from_probabilities": (
        lambda: ct.SymmetricDist.from_probabilities([0.5, 0.2, 0.2, 0.2]),
        ct.NotAProbability,
        "probabilities sum to 1.0999999999999999",
    ),
    "linearization_residual": (
        lambda: ct.linearization_residual(_SPEC, []), ct.EmptyChildren, "need at least one child distribution"
    ),
    # past the first cap (on the float count), the second (on the integer count)
    "range_count": (
        lambda: cli._grid_from_range("0:1:9.999999999899999e-07"),
        ct.ClockTreeError,
        "range '0:1:9.999999999899999e-07' has 1000002 points, more than 1000001",
    ),
    "q5_solutions_at_critical": (
        lambda: ct.q5_solutions_at_critical(1.0), ct.ClockTreeError, "lambda2 must lie in [0, 1), got 1.0"
    ),
    "classify_point": (
        lambda: ct.classify_point(4, math.nan, 0.1),
        ct.ClockTreeError,
        "lambda1 and lambda2 must be finite, got nan and 0.1",
    ),
    "potts_thresholds": (lambda: ct.potts_thresholds(3, 1), ct.UnsupportedQ, "need d >= 2 and q >= 2, got d=1, q=3"),
    # the probe would raise each level to the power 2.5
    "Cayley_children": (lambda: ct.Cayley(2.5), ct.UnsupportedTree, "Cayley children must be an integer, got 2.5"),
    # a coefficient would be NaN, or +-inf from about |lambda2| = 2.6e76
    "q5_quartic_coeffs_not_finite": (
        lambda: ct.q5_quartic_coeffs(math.nan), ct.ClockTreeError, "lambda2 must be finite, got nan"
    ),
    "q5_quartic_analysis_not_finite": (
        lambda: ct.q5_quartic_analysis(-math.inf), ct.ClockTreeError, "lambda2 must be finite, got -inf"
    ),
    "q5_quartic_coeffs_overflow": (
        lambda: ct.q5_quartic_coeffs(1e77), ct.ClockTreeError, "the quartic's coefficients overflow at lambda2 = 1e+77"
    ),
    "mode_map": (
        lambda: ct.mode_map(6, 0.3, 0.1, (0.1, 0.1)),
        ct.DimensionMismatch,
        "closed mode maps exist for q in {4, 5}, got q=6",
    ),
    "row_from_eigenvalues_shape": (
        lambda: ct.row_from_eigenvalues(4, np.ones(5)), ct.SpectrumAsymmetric, "expected 4 eigenvalues, got shape (5,)"
    ),
    "row_from_eigenvalues_asymmetric": (
        lambda: ct.row_from_eigenvalues(5, [1.0, 0.3, 0.2, 0.1, 0.3]),
        ct.SpectrumAsymmetric,
        "lambda_2 = 0.2 differs from lambda_3 = 0.1",
    ),
    "eigenvalues_from_row_shape": (
        lambda: ct.eigenvalues_from_row(4, np.ones(5) / 5), ct.RowAsymmetric, "expected a length-4 row, got shape (5,)"
    ),
    "eigenvalues_from_row_asymmetric": (
        lambda: ct.eigenvalues_from_row(5, [0.4, 0.3, 0.1, 0.05, 0.15]),
        ct.RowAsymmetric,
        "r_1 = 0.3 differs from r_4 = 0.15",
    ),
    "eigenvalues_from_row_sum": (
        lambda: ct.eigenvalues_from_row(4, [0.5, 0.2, 0.2, 0.2]),
        ct.NotAProbability,
        "row sums to 1.0999999999999999, not 1",
    ),
    "TransferSpec": (
        lambda: ct.TransferSpec(65, (1.0,) * 65, (1.0 / 65,) * 65), ct.DimensionMismatch, "need 3 <= q <= 64, got 65"
    ),
    "from_eigenvalues_sum": (
        lambda: ct.TransferSpec.from_eigenvalues(4, [2.0, 0.5, 0.5, 0.5]),
        ct.NotStochastic,
        "row sums to 2.0, not 1",
    ),
    "spec_from_lambdas": (lambda: ct.spec_from_lambdas(6, 0.3, 0.1), ct.DimensionMismatch, _TWO_EIGENVALUES),
    "feasible_lambdas": (lambda: spectral.feasible_lambdas(6, [0.3], [0.1]), ct.DimensionMismatch, _TWO_EIGENVALUES),
    # lambdas that do not broadcast to one dimension: two scalars, a matrix, two lengths
    "feasible_lambdas_scalars": (
        lambda: spectral.feasible_lambdas(4, 0.3, 0.1),
        ct.ClockTreeError,
        "lambda1 and lambda2 must broadcast to one dimension, got shapes () and ()",
    ),
    "feasible_lambdas_matrix": (
        lambda: spectral.feasible_lambdas(5, np.zeros((2, 3)), [0.1, 0.2, 0.3]),
        ct.ClockTreeError,
        "lambda1 and lambda2 must broadcast to one dimension, got shapes (2, 3) and (3,)",
    ),
    "feasible_lambdas_lengths": (
        lambda: spectral.feasible_lambdas(4, [0.3, 0.2], [0.1, 0.1, 0.1]),
        ct.ClockTreeError,
        "lambda1 and lambda2 must broadcast to one dimension, got shapes (2,) and (3,)",
    ),
    "q4_solutions": (
        lambda: ct.q4_solutions(math.nan, 0.3), ct.ClockTreeError, "lambda1 and lambda2 must be finite, got nan and 0.3"
    ),
    "q5_solutions": (
        lambda: ct.q5_solutions(math.nan, 0.3), ct.ClockTreeError, "lambda1 and lambda2 must be finite, got nan and 0.3"
    ),
    # the first non-finite row is named
    "q4_solution_counts": (
        lambda: fixedpoint.q4_solution_counts(np.array([0.3, math.inf, math.nan]), np.array([0.1, 0.1, 0.1])),
        ct.ClockTreeError,
        "lambda1 and lambda2 must be finite, got inf and 0.1",
    ),
    "q5_solution_counts": (
        lambda: fixedpoint.q5_solution_counts(np.array([0.3, 0.3, math.nan]), np.array([0.1, -math.inf, 0.1])),
        ct.ClockTreeError,
        "lambda1 and lambda2 must be finite, got 0.3 and -inf",
    ),
    "make_potts": (lambda: ct.make_potts(5, math.inf), ct.NotAProbability, "beta must be finite, got inf"),
    "make_potts_from_theta": (
        lambda: ct.make_potts_from_theta(5, 0.0), ct.NotAProbability, "theta must be positive and finite, got 0.0"
    ),
    "make_standard_clock": (
        lambda: ct.make_standard_clock(5, math.nan), ct.NotAProbability, "coupling must be finite, got nan"
    ),
    "feasibility_breakpoints": (
        lambda: spectral.feasibility_breakpoints(6, [0.3]), ct.DimensionMismatch, _TWO_EIGENVALUES
    ),
    "weakened_row": (
        lambda: ct.weakened_row(_SPEC, 0.0), ct.ClockTreeError, "weakening u must lie in (0, 1], got 0.0"
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal(name):
    call, error, start = REFUSALS[name]
    with pytest.raises(ct.ClockTreeError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(start), str(info.value)
    assert "np." not in str(info.value)


@pytest.mark.parametrize("lambda2", [2.6e76, -2.6e76, 1e77, 1.2e77, 1e80, -1e300])
@pytest.mark.parametrize("read", [ct.q5_quartic_coeffs, ct.q5_quartic_analysis], ids=["coeffs", "analysis"])
def test_the_quartic_refuses_its_coefficient_overflow_in_one_place(read, lambda2):
    # both overflows get one message: a coefficient is +-inf from about
    # |lambda2| = 2.6e76, and lambda2**4 raises OverflowError from about 1.158e77
    with pytest.raises(ct.ClockTreeError) as info:
        read(lambda2)
    assert type(info.value) is ct.ClockTreeError
    assert str(info.value) == f"the quartic's coefficients overflow at lambda2 = {lambda2!r}"


@pytest.mark.parametrize("counts", [fixedpoint.q4_solution_counts, fixedpoint.q5_solution_counts])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_solution_counts_refuse_every_non_finite_row(counts, bad, column):
    pair = [np.array([0.45, 0.45]), np.array([0.4, 0.4])]
    pair[column][1] = bad
    with pytest.raises(ct.ClockTreeError) as info:
        counts(*pair)
    got = (bad, 0.4) if column == 0 else (0.45, bad)
    assert str(info.value) == f"lambda1 and lambda2 must be finite, got {got[0]!r} and {got[1]!r}"


def test_feasible_lambdas_broadcasts_a_scalar_against_a_vector():
    l2 = np.array([0.1, 0.5, -0.2])
    assert spectral.feasible_lambdas(4, 0.3, l2).tolist() == spectral.feasible_lambdas(4, [0.3] * 3, l2).tolist()
    assert spectral.feasible_lambdas(5, l2, 0.05).tolist() == spectral.feasible_lambdas(5, l2, [0.05] * 3).tolist()


def test_potts_boundary_laws_refuses_laws_that_fail_the_residual_check(monkeypatch):
    monkeypatch.setattr(potts, "_residual", lambda *args: 1.0)
    with pytest.raises(ct.ClockTreeError) as info:
        ct.potts_boundary_laws(0.45)
    assert type(info.value) is ct.ClockTreeError
    assert str(info.value).startswith("boundary laws at lambda = 0.45 fail the fixed-point residual check")


def test_validate_non_increasing_reports_a_negative_middle_entry():
    # both constructors refuse a row entry below -1e-12, so only a spec built by hand reaches this report
    spec = ct.TransferSpec(4, (1.0, 0.5, 0.5, 0.5), (0.9, 0.2, -0.3, 0.2))
    assert ct.validate_non_increasing(spec) == "r2 = -0.3 negative"
