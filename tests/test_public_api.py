"""The public names of the `clocktree` package, pinned.

A name joins or leaves the package only on purpose: the change that does
it updates this list and names it in CHANGES.md.
"""
import types

import clocktree as ct

PUBLIC_NAMES = [
    "AsymmetricVector", "BasisConvention", "BranchingEstimate", "Cayley", "ClockTreeError",
    "DegenerateQuartic", "DimensionMismatch", "EmptyChildren", "Evidence", "FeasibilityReport",
    "NormalizationUnderflow", "NotAProbability", "NotStochastic", "PhaseGrid", "PhasePoint",
    "PottsBoundaryLaws", "ProbeResult", "QuarticAnalysis", "QuarticCoeffs", "RadicandNegative", "Regime",
    "RootStructure", "RowAsymmetric", "SolutionSet", "SpectrumAsymmetric", "SphericallySymmetric",
    "SymmetricDist", "TransferSpec", "TreeFamily", "UnsupportedQ", "UnsupportedTree", "Verdict", "ZeroRowEntry",
    "a_norm", "apply_transfer", "basis_norms", "branching_estimate", "branching_number", "classify_point",
    "classify_quartic", "displacement", "eigenvalues_from_row", "jacobian_profile", "linearization_residual",
    "make_potts", "make_potts_from_theta", "make_standard_clock", "mode_map", "mode_map_q4", "mode_map_q5",
    "potts_boundary_laws", "potts_lambda", "potts_theta", "potts_thresholds", "pt_probe", "q4_critical_line",
    "q4_solutions", "q5_jacobian", "q5_potts_diagonal_solutions", "q5_quartic_analysis", "q5_quartic_coeffs",
    "q5_solutions", "q5_solutions_at_critical", "q5_transition_line", "quartic_invariants", "raw_coefficients",
    "recursion_step", "row_from_eigenvalues", "rpt_probe", "spec_from_lambdas", "sweep",
    "validate_non_increasing", "weakened_row",
]


def test_public_names():
    names = sorted(
        name for name, value in vars(ct).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
