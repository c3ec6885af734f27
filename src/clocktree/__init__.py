"""clocktree: phase transitions of generalized q-state clock models on trees.

The model lives on a locally finite tree with spins in {0, ..., q-1} coupled
by a stochastic, reflection-symmetric, non-increasing circulant transfer
matrix.  The library builds such matrices from their eigenvalue spectra,
iterates the Gibbs-marginal recursion with full or weakened boundary
coupling, solves the closed Fourier-mode fixed-point equations for q = 4 and
q = 5, classifies the q = 5 quartic through its discriminant, and assembles
phase diagrams in the (lambda1, lambda2) plane.
"""

from .basis import BasisConvention, a_norm, basis_norms, raw_coefficients
from .errors import (
    AsymmetricVector,
    ClockTreeError,
    DegenerateQuartic,
    DimensionMismatch,
    EmptyChildren,
    NormalizationUnderflow,
    NotAProbability,
    NotStochastic,
    RowAsymmetric,
    SpectrumAsymmetric,
    UnsupportedQ,
    UnsupportedTree,
    ZeroRowEntry,
)
from .fixedpoint import (
    PottsBoundaryLaws,
    QuarticAnalysis,
    QuarticCoeffs,
    RootStructure,
    SolutionSet,
    classify_quartic,
    displacement,
    potts_boundary_laws,
    q4_solutions,
    q5_jacobian,
    q5_potts_diagonal_solutions,
    q5_quartic_analysis,
    q5_quartic_coeffs,
    q5_solutions,
    q5_solutions_at_critical,
    quartic_invariants,
)
from .phase import (
    Evidence,
    PhaseGrid,
    PhasePoint,
    Regime,
    classify_point,
    jacobian_profile,
    potts_thresholds,
    q4_critical_line,
    q5_transition_line,
    sweep,
)
from .recursion import (
    Cayley,
    ProbeResult,
    Verdict,
    linearization_residual,
    mode_map,
    mode_map_q4,
    mode_map_q5,
    pt_probe,
    recursion_step,
    rpt_probe,
)
from .spectral import (
    FeasibilityReport,
    SymmetricDist,
    TransferSpec,
    apply_transfer,
    eigenvalues_from_row,
    make_potts,
    make_potts_from_theta,
    make_standard_clock,
    potts_lambda,
    potts_theta,
    row_from_eigenvalues,
    spec_from_lambdas,
    validate_non_increasing,
    weakened_row,
)

__version__ = "0.1.0"
