"""clocktree: phase transitions of generalized q-state clock models on trees.

The model lives on a locally finite tree with spins in {0, ..., q-1} coupled
by a stochastic, reflection-symmetric, non-increasing circulant transfer
matrix.  The library builds such matrices from their eigenvalue spectra,
iterates the Gibbs-marginal recursion with full or weakened boundary
coupling, solves the closed Fourier-mode fixed-point equations for q = 4 and
q = 5, classifies the q = 5 quartic through its discriminant, and assembles
phase diagrams in the (lambda1, lambda2) plane.

Every `clocktree` command imports this package, so it loads at once only
what the commands' hot paths run (`errors`, `spectral`, `recursion`,
`fixedpoint`, `phase`).  The public names of the modules that no sweep,
probe, solve or transition line runs load on first use, through `_LAZY`:
the mode-space API of `basis`, the quartic classification of `quartic` and
the Potts-line helpers of `potts`.  Each is then kept in this module's
namespace, so `clocktree.classify_quartic` is `clocktree.quartic.classify_quartic`.
"""

import importlib
import types

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
from .fixedpoint import SolutionSet, q4_solutions, q5_solutions, q5_solutions_at_critical
from .phase import (
    PhaseGrid,
    PhasePoint,
    Regime,
    classify_point,
    potts_thresholds,
    q4_critical_line,
    q5_transition_line,
    sweep,
)
from .recursion import (
    Cayley,
    ProbeResult,
    Verdict,
    mode_map,
    mode_map_q4,
    mode_map_q5,
    rpt_probe,
)
from .spectral import (
    TransferSpec,
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

# public name -> the module that defines it, loaded on first use
_LAZY = {
    **dict.fromkeys(
        ("SymmetricDist", "a_norm", "apply_transfer", "basis_norms", "linearization_residual", "raw_coefficients",
         "recursion_step"),
        "basis",
    ),
    **dict.fromkeys(
        ("QuarticAnalysis", "QuarticCoeffs", "RootStructure", "classify_quartic", "q5_quartic_analysis",
         "q5_quartic_coeffs", "quartic_invariants"),
        "quartic",
    ),
    **dict.fromkeys(
        ("PottsBoundaryLaws", "displacement", "jacobian_profile", "potts_boundary_laws", "q5_jacobian",
         "q5_potts_diagonal_solutions"),
        "potts",
    ),
}

__all__ = sorted(
    [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, types.ModuleType)]
    + list(_LAZY)
)


def __getattr__(name: str):
    """A public name of `_LAZY`, read from its module, which this first read imports, and kept here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
