"""Exception types raised by the clocktree library.

Everything derives from ClockTreeError (itself a ValueError) so callers can
catch broadly or match the specific contract violation.
"""


class ClockTreeError(ValueError):
    """Base class for all clocktree errors."""


class SpectrumAsymmetric(ClockTreeError):
    """Eigenvalue vector violates the reflection symmetry lambda_j = lambda_{q-j}."""


class NotStochastic(ClockTreeError):
    """A spectrum has no stochastic transfer-matrix row.

    `row_from_eigenvalues` raises it for a non-finite eigenvalue, a row that
    overflows the largest float and a row entry below -1e-12;
    `TransferSpec.from_eigenvalues` also for a row sum other than 1.
    """


class RowAsymmetric(ClockTreeError):
    """Row vector violates the reflection symmetry r_k = r_{q-k}."""


class NotAProbability(ClockTreeError):
    """Row vector is not a probability vector (negative entry or wrong mass).

    Also raised for a non-finite row entry, a distribution whose modes give
    a negative probability, and a parameter with no transfer matrix: a Potts
    beta, theta or lambda (`make_potts`, `make_potts_from_theta`,
    `potts_theta`) or a clock coupling (`make_standard_clock`).
    """


class DimensionMismatch(ClockTreeError):
    """Operands built for different numbers of states q.

    Also raised for a mode vector of the wrong length, for q outside {4, 5}
    by the two-eigenvalue constructors (`spec_from_lambdas`,
    `feasible_lambdas`, `feasibility_breakpoints`) and `mode_map`, and for
    q outside [3, 64] by `TransferSpec`.
    """


class ZeroRowEntry(ClockTreeError):
    """Row entry is zero, so the pair potential is infinite and cannot be weakened."""


class AsymmetricVector(ClockTreeError):
    """Vector handed to a symmetric-basis operation is not reflection symmetric."""


class EmptyChildren(ClockTreeError):
    """Tree recursion step called with no child distributions."""


class NormalizationUnderflow(ClockTreeError):
    """Unnormalized recursion output summed below 1e-300."""


class DegenerateQuartic(ClockTreeError):
    """All quartic coefficients vanish (lambda2 = 0), or the leading one is too small to divide by."""


class UnsupportedQ(ClockTreeError):
    """Operation only implemented for the analyzed state counts.

    `potts_thresholds` also raises it for a tree degree d < 2.
    """


class UnsupportedTree(ClockTreeError):
    """Cayley family with fewer than two children."""
