"""Exception types raised by the clocktree library.

Everything derives from ClockTreeError (itself a ValueError) so callers can
catch broadly or match the specific contract violation.
"""


class ClockTreeError(ValueError):
    """Base class for all clocktree errors."""


class SpectrumAsymmetric(ClockTreeError):
    """Eigenvalue vector violates the reflection symmetry lambda_j = lambda_{q-j}."""


class NotStochastic(ClockTreeError):
    """Recovered transfer-matrix row has an entry below -1e-12."""


class RowAsymmetric(ClockTreeError):
    """Row vector violates the reflection symmetry r_k = r_{q-k}."""


class NotAProbability(ClockTreeError):
    """Row vector is not a probability vector (negative entry or wrong mass)."""


class DimensionMismatch(ClockTreeError):
    """Operands built for different numbers of states q."""


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
    """Operation only implemented for the analyzed state counts."""


class UnsupportedTree(ClockTreeError):
    """Cayley family with fewer than two children."""
