"""The q = 5 displacement map, its Jacobian, and the Potts line lambda1 = lambda2.

On the Potts line the mode recursion preserves the diagonal alpha1 = alpha2,
so its fixed points and boundary laws have closed forms, and the Jacobian of
the displacement map at the lower branch degenerates as lambda -> 1/2.  Only
`clocktree potts` runs this module, so the package loads it on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import ClockTreeError
from .fixedpoint import RESIDUAL_TOL, SQRT10, _residual
from .recursion import V5, mode_map_q5, mode_terms_q5
from .spectral import potts_theta


# ---------------------------------------------------------------------------
# the q=5 displacement map and its Jacobian
# ---------------------------------------------------------------------------


def displacement(lambda1: float, lambda2: float, alpha: tuple[float, float]) -> np.ndarray:
    """Identity minus the q=5 mode update; fixed points are its roots."""
    f = mode_map_q5(lambda1, lambda2, alpha)
    return np.array([alpha[0] - f[0], alpha[1] - f[1]])


def q5_jacobian(lambda1: float, lambda2: float, alpha: tuple[float, float]) -> tuple[np.ndarray, float]:
    """Analytic Jacobian of the displacement map and its determinant.

    Quotient-rule partials of the two mode updates; validated elsewhere
    against central finite differences.
    """
    den, n1, n2 = mode_terms_q5(lambda1, lambda2, alpha)
    a1, a2 = alpha
    l1, l2, v = lambda1, lambda2, V5
    dden_a1 = 2.0 * l1 * l1 * a1
    dden_a2 = 2.0 * l2 * l2 * a2
    dn1_a1 = 0.4 * l1 + 2.0 * l1 * l2 * v * a2
    dn1_a2 = 2.0 * l1 * l2 * v * a1 + 2.0 * v * l2 * l2 * a2
    dn2_a1 = 2.0 * l1 * l2 * v * a2 + 2.0 * v * l1 * l1 * a1
    dn2_a2 = 0.4 * l2 + 2.0 * l1 * l2 * v * a1
    jf = np.array(
        [
            [dn1_a1 * den - n1 * dden_a1, dn1_a2 * den - n1 * dden_a2],
            [dn2_a1 * den - n2 * dden_a1, dn2_a2 * den - n2 * dden_a2],
        ]
    ) / (den * den)
    jt = np.eye(2) - jf
    return jt, float(np.linalg.det(jt))


# ---------------------------------------------------------------------------
# Potts-line helpers (lambda1 = lambda2 = lambda, q = 5)
# ---------------------------------------------------------------------------


def _potts_root(lam: float) -> Optional[float]:
    """sqrt((9*lam - 4)*(lam + 4)), or None where 9*lam < 4 or lam is not finite.

    The diagonal discriminant lam^2 (9 lam - 4)(lam + 4)/10 and the boundary-law
    radicand (theta - 5)(theta + 3) = (9 lam - 4)(lam + 4)/(1 - lam)^2 both
    factor through it.  9*lam - 4 is (9n - 4d)/d from lam = n/d, its sign
    exact: 9.0*lam - 4.0 rounds to 0.0 at the float 4/9, 2^-52/9 below 4/9,
    and at the next float up.
    """
    if not math.isfinite(lam):
        return None
    n, d = lam.as_integer_ratio()
    if 9 * n < 4 * d:
        return None
    return math.sqrt((9 * n - 4 * d) / d * (lam + 4.0))


def q5_potts_diagonal_solutions(lam: float) -> Optional[tuple[tuple[float, float], tuple[float, float]]]:
    """Lower and upper diagonal fixed points alpha1 = alpha2 = alpha.

    On the Potts line the mode recursion preserves the diagonal and the
    non-trivial diagonal fixed points solve
    2*lam^2*alpha^2 - 3*v*lam^2*alpha + (1 - 2*lam)/5 = 0; real solutions
    exist exactly for lam >= 4/9.  With r = `_potts_root(lam)` the upper root
    is (3*lam + r)/(4*sqrt(10)*lam) and the lower one, by Vieta's product,
    4*(1 - 2*lam)/(sqrt(10)*lam*(3*lam + r)), neither of which cancels.
    From lam = 1 up both are divided through by lam, as their products
    overflow from about 3e153.  Returns ((lower, lower), (upper, upper)) or
    None below the existence interval.
    """
    if 1.0 <= lam < math.inf:
        s = 3.0 + math.sqrt((9.0 - 4.0 / lam) * (1.0 + 4.0 / lam))
        lower = 4.0 * (1.0 / lam - 2.0) / (SQRT10 * s) / lam
        upper = s / (4.0 * SQRT10)
    elif (r := _potts_root(lam)) is None:
        return None
    else:
        s = 3.0 * lam + r
        lower = 4.0 * (1.0 - 2.0 * lam) / (SQRT10 * lam * s)
        upper = s / (4.0 * SQRT10 * lam)
    return ((lower, lower), (upper, upper))


@dataclass(frozen=True)
class PottsBoundaryLaws:
    """Residual-verified boundary-law pair on the q=5 Potts line.

    The pair is (a+, a-) = 8 / ((theta - 1) +- s), s^2 = (theta - 5)(theta + 3),
    the flip of the printed leading term (1 - theta), which gives negative
    boundary-law components.  `a` reads as the reciprocal square root of the
    boundary-law ratio z = 16/a^2, and the normalized marginal (z,1,1,1,1)/(z+4)
    gives the modes; the printed conversion 2*(1-a)/5 fails the fixed-point
    residual check.  The two class attributes name these conventions.
    """

    sign_convention: ClassVar[str] = "theta-1"
    mode_conversion: ClassVar[str] = "bl-ratio"

    lam: float
    theta: float
    a_plus: float
    a_minus: float
    modes_plus: tuple[float, float]
    modes_minus: tuple[float, float]
    residual_plus: float
    residual_minus: float


def potts_boundary_laws(lam: float) -> Optional[PottsBoundaryLaws]:
    """The two boundary-law solutions (a+, a-) on the q=5 Potts line, verified.

    theta = e^beta = `potts_theta(5, lam)`, which raises NotAProbability
    unless lam lies in (-1/4, 1).  Real solutions exist for lam in [4/9, 1),
    and a verified pair is returned on all of it: with r = `_potts_root(lam)`,
    a+ = 8*(1 - lam)/(5*lam + r) and a- = (5*lam + r)/(2*(1 - lam)) = 4/a+,
    which do not cancel, and the modes are the diagonal pair of
    `q5_potts_diagonal_solutions`.  At lam = 1/2 the minus branch is the free
    solution (a- = 4, modes 0); above 1/2 its modes are negative (-0.0972 at
    lam = 0.6).  Both branches must satisfy the fixed-point equations to
    1e-9, or ClockTreeError is raised.  Returns None for lam in (-1/4, 4/9).
    """
    theta = potts_theta(5, lam)
    diag = q5_potts_diagonal_solutions(lam)
    if diag is None:
        return None
    mm, mp = diag
    s = 5.0 * lam + _potts_root(lam)
    rp = _residual(5, lam, lam, mp)
    rm = _residual(5, lam, lam, mm)
    if not (rp < RESIDUAL_TOL and rm < RESIDUAL_TOL):
        raise ClockTreeError(
            f"boundary laws at lambda = {lam!r} fail the fixed-point residual check "
            f"(residuals {rp!r}, {rm!r})"
        )
    return PottsBoundaryLaws(
        lam=lam,
        theta=theta,
        a_plus=8.0 * (1.0 - lam) / s,
        a_minus=s / (2.0 * (1.0 - lam)),
        modes_plus=mp,
        modes_minus=mm,
        residual_plus=rp,
        residual_minus=rm,
    )


def jacobian_profile(lambda_grid: Sequence[float]) -> list[tuple[float, float]]:
    """det of the displacement Jacobian at the lower-branch Potts solution.

    The Jacobian (`q5_jacobian`) is taken at the closed-form lower diagonal
    root of `q5_potts_diagonal_solutions`.  The lower branch merges with the
    free solution as lambda -> 1/2, where the Jacobian loses invertibility;
    the profile therefore tends to 0.  A lambda outside [4/9, 1/2), the float
    4/9 included (it lies below 4/9), raises ClockTreeError.
    """
    out = []
    for lam in lambda_grid:
        diag = q5_potts_diagonal_solutions(lam) if lam < 0.5 else None
        if diag is None:
            raise ClockTreeError(f"lower branch exists for lambda in [4/9, 1/2), got {lam!r}")
        _, det = q5_jacobian(lam, lam, diag[0])
        out.append((lam, det))
    return out
