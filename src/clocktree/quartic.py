"""The quartic of the q = 5 fixed points at lambda1 = 1/2, and its real-root structure.

At lambda1 = 1/2 the sextic of `fixedpoint` is
S = 25/(4*lambda2^2) * alpha1^2 * q_{lambda2}(alpha1), with the quartic
q_{lambda2} of the paper's analysis (`q5_quartic_coeffs`).
`classify_quartic` classifies the real roots of float coefficients by the
exact signs of the discriminant Delta and of P = 8ac - 3b^2 and
D = 64a^3e - 16a^2c^2 + 16ab^2c - 16a^2bd - 3b^4, with the integer helpers
of `exact` where Delta is exactly 0; `classify` prints them with
Delta0 = c^2 - 3bd + 12ae.  Delta changes sign at lambda2 ~ 0.370748 (first
non-trivial solutions) and lambda2 ~ 0.494119 (second pair).  Only
`clocktree classify` and the package's exports read this module, so the
package loads it on first use; no solver reads it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ClockTreeError, DegenerateQuartic
from .exact import _real_roots, _squarefree_factors
from .fixedpoint import SQRT10


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients of q_{lambda2}(x) = a x^4 + b x^3 + c x^2 + d x + e."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d, self.e])

    def __call__(self, x: float) -> float:
        return (((self.a * x + self.b) * x + self.c) * x + self.d) * x + self.e

    def derivative(self, x: float) -> float:
        return ((4.0 * self.a * x + 3.0 * self.b) * x + 2.0 * self.c) * x + self.d


# (c0, c1, c2) per coefficient, highest power of x first: each coefficient of
# q_{lambda2} is (c0 + c1*lambda2 + c2*lambda2^2) * lambda2^2
_Q5_QUARTIC = (
    (62.5, 200.0, 250.0),
    (-20.0 * SQRT10, -75.0 * SQRT10, 125.0 * SQRT10),
    (140.0, -345.0, 75.0),
    (-16.0 * SQRT10, 64.0 * SQRT10, -125.0 * math.sqrt(2.5)),
    (8.0, -36.0, 40.0),
)


def q5_quartic_coeffs(lambda2: float) -> QuarticCoeffs:
    """Quartic factor of the eliminated fixed-point polynomial at lambda1 = 1/2.

    Every coefficient carries a factor lambda2^2, so the quartic vanishes
    identically at lambda2 = 0 and its coefficients underflow to 0 for
    |lambda2| below about 1e-162; `q5_quartic_analysis` classifies it at any
    nonzero lambda2.  A lambda2 that is not finite, and one from about
    |lambda2| = 2.6e76 up, where a coefficient overflows the largest float,
    raise ClockTreeError.
    """
    if not math.isfinite(lambda2):
        raise ClockTreeError(f"lambda2 must be finite, got {lambda2!r}")
    t, overflow = lambda2, f"the quartic's coefficients overflow at lambda2 = {lambda2!r}"
    try:
        coeffs = [c0 * t**2 + c1 * t**3 + c2 * t**4 for c0, c1, c2 in _Q5_QUARTIC]
    except OverflowError:  # from about 1.158e77 a power of lambda2 itself overflows
        raise ClockTreeError(overflow) from None
    if not all(map(math.isfinite, coeffs)):
        raise ClockTreeError(overflow)
    return QuarticCoeffs(*coeffs)


def _invariant_terms(a, b, c, d, e) -> tuple[list, list, list, list]:
    """The terms of Delta (each a product of six coefficients), P, D and Delta0, of exact coefficients."""
    return (
        [
            256 * a**3 * e**3,
            -192 * a**2 * b * d * e**2,
            -128 * a**2 * c**2 * e**2,
            144 * a**2 * c * d**2 * e,
            -27 * a**2 * d**4,
            144 * a * b**2 * c * e**2,
            -6 * a * b**2 * d**2 * e,
            -80 * a * b * c**2 * d * e,
            18 * a * b * c * d**3,
            16 * a * c**4 * e,
            -4 * a * c**3 * d**2,
            -27 * b**4 * e**2,
            18 * b**3 * c * d * e,
            -4 * b**3 * d**3,
            -4 * b**2 * c**3 * e,
            b**2 * c**2 * d**2,
        ],
        [8 * a * c, -3 * b**2],
        [64 * a**3 * e, -16 * a**2 * c**2, 16 * a * b**2 * c, -16 * a**2 * b * d, -3 * b**4],
        [c**2, -3 * b * d, 12 * a * e],
    )


def _exact_invariants(coeffs: QuarticCoeffs) -> tuple[list[int], tuple[int, ...], tuple[float, ...]]:
    """The scaled coefficients, the exact invariants and (Delta, P, D, Delta0) as floats.

    A float is a dyadic rational, so the coefficients times their common
    power-of-two denominator d are integers, whose invariants are Delta d^6,
    P d^2, D d^4 and Delta0 d^2.  Each is divided by its power of d once, an
    int / int division that rounds correctly, a value below the subnormals
    to a zero of its sign.  Raises DegenerateQuartic when every coefficient
    vanishes and ClockTreeError, naming the coefficients, where one is not
    finite or an invariant is too large for a float.
    """
    floats = tuple(coeffs.as_array().tolist())
    if not all(map(math.isfinite, floats)):
        raise ClockTreeError(f"the quartic's coefficients must be finite, got {floats}")
    ratios = [x.as_integer_ratio() for x in floats]
    denominator = max(den for _, den in ratios)
    ints = [num * (denominator // den) for num, den in ratios]
    sums = tuple(sum(terms) for terms in _invariant_terms(*ints))
    try:
        values = tuple(s / denominator**k for s, k in zip(sums, (6, 2, 4, 2)))
    except OverflowError:  # an invariant past the largest float
        raise ClockTreeError(f"the quartic's invariants overflow at coefficients {floats}") from None
    if not any(ints):
        raise DegenerateQuartic("all quartic coefficients vanish")
    return ints, sums, values


def quartic_invariants(coeffs: QuarticCoeffs) -> tuple[float, float, float, float]:
    """(Delta, P, D, Delta0), each its exact value rounded once to a float (`_exact_invariants`)."""
    return _exact_invariants(coeffs)[2]


class RootStructure(Enum):
    NO_REAL = "NO_REAL"
    TWO_DISTINCT = "TWO_DISTINCT"
    FOUR_DISTINCT = "FOUR_DISTINCT"
    DOUBLE_ROOT_PLUS = "DOUBLE_ROOT_PLUS"
    DEGENERATE_ZERO = "DEGENERATE_ZERO"


@dataclass(frozen=True)
class QuarticAnalysis:
    coeffs: QuarticCoeffs
    delta: float
    p: float
    d: float
    delta0: float
    structure: RootStructure
    n_simple: Optional[int]  # simple real roots accompanying a multiple one
    real_roots: tuple[tuple[float, int], ...]  # (root, multiplicity), ascending


def _polished_real_candidates(coeffs: QuarticCoeffs, count: int) -> list[float]:
    """The `count` companion-matrix eigenvalues closest to the real axis, polished by real Newton steps.

    `count` is the number of real roots, all of them simple, that the exact
    sign of Delta certifies.  No threshold on the imaginary parts would do:
    two real roots close together can come out as a conjugate pair z, which
    Newton's method then starts from z.real + z.imag, two points.
    """
    mon = coeffs.as_array() / coeffs.a
    comp = np.zeros((4, 4))
    comp[1:, :3] = np.eye(3)
    comp[:, 3] = -mon[:0:-1]
    chosen = sorted(np.linalg.eigvals(comp), key=lambda z: abs(z.imag))[:count]
    polished = []
    for z in chosen:
        x = z.real + z.imag
        for _ in range(50):
            fx = coeffs(x)
            dfx = coeffs.derivative(x)
            if dfx == 0.0 or abs(fx) < 1e-15 * max(abs(coeffs.a), abs(coeffs.e), 1.0):
                break
            step = fx / dfx
            if abs(step) < 1e-17 * max(1.0, abs(x)):
                break
            x -= step
        polished.append(x)
    return sorted(polished)


def classify_quartic(coeffs: QuarticCoeffs) -> QuarticAnalysis:
    """Real-root structure of the quartic with exactly these float coefficients.

    One `_exact_invariants` evaluation gives the exact signs of Delta, P
    and D, and the invariants it returns are those values rounded once.
    Delta < 0: TWO_DISTINCT; Delta > 0: FOUR_DISTINCT where P < 0 and D < 0,
    else NO_REAL; each real root is simple, a polished companion eigenvalue.
    Delta = 0: the squarefree factors, none then above degree 2, give each
    root in closed form with its multiplicity; DOUBLE_ROOT_PLUS(number of
    simple real roots) where a real root is multiple, else NO_REAL.  A
    leading coefficient too small to divide the others by raises
    DegenerateQuartic.
    """
    ints, (exact_delta, exact_p, exact_d, _), values = _exact_invariants(coeffs)
    scale = max(abs(x) for x in coeffs.as_array())
    if coeffs.a == 0.0 or not math.isfinite(float(scale) / float(coeffs.a)):
        raise DegenerateQuartic(f"the quartic's leading coefficient {coeffs.a!r} is too small to divide by")
    n_simple = None
    if exact_delta != 0:
        if exact_delta < 0:
            structure, count = RootStructure.TWO_DISTINCT, 2
        elif exact_p < 0 and exact_d < 0:
            structure, count = RootStructure.FOUR_DISTINCT, 4
        else:
            structure, count = RootStructure.NO_REAL, 0
        roots = tuple((float(x), 1) for x in _polished_real_candidates(coeffs, count))
    else:
        factors = _squarefree_factors(ints)
        roots = tuple(sorted((x, m) for m, f in enumerate(factors, 1) if len(f) > 1 for x in _real_roots(f)))
        if any(m > 1 for _, m in roots):
            structure, n_simple = RootStructure.DOUBLE_ROOT_PLUS, sum(m == 1 for _, m in roots)
        else:
            structure = RootStructure.NO_REAL
    return QuarticAnalysis(coeffs, *values, structure, n_simple, roots)


def _q5_reduced_quartic(lambda2: float) -> QuarticCoeffs:
    """q_{lambda2} / lambda2^2, which tends to a fixed quartic as lambda2 -> 0."""
    t = lambda2
    return QuarticCoeffs(*(c0 + c1 * t + c2 * t**2 for c0, c1, c2 in _Q5_QUARTIC))


def q5_quartic_analysis(lambda2: float) -> QuarticAnalysis:
    """Root structure and real roots of q_{lambda2} at a nonzero lambda2.

    The coefficients all carry lambda2^2, so they lose digits to underflow
    below |lambda2| of about 5e-155 and vanish below about 1e-162.  There
    the quartic divided by lambda2^2 is classified instead: dividing by a
    positive number changes neither the roots nor the signs of the
    invariants.  Elsewhere q_{lambda2} itself, whose coefficients `classify`
    prints, is classified.  Raises DegenerateQuartic at lambda2 = 0,
    where the quartic vanishes identically, and ClockTreeError where
    `q5_quartic_coeffs` refuses lambda2 and from lambda2 of about 5.6325e12
    up and -5.6329e12 down, where Delta, of degree 24 in lambda2, overflows.
    """
    if lambda2 == 0.0:
        raise DegenerateQuartic("the quartic vanishes identically at lambda2 = 0")
    coeffs = q5_quartic_coeffs(lambda2)
    # a coefficient below the smallest normal float has underflowed, unless
    # the quartic is large: e cancels to 0.0 at lambda2 = 0.5
    magnitudes = np.abs(coeffs.as_array())
    if magnitudes.max() < 1.0 and magnitudes.min() < sys.float_info.min:
        coeffs = _q5_reduced_quartic(lambda2)
    try:
        return classify_quartic(coeffs)
    except DegenerateQuartic:
        raise
    except ClockTreeError as exc:  # an invariant past the largest float
        raise ClockTreeError(f"the quartic's invariants overflow at lambda2 = {lambda2!r}") from exc
