"""Fixed points of the q = 4 and q = 5 mode recursions on the binary tree.

For q = 5, at any (lambda1, lambda2), the resultant in alpha2 of the two
cleared fixed-point equations is alpha1 * lambda2^4 * S(alpha1) / 50000 with
a sextic S, so all fixed points come from the real roots of S, each paired
with the common root alpha2 of the two equations.  A grid and a single point
alike take the roots as eigenvalues of S's companion matrices, one batched
eigensolve (`_q5_candidates`).  `q5_solutions_at_critical` is the
single-point solver at lambda1 = 1/2.

At lambda1 = 1/2, S = 25/(4*lambda2^2) * alpha1^2 * q_{lambda2}(alpha1), with
the quartic q_{lambda2} of the paper's analysis.  `classify_quartic`
classifies its real roots through the discriminant Delta and the auxiliary
invariants P = 8ac - 3b^2, D = 64a^3e - 16a^2c^2 + 16ab^2c - 16a^2bd - 3b^4
and Delta0 = c^2 - 3bd + 12ae, as the `classify` command prints them.  The
discriminant changes sign at lambda2 ~ 0.370748 (first non-trivial
solutions) and lambda2 ~ 0.494119 (second pair).  The paper eliminates
alpha2 through the rational function alpha2 = P4(alpha1)/P3(alpha1) to
alpha1^3 * (alpha1 - v)^2 * q_{lambda2}(alpha1) = 0, v = 1/sqrt(10), whose
root alpha1 = v is a solution only at lambda2 = 37/96 ~ 0.385417, the
special solution (v, v/(4*lambda2)); S has no such factor, and the special
solution is one of its ordinary roots.

For q = 4 the system is solvable in closed form: at lambda1 = 1/2 the
non-trivial branch is alpha2 = (3*lambda2 - 1)/(2*(lambda2 + lambda2^2)) with
alpha1 = +-sqrt(2*lambda2*alpha2 - 4*lambda2^2*alpha2^2); for general lambda1
the two quadratics P1(alpha2) = P2(alpha2) are intersected directly.

Every candidate produced by any of the closed forms is accepted only if it
satisfies the two-dimensional fixed-point equations to 1e-9; the long printed
radicals are never trusted blindly.  An accepted candidate is then within
about 1e-9 of a probability vector, because on Cayley(2) every image of the
mode map reconstructs to one: the step squares the entries of M p.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import ClockTreeError, DegenerateQuartic, RadicandNegative, UnsupportedQ
from .recursion import V5, mode_map, mode_map_q5, mode_terms_q5
from .spectral import feasible_lambdas, potts_theta

RESIDUAL_TOL = 1e-9
DEDUP_TOL = 1e-8

SQRT10 = math.sqrt(10.0)
C5 = math.sqrt(2.5)  # normalizer of the q=5 unit cosine basis


# ---------------------------------------------------------------------------
# the q=5 quartic and its classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients of q_{lambda2}(x) = a x^4 + b x^3 + c x^2 + d x + e."""

    a: float
    b: float
    c: float
    d: float
    e: float
    lambda2: float

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
    nonzero lambda2.
    """
    t = lambda2
    return QuarticCoeffs(*(c0 * t**2 + c1 * t**3 + c2 * t**4 for c0, c1, c2 in _Q5_QUARTIC), lambda2=t)


def _delta_terms(a: float, b: float, c: float, d: float, e: float) -> list[float]:
    """The 16 terms of the quartic's discriminant Delta, each a product of six coefficients."""
    return [
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
    ]


def quartic_invariants(coeffs: QuarticCoeffs) -> tuple[float, float, float, float]:
    """(Delta, P, D, Delta0), each accumulated with compensated summation.

    Raises DegenerateQuartic when every coefficient vanishes and
    ClockTreeError when an invariant, a term of one or the sum of the
    magnitudes of Delta's terms is not a finite float.
    """
    return _invariants(coeffs)[:4]


def _invariants(coeffs: QuarticCoeffs) -> tuple[float, float, float, float, float]:
    """`quartic_invariants` and the sum of the magnitudes of Delta's terms."""
    a, b, c, d, e = coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e
    scale = max(abs(a), abs(b), abs(c), abs(d), abs(e))
    if scale == 0.0:
        raise DegenerateQuartic("all quartic coefficients vanish")
    try:
        terms = _delta_terms(a, b, c, d, e)
        values = (
            math.fsum(terms),
            math.fsum([8 * a * c, -3 * b**2]),
            math.fsum([64 * a**3 * e, -16 * a**2 * c**2, 16 * a * b**2 * c, -16 * a**2 * b * d, -3 * b**4]),
            math.fsum([c**2, -3 * b * d, 12 * a * e]),
            math.fsum(abs(t) for t in terms),
        )
    except (OverflowError, ValueError):  # a power or a sum overflowed, or fsum met inf - inf
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise ClockTreeError(f"the quartic's invariants overflow at lambda2 = {coeffs.lambda2!r}")
    return values


# each term of Delta is a product of six rounded coefficients, rounded about
# six more times, so fsum of the terms is Delta to within about 12 eps of the
# terms' magnitudes; the margin is about five times larger
_DELTA_ULPS = 64.0


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

    def real_root_count(self) -> int:
        return sum(m for _, m in self.real_roots)

    def distinct_real_roots(self) -> list[float]:
        return [r for r, _ in self.real_roots]


def _polished_real_candidates(coeffs: QuarticCoeffs, count: Optional[int] = None) -> list[float]:
    """Near-real companion-matrix eigenvalues, polished by real Newton steps.

    Without `count`, eigenvalues pass a relative imaginary-part threshold.
    With `count` (real-root total certified by the invariants), the `count`
    eigenvalues closest to the real axis are taken: an exact m-fold root
    splits by ~eps^(1/m), which can exceed any fixed threshold.
    """
    mon = coeffs.as_array() / coeffs.a
    comp = np.zeros((4, 4))
    comp[1:, :3] = np.eye(3)
    comp[:, 3] = -mon[:0:-1]
    eig = np.linalg.eigvals(comp)
    root_scale = max(1.0, float(np.abs(eig).max()))
    if count is None:
        chosen = [z for z in eig if abs(z.imag) <= 1e-6 * root_scale]
    else:
        chosen = sorted(eig, key=lambda z: abs(z.imag))[:count]
    polished = []
    for z in chosen:
        x = z.real
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
    polished.sort()
    return polished


def _cluster(values: Sequence[float], tol: float) -> list[list[float]]:
    clusters: list[list[float]] = []
    for x in values:
        if clusters and abs(x - clusters[-1][-1]) <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return clusters


def _reconcile_clusters(
    coeffs: QuarticCoeffs, clusters: list[list[float]], profile: list[int]
) -> list[tuple[float, int]]:
    """Assign the known multiplicity profile to the root clusters.

    Exact multiple roots split under the eigensolver by ~eps^(1/m), far beyond
    the distinct-root tolerance, so when the invariants certify a multiple
    root the clusters are merged down to the certified count and the highest
    multiplicities go to the clusters where |q'| is smallest.
    """
    if not profile:
        return []
    while len(clusters) > len(profile):
        gaps = [
            (abs(np.mean(clusters[i + 1]) - np.mean(clusters[i])), i)
            for i in range(len(clusters) - 1)
        ]
        _, i = min(gaps)
        clusters[i : i + 2] = [clusters[i] + clusters[i + 1]]
    centers = [float(np.mean(c)) for c in clusters]
    by_flatness = sorted(range(len(centers)), key=lambda i: abs(coeffs.derivative(centers[i])))
    mults = [0] * len(centers)
    for rank, m in zip(by_flatness, sorted(profile, reverse=True)):
        mults[rank] = m
    return sorted(zip(centers, mults))


def classify_quartic(coeffs: QuarticCoeffs) -> QuarticAnalysis:
    """Real-root structure from the (Delta, P, D, Delta0) sign pattern.

    Delta counts as zero within its rounding, _DELTA_ULPS eps times the sum
    of its terms' magnitudes: Delta is a^6 times the product of the squared
    root differences, so a threshold in powers of the coefficients' scale
    would call two real roots 2e-3 apart a double root.  The zero tests of
    P, D and Delta0 use relative thresholds 1e-12 * scale^h, where h is the
    invariant's degree in the coefficients (2, 4, 2).  Roots are computed
    independently by the companion-matrix eigenvalue method with Newton
    polishing.
    """
    delta, p, big_d, delta0, magnitude = _invariants(coeffs)
    scale = max(abs(x) for x in coeffs.as_array())
    z_delta = _DELTA_ULPS * np.finfo(float).eps * magnitude
    z_p = 1e-12 * scale**2
    z_d = 1e-12 * scale**4
    z_d0 = 1e-12 * scale**2

    profile: Optional[list[int]] = None
    if abs(delta) > z_delta:
        if delta < 0.0:
            structure, n_simple = RootStructure.TWO_DISTINCT, None
        elif p < -z_p and big_d < -z_d:
            structure, n_simple = RootStructure.FOUR_DISTINCT, None
        else:
            structure, n_simple = RootStructure.NO_REAL, None
    else:
        # Delta = 0: at least one multiple root; record the certified
        # multiplicity profile for the root-extraction step
        if p < -z_p and big_d < -z_d and abs(delta0) > z_d0:
            structure, n_simple, profile = RootStructure.DOUBLE_ROOT_PLUS, 2, [2, 1, 1]
        elif abs(delta0) <= z_d0 and abs(big_d) > z_d:
            structure, n_simple, profile = RootStructure.DOUBLE_ROOT_PLUS, 1, [3, 1]
        elif abs(big_d) <= z_d:
            if p < -z_p:
                structure, n_simple, profile = RootStructure.DOUBLE_ROOT_PLUS, 0, [2, 2]
            elif abs(delta0) <= z_d0:
                structure, n_simple, profile = RootStructure.DOUBLE_ROOT_PLUS, 0, [4]
            else:
                structure, n_simple, profile = RootStructure.NO_REAL, None, []
        else:
            structure, n_simple, profile = RootStructure.DOUBLE_ROOT_PLUS, 0, [2]
    candidates = _polished_real_candidates(
        coeffs, count=None if profile is None else sum(profile)
    )
    clusters = _cluster(candidates, DEDUP_TOL)
    if profile is None:
        roots = tuple((float(np.mean(cl)), len(cl)) for cl in clusters)
    else:
        roots = tuple(_reconcile_clusters(coeffs, clusters, profile))
    return QuarticAnalysis(
        coeffs=coeffs,
        delta=delta,
        p=p,
        d=big_d,
        delta0=delta0,
        structure=structure,
        n_simple=n_simple,
        real_roots=roots,
    )


def _q5_reduced_quartic(lambda2: float) -> QuarticCoeffs:
    """q_{lambda2} / lambda2^2, which tends to a fixed quartic as lambda2 -> 0."""
    t = lambda2
    return QuarticCoeffs(*(c0 + c1 * t + c2 * t**2 for c0, c1, c2 in _Q5_QUARTIC), lambda2=t)


def q5_quartic_analysis(lambda2: float) -> QuarticAnalysis:
    """Root structure and real roots of q_{lambda2} at a nonzero lambda2.

    The invariants have degree up to 6 in the coefficients, which all carry
    lambda2^2, so they underflow for |lambda2| below about 1e-26.  There the
    quartic divided by lambda2^2 is classified instead: dividing by a positive
    number changes neither the roots nor the signs of the invariants.
    Elsewhere q_{lambda2} itself is classified, because the divided quartic's
    roots differ from its roots in the last digits.  Raises DegenerateQuartic
    at lambda2 = 0, where the quartic vanishes identically, and
    ClockTreeError from |lambda2| of about 1.495e12, where the invariants'
    terms, of degree 24 in lambda2, or the coefficients overflow.
    """
    if lambda2 == 0.0:
        raise DegenerateQuartic("the quartic vanishes identically at lambda2 = 0")
    try:
        coeffs = q5_quartic_coeffs(lambda2)
    except OverflowError as exc:  # a power of lambda2 past the largest float
        raise ClockTreeError(f"the quartic's coefficients overflow at lambda2 = {lambda2!r}") from exc
    # the invariants, of degree up to 6 in the coefficients, must stay far
    # from underflow (a scale of 1 or more is, and its sixth power may overflow)
    scale = max(abs(x) for x in coeffs.as_array())
    if scale < 1.0 and 1e-12 * scale**6 < sys.float_info.min:
        coeffs = _q5_reduced_quartic(lambda2)
    return classify_quartic(coeffs)


# ---------------------------------------------------------------------------
# solution sets
# ---------------------------------------------------------------------------


def _residual(q: int, lambda1: float, lambda2: float, alpha: tuple[float, float]) -> float:
    f = mode_map(q, lambda1, lambda2, alpha)
    return max(abs(alpha[0] - f[0]), abs(alpha[1] - f[1]))


@dataclass(frozen=True)
class SolutionSet:
    """Verified fixed points (alpha1, alpha2) of the mode recursion.

    The trivial solution (0, 0) comes first, the rest sorted by alpha1
    ascending.  Candidates that are not finite or fail the residual check
    are recorded in `rejected` instead of being silently dropped.
    """

    q: int
    lambda1: float
    lambda2: float
    solutions: tuple[tuple[float, float], ...]
    residuals: tuple[float, ...]
    includes_trivial: bool
    rejected: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def nontrivial(self) -> list[tuple[float, float]]:
        return [s for s in self.solutions if max(abs(s[0]), abs(s[1])) > DEDUP_TOL]

    @property
    def n_nontrivial(self) -> int:
        return len(self.nontrivial)


# how a candidate fixed point fared, in the order the checks run
_SKIPPED, _ACCEPTED, _NOT_FINITE, _RESIDUAL = range(4)


def _pymax(x, y):
    """Elementwise max(x, y) as Python's builtin picks it: y only where y > x (NaN included)."""
    return np.where(y > x, y, x)


def _verify_candidates(
    q: int,
    lambda1: float | np.ndarray,
    lambda2: float | np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    valid: bool | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Status and residual of candidate fixed points (a1, a2), shape (n, k), at n points.

    lambda1 and lambda2 broadcast against the candidates: (n, 1) arrays for
    a grid, plain floats for a batch of one, where numpy then dispatches
    fewer operations; the numbers are the same.  `valid` masks the slots a
    point does not use.  Slots are checked left to
    right, as a loop over one point's candidate list would: a valid
    candidate is rejected when it is not finite, skipped when it coincides
    with the trivial solution or with an earlier accepted candidate,
    rejected when its residual is at least 1e-9, and accepted otherwise.
    The residual repeats the arithmetic of `_residual` operation by
    operation, so each number is the one a single-point check computes.
    """
    status = np.full(a1.shape, _SKIPPED, dtype=np.int8)
    if a1.size == 0:
        return status, np.zeros(a1.shape)
    with np.errstate(all="ignore"):
        f1, f2 = mode_map(q, lambda1, lambda2, (a1, a2))
        residual = _pymax(np.abs(a1 - f1), np.abs(a2 - f2))
        # the status of a candidate that reaches the residual check
        checked = np.where(residual >= RESIDUAL_TOL, _RESIDUAL, _ACCEPTED)
        finite = np.isfinite(a1) & np.isfinite(a2)
        status[valid & ~finite] = _NOT_FINITE
        live = valid & finite & (_pymax(np.abs(a1), np.abs(a2)) > DEDUP_TOL)
        for k in range(a1.shape[1]):
            live_k = live[:, k]
            for j in range(k):
                near = _pymax(np.abs(a1[:, k] - a1[:, j]), np.abs(a2[:, k] - a2[:, j])) <= DEDUP_TOL
                live_k &= ~(near & (status[:, j] == _ACCEPTED))
            status[live_k, k] = checked[live_k, k]
    return status, residual


def _assemble(
    q: int,
    lambda1: float,
    lambda2: float,
    candidates: Sequence[tuple[float, float]],
    notes: Sequence[str] = (),
) -> SolutionSet:
    """Verified solution set at one point: the candidates as a batch of one.

    The trivial solution comes first, then the accepted candidates sorted by
    alpha1 (ties keep the candidate order); rejected candidates are listed
    with the reason.
    """
    cands = np.array(candidates, dtype=float).reshape(1, -1, 2)
    a1, a2 = cands[..., 0], cands[..., 1]
    status, residual = _verify_candidates(q, float(lambda1), float(lambda2), a1, a2, True)
    accepted = []
    rejected = []
    for a, st, res in zip(zip(a1[0].tolist(), a2[0].tolist()), status[0].tolist(), residual[0].tolist()):
        if st == _ACCEPTED:
            accepted.append((a, res))
        elif st == _NOT_FINITE:
            rejected.append(f"{a}: not finite")
        elif st == _RESIDUAL:
            rejected.append(f"{a}: residual {res:.3e}")
    accepted.sort(key=lambda s: s[0][0])
    trivial = (0.0, 0.0)
    return SolutionSet(
        q=q,
        lambda1=lambda1,
        lambda2=lambda2,
        solutions=(trivial,) + tuple(a for a, _ in accepted),
        residuals=(_residual(q, lambda1, lambda2, trivial),) + tuple(res for _, res in accepted),
        includes_trivial=True,
        rejected=tuple(rejected),
        notes=tuple(notes),
    )


def _q4_candidates(lambda1: np.ndarray, lambda2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form q=4 candidates (alpha1, alpha2, valid), each of shape (n, 6).

    Slots 0-1 hold the alpha1 = 0 pair (0, +-r) with
    r^2 = (2*lambda2 - 1)/(4*lambda2^2), present for lambda2 >= 1/2.  Slots
    2-3 hold (+-a1, a2) at lambda1 = 1/2, where
    a2 = (3*lambda2 - 1)/(2*(lambda2 + lambda2^2)) and
    a1 = sqrt(2*lambda2*a2 - 4*lambda2^2*a2^2) when that radicand is
    non-negative.  Elsewhere (|lambda1| > 1e-12) the quadratics
    P1 = lambda1/2 + lambda1*lambda2*alpha2 - 1/4 - lambda2^2*alpha2^2 and
    P2 = -lambda2*alpha2 + lambda1*alpha2 + 2*lambda1*lambda2*alpha2^2 are
    intersected as a quadratic in alpha2, and each root with P1 >= 0 gives
    (+-sqrt(P1)/lambda1, alpha2) in slots 2-3 and 4-5.  Each value takes
    the operations of evaluating these formulas at one point, in the same
    order, so a grid and a batch of one agree bit for bit.
    """
    n = len(lambda1)
    a1 = np.zeros((n, 6))
    a2 = np.zeros((n, 6))
    valid = np.zeros((n, 6), dtype=bool)
    l1, l2 = lambda1, lambda2
    with np.errstate(all="ignore"):
        # alpha1 = 0 branch of the second equation.  The sign test alone
        # keeps exactly lambda2 >= 1/2: below 1/2 the numerator is negative,
        # and where 4*lambda2^2 is 0 (lambda2 = 0, or tiny enough to
        # underflow) the quotient is -inf
        rad = (2.0 * l2 - 1.0) / (4.0 * l2 * l2)
        r = np.sqrt(rad)
        a2[:, 0], a2[:, 1] = r, -r
        valid[:, 0] = valid[:, 1] = rad >= 0.0

        half = np.abs(l1 - 0.5) < 1e-12
        general = ~half & (np.abs(l1) > 1e-12)
        qa = -(l2 * l2 + 2.0 * l1 * l2)
        qb = l1 * l2 + l2 - l1
        qc = 0.5 * l1 - 0.25
        linear = qa == 0.0
        disc = qb * qb - 4.0 * qa * qc
        sq = np.sqrt(disc)
        roots = (
            (np.where(linear, -qc / qb, (-qb - sq) / (2.0 * qa)), general & np.where(linear, qb != 0.0, ~(disc < 0.0))),
            ((-qb + sq) / (2.0 * qa), general & ~linear & ~(disc < 0.0)),
        )
        for slot, (root, has_root) in zip((2, 4), roots):
            p1 = 0.5 * l1 + l1 * l2 * root - 0.25 - l2 * l2 * root * root
            a1[:, slot] = np.sqrt(_pymax(p1, 0.0)) / l1
            a2[:, slot] = root
            valid[:, slot] = has_root & ~(p1 < -1e-15)

        # lambda1 = 1/2 has its own closed form in slots 2-3
        h2 = (3.0 * l2 - 1.0) / (2.0 * (l2 + l2 * l2))
        hrad = 2.0 * l2 * h2 - 4.0 * l2 * l2 * h2 * h2
        a1[:, 2] = np.where(half, np.sqrt(_pymax(hrad, 0.0)), a1[:, 2])
        a2[:, 2] = np.where(half, h2, a2[:, 2])
        valid[:, 2] |= half & (l2 > 0.0) & (hrad >= -1e-15)

        # the second slot of each pair flips the sign of alpha1
        a1[:, 3::2] = -a1[:, 2::2]
        a2[:, 3::2] = a2[:, 2::2]
        valid[:, 3::2] = valid[:, 2::2]
    return a1, a2, valid


def q4_fold_roots(lambda1: np.ndarray) -> np.ndarray:
    """(n, 7) lambda2 values at which `q4_solution_counts(lambda1[i], .)` can change; NaN where a root is not real.

    For |lambda1| > 1e-12 and |lambda1 - 1/2| > 1e-12, where `_q4_candidates`
    takes the general branch, a candidate appears, vanishes or merges only at
      - the roots of (l1 + 4) l2^2 + (2 l1 - 4) l2 + l1, the alpha2
        quadratic's discriminant divided by l1 (the fold of
        `phase.q4_critical_line`);
      - the roots of l2^2 - 2 l1 (l1 + 1) l2 + 2 l1^2, where P1 vanishes at
        a root of the alpha2 quadratic, so that alpha1 = +-sqrt(P1)/l1 merge;
      - l2 = 0 and l2 = -2 l1, where qa = 0, and l2 = 1/2, where the
        alpha1 = 0 pair appears.
    Each quadratic's roots come from a form without cancellation: the first
    has discriminant 16 (1 - 2 l1), and its roots multiply to l1/(l1 + 4);
    the second's are l1 (s +- sqrt(s^2 - 2)) with s = l1 + 1, multiplying to
    2 l1^2.  The root at infinity of the first (l1 = -4) is inf.  Where
    |lambda1| is above about 1e154 the forms overflow and the values are not
    the roots; no lambda2 is feasible there (feasible lambda1 lie in
    [-1/3, 1]), so no count depends on them.
    """
    l1 = np.asarray(lambda1, dtype=float)
    with np.errstate(all="ignore"):
        t = 2.0 - l1 + 2.0 * np.sqrt(1.0 - 2.0 * l1)  # at least 3/2 where it is real
        s = l1 + 1.0
        u = s + np.copysign(np.sqrt(s * s - 2.0), s)
        return np.stack(
            [t / (l1 + 4.0), l1 / t, l1 * u, 2.0 * l1 / u, np.zeros_like(l1), np.full_like(l1, 0.5), -2.0 * l1],
            axis=1,
        )


def _solution_counts(q: int, candidates, lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    l1, l2 = np.asarray(lambda1, dtype=float), np.asarray(lambda2, dtype=float)
    a1, a2, valid = candidates(l1, l2)
    status, _ = _verify_candidates(q, l1[:, None], l2[:, None], a1, a2, valid)
    return (status == _ACCEPTED).sum(axis=1)


def _solution_view(q: int, candidates, lambda1: float, lambda2: float) -> SolutionSet:
    l1, l2 = np.array([lambda1], dtype=float), np.array([lambda2], dtype=float)
    feasible = feasible_lambdas(q, l1, l2)[0]
    notes = [] if feasible else ["parameters are outside the non-increasing feasibility region"]
    a1, a2, valid = candidates(l1, l2)
    kept = [(x, y) for x, y, ok in zip(a1[0].tolist(), a2[0].tolist(), valid[0].tolist()) if ok]
    return _assemble(q, lambda1, lambda2, kept, notes)


def q4_solution_counts(lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    """The grid form of `q4_solutions(...).n_nontrivial`, as array operations."""
    return _solution_counts(4, _q4_candidates, lambda1, lambda2)


def q4_solutions(lambda1: float, lambda2: float) -> SolutionSet:
    """All symmetric fixed points for q = 4 in closed form.

    A batch of one of the grid solver (`_q4_candidates`, whose docstring has
    the formulas); this view only lists the accepted candidates, the rejected
    ones with their reasons, and a note when (lambda1, lambda2) is outside
    the non-increasing region, which is not an error.
    """
    return _solution_view(4, _q4_candidates, lambda1, lambda2)


# ---------------------------------------------------------------------------
# q=5 at any (lambda1, lambda2): elimination of alpha2 to a sextic in alpha1
# ---------------------------------------------------------------------------


def _q5_sextic(lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    """Coefficients (n, 7), highest power first, of the sextic S(alpha1).

    The fixed-point equations of `mode_map_q5`, times its denominator, are
        E1 = l2^2 (a1 - v) a2^2 - 2 v l1 l2 a1 a2 + a1 (l1^2 a1^2 - 2 l1/5 + 1/5),
        E2 = l2^2 a2^3 + (l1^2 a1^2 - 2 v l1 l2 a1 - 2 l2/5 + 1/5) a2 - v l1^2 a1^2,
    with resultant a1 l2^4 (a1 - v)^2 S(a1) / (5000 (sqrt(10) a1 - 1)^2) in
    alpha2.  At lambda1 = 1/2, S = 25/(4 lambda2^2) a1^2 q_{lambda2}(a1).
    """
    l1, l2, s = lambda1, lambda2, SQRT10
    p2, p3, q2, pq = l1 * l1, l1 * l1 * l1, l2 * l2, l1 * l2
    return np.stack(
        [
            5000.0 * p2 * p2 * (5 * p2 + 8 * pq + 5 * q2),
            -500.0 * s * p3 * (14 * p2 * l2 + 8 * p2 + 7 * l1 * q2 + 8 * pq - 16 * q2),
            -500.0 * p2 * (
                10 * p3 * l2 + 20 * p3 + p2 * q2 + 48 * p2 * l2 - 38 * p2 + 40 * l1 * q2 + 8 * pq - 24 * q2
            ),
            50.0 * s * l1 * (
                3 * p3 * q2 + 72 * p3 * l2 + 32 * p3 + 32 * p2 * q2 + 28 * p2 * l2 - 32 * p2 - 112 * l1 * q2 + 32 * q2
            ),
            -200.0 * (
                2 * p3 * q2 - 7 * p3 * l2 + 28 * p3 - 38 * p2 * q2 - 16 * p2 * l2 - 15 * p2
                + 32 * l1 * q2 + 12 * pq - 8 * q2
            ),
            -80.0 * s * (2 * l1 - 1) * (2 * l2 - 1) * (pq + 2 * l1 - 2 * l2),
            -40.0 * (2 * l1 - 1) * (2 * l2 - 1) ** 2,
        ],
        axis=-1,
    )


def _polyval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values at x (n, k) of the polynomials coeffs (n, d + 1), by Horner's rule."""
    p = np.zeros_like(x)
    for k in range(coeffs.shape[1]):
        p = p * x + coeffs[:, k, None]
    return p


def _polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Complex roots (n, d) of the polynomials coeffs (n, d + 1), highest power first.

    Leading coefficients below 1e-13 of a row's largest are dropped (missing
    roots are NaN); each degree's rows are one stack of companion matrices.
    """
    n, m = coeffs.shape
    roots = np.full((n, m - 1), complex(np.nan, np.nan))
    big = np.abs(coeffs) > 1e-13 * np.abs(coeffs).max(axis=1, keepdims=True)
    lead = np.where(big.any(axis=1), big.argmax(axis=1), m - 1)
    for first in sorted(set(lead.tolist()) - {m - 1}):  # np.unique would import numpy.ma
        deg, rows = m - 1 - first, lead == first
        companion = np.zeros((int(rows.sum()), deg, deg))
        companion[:, 0, :] = -coeffs[rows, first + 1 :] / coeffs[rows, first, None]
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        roots[rows, :deg] = np.linalg.eigvals(companion)
    return roots


def _q5_candidates(lambda1: np.ndarray, lambda2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate q=5 fixed points (alpha1, alpha2, valid), each of shape (n, 6), from every root of S.

    The roots are the eigenvalues of S's companion matrix (`_polynomial_roots`),
    with NaN in the slots a row does not use.  alpha1 runs over them, each
    polished by a Newton step (kept where |S| drops and the step is below
    1e-6).  A root is real if returned real or if S at its real part is
    within rounding, 32 eps sum |c_k x^k| (a double root comes out split by
    about sqrt(eps)); a real root whose midpoint with the next smaller one is
    within rounding is that root again, so a double root counts once.
    alpha2 is the common root of E1 = l2^2 A a2^2 + l2 B a2 + C and
    E2 = l2^2 a2^3 + E a2 + F: of -(B C + l2 F A^2) / (l2 (B^2 - A C + E A^2))
    (their subresultant, finite at A = a1 - v = 0, the special solution at
    lambda2 = 37/96) and -F/E (exact at lambda2 = 0), each polished by a
    Newton step on E2, the one with the smaller fixed-point residual.  A
    candidate whose residual still fails the check takes one Newton step on
    (E1, E2) when that step is at most 1e-5.  At lambda1 = 0 a pair
    (a1, +-a2) is not recovered; it would need lambda2 > 1/2, infeasible.
    """
    with np.errstate(all="ignore"):
        coeffs = _q5_sextic(lambda1, lambda2)
        roots = _polynomial_roots(coeffs)
        slope = coeffs[:, :-1] * np.arange(6, 0, -1)
        x = roots.real
        p = _polyval(coeffs, x)
        step = p / _polyval(slope, x)
        x = np.where((np.abs(step) <= 1e-6) & (np.abs(_polyval(coeffs, x - step)) < np.abs(p)), x - step, x)

        def indistinct(at):
            return np.abs(_polyval(coeffs, at)) <= 32.0 * np.finfo(float).eps * _polyval(np.abs(coeffs), np.abs(at))

        valid = (roots.imag == 0.0) | indistinct(x)
        order = np.argsort(np.where(valid, x, np.inf), axis=1)
        x, valid = np.take_along_axis(x, order, axis=1), np.take_along_axis(valid, order, axis=1)
        # the real roots come first; each is checked against its predecessor
        valid[:, 1:] &= ~indistinct(0.5 * (x[:, :-1] + x[:, 1:]))

        l1, l2 = lambda1[:, None], lambda2[:, None]
        a, b, c = x - V5, -2.0 * V5 * l1 * x, x * (l1 * l1 * x * x - 0.4 * l1 + 0.2)
        e, f = l1 * l1 * x * x - 2.0 * V5 * l1 * l2 * x - 0.4 * l2 + 0.2, -V5 * l1 * l1 * x * x

        def e2(a2):
            return (l2 * l2 * a2 * a2 + e) * a2 + f

        # the two estimates, the subresultant's root and -F/E, side by side
        a2 = np.stack([-(b * c + l2 * f * a * a) / (l2 * (b * b - a * c + e * a * a)), -f / e])
        a2 = np.where(x == 0.0, 0.0, a2)
        polished = a2 - e2(a2) / (3.0 * l2 * l2 * a2 * a2 + e)
        a2 = np.where(np.abs(e2(polished)) < np.abs(e2(a2)), polished, a2)
        f1, f2 = mode_map_q5(l1, l2, (x, a2))
        residual = np.maximum(np.abs(x - f1), np.abs(a2 - f2))
        a2 = np.where(residual[0] <= residual[1], a2[0], a2[1])
        # where two fixed points share alpha1 (near G = 0, below) B^2 - A C + E A^2
        # vanishes and both estimates of alpha2 can be off by a few 1e-6; a
        # candidate that passes keeps its numbers
        rows, slots = np.nonzero(valid & (residual.min(axis=0) >= RESIDUAL_TOL))
        if len(rows):
            at, p1, p2 = (rows, slots), lambda1[rows], lambda2[rows]
            s, t = x[at], a2[at]
            r1, r2 = (p2 * p2 * a[at] * t + p2 * b[at]) * t + c[at], (p2 * p2 * t * t + e[at]) * t + f[at]
            # the Jacobian of (E1, E2) in (alpha1, alpha2)
            j11 = (p2 * t - 2.0 * V5 * p1) * p2 * t + 3.0 * p1 * p1 * s * s - 0.4 * p1 + 0.2
            j12, j21 = (2.0 * p2 * a[at] * t + b[at]) * p2, 2.0 * p1 * ((p1 * s - V5 * p2) * t - V5 * p1 * s)
            j22 = 3.0 * p2 * p2 * t * t + e[at]
            det = j11 * j22 - j12 * j21
            d1, d2 = (r1 * j22 - r2 * j12) / det, (r2 * j11 - r1 * j21) / det
            small = np.maximum(np.abs(d1), np.abs(d2)) <= 1e-5
            x[rows[small], slots[small]] -= d1[small]
            a2[rows[small], slots[small]] -= d2[small]
    return x, a2, valid


def q5_solution_counts(lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    """The grid form of `q5_solutions(...).n_nontrivial`, as array operations."""
    return _solution_counts(5, _q5_candidates, lambda1, lambda2)


# The folds of S: with alpha1 = x/sqrt(10), S's discriminant in x is
#     c l1^14 (2 l1 - 1) (2 l2 - 1)^3 G(l1, l2)^2 F(l1, l2)
# with a constant c and integer polynomials G (total degree 9) and F (total
# degree 18, symmetric in l1 and l2).  A count of fixed points can change
# where S has a multiple real root, on this zero set.  Only F needs a table:
# the discriminant does not change sign across G = 0, where it touches zero
# as a square, and the only root of 2 l2 - 1 is the constant 1/2.  Row i
# holds the coefficients of l1^i in l2, highest power of l2 first, without
# trailing zeros.
_FOLD_F = (
    (-524288,),
    (524288, 4718592),
    (98304, -4915200, -18776064),
    (-2646016, 5103616, 15581184, 44875776),
    (-2613760, 23345152, -53392384, -2979840, -77787648),
    (-655104, -3633920, 23600384, 41392384, -2450432, 93835264),
    (111744, -6298944, -34959840, -1195520, -31739840, -2450432, -77787648),
    (51392, 2825280, 13650048, 8055040, -1195520, 41392384, -2979840, 44875776),
    (1152, 170358, 5359077, 13650048, -34959840, 23600384, -53392384, 15581184, -18776064),
    (0, 2196, 170358, 2825280, -6298944, -3633920, 23345152, 5103616, -4915200, 4718592),
    (0, 0, 1152, 51392, 111744, -655104, -2613760, -2646016, 98304, 524288, -524288),
)


@functools.cache
def _fold_table() -> np.ndarray:
    """The (11, 11) table of F: power of l1, coefficient in l2 (highest first).

    `l1 powers @ table` gives F as a polynomial in l2 at a batch of lambda1.
    """
    table = np.zeros((11, 11))
    for i, row in enumerate(_FOLD_F):
        table[i, : len(row)] = row
    table.setflags(write=False)  # shared by every caller through the cache
    return table


def _fold_coeffs(lambda1: np.ndarray) -> np.ndarray:
    """F as a polynomial in l2 at each lambda1, shape (n, 11), highest power first."""
    return (np.asarray(lambda1, dtype=float)[:, None] ** np.arange(11)) @ _fold_table()


def q5_fold_bands(lambda1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, lambda2, radius): where a q=5 count can change at each lambda1[row], with a bound on the error.

    A count can change only at lambda2 = 1/2 (radius 0, every row) and the
    real roots of F (or where a root of S leaves the verifier's bounds).
    F's roots z in lambda2 come from one batched companion eigensolve,
    unpolished, one of each conjugate pair.  Around each z the disc of
    radius 10 (|F(z)| + e)/|F'(z)| holds a root of F, which has degree 10
    (|F'/F| = |sum 1/(z - r)| over its roots r); e bounds the rounding of
    F's coefficients and of Horner's rule at z.  Each z whose disc reaches
    the real axis, complex ones included, gives its real part and the
    radius.  Away from a multiple root the radius is below 1e-6 (about 5e-7
    at lambda1 = 0.45); near F's triple root at (1/2, 2/5), where a computed
    root can be off by 2e-4, it grows with the error, to about 0.02 at
    lambda1 = 1/2 - 1e-11.
    """
    l1 = np.asarray(lambda1, dtype=float)
    with np.errstate(all="ignore"):  # F overflows at |lambda1| above about 1e30: no roots there
        coeffs = _fold_coeffs(l1)
        z = _polynomial_roots(coeffs)
        magnitudes = (np.abs(l1)[:, None] ** np.arange(11)) @ np.abs(_fold_table())
        rounding = 32.0 * np.finfo(float).eps * _polyval(magnitudes, np.abs(z))
        radius = 10.0 * (np.abs(_polyval(coeffs, z)) + rounding) / np.abs(
            _polyval(coeffs[:, :-1] * np.arange(10, 0, -1), z)
        )
    rows, k = np.nonzero((z.imag >= 0.0) & (z.imag <= radius))
    n = len(l1)  # then lambda2 = 1/2, the root of 2 l2 - 1, with radius 0 in every row
    half = (np.arange(n), np.full(n, 0.5), np.zeros(n))
    return tuple(np.concatenate(pair) for pair in zip((rows, z.real[rows, k], radius[rows, k]), half))


def q5_solutions(lambda1: float, lambda2: float) -> SolutionSet:
    """All symmetric fixed points for q = 5, at any (lambda1, lambda2).

    A batch of one of the grid solver (`_q5_candidates`), formatted as
    `q4_solutions` formats q = 4's.
    """
    return _solution_view(5, _q5_candidates, lambda1, lambda2)


def q5_solutions_at_critical(lambda2: float) -> SolutionSet:
    """All symmetric fixed points for q = 5 at lambda1 = 1/2: `q5_solutions(0.5, lambda2)`.

    lambda2 must lie in [0, 1).  At lambda2 = 0, where the paper's quartic
    vanishes identically, the set (the trivial solution only) carries a note
    saying so.
    """
    if not (0.0 <= lambda2 < 1.0):
        raise ClockTreeError(f"lambda2 must lie in [0, 1), got {lambda2!r}")
    solutions = q5_solutions(0.5, lambda2)
    if lambda2 == 0.0:
        notes = solutions.notes + ("degenerate quartic at lambda2 = 0: trivial solution only",)
        return replace(solutions, notes=notes)
    return solutions


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


def q5_potts_diagonal_solutions(lam: float) -> Optional[tuple[tuple[float, float], tuple[float, float]]]:
    """Lower and upper diagonal fixed points alpha1 = alpha2 = alpha.

    On the Potts line the mode recursion preserves the diagonal and the
    non-trivial diagonal fixed points solve
    2*lam^2*alpha^2 - 3*v*lam^2*alpha + (1 - 2*lam)/5 = 0; real solutions
    exist exactly for lam >= 4/9.  Returns ((lower, lower), (upper, upper)) or
    None below the existence interval.
    """
    v = V5
    qa = 2.0 * lam * lam
    qb = -3.0 * v * lam * lam
    qc = (1.0 - 2.0 * lam) / 5.0
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        if disc > -1e-12 * max(qb * qb, 1e-30):
            disc = 0.0
        else:
            return None
    s = math.sqrt(disc)
    lower = (-qb - s) / (2.0 * qa)
    upper = (-qb + s) / (2.0 * qa)
    return ((lower, lower), (upper, upper))


@dataclass(frozen=True)
class PottsBoundaryLaws:
    """Residual-verified boundary-law pair on the q=5 Potts line.

    The pair is (a+, a-) = 2*(q-1) / ((theta - 1) +- sqrt(rad)), the flip of
    the printed leading term (1 - theta), which gives negative boundary-law
    components.  `a` reads as the reciprocal square root of the boundary-law
    ratio z = (q-1)^2/a^2, and the normalized marginal (z,1,1,1,1)/(z+4)
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


def _bl_modes(a: float) -> tuple[float, float]:
    z = 16.0 / (a * a)
    m = (z - 1.0) / (C5 * (z + 4.0))
    return (m, m)


def potts_boundary_laws(q: int, lam: float, strict: bool = False) -> Optional[PottsBoundaryLaws]:
    """The two boundary-law solutions (a+, a-) on the Potts line, verified.

    Real solutions exist for lam in [4/9, 1/2) where the radicand
    theta^2 - 2*theta + 5 - 4*q is non-negative (theta = e^beta).  Both
    branches must satisfy the fixed-point equations to 1e-9, or
    ClockTreeError is raised.  Returns None (or raises RadicandNegative with
    strict=True) outside the existence interval.
    """
    if q != 5:
        raise UnsupportedQ(f"boundary-law formulas are specific to q = 5, got q={q}")
    theta = potts_theta(q, lam)
    rad = theta * theta - 2.0 * theta + 5.0 - 4.0 * q
    if rad < 0.0:
        if rad > -1e-9 * max(theta * theta, 1.0):
            rad = 0.0
        elif strict:
            raise RadicandNegative(f"radicand {rad!r} negative at lambda = {lam!r}")
        else:
            return None
    s = math.sqrt(rad)
    denom = 2.0 * (q - 1.0)
    # |theta - 1| > s, since (theta - 1)^2 - s^2 = 4*q - 4 > 0: neither denominator vanishes
    a_plus = denom / (theta - 1.0 + s)
    a_minus = denom / (theta - 1.0 - s)
    mp, mm = _bl_modes(a_plus), _bl_modes(a_minus)
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
        a_plus=a_plus,
        a_minus=a_minus,
        modes_plus=mp,
        modes_minus=mm,
        residual_plus=rp,
        residual_minus=rm,
    )
