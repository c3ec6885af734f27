"""Fixed points of the q = 4 and q = 5 mode recursions on the binary tree.

For q = 5, at any (lambda1, lambda2), the resultant in alpha2 of the two
cleared fixed-point equations is alpha1 * lambda2^4 * S(alpha1) / 50000 with
a sextic S, so all fixed points come from the real roots of S, each paired
with the common root alpha2 of the two equations.  A grid and a single point
alike take the roots as eigenvalues of S's companion matrices, one batched
eigensolve (`_q5_candidates`).  `q5_solutions_at_critical` is the
single-point solver at lambda1 = 1/2.

At lambda1 = 1/2, S = 25/(4*lambda2^2) * alpha1^2 * q_{lambda2}(alpha1), with
the quartic q_{lambda2} of the paper's analysis, which `quartic` classifies.
The paper eliminates alpha2 through the rational function alpha2 =
P4(alpha1)/P3(alpha1) to alpha1^3 * (alpha1 - v)^2 * q_{lambda2}(alpha1) = 0,
v = 1/sqrt(10), whose root alpha1 = v is a solution only at lambda2 = 37/96
~ 0.385417, the special solution (v, v/(4*lambda2)); S has no such factor,
and the special solution is one of its ordinary roots.

For q = 4 the system is solvable in closed form: at lambda1 = 1/2 the
non-trivial branch is alpha2 = (3*lambda2 - 1)/(2*(lambda2 + lambda2^2)) with
alpha1 = +-sqrt(2*lambda2*alpha2 - 4*lambda2^2*alpha2^2); for general lambda1
the two quadratics P1(alpha2) = P2(alpha2) are intersected directly.

Every candidate produced by any of the closed forms is accepted only if it
satisfies the two-dimensional fixed-point equations to 1e-9; the long printed
radicals are never trusted blindly.  An accepted candidate is then within
about 1e-9 of a probability vector, because on Cayley(2) every image of the
mode map reconstructs to one: the step squares the entries of M p.

This module holds only the solvers that the sweeps, the transition line and
`clocktree solve` run.  The quartic's classification (`quartic`) and the
displacement map and Potts-line helpers (`potts`) read it; it reads neither.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ClockTreeError
from .recursion import V5, mode_map, mode_map_q5
from .spectral import feasible_lambdas

RESIDUAL_TOL = 1e-9
DEDUP_TOL = 1e-8

SQRT10 = math.sqrt(10.0)


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
    ascending; each of the rest lies farther than DEDUP_TOL from (0, 0), so
    `nontrivial` is every solution but the first.  Candidates that are not finite or fail the residual check
    are recorded in `rejected` instead of being silently dropped.
    """

    q: int
    lambda1: float
    lambda2: float
    solutions: tuple[tuple[float, float], ...]
    residuals: tuple[float, ...]
    rejected: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def nontrivial(self) -> list[tuple[float, float]]:
        return list(self.solutions[1:])

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
    accepted when its residual is below 1e-9, and rejected otherwise (a nan
    residual included).  One walk over the slots, in order, checks each
    slot in every row at once against the earlier slots still kept and
    accepted, whose statuses are final by then.
    The residual repeats the arithmetic of `_residual` operation by
    operation, so each number is the one a single-point check computes.
    """
    status = np.full(a1.shape, _SKIPPED, dtype=np.int8)
    if a1.size == 0:
        return status, np.zeros(a1.shape)
    with np.errstate(all="ignore"):
        f1, f2 = mode_map(q, lambda1, lambda2, (a1, a2))
        residual = _pymax(np.abs(a1 - f1), np.abs(a2 - f2))
        passed = residual < RESIDUAL_TOL
        finite = np.isfinite(a1) & np.isfinite(a2)
        status[valid & ~finite] = _NOT_FINITE
        live = valid & finite & (_pymax(np.abs(a1), np.abs(a2)) > DEDUP_TOL)
        # (k, n) copies: each slot is a contiguous row, which numpy walks fastest
        c1, c2, kept, accepted = a1.T.copy(), a2.T.copy(), live.T.copy(), passed.T.copy()
        for k in range(1, len(kept)):
            near = _pymax(np.abs(c1[:k] - c1[k]), np.abs(c2[:k] - c2[k])) <= DEDUP_TOL
            kept[k] &= ~(near & kept[:k] & accepted[:k]).any(axis=0)
        np.copyto(status, np.where(passed, _ACCEPTED, _RESIDUAL), where=kept.T)
    return status, residual


def _assemble(
    q: int,
    lambda1: float,
    lambda2: float,
    candidates: Sequence[tuple[float, float]],
    notes: Sequence[str] = (),
) -> SolutionSet:
    """Verified solution set at one point: the candidates as a batch of one.

    The trivial solution comes first, with residual 0 (the mode map fixes it
    exactly; evaluated, it is nan once lambda2^2 overflows), then the accepted
    candidates sorted by alpha1 (ties keep the candidate order); rejected
    candidates are listed with the reason.
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
    return SolutionSet(
        q=q,
        lambda1=lambda1,
        lambda2=lambda2,
        solutions=((0.0, 0.0),) + tuple(a for a, _ in accepted),
        residuals=(0.0,) + tuple(res for _, res in accepted),
        rejected=tuple(rejected),
        notes=tuple(notes),
    )


def _degenerate_lambda1(lambda1: np.ndarray) -> np.ndarray:
    """Where lambda1 lies within 1e-12 of 0 or of 1/2, and a count can change at any lambda2.

    There `_q4_candidates` leaves its general branch and the discriminant of
    q = 5's sextic vanishes identically (`q5_fold_bands`), so no fold table
    tells where a count changes.
    """
    return (np.abs(lambda1) <= 1e-12) | (np.abs(lambda1 - 0.5) < 1e-12)


def _q4_candidates(lambda1: np.ndarray, lambda2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form q=4 candidates (alpha1, alpha2, valid), each of shape (n, 6).

    Slots 0-1 hold the alpha1 = 0 pair (0, +-r) with
    r^2 = (2*lambda2 - 1)/(4*lambda2^2), present for lambda2 >= 1/2.  Slots
    2-3 hold (+-a1, a2) at lambda1 within 1e-12 of 1/2, where
    a2 = (3*lambda2 - 1)/(2*(lambda2 + lambda2^2)) and
    a1 = sqrt(2*lambda2*a2 - 4*lambda2^2*a2^2) when that radicand is
    non-negative.  Where `_degenerate_lambda1` does not hold the quadratics
    P1 = lambda1/2 + lambda1*lambda2*alpha2 - 1/4 - lambda2^2*alpha2^2 and
    P2 = -lambda2*alpha2 + lambda1*alpha2 + 2*lambda1*lambda2*alpha2^2 are
    intersected as a quadratic in alpha2, and each root with P1 >= 0 gives
    (+-sqrt(P1)/lambda1, alpha2) in slots 2-3 and 4-5; a root whose
    numerator would cancel is taken from the roots' product qc/qa.  Each
    value takes the operations of evaluating these formulas at one point,
    in the same order, so a grid and a batch of one agree bit for bit.
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

        degenerate = _degenerate_lambda1(l1)
        half = degenerate & (l1 > 0.25)  # the rest lie within 1e-12 of 0
        general = ~degenerate
        qa = -(l2 * l2 + 2.0 * l1 * l2)
        qb = l1 * l2 + l2 - l1
        qc = 0.5 * l1 - 0.25
        linear = qa == 0.0
        disc = qb * qb - 4.0 * qa * qc
        sq = np.sqrt(disc)
        # the root whose numerator -qb -+ sq cancels (qb < 0 in slot 2, qb > 0
        # in slot 4; tiny qa, near lambda2 = 0) is taken as 2 qc / (-qb +- sq)
        low = np.where(qb < 0.0, 2.0 * qc / (-qb + sq), (-qb - sq) / (2.0 * qa))
        high = np.where(qb > 0.0, 2.0 * qc / (-qb - sq), (-qb + sq) / (2.0 * qa))
        roots = (
            (np.where(linear, -qc / qb, low), general & np.where(linear, qb != 0.0, ~(disc < 0.0))),
            (high, general & ~linear & ~(disc < 0.0)),
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

    Where `_degenerate_lambda1` does not hold and `_q4_candidates` takes the
    general branch, a candidate appears, vanishes or merges only at
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


def _check_finite(l1: np.ndarray, l2: np.ndarray) -> None:
    """Raise ClockTreeError naming the first row (lambda1, lambda2) that is not finite."""
    finite = np.isfinite(l1) & np.isfinite(l2)
    if not finite.all():
        i = int(finite.argmin())
        raise ClockTreeError(f"lambda1 and lambda2 must be finite, got {l1[i].item()!r} and {l2[i].item()!r}")


def _solution_counts(q: int, candidates, lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    l1, l2 = np.asarray(lambda1, dtype=float), np.asarray(lambda2, dtype=float)
    _check_finite(l1, l2)
    a1, a2, valid = candidates(l1, l2)
    status, _ = _verify_candidates(q, l1[:, None], l2[:, None], a1, a2, valid)
    return (status == _ACCEPTED).sum(axis=1)


def _solution_view(q: int, candidates, lambda1: float, lambda2: float) -> SolutionSet:
    l1, l2 = np.array([lambda1], dtype=float), np.array([lambda2], dtype=float)
    _check_finite(l1, l2)
    feasible = feasible_lambdas(q, l1, l2)[0]
    notes = [] if feasible else ["parameters are outside the non-increasing feasibility region"]
    a1, a2, valid = candidates(l1, l2)
    kept = [(x, y) for x, y, ok in zip(a1[0].tolist(), a2[0].tolist(), valid[0].tolist()) if ok]
    return _assemble(q, lambda1, lambda2, kept, notes)


def q4_solution_counts(lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    """The grid form of `q4_solutions(...).n_nontrivial`, as array operations.

    Its domain is finite rows with |lambda| <= 1, where every feasible point
    lies.  A row that is not finite raises ClockTreeError; past |lambda| = 1
    a count means nothing: it is 1 at lambda1 = 1e100.
    """
    return _solution_counts(4, _q4_candidates, lambda1, lambda2)


def q4_solutions(lambda1: float, lambda2: float) -> SolutionSet:
    """All symmetric fixed points for q = 4 in closed form.

    A batch of one of the grid solver (`_q4_candidates`, whose docstring has
    the formulas); this view only lists the accepted candidates, the rejected
    ones with their reasons, and a note when (lambda1, lambda2) is outside
    the non-increasing region, which is not an error.  A lambda that is not
    finite raises ClockTreeError.
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
    """Values at x (n, k) of the polynomials coeffs (..., n, d + 1), by Horner's rule.

    Leading axes of coeffs stack sets of polynomials, all evaluated in one
    pass; a polynomial padded with leading zeros has the same values, bit
    for bit, as Horner's rule starts from 0 either way.
    """
    p = np.zeros_like(x)
    for k in range(coeffs.shape[-1]):
        p = p * x + coeffs[..., k, None]
    return p


def _polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Complex roots (n, d) of the polynomials coeffs (n, d + 1), highest power first.

    Leading coefficients below 1e-13 of a row's largest are dropped (missing
    roots are NaN).  Where every row keeps its leading coefficient, as on
    the solver's own paths away from lambda1 = 0, the rows are one stack of
    companion matrices; otherwise each degree's rows are one stack.
    """
    n, m = coeffs.shape
    magnitudes = np.abs(coeffs)
    big = magnitudes > 1e-13 * magnitudes.max(axis=1, keepdims=True)
    if big[:, 0].all():
        companion = np.zeros((n, m - 1, m - 1))
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, 0, None]
        companion.reshape(n, (m - 1) ** 2)[:, m - 1 :: m] = 1.0  # the subdiagonal
        return np.linalg.eigvals(companion).astype(complex, copy=False)
    roots = np.full((n, m - 1), complex(np.nan, np.nan))
    lead = np.where(big.any(axis=1), big.argmax(axis=1), m - 1)
    for first in sorted(set(lead.tolist()) - {m - 1}):  # np.unique would import numpy.ma
        deg, rows = m - 1 - first, lead == first
        companion = np.zeros((int(rows.sum()), deg, deg))
        companion[:, 0, :] = -coeffs[rows, first + 1 :] / coeffs[rows, first, None]
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        roots[rows, :deg] = np.linalg.eigvals(companion)
    return roots


# the rounding allowance of a polynomial's value, per unit of sum |c_k x^k|
_ROUNDING = 32.0 * sys.float_info.epsilon


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
        magnitudes = np.abs(coeffs)
        roots = _polynomial_roots(coeffs)
        x = roots.real
        p = _polyval(coeffs, x)
        step = p / _polyval(coeffs[:, :-1] * np.arange(6, 0, -1), x)
        moved = x - step
        p_moved = _polyval(coeffs, moved)
        take = (np.abs(step) <= 1e-6) & (np.abs(p_moved) < np.abs(p))
        x = np.where(take, moved, x)
        # S at the polished root is S at one of the two points already evaluated
        valid = (roots.imag == 0.0) | (
            np.abs(np.where(take, p_moved, p)) <= _ROUNDING * _polyval(magnitudes, np.abs(x))
        )
        n = len(x)
        order = np.argsort(np.where(valid, x, np.inf), axis=1)
        row_index = np.arange(n)[:, None]
        x, valid = x[row_index, order], valid[row_index, order]
        # the real roots come first; each is checked against its predecessor
        mid = 0.5 * (x[:, :-1] + x[:, 1:])
        valid[:, 1:] &= ~(np.abs(_polyval(coeffs, mid)) <= _ROUNDING * _polyval(magnitudes, np.abs(mid)))

        l1, l2 = lambda1[:, None], lambda2[:, None]
        a, b, c = x - V5, -2.0 * V5 * l1 * x, x * (l1 * l1 * x * x - 0.4 * l1 + 0.2)
        e, f = l1 * l1 * x * x - 2.0 * V5 * l1 * l2 * x - 0.4 * l2 + 0.2, -V5 * l1 * l1 * x * x

        def e2(a2):
            return (l2 * l2 * a2 * a2 + e) * a2 + f

        # the two estimates, the subresultant's root and -F/E, side by side
        a2 = np.empty((2, n, x.shape[1]))
        np.divide(-(b * c + l2 * f * a * a), l2 * (b * b - a * c + e * a * a), out=a2[0])
        np.divide(-f, e, out=a2[1])
        np.copyto(a2, 0.0, where=x == 0.0)
        e2_a2 = e2(a2)
        polished = a2 - e2_a2 / (3.0 * l2 * l2 * a2 * a2 + e)
        a2 = np.where(np.abs(e2(polished)) < np.abs(e2_a2), polished, a2)
        f1, f2 = mode_map_q5(l1, l2, (x, a2))
        residual = np.maximum(np.abs(x - f1), np.abs(a2 - f2))
        a2 = np.where(residual[0] <= residual[1], a2[0], a2[1])
        # where two fixed points share alpha1 (near G = 0, below) B^2 - A C + E A^2
        # vanishes and both estimates of alpha2 can be off by a few 1e-6; a
        # candidate that passes keeps its numbers
        rows, slots = np.nonzero(valid & (np.minimum(residual[0], residual[1]) >= RESIDUAL_TOL))
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
    """The grid form of `q5_solutions(...).n_nontrivial`, as array operations.

    Its domain is finite rows with |lambda| <= 1, where every feasible point
    lies.  A row that is not finite raises ClockTreeError; past |lambda| = 1
    a count means nothing: it is 0 at lambda1 = 1e100.
    """
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


# F's (11, 11) table: row i, the power of l1, holds the coefficients in l2
# (highest first), so `l1 powers @ _FOLD_TABLE` gives F as a polynomial in l2
# at a batch of lambda1, and `|l1| powers @ _FOLD_MAGNITUDES` gives sum |c_k|
# at each lambda1, c_k the coefficients of F; both are read-only, shared by
# every caller
_FOLD_TABLE = np.array([row + (0,) * (11 - len(row)) for row in _FOLD_F], dtype=float)
_FOLD_MAGNITUDES = np.abs(_FOLD_TABLE)
_FOLD_TABLE.setflags(write=False)
_FOLD_MAGNITUDES.setflags(write=False)

_FOLD_POWERS = np.arange(11)


def _fold_roots(lambda1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F as a polynomial in l2 at each lambda1, shape (n, 11), highest power first, and its roots (n, 10).

    The roots come from one batched companion eigensolve, unpolished; a real
    one has an imaginary part of exactly 0.
    """
    with np.errstate(all="ignore"):  # F overflows at |lambda1| above about 1e30: no roots there
        coeffs = (np.asarray(lambda1, dtype=float)[:, None] ** _FOLD_POWERS) @ _FOLD_TABLE
        return coeffs, _polynomial_roots(coeffs)


def q5_fold_bands(lambda1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, lambda2, radius): where a q=5 count can change at each lambda1[row], with a bound on the error.

    A count can change only at lambda2 = 1/2 (radius 0, every row) and the
    real roots of F (or where a root of S leaves the verifier's bounds).
    F's roots z in lambda2 come from `_fold_roots`, one of each conjugate
    pair.  Around each z the disc of radius 10 (|F(z)| + e)/|F'(z)| holds a
    root of F, which has degree 10 (|F'/F| = |sum 1/(z - r)| over its roots
    r); e bounds the rounding of F's coefficients and of Horner's rule at
    z.  Each z whose disc reaches the real axis, complex ones included,
    gives its real part and the radius.  Away from a multiple root the
    radius is below 1e-6 (about 5e-7 at lambda1 = 0.45); near F's triple
    root at (1/2, 2/5), where a computed root can be off by 2e-4, it grows
    with the error, to about 0.02 at lambda1 = 1/2 - 1e-11.
    """
    l1 = np.asarray(lambda1, dtype=float)
    coeffs, z = _fold_roots(l1)
    n = len(l1)
    with np.errstate(all="ignore"):
        # F and F', padded with a leading zero, in one Horner pass
        stacked = np.zeros((2, n, 11))
        stacked[0] = coeffs
        np.multiply(coeffs[:, :-1], _FOLD_POWERS[:0:-1], out=stacked[1, :, 1:])
        value, slope = np.abs(_polyval(stacked, z))
        magnitudes = (np.abs(l1)[:, None] ** _FOLD_POWERS) @ _FOLD_MAGNITUDES
        radius = 10.0 * (value + _ROUNDING * _polyval(magnitudes, np.abs(z))) / slope
    rows, k = np.nonzero((z.imag >= 0.0) & (z.imag <= radius))
    # then lambda2 = 1/2, the root of 2 l2 - 1, with radius 0 in every row
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
