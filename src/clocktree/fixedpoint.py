"""Fixed points of the q = 4 and q = 5 mode recursions on the binary tree.

For q = 5, at any (lambda1, lambda2), the resultant in alpha2 of the two
cleared fixed-point equations is alpha1 * lambda2^4 * S(alpha1) / 50000 with
a sextic S, so all fixed points come from the real roots of S, each paired
with the common root alpha2 of the two equations.  A count of them needs no
root: `q5_solution_counts`, which the sweeps and the transition line call,
counts the distinct real nonzero roots of S exactly, by a float Sturm chain
with a rounding bound; where the bound leaves only the chain's last sign
open, the sign of S's discriminant settles it, and the rows still open are
counted in integers (`exact.sturm_count`).  The fixed points themselves (`q5_solutions`, one
point) take the roots as eigenvalues of S's companion matrix
(`_q5_candidates`); `q5_solutions_at_critical` is that solver at
lambda1 = 1/2.

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

Every candidate of a solution set or of a q = 4 count, whichever closed
form produced it, is accepted only if it satisfies the two-dimensional
fixed-point equations to 1e-9; the long printed radicals are never trusted
blindly.  An accepted candidate is then within
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
from typing import Callable, Sequence

import numpy as np

from . import exact
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
    q = 5's sextic vanishes identically (its factor l1^14 (2 l1 - 1), above
    `_FOLD_F`), so neither a fold table nor F's cell test
    (`q5_fold_cells`) tells where a count changes.
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
    l1, l2 = np.asarray(lambda1, dtype=float), np.asarray(lambda2, dtype=float)
    _check_finite(l1, l2)
    a1, a2, valid = _q4_candidates(l1, l2)
    status, _ = _verify_candidates(4, l1[:, None], l2[:, None], a1, a2, valid)
    return (status == _ACCEPTED).sum(axis=1)


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


# S in x = sqrt(10)*alpha1, over 5: S(x/sqrt(10))/5 = sum_k s_k x^(6-k), each s_k
# an integer polynomial in (lambda1, lambda2) of degree at most 6 in lambda1
# and 2 in lambda2.  Row k holds s_k: entry i is the triple of coefficients
# of l1^i l2^j, j = 0, 1, 2.  The lowest two factor as
# s_5 = -16 (2 l1 - 1)(2 l2 - 1)(l1 l2 + 2 l1 - 2 l2) and s_6 = -8 (2 l1 - 1)(2 l2 - 1)^2.
_SEXTIC_X = (
    ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 5), (0, 8, 0), (5, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 16), (0, -8, -7), (-8, -14, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 24), (0, -8, -40), (38, -48, -1), (-20, -10, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 32), (0, 0, -112), (-32, 28, 32), (32, 72, 3), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 32), (0, -48, -128), (60, 64, 152), (-112, 28, -8), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 32, -64), (-32, -16, 160), (64, -96, -64), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((8, -32, 32), (-16, 64, -64), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
)

# s_0 ... s_4 for floats, as `table @ lambda1 powers`: row 3 k + j of
# _SEXTIC_TABLE[0] holds the coefficients of l1^i l2^j in s_k, i = 0 ... 6,
# and _SEXTIC_TABLE[1] their magnitudes
_SEXTIC_TABLE = np.array(_SEXTIC_X[:5], dtype=float).transpose(0, 2, 1).reshape(15, 7)
_SEXTIC_TABLE = np.stack([_SEXTIC_TABLE, np.abs(_SEXTIC_TABLE)])
_SEXTIC_TABLE.setflags(write=False)
_POWERS = np.arange(7.0)[:, None]
# the signs of s_5 and s_6 on their (value, magnitude) pairs
_FACTOR_SIGNS = np.array([[-1.0], [1.0]])

_U = sys.float_info.epsilon / 2  # the unit roundoff
# above every absolute error that underflow adds to one step of the chain
_UNDERFLOW = 2.0**-1000
# each coefficient's error bound, per unit of its magnitude (`_sextic_x`)
_ERROR_WEIGHTS = np.array([24.0] * 5 + [16.0, 8.0])[:, None] * _U
# the weights of a factor's leading coefficient, (bound, |value|), on a term's (bound, |value|)
_WEIGHTS = np.array([[1.0, 1.0], [1.0, 2.0 * _U]])
# the value weights of a pair of terms (x, y) in lc(y) x - lc(x) y
_SIGNS = np.array([[1.0], [-1.0]])


def _sextic_x(l1: np.ndarray, l2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (7, n) of S(x/sqrt(10))/5, highest power first, and bounds (7, n) on their errors.

    Each coefficient is computed twice by the same operations, on its
    factors and on their magnitudes.  s_0 ... s_4 come from `_SEXTIC_X`:
    each power of lambda1 within an ulp (2 u, u the unit roundoff), its
    product with an integer coefficient (u), a sum of seven for each power
    of lambda2 (6 u), then Horner's rule in lambda2 (4 u), so each is
    within 13 u of the sum of its terms' magnitudes, which comes out at
    most 13 u low: within 24 u of the computed sum, plus _UNDERFLOW where a
    term underflows.  s_5 and s_6 are their
    factored forms, in which each 2 lambda - 1 rounds at most once, so that
    they keep their relative accuracy where they vanish, at lambda1 or
    lambda2 = 1/2: s_5 is within 16 u of its magnitude
    16 |(2 l1 - 1)(2 l2 - 1)| (|l1 l2| + 2 |l1 - l2|) and s_6 within 8 u of
    its magnitude |s_6|.
    """
    pair1, pair2 = np.stack([l1, np.abs(l1)]), np.stack([l2, np.abs(l2)])[:, None]
    by_l2 = (_SEXTIC_TABLE @ pair1[:, None] ** _POWERS).reshape(2, 5, 3, -1)
    low = (by_l2[:, :, 2] * pair2 + by_l2[:, :, 1]) * pair2 + by_l2[:, :, 0]
    e1, e2 = 2.0 * l1 - 1.0, 2.0 * l2 - 1.0
    e12 = np.stack([e1 * e2, np.abs(e1 * e2)]) * _FACTOR_SIGNS
    s5 = 16.0 * e12 * np.stack([l1 * l2 + 2.0 * (l1 - l2), np.abs(l1 * l2) + 2.0 * np.abs(l1 - l2)])
    s6 = 8.0 * e12 * np.stack([e2, np.abs(e2)])
    coeffs, magnitudes = np.concatenate([low, s5[:, None], s6[:, None]], axis=1)
    return coeffs, _ERROR_WEIGHTS * magnitudes + _UNDERFLOW


def _normalise(term: np.ndarray) -> None:
    """Scale term (3, rows, n), (value, bound, |value|), in place by the power of 2 that brings each column's largest |value| into [1/2, 1).

    The scaling is exact but where it rounds a subnormal, by at most 2^-1075;
    the chain never scales a term down by more than 2^-8 (each is below 2^8
    before its scaling: the scaled input's terms are at most 1 and its
    derivative's at most 6), so _UNDERFLOW, added before, covers both that
    and the underflow of the two eliminations that made the term, however
    much the scaling enlarges it.
    """
    term[1] += _UNDERFLOW
    np.ldexp(term, -np.frexp(term[2].max(axis=0))[1], out=term)


def _eliminate(pair: np.ndarray, out: np.ndarray) -> None:
    """out = (z, bound, |z|) for z = lc(y) x[1:] - lc(x) y[1:], the terms pair = (x, y) each (value, bound, |value|).

    With |c~ - c| <= e_c for each coefficient, the rounded z~ lies within

        sum over (c, v) in ((lc(y), x), (lc(x), y)) of (|c~| + e_c) e_v + (2 u |c~| + e_c) |v~|

    of the exact z: the two products and their difference each round once,
    by at most u of their magnitudes, and |z~| is at most the sum of the
    products' magnitudes.  The bound itself rounds down by at most 8 u of
    itself, and by at most 2^-1070 where a product underflows, which the
    _UNDERFLOW of `_normalise` covers.
    """
    rows = out.shape[1]
    lead = pair[::-1, :, 0]  # the coefficient of each term: the other one's leading coefficient
    np.einsum("sn,skn->kn", lead[:, 0] * _SIGNS, pair[:, 0, 1 : rows + 1], out=out[0])
    np.einsum("scn,sckn->kn", _WEIGHTS @ lead[:, 1:], pair[:, 1:, 1 : rows + 1], out=out[1])
    np.abs(out[0], out=out[2])


def _sturm_chain(
    coeffs: np.ndarray, errors: np.ndarray, discriminant_signs: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The number of distinct real roots of each polynomial, (n,), and whether each is certain, (n,).

    The columns of coeffs (m, n), highest power first, are polynomials of
    degree m - 1 that lie within errors of exact ones.  Sturm's sequence
    P_0 = P, P_1 = P', P_(k+1) = -rem(P_(k-1), P_k) runs on all columns at
    once.  Each term is found without a division, as the pseudo remainder
    lc(P_k)^2 P_(k-1) - (lc(P_k) lc(P_(k-1)) x + t) P_k, a positive multiple
    of -rem, in two eliminations of a leading coefficient (`_eliminate`),
    and then scaled by a power of 2 (`_normalise`).  Every coefficient
    carries a bound on its distance from the same term computed exactly.  A
    column's count is certain where every term's leading coefficient
    satisfies

        |lc~| > (1 + 2^-30) bound,

    the margin covering the rounding of the bounds themselves.  Then no
    exact leading coefficient is 0 and each has the sign of lc~, so the
    exact sequence has the degrees m - 1, m - 2, ..., 0, and the count
    V(-inf) - V(+inf) read from those signs is exact.

    Where every term but the last, a constant, is certain, the sequence has
    the degrees m - 1, ..., 1, and its last term is 0 exactly where the
    polynomial has a multiple root, where its discriminant is 0.
    discriminant_signs(columns) gives the sign of the exact polynomial's
    discriminant at those columns, 0 where it is not known.  A non-zero sign
    settles the column: its m - 1 roots are distinct, and r real ones give
    the sign (-1)^((m - 1 - r)/2).  The last term adds 1 to the count where
    its sign is that of the term before and -1 where it is not, so its two
    signs give counts 2 apart, of which exactly one agrees.  A column with a
    multiple root, an exactly vanishing leading coefficient or an entry that
    is not finite is never certain.
    """
    m, n = coeffs.shape
    # slots 0 and 2 hold the last two terms, P_k in slot 2 (k % 2), slot 1 the
    # t of lc(P_(k-1)) P_(k-2) - lc(P_(k-2)) x P_(k-1); each is (value, bound,
    # |value|), 0 past its degree
    slots, lead = np.zeros((3, 3, m + 1, n)), np.empty((m, 2, n))
    first, second = slots[0], slots[2]
    first[0, :m], first[1, :m] = coeffs, errors
    np.abs(coeffs, out=first[2, :m])
    # the input may be scaled down by more than 2^-8, so its underflow allowance follows the scaling too
    _normalise(first)
    first[1] += _UNDERFLOW
    derivative = np.arange(m - 1.0, 0.0, -1.0)[:, None]
    np.multiply(first[0, : m - 1], derivative, out=second[0, : m - 1])
    np.abs(second[0], out=second[2])
    second[1, : m - 1] = first[1, : m - 1] * derivative + _U * second[2, : m - 1]
    lead[0], lead[1] = first[:2, 0], second[:2, 0]
    for k in range(2, m):
        older, newer = (slice(0, 3, 2), slice(2, 0, -1)) if k % 2 == 0 else (slice(2, None, -2), slice(0, 2))
        _eliminate(slots[older], slots[1, :, :m])  # t, from (P_(k-2), P_(k-1))
        term = slots[2 * (k % 2)]
        _eliminate(slots[newer], term[:, : m - 1])  # P_k over P_(k-2), from (P_(k-1), t)
        term[:, m - 1 :] = 0.0
        _normalise(term)
        lead[k] = term[:2, 0]
    value, bound = lead.transpose(1, 0, 2)
    sure = np.abs(value) > (1.0 + 2.0**-30) * bound
    positive = value > 0.0
    at_minus = positive ^ (np.arange(m - 1, -1, -1) % 2 == 1)[:, None]
    counts = (at_minus[1:] != at_minus[:-1]).sum(axis=0) - (positive[1:] != positive[:-1]).sum(axis=0)
    certain = sure.all(axis=0)
    last = np.flatnonzero(~sure[-1] & sure[:-1].all(axis=0))
    if len(last):
        signs = discriminant_signs(last)
        step = np.where(positive[-1, last] == positive[-2, last], 2, -2)
        disagrees = ((m - 1 - counts[last]) // 2 % 2 == 1) == (signs > 0.0)
        counts[last] -= np.where((signs != 0.0) & disagrees, step, 0)
        certain[last] = signs != 0.0
    return counts, certain


def _sextic_x_ints(lambda1: float, lambda2: float) -> list[int]:
    """S(x/sqrt(10))/5 at the floats (lambda1, lambda2), times a power of 2, in integers and without its roots at 0.

    With lambda1 = a/m and lambda2 = b/m, a and b integers and m a power of
    2 (`float.as_integer_ratio`), m^6 s_k is the integer
    sum of c a^i b^j m^(6 - i - j) over the entries of `_SEXTIC_X`.  Its
    trailing zero coefficients, the roots x = 0, are dropped.  Some
    coefficient is not 0: s_0 = l1^4 (5 l1^2 + 8 l1 l2 + 5 l2^2) and
    s_6 = -8 (2 l1 - 1)(2 l2 - 1)^2 vanish together only at lambda1 = 0.
    """
    (a, m1), (b, m2) = lambda1.as_integer_ratio(), lambda2.as_integer_ratio()
    m = max(m1, m2)
    a, b = a * (m // m1), b * (m // m2)
    coeffs = [
        sum(c * a**i * b**j * m ** (6 - i - j) for i, row in enumerate(s_k) for j, c in enumerate(row) if c)
        for s_k in _SEXTIC_X
    ]
    while coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def q5_solution_counts(lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    """The number of non-trivial q=5 fixed points at each row (lambda1, lambda2): S's distinct real roots alpha1 != 0.

    Each row is counted exactly at its floats, by Sturm's theorem, with no
    root found.  The count is that of S(x/sqrt(10))/5 (`_SEXTIC_X`), the
    same, as x = sqrt(10) alpha1 keeps every sign.  Its roots at x = 0 are
    the trivial fixed point, and they are exact: a double one where lambda1
    or lambda2 is 1/2, a triple one at (1/2, 1/2).  Where lambda1 or lambda2
    is 1/2 the quartic s_0 x^4 + ... + s_4 that is left is counted as
    (s_0 x^4 + ... + s_4)(x^2 + 16), which has the same real roots, so that
    one float Sturm chain of degree 6 counts every row (`_sturm_chain`).
    Where its bound leaves only the last term's sign open, as at rows about
    1e-7 from a fold (near lambda2 = 1/2 that term scales as
    (2 lambda2 - 1)^2), the sign of S's discriminant settles it
    (`_discriminant_signs`).  A row
    whose count the chain still cannot certify, and the row (1/2, 1/2), are
    counted in integers, by `exact.sturm_count` on `_sextic_x_ints`.

    Where Lambda = max(|lambda1|, |lambda2|) < 1/3 the count is 0, whatever
    the chain reads: a fixed point has |alpha1|, |alpha2| <= 2v,
    v = 1/sqrt(10), since 2v D -+ N1 and 2v D -+ N2 of `mode_map_q5` are
    sums of squares, so x = lambda1 alpha1 and y = lambda2 alpha2 are at
    most 2v Lambda, and x D = lambda1 N1 with D >= 1/5 gives
    |x|/5 <= Lambda (2|x|/5 + 2v|x||y| + v y^2), the same for y; a non-zero
    m = max(|x|, |y|) then needs 1/5 <= Lambda (2/5 + 6 v^2 Lambda), that
    is (3 Lambda - 1)(Lambda + 1) >= 0.  S's real roots there are multiple,
    with no real alpha2.  At lambda1 = 0, S(x/sqrt(10)) falls to the square
    40 (2 lambda2 x - (2 lambda2 - 1))^2, whose double root stands for no
    fixed point at lambda2 < 1/2 and for the pair (a1, +-a2) above; the
    count there is 0, the pair (infeasible) not counted.  Two fixed points
    that share alpha1 give one root of S, so exactly on G = 0 (the squared
    factor of S's discriminant, beside `_FOLD_F`) they count once.  The count
    is `q5_solutions(...).n_nontrivial` but where rounding decides the
    solver: at the float 4/9, whose two diagonal fixed points have not yet
    merged (0 here, 1 there); within a few ulps of a fold; and where a fixed
    point lies within DEDUP_TOL of (0, 0), which the solver takes for the
    trivial one: a few ulps from lambda2 = 1/2, and where one lambda is 1/2
    and the other within about 5e-9 of 2/5, a root of s_4 there.  So at
    (1/2, 0.4) and (0.4, 1/2), where the float 0.4 lies 2.2e-17 above 2/5,
    the count is 2, with a fixed point at alpha1 of about -7e-17 and 1e-32,
    and the solver's 1.  A row that is not finite raises ClockTreeError;
    every finite row has its count, but only the rows with |lambda| <= 1
    are of the model.
    """
    l1, l2 = np.asarray(lambda1, dtype=float), np.asarray(lambda2, dtype=float)
    _check_finite(l1, l2)
    half = (l1 == 0.5) | (l2 == 0.5)
    with np.errstate(all="ignore"):
        coeffs, errors = _sextic_x(l1, l2)
        if half.any():
            # (s_0 x^4 + ... + s_4) (x^2 + 16); each sum rounds once, by at most u of itself
            low, low_errors = coeffs[:5, half], errors[:5, half]
            padded, padded_errors = np.zeros((2, 7, len(low[0])))
            padded[:5], padded_errors[:5] = low, low_errors
            padded[2:] += 16.0 * low
            padded_errors[2:] += 16.0 * low_errors + _U * np.abs(padded[2:])
            coeffs[:, half], errors[:, half] = padded, padded_errors
        counts, certain = _sturm_chain(coeffs, errors, lambda i: _discriminant_signs(l1[i], l2[i]))
    known = (l1 == 0.0) | (np.maximum(np.abs(l1), np.abs(l2)) < 1.0 / 3.0)
    counts[known] = 0
    for i in np.flatnonzero(~(certain | known) | (l1 == 0.5) & (l2 == 0.5)).tolist():
        counts[i] = exact.sturm_count(_sextic_x_ints(l1[i].item(), l2[i].item()))
    return counts


# The folds of S: with alpha1 = x/sqrt(10), the discriminant of
# S(x/sqrt(10))/5 in x is
#     8000 l1^14 (2 l1 - 1) (2 l2 - 1)^3 G(l1, l2)^2 F(l1, l2)
# with integer polynomials G (total degree 9) and F (total degree 18,
# symmetric in l1 and l2).  A count of fixed points can change where S has a
# multiple real root, on this zero set.  Only F gives fold candidates: the
# discriminant does not change sign across G = 0, where it touches zero as a
# square, and the only root of 2 l2 - 1 is the constant 1/2; G's table
# serves the discriminant's sign (`_discriminant_signs`).  Row i holds the
# coefficients of l1^i in l2, highest power of l2 first, without trailing
# zeros.
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

# G, the squared factor of S's discriminant, in the layout of _FOLD_F
_FOLD_G = (
    (128,),
    (-384, 72),
    (160, -752, -384),
    (320, 2284, 1216, 256),
    (-160, -2288, -192, -512),
    (-64, 566, -2368, -512),
    (32, -508, 1984, 256),
    (0, 25, -400, 1600),
)
# F's and G's rows as floats, each padded to its degree in l2 as in _FOLD_TABLE
_FOLD_FACTOR_ROWS = (
    tuple(map(tuple, _FOLD_TABLE.tolist())),
    tuple(tuple(float(c) for c in row + (0,) * (4 - len(row))) for row in _FOLD_G),
)


def _horner2(rows: tuple, a: float, b: float) -> tuple[float, float]:
    """A fold table's polynomial at (lambda1, lambda2) = (a, b), and the sum of its terms' magnitudes."""
    value = terms = 0.0
    for row in reversed(rows):
        row_value = row_terms = 0.0
        for c in row:
            row_value = row_value * b + c
            row_terms = row_terms * abs(b) + abs(c)
        value, terms = value * a + row_value, terms * abs(a) + row_terms
    return value, terms


def _discriminant_signs(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """The sign of S's discriminant in x at each row (lambda1, lambda2), 0 where it is 0 or rounding leaves it open.

    The discriminant (above `_FOLD_F`) is
    8000 l1^14 (2 l1 - 1)(2 l2 - 1)^3 G^2 F, so where l1 and G are not 0 its
    sign is that of (2 l1 - 1)(2 l2 - 1) F.  F and G are evaluated by
    Horner's rule in lambda2 for each power of lambda1, then in lambda1
    (`_horner2`), so each value lies within 40 u of the sum of its terms'
    magnitudes, computed alike (degree 10 in each), and a sign is given only
    where both exceed _ROUNDING = 64 u times that sum, plus _UNDERFLOW.  The
    counts ask about a few rows a call, so the rows are taken one by one.
    """
    signs = np.zeros(len(l1))
    for i, (a, b) in enumerate(zip(l1.tolist(), l2.tolist())):
        (f, f_terms), (g, g_terms) = (_horner2(rows, a, b) for rows in _FOLD_FACTOR_ROWS)
        if a != 0.0 and abs(f) > _ROUNDING * f_terms + _UNDERFLOW and abs(g) > _ROUNDING * g_terms + _UNDERFLOW:
            signs[i] = math.prod((x > 0.0) - (x < 0.0) for x in (2.0 * a - 1.0, 2.0 * b - 1.0, f))
    return signs


def _fold_roots(lambda1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F as a polynomial in l2 at each lambda1, shape (n, 11), highest power first, and its roots (n, 10).

    The roots come from one batched companion eigensolve, unpolished; a real
    one has an imaginary part of exactly 0.
    """
    with np.errstate(all="ignore"):  # F overflows at |lambda1| above about 1e30: no roots there
        coeffs = (np.asarray(lambda1, dtype=float)[:, None] ** _FOLD_POWERS) @ _FOLD_TABLE
        return coeffs, _polynomial_roots(coeffs)


# F's Bernstein coefficients on a block of grid cells (`q5_fold_cells`).  On
# a block, lambda2 = e + s t with t in [0, 1], where e is the end of larger
# magnitude and s the signed width, so r = s/e lies in [-2, 2].  With c_k the
# coefficient of l2^(10 - k), F's Taylor coefficients in t are
# d_j = r^j sum_k C(10 - k, j) c_k e^(10 - k), and its Bernstein coefficients
# b_i = sum_j C(i, j)/C(10, j) d_j.  _TAYLOR takes the terms c_k e^(10 - k),
# and then the magnitudes' terms m_k |e|^(10 - k), to the sums of d_j;
# _BERNSTEIN takes the d_j to the b_i, and the magnitudes' |d_j| to their sum,
# the value at |e| + |s| of the polynomial P = sum_k m_k l2^(10 - k).
_BINOMIALS = np.array([[math.comb(i, j) for j in range(11)] for i in range(11)], dtype=float)
_TAYLOR = np.kron(np.eye(2), _BINOMIALS[::-1].T)
_BERNSTEIN = np.zeros((12, 22))
_BERNSTEIN[:11, :11] = _BINOMIALS / _BINOMIALS[10]
_BERNSTEIN[11, 11:] = 1.0
_TAYLOR.setflags(write=False)
_BERNSTEIN.setflags(write=False)
# the rounding allowance of a Bernstein coefficient, per unit of P(|e| + |s|)
_FOLD_ROUNDING = 64.0 * sys.float_info.epsilon


def _power_rows(x: np.ndarray) -> np.ndarray:
    """x^0, ..., x^10 as the rows of an (11, n) array, by repeated products."""
    rows = np.empty((11, len(x)))
    rows[0] = 1.0
    np.cumprod(np.broadcast_to(x, (10, len(x))), axis=0, out=rows[1:])
    return rows


def q5_fold_cells(lambda1: np.ndarray, lambda2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(columns, cells): each grid cell [lambda2[k], lambda2[k + 1]] that may hold a real root of F at lambda1[column].

    lambda2 is a strictly increasing axis of at least two points.  A cell
    that holds a real root of F, at an end or inside, is always returned.
    The cells of a column are tested in blocks, the nodes of a halving
    tree: node i, of depth L, spans the grid points floor(k c / 2^L) to
    floor((k + 1) c / 2^L), with k = i + 1 - 2^L and c cells, and its
    halves are nodes 2 i + 1 and 2 i + 2.  A block holds no root when F's
    11 Bernstein coefficients on it (`_TAYLOR`, `_BERNSTEIN`) all share
    one sign beyond their rounding bound.  The four blocks of depth 2 are
    tested first (fewer where there are fewer cells), and only a block that
    fails is split, down to single cells, so the work grows with the
    columns, the folds and log(c), not with the grid.  A block's factors
    depend only on the axis, which the columns share, so they are computed
    once per node; its width is rounded up, so that its interval holds its
    cells.

    The bound: each coefficient comes out of at most 66 roundings on any
    path and in any order of summation (2 in pow for the powers of
    lambda1, 11 in F's coefficients, 9 in the powers of e, 11 in the
    Taylor sums, 19 in r^j, 2 in the products and 12 in the Bernstein
    sums), so it lies within 67 u of the same steps taken on magnitudes,
    which end at P(|e| + |s|).  The test allows 128 u of that, plus
    _UNDERFLOW for what gradual underflow can lose.  No step overflows
    where P(4 max |lambda2|) < 2^1000, as every step stays below 2^11 P;
    a column where it is not (F's coefficients overflow at |lambda1| above
    about 1e30) has every cell returned.
    """
    l1, l2 = np.asarray(lambda1, dtype=float), np.asarray(lambda2, dtype=float)
    cells = len(l2) - 1
    with np.errstate(all="ignore"):
        powers = l1[:, None] ** _FOLD_POWERS
        coeffs = np.concatenate([powers @ _FOLD_TABLE, np.abs(powers) @ _FOLD_MAGNITUDES], axis=1).T
        # P is at its largest where |e| + |s| is, below 4 max |lambda2|
        searched = coeffs[11:].T @ (4.0 * np.abs(l2).max()) ** _FOLD_POWERS[::-1] < 2.0**1000
        # every node of the tree, and the powers of e and r that its test multiplies by
        node = np.arange(2 ** ((cells - 1).bit_length() + 1) - 1)
        depth = np.frexp(node + 1.0)[1] - 1
        k = node + 1 - 2**depth
        lo, hi = k * cells >> depth, (k + 1) * cells >> depth
        a, b = l2[lo], l2[hi]
        width = np.nextafter(b - a, np.inf)
        top = np.abs(b) > np.abs(a)
        e = np.where(top, b, a)
        e_powers, r_powers = _power_rows(e)[::-1], _power_rows(np.where(top, -width, width) / e)
        factors = np.concatenate([e_powers, np.abs(e_powers), r_powers, np.abs(r_powers)])
        is_cell = hi - lo == 1
        first = min(2, cells.bit_length() - 1)  # a depth whose every node holds a cell
        level, columns = np.arange(2**first - 1, 2 ** (first + 1) - 1), np.flatnonzero(searched)
        pairs = np.stack([np.repeat(columns, len(level)), np.tile(level, len(columns))])
        failed = [pairs[:, :0]]  # no (column, node) yet
        while pairs.shape[1]:
            # in place where it can be, so that a level holds few arrays of its size
            terms = coeffs[:, pairs[0]]
            terms *= factors[:22, pairs[1]]
            terms = _TAYLOR @ terms
            terms *= factors[22:, pairs[1]]
            bern = _BERNSTEIN @ terms
            # a block fails unless every coefficient has the first one's sign and exceeds the bound
            pairs = pairs[:, (bern[:11] * np.sign(bern[0])).min(axis=0) <= _FOLD_ROUNDING * bern[11] + _UNDERFLOW]
            cell = is_cell[pairs[1]]
            failed.append(pairs[:, cell])
            halves = pairs[:, ~cell]
            halves[1] = 2 * halves[1] + 1
            pairs = np.concatenate([halves, halves + [[0], [1]]], axis=1)
    column, node = np.concatenate(failed, axis=1)
    skipped = np.flatnonzero(~searched)
    return (
        np.concatenate([column, np.repeat(skipped, cells)]),
        np.concatenate([lo[node], np.tile(np.arange(cells), len(skipped))]),
    )


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
