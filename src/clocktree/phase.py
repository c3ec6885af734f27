"""Phase diagrams in the (lambda1, lambda2) eigenvalue plane.

Three regimes partition the feasible region on the binary tree: no phase
transition, robust phase transition (lambda1 * br(T) > 1, where any boundary
coupling however weak orders the root), and the window of non-robust phase
transitions where a non-trivial symmetric fixed point of the mode recursion
exists although lambda1 * br(T) <= 1.  For q = 4 the boundary of that window
is the closed curve lambda1 = 4*lambda2*(1 - lambda2)/(1 + lambda2)^2; for
q = 5 it lies on the folds of the eliminated sextic, the zero set of its
discriminant, whose candidates in lambda2 are 1/2 and the real roots of its
factor F, each with an error bound (`fixedpoint.q5_fold_bands`).  Each
candidate is checked by the count of the elimination solver
(`fixedpoint.q5_solution_counts`, which takes the sextic's roots from one
batched companion eigensolve) on both of its sides, all in one batched call;
plain bisection on that count, one call per step, runs only where the check
leaves a bracket wider than the tolerance.

A sweep's answer is piecewise constant along each lambda1 column: feasibility
changes only where a compared row quantity, affine in lambda2, changes sign
(`spectral.feasibility_breakpoints`), and the count of fixed points only on a
fold (`fixedpoint.q4_fold_roots`; for q = 5 lambda2 = 0, where S
degenerates, and the folds of `fixedpoint.q5_fold_bands`).  So a sweep cuts
each column into runs: each grid point near such a breakpoint is a run of its
own, and so is the rest of each interval between two of them.  Only a run's
first point is evaluated, with the same library calls as one point, and the
rest of the run takes that first point's answer.

"Phase transition" operationally means a residual-verified non-trivial
solution of the symmetric mode fixed-point equations; non-symmetric boundary
laws are out of scope.
"""
from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ClockTreeError, ContinuationLost, UnsupportedQ, UnsupportedTree
from .fixedpoint import (
    q4_fold_roots,
    q4_solution_counts,
    q5_fold_bands,
    q5_jacobian,
    q5_potts_diagonal_solutions,
    q5_solution_counts,
)
from .recursion import Cayley, TreeFamily, branching_number
from .spectral import feasibility_breakpoints, feasible_lambdas

# robust means lambda1 * br(T) - 1 > RPT_MARGIN: the threshold of R. Pemantle
# and J. E. Steif (Ann. Probab. 27 (1999) 876-912), strict at lambda1 = 1/2
RPT_MARGIN = 1e-9
# a fold candidate r of `q5_transition_line` is checked on the smallest
# bisection node that holds [r - _FOLD_STEP, r + _FOLD_STEP]; the step is
# above the unpolished band centres' error on the line's branch (at most
# 1.7e-8 on 4,000 lambda1 in [0.3708, 1/2], near 0.49994) and the width of
# the counts' rounding noise at a fold (about 2e-11, 5e-8 at lambda1 = 0.005)
_FOLD_STEP = 1e-7
# a sweep evaluates every grid point within _GUARD * max(1, |b|) of a
# breakpoint b of its column (`_run_starts`): the counts flip on
# rounding noise near a fold, in a band up to about 1e-6 wide just above
# lambda2 = 1/2 at lambda1 = 0.001 (q = 5)
_GUARD = 1e-6


class Regime(enum.Enum):
    INFEASIBLE = "INFEASIBLE"
    NO_PT = "NO_PT"
    PT_AND_RPT = "PT_AND_RPT"
    PT_NOT_RPT = "PT_NOT_RPT"
    CRITICAL = "CRITICAL"


class Evidence(enum.Enum):
    CLOSED_FORM = "CLOSED_FORM"  # the feasibility check, or q = 4's closed-form fixed points
    ELIMINATION = "ELIMINATION"  # q = 5's fixed points, all roots of the eliminated sextic


@dataclass(frozen=True, slots=True)
class PhasePoint:
    q: int
    lambda1: float
    lambda2: float
    feasible: bool
    regime: Regime
    n_nontrivial: int
    evidence: Evidence
    error: Optional[str] = None  # set when a sweep point failed exceptionally


class PhaseGrid(Sequence[PhasePoint]):
    """Classified points of a grid, row-major in (lambda1, lambda2), held as runs of equal answers.

    `lambda1` and `lambda2` are the grid's two axes as lists of floats;
    point i lies at (lambda1[i // len(lambda2)], lambda2[i % len(lambda2)]).
    Run r holds the points starts[r] <= i < starts[r + 1]; `starts` rises
    strictly from 0 to the grid size through every row start, so no run
    crosses a lambda1 row.  The per-run columns are arrays: `run_feasible`
    (bool), `run_regime` (int codes into `regimes`), `run_n_nontrivial`
    (int), plus `run_error`, a list of the failure message or None (a failed
    run is one point long), and the derived `run_evidence` (int codes into
    `evidences`): ELIMINATION where q = 5 and the run's head was feasible, as
    a failed (CRITICAL) run's was.
    The per-point columns `feasible`, `regime`, `n_nontrivial`, `evidence`
    and `error` are built from the runs on each read, and a `PhasePoint`
    only when one is indexed or iterated; a slice is a list of points.
    """

    regimes = (Regime.CRITICAL, Regime.INFEASIBLE, Regime.PT_AND_RPT, Regime.PT_NOT_RPT, Regime.NO_PT)
    evidences = (Evidence.CLOSED_FORM, Evidence.ELIMINATION)

    __slots__ = ("q", "lambda1", "lambda2", "starts", "run_feasible", "run_regime", "run_n_nontrivial", "run_error")

    def __init__(
        self, q: int, lambda1: list[float], lambda2: list[float], starts: np.ndarray, feasible: np.ndarray,
        regime: np.ndarray, n_nontrivial: np.ndarray, error: list[Optional[str]]
    ) -> None:
        starts = np.asarray(starts)
        size, runs = len(lambda1) * len(lambda2), len(starts) - 1
        if not (runs >= 0 and starts[0] == 0 and starts[-1] == size):
            raise ClockTreeError(f"run starts must go from 0 to the grid size {size}")
        if not (starts[1:] > starts[:-1]).all():
            raise ClockTreeError("run starts must be strictly increasing")
        if np.count_nonzero(starts % len(lambda2) == 0) != len(lambda1) + 1:
            raise ClockTreeError("run starts must hold the start of every lambda1 row")
        if any(len(column) != runs for column in (feasible, regime, n_nontrivial, error)):
            raise ClockTreeError(f"every run column must hold one entry per run, {runs}")
        self.q, self.lambda1, self.lambda2, self.starts = q, lambda1, lambda2, starts
        self.run_feasible, self.run_regime, self.run_n_nontrivial = feasible, regime, n_nontrivial
        self.run_error = error

    def _run_evidence(self, runs: int | slice = slice(None)) -> np.ndarray:
        return ((self.q == 5) & (self.run_feasible[runs] | (self.run_regime[runs] == 0))).astype(int)

    run_evidence = property(_run_evidence)

    feasible = property(lambda self: np.repeat(self.run_feasible, np.diff(self.starts)))
    regime = property(lambda self: np.repeat(self.run_regime, np.diff(self.starts)))
    n_nontrivial = property(lambda self: np.repeat(self.run_n_nontrivial, np.diff(self.starts)))
    evidence = property(lambda self: np.repeat(self.run_evidence, np.diff(self.starts)))
    error = property(lambda self: [e for e, n in zip(self.run_error, np.diff(self.starts).tolist()) for _ in range(n)])

    def __len__(self) -> int:
        return int(self.starts[-1])

    def __getitem__(self, index: int | slice) -> PhasePoint | list[PhasePoint]:
        i = range(len(self))[index]
        if isinstance(i, range):
            return [self[k] for k in i]
        a, b = divmod(i, len(self.lambda2))
        r = int(np.searchsorted(self.starts, i, "right")) - 1
        return PhasePoint(
            self.q, self.lambda1[a], self.lambda2[b], bool(self.run_feasible[r]), self.regimes[self.run_regime[r]],
            int(self.run_n_nontrivial[r]), self.evidences[self._run_evidence(r)], self.run_error[r],
        )

    def __iter__(self) -> Iterator[PhasePoint]:
        points = itertools.product(self.lambda1, self.lambda2)
        runs = (self.run_feasible, self.run_regime, self.run_n_nontrivial, self.run_evidence, np.diff(self.starts))
        for f, c, m, ev, length, err in zip(*(column.tolist() for column in runs), self.run_error):
            regime, evidence = self.regimes[c], self.evidences[ev]
            for a, b in itertools.islice(points, length):
                yield PhasePoint(self.q, a, b, f, regime, m, evidence, err)


def q4_critical_line(lambda2: float) -> float:
    """lambda1 = 4*lambda2*(1 - lambda2)/(1 + lambda2)^2, the q=4 fold line.

    It peaks at (lambda2, lambda1) = (1/3, 1/2) and crosses the Potts diagonal
    at 2*sqrt(q-1)/(q + 2*sqrt(q-1)) ~ 0.4641.
    """
    return 4.0 * lambda2 * (1.0 - lambda2) / (1.0 + lambda2) ** 2


def classify_point(
    q: int,
    lambda1: float,
    lambda2: float,
    tree: TreeFamily = Cayley(2),
) -> PhasePoint:
    """Regime of one parameter point on the given tree.

    The point is a 1 x 1 grid of the sweep's classification, so a point and
    the grid around it cannot disagree; see `sweep` for how the regime is
    decided.  Non-finite parameters raise ClockTreeError, and a point whose
    solver raises comes back as the sweep marks it: CRITICAL with
    feasible = False and the error message.  The point is the only entry of
    the grid's `PhaseGrid`.
    """
    if not (math.isfinite(lambda1) and math.isfinite(lambda2)):
        raise ClockTreeError(f"lambda1 and lambda2 must be finite, got {lambda1!r} and {lambda2!r}")
    return _classify_grid(q, np.array([lambda1], dtype=float), np.array([lambda2], dtype=float), tree)[0]


def potts_thresholds(q: int, d: int) -> tuple[float, float, float]:
    """(theta_cr, theta_rpt, lambda1) for the q-state Potts model on the
    degree-d Cayley tree.

    theta_cr = (d + q - 1)/(d - 1) is where the lower boundary-law branch
    merges with the free solution; the robustness threshold coincides with it,
    and the corresponding eigenvalue lambda1 = (theta - 1)/(theta + q - 1)
    equals 1/d exactly.
    """
    if d < 2 or q < 2:
        raise UnsupportedQ(f"need d >= 2 and q >= 2, got d={d}, q={q}")
    theta_cr = (d + q - 1.0) / (d - 1.0)
    lambda1 = (theta_cr - 1.0) / (theta_cr + q - 1.0)
    return theta_cr, theta_cr, lambda1


def q5_transition_line(
    lambda1_grid: Sequence[float],
    tol: float = 1e-4,
    lambda2_bracket: tuple[float, float] = (0.33, 0.65),
) -> list[tuple[float, float]]:
    """Critical lambda2 for each lambda1: a count change of q=5 fixed points from 0 to at least 1.

    The line is found by bisection of `lambda2_bracket` on the predicate
    `q5_solution_counts` > 0, the bracket's bottom taken to have none and
    its top checked to have some.  A count changes only on the folds of the
    sextic, so the fold candidates r at each lambda1, the band centres of
    `fixedpoint.q5_fold_bands` in (lo + _FOLD_STEP, hi - _FOLD_STEP), tell
    the bisection where to go: for each r the smallest node of the bisection
    tree that holds [r - _FOLD_STEP, r + _FOLD_STEP] (no narrower than tol
    asks) is checked, and a row whose node has no solution at its bottom and
    some at its top starts from that node (its highest such node, if several
    pass).  The top of every bracket and both ends of every node are one
    batched call.  A row that no candidate passes keeps the whole bracket.
    Where the predicate is monotone away from r the bisection would have
    reached the same node, so the line is the bisection's, bit for bit.

    Every row still wider than tol is then bisected, one batched call per
    step with one midpoint 0.5 * (lo + hi) per row.  A row stops when its
    bracket is at most tol wide, or when the midpoint rounds to lo or hi,
    so that a tol below the float spacing (0 included) ends at adjacent
    floats.  At the default tol a narrowed row is usually done after the
    first call; a row whose candidate is a midpoint of the bracket, as 1/2
    is of the default one, is left a node around it to bisect.  At
    lambda1 = 1/2 the line is the quartic's discriminant root 0.370748, and
    since F is symmetric in lambda1 and lambda2 it is lambda2 = 1/2 for
    lambda1 up to 0.370748.  A grid point whose bracket top has no solution
    is reported as (lambda1, nan) rather than aborting the line.  A lambda1
    outside (0, 1/2], a bracket that is not two finite numbers lo < hi, or a
    NaN tol raises ContinuationLost.
    """
    grid = list(lambda1_grid)
    for l1 in grid:
        if not (0.0 < l1 <= 0.5 + RPT_MARGIN):
            raise ContinuationLost(f"transition line expects lambda1 in (0, 1/2], got {l1!r}")
    bracket = tuple(lambda2_bracket)
    if not (len(bracket) == 2 and all(map(math.isfinite, bracket)) and bracket[0] < bracket[1]):
        raise ContinuationLost(f"transition line expects a finite lambda2_bracket lo < hi, got {bracket!r}")
    if math.isnan(tol):
        raise ContinuationLost(f"transition line expects a tol that is a number, got {tol!r}")
    l1s = np.array(grid, dtype=float)
    lo, hi = (np.full(len(grid), float(end)) for end in bracket)
    n = len(grid)
    rows, roots, _ = q5_fold_bands(l1s)
    inside = (roots > bracket[0] + _FOLD_STEP) & (roots < bracket[1] - _FOLD_STEP)
    rows, roots = rows[inside], roots[inside]
    node_lo, node_hi = _tree_node(lo[rows], hi[rows], roots - _FOLD_STEP, roots + _FOLD_STEP, tol)
    # one call: the top of every bracket, then both ends of each candidate's node
    counts = q5_solution_counts(
        np.concatenate([l1s, l1s[rows], l1s[rows]]), np.concatenate([hi, node_lo, node_hi])
    )
    found = counts[:n] > 0
    below, above = counts[n:].reshape(2, -1)
    passed = found[rows] & (below == 0) & (above > 0)
    # a row takes the node of its highest passing candidate
    best = np.full(n, -math.inf)
    np.maximum.at(best, rows[passed], roots[passed])
    take = passed & (roots == best[rows])
    lo[rows[take]], hi[rows[take]] = node_lo[take], node_hi[take]
    active = found & _splits(lo, hi, tol)
    while active.any():
        mid = 0.5 * (lo + hi)
        exists = q5_solution_counts(l1s[active], mid[active]) > 0
        hi[active] = np.where(exists, mid[active], hi[active])
        lo[active] = np.where(exists, lo[active], mid[active])
        active &= _splits(lo, hi, tol)
    return list(zip(grid, np.where(found, 0.5 * (lo + hi), math.nan).tolist()))


def _tree_node(
    lo: np.ndarray, hi: np.ndarray, below: np.ndarray, above: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The smallest node of the bisection tree of each (lo, hi) that holds [below, above].

    The nodes are the brackets the bisection visits, each midpoint computed
    as 0.5 * (lo + hi); the descent stops where `_splits` would stop the
    bisection, so a node is never narrower than the bisection gets.
    """
    while True:
        mid, split = 0.5 * (lo + hi), _splits(lo, hi, tol)
        up, down = split & (mid <= below), split & (mid >= above)
        if not (up | down).any():
            return lo, hi
        lo, hi = np.where(up, mid, lo), np.where(down, mid, hi)


def _splits(lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Whether each bracket (lo, hi) is wider than tol and its midpoint lies strictly inside it."""
    mid = 0.5 * (lo + hi)
    return (hi - lo > tol) & (lo < mid) & (mid < hi)


def jacobian_profile(lambda_grid: Sequence[float]) -> list[tuple[float, float]]:
    """det of the displacement Jacobian at the lower-branch Potts solution.

    The Jacobian (`q5_jacobian`) is taken at the closed-form lower diagonal
    root of `q5_potts_diagonal_solutions`.  The lower branch merges with the
    free solution as lambda -> 1/2, where the Jacobian loses invertibility;
    the profile therefore tends to 0.
    """
    out = []
    for lam in lambda_grid:
        if not (4.0 / 9.0 - 1e-12 <= lam < 0.5):
            raise ContinuationLost(f"lower branch exists for lambda in [4/9, 1/2), got {lam!r}")
        diag = q5_potts_diagonal_solutions(lam)
        if diag is None:
            raise ContinuationLost(f"no diagonal solution at lambda = {lam!r}")
        _, det = q5_jacobian(lam, lam, diag[0])
        out.append((lam, det))
    return out


def sweep(
    q: int,
    lambda1_range: tuple[float, float] = (0.0, 0.6),
    lambda2_range: tuple[float, float] = (0.0, 0.6),
    resolution: int = 100,
    tree: TreeFamily = Cayley(2),
) -> PhaseGrid:
    """Classify a resolution x resolution grid, row-major in (lambda1, lambda2).

    The grid is classified as array operations: feasibility from the
    non-increasing check, a phase transition from the verified fixed points
    (closed form for q = 4, all roots of the eliminated sextic for q = 5),
    robustness from the strict threshold lambda1 * br(T) > 1.  Infeasible
    points are kept.  Each lambda1 column is cut into runs at its
    breakpoints (`_run_starts`): every point within 1e-6 * max(1, |b|) of a
    breakpoint b, or within a fold's error bound (q = 5), is a run of its
    own, and a run between breakpoints holds the rest of an interval.  Only
    the first point of each run is evaluated, and the rest of the run takes
    its answer (`_classify_grid`), so the work grows with the runs, not with
    the grid points.  A feasible point whose solver raises is CRITICAL with
    feasible = False and the error message; every other point keeps its
    answer.  The result is a `PhaseGrid`, a sequence of `PhasePoint`s held
    as those runs, with the evidence derived.  The mode maps are the binary
    tree's: another tree raises UnsupportedTree, and a non-finite range or a
    resolution that is not an integer >= 1 ClockTreeError.
    """
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise ClockTreeError(f"resolution must be an integer, got {resolution!r}") from None
    if resolution < 1:
        raise ClockTreeError(f"resolution must be >= 1, got {resolution}")
    if not all(math.isfinite(x) for x in (*lambda1_range, *lambda2_range)):
        raise ClockTreeError(
            f"sweep ranges must be finite, got lambda1 in {lambda1_range!r} and lambda2 in {lambda2_range!r}"
        )
    l1s = np.linspace(lambda1_range[0], lambda1_range[1], resolution)
    l2s = np.linspace(lambda2_range[0], lambda2_range[1], resolution)
    return _classify_grid(q, l1s, l2s, tree)


def _classify_grid(q: int, l1s: np.ndarray, l2s: np.ndarray, tree: TreeFamily) -> PhaseGrid:
    """The grid l1s x l2s as a row-major `PhaseGrid`; the engine behind `sweep` and `classify_point`.

    The grid is cut into the runs of `_run_starts`, and only the head of
    each run is evaluated: the heads' feasibility in one `feasible_lambdas`
    call, then the counts of the feasible heads in one call through
    `_counts_by_row`.  The regime is decided once per run, and the grid
    keeps the runs (and derives their evidence): nothing is held per point.
    A run whose head raised is split into runs of one point, and the points
    after its head are counted on their own in one more call, so a failure
    stays with the point that raised.
    """
    if q not in (4, 5):
        raise UnsupportedQ(f"phase classification supports q in {{4, 5}}, got q={q}")
    if tree != Cayley(2):
        raise UnsupportedTree(f"the q = {q} mode maps are those of the binary tree Cayley(2), got {tree!r}")
    m = len(l2s)
    starts = _run_starts(q, l1s, l2s)
    head, length = starts[:-1], np.diff(starts)
    feasible = feasible_lambdas(q, l1s[head // m], l2s[head % m])
    counts = q4_solution_counts if q == 4 else q5_solution_counts
    n = np.zeros(len(head), dtype=int)
    failed = np.zeros(len(head), dtype=bool)
    errors: dict[int, str] = {}  # by the point that raised

    def count(runs: np.ndarray) -> None:
        points = head[runs]
        n[runs], failures = _counts_by_row(counts, l1s[points // m], l2s[points % m])
        failed[runs[list(failures)]] = True
        errors.update(zip(points[list(failures)].tolist(), failures.values()))

    count(np.flatnonzero(feasible))
    pieces = np.where(failed, length, 1)
    if (pieces > 1).any():
        offset = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        head, feasible, n, failed = (np.repeat(column, pieces) for column in (head, feasible, n, failed))
        head += offset
        followers = np.flatnonzero(offset)
        failed[followers] = False
        count(followers)
    robust = l1s[head // m] * branching_number(tree) - 1.0 > RPT_MARGIN
    # a run takes the first of these regimes whose condition holds (the order of PhaseGrid.regimes)
    regime = np.select([failed, ~feasible, robust, n >= 1], [0, 1, 2, 3], 4)
    starts, error = np.append(head, starts[-1]), list(map(errors.get, head.tolist()))
    return PhaseGrid(q, l1s.tolist(), l2s.tolist(), starts, feasible & ~failed, regime, n, error)


def _run_starts(q: int, l1s: np.ndarray, l2s: np.ndarray) -> np.ndarray:
    """Where the runs of the row-major grid l1s x l2s start, in increasing order, then the grid's size.

    A run is a stretch of a column whose points all take its first point's
    answer.  In a column, (feasible, n_nontrivial) can change only at a
    breakpoint in lambda2 (`_breakpoints`), so a run starts at each column
    start, at every point within b's guard of a breakpoint b (its band) and
    at the first point after a band.  Every guard is > 0, so the first point
    at or above b lies in b's band or is the point after it.  Every point is
    a run of its own in a column with |lambda1| or |lambda1 - 1/2| at most
    1e-12 (where `_q4_candidates` switches branch and the q = 5 discriminant
    vanishes identically), and in every column when the lambda2 axis has one
    value or is not strictly increasing.
    """
    m = len(l2s)
    size = len(l1s) * m
    if m == 1 or not (l2s[1:] > l2s[:-1]).all():
        return np.arange(size + 1)
    cols, b, guard = _breakpoints(q, l1s)
    # Marks on the row-major grid and one past its end.  A position m in
    # column c (above its last point) is the first point of column c + 1.
    first_point = cols * m
    start = first_point + np.searchsorted(l2s, b - guard)
    stop = first_point + np.searchsorted(l2s, b + guard, "right")
    width = stop - start
    marks = np.zeros(size + 1, dtype=bool)
    marks[::m] = True  # each column start, and the end of the grid
    # every point of each band [start, stop), and the first point after it
    marks[np.repeat(start - np.cumsum(width) + width, width) + np.arange(width.sum())] = True
    marks[stop] = True
    marks[:size].reshape(-1, m)[(np.abs(l1s) <= 1e-12) | (np.abs(l1s - 0.5) <= 1e-12)] = True
    return np.flatnonzero(marks)


def _breakpoints(q: int, l1s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(column, lambda2, guard) of every finite breakpoint of the columns l1s.

    These are the lambda2 where feasibility can change
    (`spectral.feasibility_breakpoints`) and where the count of fixed points
    can change: the fold roots of `fixedpoint.q4_fold_roots` for q = 4; for
    q = 5 lambda2 = 0, where S degenerates, and the folds of
    `fixedpoint.q5_fold_bands` (1/2 and the real roots of F).  The guard is
    _GUARD * max(1, |b|), or a fold's error bound where that is wider.
    Entries that are not finite are dropped: a root that is not real, and a
    root at infinity or an overflowed one, which lies beyond every grid point.
    """
    folds = q4_fold_roots(l1s) if q == 4 else np.zeros((len(l1s), 1))
    table = np.concatenate([feasibility_breakpoints(q, l1s), folds], axis=1)
    cols, k = np.nonzero(np.isfinite(table))
    b = table[cols, k]
    radius = np.zeros(len(b))
    if q == 5:
        fold_cols, folds, fold_radius = q5_fold_bands(l1s)
        cols, b, radius = (np.concatenate(pair) for pair in ((cols, fold_cols), (b, folds), (radius, fold_radius)))
    return cols, b, np.maximum(_GUARD * np.maximum(1.0, np.abs(b)), radius)


def _counts_by_row(
    counts: Callable[[np.ndarray, np.ndarray], np.ndarray], lambda1: np.ndarray, lambda2: np.ndarray
) -> tuple[np.ndarray, dict[int, str]]:
    """counts(lambda1, lambda2) and {row: message} of the rows that raised.

    A batch that raises is split in halves, recursively, until each raising
    row stands alone, so one failure does not fail its neighbours; a batch
    that does not raise costs one call.  A row's count does not depend on
    the rest of its batch.
    """
    try:
        return counts(lambda1, lambda2), {}
    except Exception as exc:  # a solver failure stays visible in the rows it decides
        if len(lambda1) <= 1:
            return np.zeros(len(lambda1), dtype=int), dict.fromkeys(range(len(lambda1)), str(exc))
    half = len(lambda1) // 2
    n_lo, failed_lo = _counts_by_row(counts, lambda1[:half], lambda2[:half])
    n_hi, failed_hi = _counts_by_row(counts, lambda1[half:], lambda2[half:])
    return np.concatenate([n_lo, n_hi]), {**failed_lo, **{half + k: m for k, m in failed_hi.items()}}
