"""Phase diagrams in the (lambda1, lambda2) eigenvalue plane.

Three regimes partition the feasible region on the binary tree Cayley(2),
the only tree classified here, since the q = 4 and q = 5 mode maps are its
maps: no phase transition, robust phase transition (lambda1 * br(T) > 1,
where any boundary coupling however weak orders the root; br(T) = 2, so
lambda1 > 1/2), and the window of non-robust phase transitions where a
non-trivial symmetric fixed point of the mode recursion exists although
lambda1 <= 1/2.  For q = 4 the boundary of that window is the closed curve
lambda1 = 4*lambda2*(1 - lambda2)/(1 + lambda2)^2; for q = 5 it lies on
the folds of the eliminated sextic, the zero set of its discriminant, whose
candidates in lambda2 are 1/2 and the real roots of its factor F
(`fixedpoint._fold_roots`).  The candidates of a lambda1 are checked in
ascending order by the count of fixed points
(`fixedpoint.q5_solution_counts`, the exact number of the sextic's distinct
real nonzero roots, from a Sturm chain), once in each interval between two
of them and once below the lowest, all in one batched call; the interval
above the highest is checked by the bracket's top.  The bisection on that
count asks it, one call per step, only about the midpoints that the check
leaves open.

A sweep's answer is piecewise constant along each lambda1 column: feasibility
changes only where a compared row quantity, affine in lambda2, changes sign
(`spectral.feasibility_breakpoints`), and the count of fixed points only on a
fold (`fixedpoint.q4_fold_roots`; for q = 5 lambda2 = 1/2 and the real roots
of F).  So a sweep cuts each column into runs: each grid point near a
feasibility breakpoint, a q = 4 fold or lambda2 = 1/2 is a run of its own,
and so is the rest of each interval between two of them.  A q = 5 count is
exact, so it needs to know only which grid cells may hold a root of F
(`fixedpoint.q5_fold_cells`, a certified sign test), and a run starts at
the upper point of each.  Only a run's first point is evaluated, with the
same library calls as one point, and the rest of the run takes that first
point's answer.

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
from typing import Iterator, Sequence

import numpy as np

from .errors import ClockTreeError, UnsupportedQ
from .fixedpoint import (
    _degenerate_lambda1,
    _fold_roots,
    q4_fold_roots,
    q4_solution_counts,
    q5_fold_cells,
    q5_solution_counts,
)
from .spectral import feasibility_breakpoints, feasible_lambdas, potts_lambda

# the count of `q5_transition_line` on either side of a fold candidate r is
# checked at r - _FOLD_STEP and r + _FOLD_STEP, which decide every midpoint
# outside them; the step is above the error of F's unpolished roots on the
# line's branch (at most 1.7e-8 on 4,000 lambda1 in [0.3708, 1/2], near
# 0.49994).  The q = 5 counts are exact, so they change only at the exact
# folds, and the step needs no room for their rounding.
_FOLD_STEP = 1e-7
# a sweep evaluates every grid point within _GUARD * max(1, |b|) of a
# breakpoint b of its column (`_run_starts`): the room left for the
# breakpoints that are computed roots with no bound, q = 4's fold roots and
# the feasibility breakpoints, and for q = 5's fold at lambda2 = 1/2.  F's
# folds need none: the cells that may hold one are certified
# (`fixedpoint.q5_fold_cells`), and the q = 5 counts are exact
_GUARD = 1e-6


class Regime(enum.Enum):
    INFEASIBLE = "INFEASIBLE"
    NO_PT = "NO_PT"
    PT_AND_RPT = "PT_AND_RPT"
    PT_NOT_RPT = "PT_NOT_RPT"


@dataclass(frozen=True, slots=True)
class PhasePoint:
    q: int
    lambda1: float
    lambda2: float
    regime: Regime
    n_nontrivial: int


class PhaseGrid(Sequence[PhasePoint]):
    """Classified points of a grid, row-major in (lambda1, lambda2), held as runs of equal answers.

    `lambda1` and `lambda2` are the grid's two axes as lists of floats;
    point i lies at (lambda1[i // len(lambda2)], lambda2[i % len(lambda2)]).
    The lambda2 axis is not empty; the lambda1 axis may be.
    Run r holds the points starts[r] <= i < starts[r + 1]; `starts` rises
    strictly from 0 to the grid size through every row start, so no run
    crosses a lambda1 row.  The per-run columns are arrays: `run_regime`
    (int codes into `regimes`; a run is feasible exactly where its code is
    not 0, INFEASIBLE) and `run_n_nontrivial` (int).
    A `PhasePoint` is built only when one is indexed or iterated; a slice
    is a list of points.
    """

    regimes = (Regime.INFEASIBLE, Regime.PT_AND_RPT, Regime.PT_NOT_RPT, Regime.NO_PT)

    __slots__ = ("q", "lambda1", "lambda2", "starts", "run_regime", "run_n_nontrivial")

    def __init__(
        self, q: int, lambda1: list[float], lambda2: list[float], starts: np.ndarray, regime: np.ndarray,
        n_nontrivial: np.ndarray
    ) -> None:
        if len(lambda2) == 0:
            raise ClockTreeError("the lambda2 axis is empty, so a lambda1 row has no points")
        starts = np.asarray(starts)
        size, runs = len(lambda1) * len(lambda2), len(starts) - 1
        if not (runs >= 0 and starts[0] == 0 and starts[-1] == size):
            raise ClockTreeError(f"run starts must go from 0 to the grid size {size}")
        if not (starts[1:] > starts[:-1]).all():
            raise ClockTreeError("run starts must be strictly increasing")
        if np.count_nonzero(starts % len(lambda2) == 0) != len(lambda1) + 1:
            raise ClockTreeError("run starts must hold the start of every lambda1 row")
        if any(len(column) != runs for column in (regime, n_nontrivial)):
            raise ClockTreeError(f"every run column must hold one entry per run, {runs}")
        self.q, self.lambda1, self.lambda2, self.starts = q, lambda1, lambda2, starts
        self.run_regime, self.run_n_nontrivial = regime, n_nontrivial

    def __len__(self) -> int:
        return int(self.starts[-1])

    def __getitem__(self, index: int | slice) -> PhasePoint | list[PhasePoint]:
        i = range(len(self))[index]
        if isinstance(i, range):
            return [self[k] for k in i]
        a, b = divmod(i, len(self.lambda2))
        r = int(np.searchsorted(self.starts, i, "right")) - 1
        return PhasePoint(
            self.q, self.lambda1[a], self.lambda2[b], self.regimes[self.run_regime[r]], int(self.run_n_nontrivial[r])
        )

    def __iter__(self) -> Iterator[PhasePoint]:
        points = itertools.product(self.lambda1, self.lambda2)
        runs = (self.run_regime, self.run_n_nontrivial, np.diff(self.starts))
        for c, m, length in zip(*(column.tolist() for column in runs)):
            regime = self.regimes[c]
            for a, b in itertools.islice(points, length):
                yield PhasePoint(self.q, a, b, regime, m)


def q4_critical_line(lambda2: float) -> float:
    """lambda1 = 4*lambda2*(1 - lambda2)/(1 + lambda2)^2, the q=4 fold line.

    It peaks at (lambda2, lambda1) = (1/3, 1/2) and crosses the Potts diagonal
    at 2*sqrt(q-1)/(q + 2*sqrt(q-1)) ~ 0.4641.
    """
    return 4.0 * lambda2 * (1.0 - lambda2) / (1.0 + lambda2) ** 2


def classify_point(q: int, lambda1: float, lambda2: float) -> PhasePoint:
    """Regime of one parameter point on the binary tree.

    The point is a 1 x 1 grid of the sweep's classification, so a point and
    the grid around it cannot disagree; see `sweep` for how the regime is
    decided.  Non-finite parameters raise ClockTreeError, and an exception
    of the solver propagates unchanged.  The point is the only entry of the
    grid's `PhaseGrid`.
    """
    if not (math.isfinite(lambda1) and math.isfinite(lambda2)):
        raise ClockTreeError(f"lambda1 and lambda2 must be finite, got {lambda1!r} and {lambda2!r}")
    return _classify_grid(q, np.array([lambda1], dtype=float), np.array([lambda2], dtype=float))[0]


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
    return theta_cr, theta_cr, potts_lambda(q, theta_cr)


def q5_transition_line(
    lambda1_grid: Sequence[float],
    tol: float = 1e-4,
    lambda2_bracket: tuple[float, float] = (0.33, 0.65),
) -> list[tuple[float, float]]:
    """Critical lambda2 for each lambda1: a count change of q=5 fixed points from 0 to at least 1.

    The line is found by bisection of `lambda2_bracket` on the predicate
    `q5_solution_counts` > 0, the bracket's bottom taken to have none and
    its top checked to have some.  A count changes only on the folds of the
    sextic, so the fold candidates at each lambda1, 1/2 and the real roots
    of F (`fixedpoint._fold_roots`) in (lo + _FOLD_STEP, hi - _FOLD_STEP),
    tell the bisection where to go.  No fold lies between two neighbouring
    candidates r1 < r2 of a row once _FOLD_STEP away from both, so the count
    a step above r1 stands for the count a step below r2, and the count at
    the bracket's top for the count a step above the highest candidate,
    unless a fold lies within _FOLD_STEP of the top.  So one batched call
    checks the top of every bracket, a step below each row's lowest
    candidate and a step above every other candidate, and a row keeps its
    highest candidate r with no solution a step below and some a step
    above.  Each step halves every row still wider than tol at
    0.5 * (lo + hi), on Python floats, which round as numpy does: a
    midpoint at or below r - _FOLD_STEP has no solution, one at or above
    r + _FOLD_STEP has some, and only the other midpoints go to the
    counts, one batched call per step that has any.  Where the predicate
    is monotone away from r the counts would answer the same, so the line
    is the bisection's, bit for bit.  A row
    stops when its bracket is at most tol wide, or when the midpoint rounds
    to lo or hi, so that a tol below the float spacing (0 included) ends at
    adjacent floats, between which the exact count changes.  A row whose r
    passes asks the counts only about midpoints within _FOLD_STEP of r: at
    the default tol usually none, and one where r is a midpoint of the
    bracket, as 1/2 is of the default one.
    At lambda1 = 1/2 the line is the quartic's discriminant root 0.370748,
    and since F is symmetric in lambda1 and lambda2 it is lambda2 = 1/2 for
    lambda1 up to 0.370748.  A grid point whose bracket top has no solution
    is reported as (lambda1, nan) rather than aborting the line.  A lambda1
    outside (0, 1/2], a bracket that is not two finite numbers lo < hi, or a
    NaN tol raises ClockTreeError.
    """
    grid = list(lambda1_grid)
    for l1 in grid:
        if not (0.0 < l1 <= 0.5):
            raise ClockTreeError(f"transition line expects lambda1 in (0, 1/2], got {l1!r}")
    bracket = tuple(lambda2_bracket)
    if not (len(bracket) == 2 and all(map(math.isfinite, bracket)) and bracket[0] < bracket[1]):
        raise ClockTreeError(f"transition line expects a finite lambda2_bracket lo < hi, got {bracket!r}")
    if math.isnan(tol):
        raise ClockTreeError(f"transition line expects a tol that is a number, got {tol!r}")
    tol, bottom, top, n = float(tol), float(bracket[0]), float(bracket[1]), len(grid)
    l1s = np.array(grid, dtype=float)
    _, z = _fold_roots(l1s)
    # each row's folds; F's roots that are not real read NaN and drop out
    folds = [{0.5, *row} for row in np.where(z.imag == 0.0, z.real, math.nan).tolist()]
    candidates = [sorted(r for r in row if bottom + _FOLD_STEP < r < top - _FOLD_STEP) for row in folds]
    rows = [k for k in range(n) if candidates[k]]
    # one call: the top of every bracket, a step below each row's lowest
    # candidate and a step above every other candidate; the top stands for a
    # step above the highest, except in a row with a fold within a step of it
    own_top = [any(abs(r - top) <= _FOLD_STEP for r in folds[k]) for k in rows]
    at = [(k, top) for k in range(n)] + [(k, candidates[k][0] - _FOLD_STEP) for k in rows]
    at += [(k, r + _FOLD_STEP) for k, own in zip(rows, own_top) for r in candidates[k][: None if own else -1]]
    counts = q5_solution_counts(l1s[[k for k, _ in at]], np.array([l2 for _, l2 in at])).tolist()
    found, above = [c > 0 for c in counts[:n]], iter(counts[n + len(rows) :])
    # a row's highest passing candidate, NaN (which decides no midpoint) where none passes
    best = [math.nan] * n
    for k, own, below in zip(rows, own_top, counts[n : n + len(rows)]):
        for i, r in enumerate(candidates[k], 1):
            count = counts[k] if i == len(candidates[k]) and not own else next(above)
            if below == 0 and count > 0:
                best[k] = r
            below = count
    lo, hi = [bottom] * n, [top] * n
    active = [k for k in range(n) if found[k]]
    while active:
        split, ask = [], {}
        for k in active:
            mid = 0.5 * (lo[k] + hi[k])
            if not (hi[k] - lo[k] > tol and lo[k] < mid < hi[k]):
                continue
            split.append(k)
            if mid >= best[k] + _FOLD_STEP:
                hi[k] = mid
            elif mid <= best[k] - _FOLD_STEP:
                lo[k] = mid
            else:
                ask[k] = mid
        if ask:  # the midpoints the candidate does not decide, one batched call
            counts = q5_solution_counts(l1s[list(ask)], np.array(list(ask.values()))).tolist()
            for (k, mid), count in zip(ask.items(), counts):
                if count > 0:
                    hi[k] = mid
                else:
                    lo[k] = mid
        active = split
    return [(l1, 0.5 * (lo[k] + hi[k]) if found[k] else math.nan) for k, l1 in enumerate(grid)]


def sweep(
    q: int,
    lambda1_range: tuple[float, float] = (0.0, 0.6),
    lambda2_range: tuple[float, float] = (0.0, 0.6),
    resolution: int = 100,
) -> PhaseGrid:
    """Classify a resolution x resolution grid, row-major in (lambda1, lambda2).

    The grid is classified as array operations: feasibility from the
    non-increasing check, a phase transition from the count of fixed points
    (verified closed forms for q = 4; for q = 5 the exact number of distinct
    real nonzero roots of the eliminated sextic, `fixedpoint.q5_solution_counts`),
    robustness from the strict threshold lambda1 > 1/2.  Infeasible
    points are kept.  Each lambda1 column is cut into runs at its
    breakpoints (`_run_starts`): every point within 1e-6 * max(1, |b|) of a
    breakpoint b is a run of its own, a run starts at the upper point of
    each grid cell that may hold a fold of F (q = 5), and a run between
    breakpoints holds the rest of an interval.  Only the first point of
    each run is evaluated, and the rest of the run takes its answer
    (`_classify_grid`), so the work grows with the runs, not with the grid
    points.  An exception of the solver propagates unchanged: no
    regime stands for a failure.  The result is a `PhaseGrid`, a sequence
    of `PhasePoint`s held as those runs.  The mode maps are those of the
    binary tree.  A non-finite range, a range whose span hi - lo overflows,
    or a resolution that is not an integer >= 1 raises ClockTreeError.
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
    for name, (lo, hi) in (("lambda1", lambda1_range), ("lambda2", lambda2_range)):
        if not math.isfinite(hi - lo):
            raise ClockTreeError(f"the {name} range {(lo, hi)!r} spans more than the largest float")
    l1s = np.linspace(lambda1_range[0], lambda1_range[1], resolution)
    l2s = np.linspace(lambda2_range[0], lambda2_range[1], resolution)
    return _classify_grid(q, l1s, l2s)


def _classify_grid(q: int, l1s: np.ndarray, l2s: np.ndarray) -> PhaseGrid:
    """The grid l1s x l2s as a row-major `PhaseGrid`; the engine behind `sweep` and `classify_point`.

    The grid is cut into the runs of `_run_starts`, and only the head of
    each run is evaluated: the heads' feasibility in one `feasible_lambdas`
    call, then the counts of the feasible heads in one call, made only
    when some head is feasible.  The regime is decided once per run,
    and the grid keeps the runs: nothing is held per point.
    """
    if q not in (4, 5):
        raise UnsupportedQ(f"phase classification supports q in {{4, 5}}, got q={q}")
    m = len(l2s)
    starts = _run_starts(q, l1s, l2s)
    head = starts[:-1]
    feasible = feasible_lambdas(q, l1s[head // m], l2s[head % m])
    counts = q4_solution_counts if q == 4 else q5_solution_counts
    n = np.zeros(len(head), dtype=int)
    points = head[feasible]
    if len(points):
        n[feasible] = counts(l1s[points // m], l2s[points % m])
    # robust means lambda1 * br(T) > 1, the strict threshold of R. Pemantle and
    # J. E. Steif (Ann. Probab. 27 (1999) 876-912), with br(T) the branching
    # number of R. Lyons (Ann. Probab. 18 (1990) 931-958); br(Cayley(2)) = 2, and
    # lambda1 > 0.5 agrees with 2.0 * lambda1 > 1.0 on every float, without overflow
    robust = l1s[head // m] > 0.5
    # a run takes the first of these regimes whose condition holds (the order of
    # PhaseGrid.regimes), so code 0, INFEASIBLE, marks exactly the infeasible runs
    regime = np.select([~feasible, robust, n >= 1], [0, 1, 2], 3)
    return PhaseGrid(q, l1s.tolist(), l2s.tolist(), starts, regime, n)


def _run_starts(q: int, l1s: np.ndarray, l2s: np.ndarray) -> np.ndarray:
    """Where the runs of the row-major grid l1s x l2s start, in increasing order, then the grid's size.

    A run is a stretch of a column whose points all take its first point's
    answer.  In a column, (feasible, n_nontrivial) can change only at a
    breakpoint in lambda2 (`_breakpoints`) and, for q = 5, at a real root of
    F, so a run starts at each column start, at every point within b's
    guard of a breakpoint b (its band), at the first point after a band,
    and at the upper point of each cell [l2s[k], l2s[k + 1]] that
    `fixedpoint.q5_fold_cells` does not show free of F's roots.  Every
    guard is > 0, so the first point at or above b lies in b's band or is
    the point after it; a cell holds a root with its ends, so a root on a
    grid point makes that point a run of its own.  Every point is a run of
    its own in a column where `fixedpoint._degenerate_lambda1` holds, and
    in every column when the lambda2 axis has one value or is not strictly
    increasing.
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
    if q == 5:  # the upper point of each cell that may hold a fold
        fold_cols, fold_cells = q5_fold_cells(l1s, l2s)
        marks[fold_cols * m + fold_cells + 1] = True
    marks[:size].reshape(-1, m)[_degenerate_lambda1(l1s)] = True
    return np.flatnonzero(marks)


def _breakpoints(q: int, l1s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(column, lambda2, guard) of every finite breakpoint of the columns l1s.

    These are the lambda2 where feasibility can change
    (`spectral.feasibility_breakpoints`) and where the count of fixed points
    can change: the fold roots of `fixedpoint.q4_fold_roots` for q = 4;
    for q = 5 lambda2 = 1/2, the root of the discriminant's factor
    2 l2 - 1, as F's roots are left to `fixedpoint.q5_fold_cells`.  The
    guard is _GUARD * max(1, |b|).  Entries that are not finite are
    dropped: a root that is not real, and a root at infinity or an
    overflowed one, which lies beyond every grid point.
    """
    folds = q4_fold_roots(l1s) if q == 4 else np.full((len(l1s), 1), 0.5)
    table = np.concatenate([feasibility_breakpoints(q, l1s), folds], axis=1)
    cols, k = np.nonzero(np.isfinite(table))
    b = table[cols, k]
    return cols, b, _GUARD * np.maximum(1.0, np.abs(b))
