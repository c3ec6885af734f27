"""Checks of clocktree outputs that do not trust the library.

Every check works from the closed-form first row of the transfer matrix and
from the robustness threshold lambda1 * br(T) = 1 of Pemantle and Steif
(Ann. Probab. 1999), with br(T) = 2 on the binary tree.  Nothing here
imports clocktree, so a bug in the library cannot hide itself from its own
oracle.

Each check takes an output as text plus the inputs that produced it and
says which items failed (indices, or one verdict for a single probe), so
the caller can count them against the number attempted.
"""
from __future__ import annotations

import math

C1 = math.cos(2.0 * math.pi / 5.0)
C2 = math.cos(4.0 * math.pi / 5.0)

FEASIBILITY_SLACK = 1e-12
# Points whose feasibility margin lies within this distance of the slack are
# decided by rounding in the last bits of the row; neither side can be trusted.
UNDECIDABLE_BAND = 1e-10
RPT_MARGIN = 1e-9
BRANCHING_NUMBER = 2.0
Q5_CRITICAL_LAMBDA2 = 0.370748  # discriminant root of the q=5 quartic at lambda1 = 1/2
LINE_TOL = 1e-4  # bisection tolerance of q5_transition_line
VERDICT_GAP = 0.1  # probes with |2*lambda1 - 1| below this are not checked
PROBE_CHECK_U = 0.01

SWEEP_HEADER = "lambda1,lambda2,feasible,regime,n_nontrivial"
LINE_HEADER = "lambda1,lambda2"
PROBE_HEADER = "level,distance"


def row(q: int, lambda1: float, lambda2: float) -> list[float]:
    """First row r_0..r_{q-1} of the circulant with spectrum (1, l1, l2, ...)."""
    if q == 4:
        r = [1 + 2 * lambda1 + lambda2, 1 - lambda2, 1 - 2 * lambda1 + lambda2, 1 - lambda2]
    elif q == 5:
        r1 = 1 + 2 * lambda1 * C1 + 2 * lambda2 * C2
        r2 = 1 + 2 * lambda1 * C2 + 2 * lambda2 * C1
        r = [1 + 2 * lambda1 + 2 * lambda2, r1, r2, r2, r1]
    else:
        raise ValueError(f"the closed-form row exists for q in {{4, 5}}, got q={q}")
    return [x / q for x in r]


def feasibility_margin(q: int, lambda1: float, lambda2: float) -> float:
    """Smallest slack of r_0 >= r_1 >= ... >= r_{q//2} >= 0 and lambda1 >= lambda2.

    Non-negative exactly when the row is non-increasing in the circle
    distance; the slack 1e-12 is applied by the callers.
    """
    r = row(q, lambda1, lambda2)
    half = q // 2
    gaps = [r[j] - r[j + 1] for j in range(half)]
    return min(gaps + [r[half], lambda1 - lambda2])


def feasible(q: int, lambda1: float, lambda2: float) -> bool | None:
    """True or False, or None where rounding of the row decides the answer."""
    m = feasibility_margin(q, lambda1, lambda2) + FEASIBILITY_SLACK
    if abs(m) <= UNDECIDABLE_BAND:
        return None
    return m > 0.0


def robust(lambda1: float) -> bool | None:
    """lambda1 * br(T) > 1 + margin; None within rounding of the margin."""
    excess = lambda1 * BRANCHING_NUMBER - 1.0 - RPT_MARGIN
    if abs(excess) <= 1e-12:
        return None
    return excess > 0.0


# ---------------------------------------------------------------------------
# sweep CSV
# ---------------------------------------------------------------------------


def parse_sweep(text: str) -> list[tuple[float, float, str, str, int]]:
    """Rows (lambda1, lambda2, feasible, regime, n_nontrivial); ValueError if malformed."""
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        raise ValueError("not a sweep CSV")
    rows = []
    for line in lines[1:-1]:
        l1, l2, feas, regime, n = line.split(",")
        rows.append((float(l1), float(l2), feas, regime, int(n)))
    return rows


def is_failed_row(feas: str, regime: str) -> bool:
    """The marker the sweep writes for a point that raised: CRITICAL and infeasible."""
    return regime == "CRITICAL" and feas == "false"


def check_sweep_row(q: int, l1: float, l2: float, feas: str, regime: str, n: int) -> bool:
    """True when one sweep row agrees with every closed-form fact about its point."""
    if is_failed_row(feas, regime) or feas not in ("true", "false"):
        return False
    truth = feasible(q, l1, l2)
    if truth is not None:
        if (feas == "true") != truth or (regime == "INFEASIBLE") == truth:
            return False
        rpt = robust(l1)
        if rpt is not None and (regime == "PT_AND_RPT") != (truth and rpt):
            return False
    if regime == "PT_NOT_RPT" and not (n >= 1 and l1 <= 0.5):
        return False
    return True


def grid(lo: float, hi: float, res: int) -> list[float]:
    """The sweep's axis: res evenly spaced values from lo to hi inclusive."""
    if res == 1:
        return [lo]
    return [lo + (hi - lo) * i / (res - 1) for i in range(res)]


def check_sweep(text: str, spec: dict, boundary: bool) -> tuple[int, list[int]]:
    """(items, failed item indices) for a `clocktree sweep` CSV.

    Row i must be grid point i in row-major (lambda1, lambda2) order, agree
    with `check_sweep_row`, and, when `boundary` is set, lie on the right
    side of the q=4 fold line as acceptance criterion 6 states it.
    """
    res = spec["res"]
    items = res * res
    try:
        rows = parse_sweep(text)
    except ValueError:
        return items, list(range(items))
    l1s = grid(spec["l1min"], spec["l1max"], res)
    l2s = grid(spec["l2min"], spec["l2max"], res)
    failed = set(range(len(rows), items))
    for i, (l1, l2, feas, regime, n) in enumerate(rows[:items]):
        a, b = divmod(i, res)
        on_grid = abs(l1 - l1s[a]) <= 1e-12 and abs(l2 - l2s[b]) <= 1e-12
        if not on_grid or not check_sweep_row(spec["q"], l1, l2, feas, regime, n):
            failed.add(i)
    if len(rows) > items:
        failed.add(items - 1)
    if boundary:
        failed.update(_fold_line_failures(rows[:items], res, l1s[1] - l1s[0]))
    return items, sorted(failed)


def q4_fold_line(lambda2: float) -> float:
    """lambda1 = 4*lambda2*(1 - lambda2)/(1 + lambda2)^2, edge of the q=4 window."""
    return 4.0 * lambda2 * (1.0 - lambda2) / (1.0 + lambda2) ** 2


def _fold_line_failures(rows, res: int, cell: float) -> list[int]:
    """Acceptance criterion 6: per lambda2 column, the PT_NOT_RPT cells start
    within one cell of max(fold line, lambda2) and end by 1/2 + one cell; no
    column outside [1/3 - cell, 1/2 + cell] has any.  A failing column
    counts as one failed item, its first row."""
    columns: dict[float, list[tuple[int, float, str]]] = {}
    for i, (l1, l2, _feas, regime, _n) in enumerate(rows):
        columns.setdefault(round(l2, 12), []).append((i, l1, regime))
    failed = []
    for l2, col in columns.items():
        cells = sorted(l1 for _i, l1, regime in col if regime == "PT_NOT_RPT")
        if l2 < 1.0 / 3.0 - cell or l2 > 0.5 + cell:
            ok = not cells
        else:
            lo_edge = max(q4_fold_line(l2), l2)
            if cells:
                ok = abs(cells[0] - lo_edge) <= cell * 1.0001 and cells[-1] <= 0.5 + cell
            else:
                ok = (0.5 - lo_edge) <= 2 * cell
        if not ok:
            failed.append(col[0][0])
    return failed


# ---------------------------------------------------------------------------
# q=5 transition line
# ---------------------------------------------------------------------------


def check_line(text: str, lambda1_grid: list[float]) -> tuple[int, list[int]]:
    """(items, failed indices) for a q=5 transition line written as CSV.

    Every critical lambda2 is finite, the line does not rise with lambda1
    by more than the bisection tolerance, and the lambda1 = 1/2 entry lands
    on the discriminant root within that tolerance.
    """
    items = len(lambda1_grid)
    lines = text.split("\n")
    if lines[0] != LINE_HEADER or len(lines) != items + 2 or lines[-1] != "":
        return items, list(range(items))
    failed = set()
    prev = math.inf
    for i, (line, want) in enumerate(zip(lines[1:-1], lambda1_grid)):
        try:
            l1, l2c = (float(x) for x in line.split(","))
        except ValueError:
            failed.add(i)
            continue
        if l1 != want or not math.isfinite(l2c) or l2c > prev + LINE_TOL:
            failed.add(i)
        if l1 == 0.5 and abs(l2c - Q5_CRITICAL_LAMBDA2) > LINE_TOL:
            failed.add(i)
        if math.isfinite(l2c):
            prev = l2c
    return items, sorted(failed)


# ---------------------------------------------------------------------------
# probe CSV
# ---------------------------------------------------------------------------


def check_probe(text: str, q: int, lambda1: float, lambda2: float, u: float, levels: int) -> bool:
    """True when a `clocktree probe` CSV is well formed and its verdict is right.

    The verdict is checked at u = 0.01 away from the threshold: a robust
    phase transition (2*lambda1 > 1) keeps even a weakened boundary away
    from uniform, and below the threshold a weak boundary washes out.
    """
    lines = text.split("\n")
    if len(lines) != levels + 4 or lines[0] != PROBE_HEADER or lines[-1] != "":
        return False
    tail = lines[-2].split(",")
    try:
        for k, line in enumerate(lines[1:-2]):
            level, dist = line.split(",")
            if int(level) != k or not (0.0 <= float(dist) <= 1.0):
                return False
        if len(tail) != 6 or int(tail[3]) != levels or float(tail[5]) != u:
            return False
    except ValueError:
        return False
    if tail[0] != "verdict" or tail[2] != "levels" or tail[4] != "u":
        return False
    verdict = tail[1]
    if verdict not in ("BOUNDED_AWAY", "CONVERGES_TO_UNIFORM", "UNDECIDED"):
        return False
    if u == PROBE_CHECK_U and abs(2.0 * lambda1 - 1.0) >= VERDICT_GAP:
        expected = "BOUNDED_AWAY" if lambda1 * BRANCHING_NUMBER > 1.0 else "CONVERGES_TO_UNIFORM"
        return verdict == expected
    return True
