"""The batched sweep engine against the per-point code it replaced.

`ref_feasible`, `ref_q4_solutions`, `ref_quadratic_roots` and `ref_assemble`
are the scalar feasibility check, q=4 closed form and candidate verifier
that classified one grid point at a time, kept here as the reference (the
only change is the lambda2 underflow fix in `ref_q4_solutions`, which tests
the sign of 2*lambda2 - 1 before dividing by 4*lambda2^2).  The engine must
reproduce them bit for bit, signed zeros included, because the CLI prints 17
significant digits.  `ref_verify_candidates` is the grid verifier as a loop
over points and slots, each candidate checked as `ref_assemble` checks it.
`ref_sweep_csv` is the sweep CSV written one f-string per cell, against
which the CLI's writer by runs of equal answers is checked on drawn grids.
"""
import itertools
import math
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree import phase
from clocktree.cli import main
from clocktree.fixedpoint import (
    _ACCEPTED,
    _NOT_FINITE,
    _RESIDUAL,
    _SKIPPED,
    DEDUP_TOL,
    RESIDUAL_TOL,
    SolutionSet,
    _assemble,
    _verify_candidates,
)
from clocktree.phase import RPT_MARGIN, Evidence, PhasePoint, Regime
from clocktree.recursion import mode_map
from clocktree.spectral import SymmetricDist, feasible_lambdas, spec_from_lambdas, validate_non_increasing

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the per-point reference
# ---------------------------------------------------------------------------


def ref_feasible(q, lambda1, lambda2):
    try:
        spec = spec_from_lambdas(q, lambda1, lambda2)
    except ValueError:
        return False
    return validate_non_increasing(spec).feasible


def ref_residual(q, lambda1, lambda2, alpha):
    f = mode_map(q, lambda1, lambda2, alpha)
    return max(abs(alpha[0] - f[0]), abs(alpha[1] - f[1]))


def ref_assemble(q, lambda1, lambda2, candidates, notes=()):
    accepted = [(0.0, 0.0)]
    rejected = []
    for cand in candidates:
        a = (float(cand[0]), float(cand[1]))
        if not all(map(math.isfinite, a)):
            rejected.append(f"{a}: not finite")
            continue
        if max(abs(a[0]), abs(a[1])) <= DEDUP_TOL:
            continue
        if any(max(abs(a[0] - s[0]), abs(a[1] - s[1])) <= DEDUP_TOL for s in accepted):
            continue
        res = ref_residual(q, lambda1, lambda2, a)
        if res >= RESIDUAL_TOL:
            rejected.append(f"{a}: residual {res:.3e}")
            continue
        accepted.append(a)
    ordered = [accepted[0]] + sorted(accepted[1:], key=lambda s: s[0])
    return SolutionSet(
        q=q,
        lambda1=lambda1,
        lambda2=lambda2,
        solutions=tuple(ordered),
        residuals=tuple(ref_residual(q, lambda1, lambda2, s) for s in ordered),
        includes_trivial=True,
        rejected=tuple(rejected),
        notes=tuple(notes),
    )


def ref_verify_candidates(q, lambda1, lambda2, a1, a2, valid):
    n, k = a1.shape
    l1, l2 = np.broadcast_to(lambda1, (n, 1)), np.broadcast_to(lambda2, (n, 1))
    valid = np.broadcast_to(valid, (n, k))
    status = np.full((n, k), _SKIPPED, dtype=np.int8)
    residual = np.zeros((n, k))
    for i in range(n):
        accepted = []
        for j in range(k):
            a = (float(a1[i, j]), float(a2[i, j]))
            residual[i, j] = ref_residual(q, float(l1[i, 0]), float(l2[i, 0]), a)
            if not valid[i, j]:
                continue
            if not all(map(math.isfinite, a)):
                status[i, j] = _NOT_FINITE
            elif max(abs(a[0]), abs(a[1])) <= DEDUP_TOL:
                continue
            elif any(max(abs(a[0] - s[0]), abs(a[1] - s[1])) <= DEDUP_TOL for s in accepted):
                continue
            elif residual[i, j] >= RESIDUAL_TOL:
                status[i, j] = _RESIDUAL
            else:
                status[i, j] = _ACCEPTED
                accepted.append(a)
    return status, residual


def ref_quadratic_roots(a, b, c):
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    return [(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)]


def ref_q4_solutions(lambda1, lambda2):
    notes = []
    if not ref_feasible(4, lambda1, lambda2):
        notes.append("parameters are outside the non-increasing feasibility region")
    candidates = []
    if lambda2 > 0.0 and 2.0 * lambda2 - 1.0 >= 0.0:
        rad = (2.0 * lambda2 - 1.0) / (4.0 * lambda2 * lambda2)
        if rad >= 0.0:
            r = math.sqrt(rad)
            candidates += [(0.0, r), (0.0, -r)]
    if abs(lambda1 - 0.5) < 1e-12:
        if lambda2 > 0.0:
            a2 = (3.0 * lambda2 - 1.0) / (2.0 * (lambda2 + lambda2 * lambda2))
            rad = 2.0 * lambda2 * a2 - 4.0 * lambda2 * lambda2 * a2 * a2
            if rad >= -1e-15:
                a1 = math.sqrt(max(rad, 0.0))
                candidates += [(a1, a2), (-a1, a2)]
    elif abs(lambda1) > 1e-12:
        qa = -(lambda2 * lambda2 + 2.0 * lambda1 * lambda2)
        qb = lambda1 * lambda2 + lambda2 - lambda1
        qc = 0.5 * lambda1 - 0.25
        for a2 in ref_quadratic_roots(qa, qb, qc):
            p1 = 0.5 * lambda1 + lambda1 * lambda2 * a2 - 0.25 - lambda2 * lambda2 * a2 * a2
            if p1 < -1e-15:
                continue
            a1 = math.sqrt(max(p1, 0.0)) / lambda1
            candidates += [(a1, a2), (-a1, a2)]
    return ref_assemble(4, lambda1, lambda2, candidates, notes)


def ref_classify_q4(lambda1, lambda2):
    if not ref_feasible(4, lambda1, lambda2):
        return PhasePoint(4, lambda1, lambda2, False, Regime.INFEASIBLE, 0, Evidence.CLOSED_FORM)
    n = ref_q4_solutions(lambda1, lambda2).n_nontrivial
    if lambda1 * 2.0 - 1.0 > RPT_MARGIN:
        regime = Regime.PT_AND_RPT
    elif n >= 1:
        regime = Regime.PT_NOT_RPT
    else:
        regime = Regime.NO_PT
    return PhasePoint(4, lambda1, lambda2, True, regime, n, Evidence.CLOSED_FORM)


# ---------------------------------------------------------------------------
# bit-level keys
# ---------------------------------------------------------------------------


def _bits(x):
    """float.hex tells -0.0 from 0.0 and prints every NaN alike."""
    return float(x).hex()


def point_key(p):
    return (p.q, _bits(p.lambda1), _bits(p.lambda2), p.feasible, p.regime, p.n_nontrivial, p.evidence, p.error)


def solution_key(s):
    return (
        s.q,
        tuple((_bits(a), _bits(b)) for a, b in s.solutions),
        tuple(_bits(r) for r in s.residuals),
        s.includes_trivial,
        s.rejected,
        s.notes,
    )


# ---------------------------------------------------------------------------
# strategies: plain ranges plus the places where a slip would show
# ---------------------------------------------------------------------------

LAMBDA1 = st.one_of(
    st.floats(-0.3, 1.1),
    st.sampled_from([0.0, -0.0, 0.5, 0.5 - 5e-13, 0.5 + 5e-13, 0.5 - 2e-12, 0.5 + 2e-12,
                     1e-12, -1e-12, 1.0 / 3.0, 0.4641016151377546, 1.0, -1.0]),
)
LAMBDA2 = st.one_of(
    st.floats(-1.2, 1.2),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-200, -1e-200, 1.0 / 3.0, 0.5,
                     0.49999999999999994, 0.4, 0.9, -1.0]),
)


@SETTINGS
@given(l1_range=st.tuples(LAMBDA1, LAMBDA1), l2_range=st.tuples(LAMBDA2, LAMBDA2), res=st.integers(1, 5))
def test_sweep_matches_per_point_reference(l1_range, l2_range, res):
    points = ct.sweep(4, l1_range, l2_range, resolution=res)
    l1s = np.linspace(l1_range[0], l1_range[1], res).tolist()
    l2s = np.linspace(l2_range[0], l2_range[1], res).tolist()
    want = [ref_classify_q4(a, b) for a in l1s for b in l2s]
    assert [point_key(p) for p in points] == [point_key(p) for p in want]
    for p in points:
        assert point_key(ct.classify_point(4, p.lambda1, p.lambda2)) == point_key(p)


@SETTINGS
@given(lambda1=LAMBDA1, lambda2=LAMBDA2)
def test_classify_point_matches_reference(lambda1, lambda2):
    assert point_key(ct.classify_point(4, lambda1, lambda2)) == point_key(ref_classify_q4(lambda1, lambda2))


@SETTINGS
@given(lambda1=st.one_of(LAMBDA1, st.floats()), lambda2=st.one_of(LAMBDA2, st.floats()))
def test_q4_solutions_matches_reference(lambda1, lambda2):
    with np.errstate(all="ignore"):
        want = ref_q4_solutions(lambda1, lambda2)
    assert solution_key(ct.q4_solutions(lambda1, lambda2)) == solution_key(want)


# candidate values: verified fixed points, their mirror images and near
# copies, the trivial solution, non-finite and out-of-range values
_Q4_SOLUTIONS = [a for s in (ref_q4_solutions(0.5, 0.4), ref_q4_solutions(0.47, 0.42)) for a in s.solutions]
_Q5_SOLUTIONS = list(ct.q5_solutions_at_critical(0.45).solutions)
_COMPONENT = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 5e-9, math.nan, math.inf, -math.inf, 1e200, -1e200]),
)


def _candidate(known):
    exact = st.sampled_from(known)
    near = st.tuples(exact, st.sampled_from([0.0, 5e-9, -5e-9, 2e-8, 1e-12])).map(
        lambda t: (t[0][0] + t[1], t[0][1] - t[1])
    )
    return st.one_of(exact, near, st.tuples(_COMPONENT, _COMPONENT))


@SETTINGS
@given(
    q4=st.lists(_candidate(_Q4_SOLUTIONS), max_size=7),
    q5=st.lists(_candidate(_Q5_SOLUTIONS), max_size=7),
)
def test_assemble_matches_reference(q4, q5):
    for q, l1, l2, cands in ((4, 0.5, 0.4, q4), (4, 0.47, 0.42, q4), (5, 0.5, 0.45, q5)):
        with np.errstate(all="ignore"):
            want = ref_assemble(q, l1, l2, cands, ["note"])
        assert solution_key(_assemble(q, l1, l2, cands, ["note"])) == solution_key(want)


# ---------------------------------------------------------------------------
# q=5 and the grid as a whole
# ---------------------------------------------------------------------------


def test_q5_sweep_matches_classify_point():
    points = list(ct.sweep(5, (0.44, 0.52), (0.30, 0.50), resolution=3))
    assert points == [ct.classify_point(5, p.lambda1, p.lambda2) for p in points]
    assert {p.regime for p in points} >= {Regime.INFEASIBLE, Regime.PT_AND_RPT}


def test_q4_sweep_starts_no_pool(monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep must not start a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    points = list(ct.sweep(4, (0.3, 0.6), (0.2, 0.5), resolution=4))
    assert points == [ct.classify_point(4, p.lambda1, p.lambda2) for p in points]


def test_q5_solver_failure_keeps_marker(monkeypatch):
    def boom(lambda1, lambda2):
        raise ct.ContinuationLost("solver gave up")

    monkeypatch.setattr(phase, "q5_solution_counts", boom)
    points = ct.sweep(5, (0.2, 0.48), (0.4, 0.4), resolution=2)
    assert points[0] == PhasePoint(5, 0.2, 0.4, False, Regime.INFEASIBLE, 0, Evidence.CLOSED_FORM)
    assert points[2] == PhasePoint(
        5, 0.48, 0.4, False, Regime.CRITICAL, 0, Evidence.ELIMINATION, error="solver gave up"
    )
    assert ct.classify_point(5, 0.48, 0.4) == points[2]


def test_phase_point_has_no_instance_dict():
    p = ct.classify_point(4, 0.5, 0.4)
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.n_nontrivial = 3


# ---------------------------------------------------------------------------
# the verifier, the columnar grid, failures row by row
# ---------------------------------------------------------------------------

_EXTREME = st.sampled_from([1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, -5e-324])


@st.composite
def _candidate_grid(draw, q):
    """(lambda1, lambda2, a1, a2, valid) for the verifier: an (n, 1) grid, or
    plain floats and valid=True as a batch of one is passed."""
    known = _Q4_SOLUTIONS if q == 4 else _Q5_SOLUTIONS
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 7))
    slot = st.one_of(_candidate(known), st.tuples(_EXTREME, _COMPONENT), st.tuples(_COMPONENT, _EXTREME))
    cands = np.array(draw(st.lists(st.lists(slot, min_size=k, max_size=k), min_size=n, max_size=n)), dtype=float)
    cands = cands.reshape(n, k, 2)
    if n == 1 and draw(st.booleans()):
        return draw(LAMBDA1), draw(LAMBDA2), cands[..., 0], cands[..., 1], True
    l1 = np.array(draw(st.lists(LAMBDA1, min_size=n, max_size=n)))[:, None]
    l2 = np.array(draw(st.lists(LAMBDA2, min_size=n, max_size=n)))[:, None]
    valid = np.array(draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=n, max_size=n)))
    return l1, l2, cands[..., 0], cands[..., 1], valid.reshape(n, k)


@SETTINGS
@given(q4=_candidate_grid(4), q5=_candidate_grid(5))
def test_verify_candidates_matches_per_point_reference(q4, q5):
    for q, args in ((4, q4), (5, q5)):
        with np.errstate(all="ignore"):
            status, residual = _verify_candidates(q, *args)
            want_status, want_residual = ref_verify_candidates(q, *args)
        assert status.dtype == want_status.dtype and status.tolist() == want_status.tolist()
        assert residual.shape == want_residual.shape and residual.tobytes() == want_residual.tobytes()


@SETTINGS
@given(
    q=st.sampled_from([4, 5]),
    lambdas=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    alpha=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_every_image_is_a_probability_vector(q, lambdas, alpha):
    # on Cayley(2) the step is p -> normalize((M p)^2), whose entries are
    # squares, so an image never fails the probability check that the
    # verifier does not run: a fixed point is within RESIDUAL_TOL of one
    image = mode_map(q, *lambdas, alpha)
    SymmetricDist(q=q, modes=tuple(float(m) for m in image))


Q5_WINDOW = ((0.40, 0.52), (0.30, 0.56))
# a feasible point of the res-12 window with four non-trivial fixed points
Q5_BAD = (np.linspace(0.40, 0.52, 12)[9], np.linspace(0.30, 0.56, 12)[7])


def _raise_at(monkeypatch, bad, calls=None):
    """Make phase's q5_solution_counts raise for any batch that holds the pair `bad`."""
    real = phase.q5_solution_counts

    def counts(lambda1, lambda2):
        if calls is not None:
            calls.append(len(lambda1))
        if np.any((lambda1 == bad[0]) & (lambda2 == bad[1])):
            raise ct.ContinuationLost("solver gave up")
        return real(lambda1, lambda2)

    monkeypatch.setattr(phase, "q5_solution_counts", counts)


def test_one_raising_row_fails_only_itself(monkeypatch, capsys):
    argv = ["sweep", "--q", "5", "--res", "12", "--l1min", "0.40", "--l1max", "0.52",
            "--l2min", "0.30", "--l2max", "0.56"]
    calls = []
    _raise_at(monkeypatch, (math.nan, math.nan), calls)
    assert main(argv) == 0
    clean = capsys.readouterr().out.split("\n")
    assert calls == [20]  # the evaluated feasible points, in one call: nothing extra runs
    # Q5_BAD is evaluated, as the first point of an interval that also holds
    # the next point of its row: the batch is halved until Q5_BAD stands
    # alone, then that next point is counted on its own
    calls = []
    _raise_at(monkeypatch, Q5_BAD, calls)
    assert main(argv) == 0
    assert calls == [20, 10, 10, 5, 5, 2, 1, 1, 3, 1]
    rows = capsys.readouterr().out.split("\n")
    changed = [i for i, (a, b) in enumerate(zip(rows, clean)) if a != b]
    assert len(rows) == len(clean) and changed == [1 + 9 * 12 + 7]
    assert clean[changed[0]].endswith(",true,PT_NOT_RPT,4")
    assert rows[changed[0] + 1] == clean[changed[0] + 1] and rows[changed[0] + 1].endswith(",true,PT_NOT_RPT,4")
    assert rows[changed[0]] == ",".join(clean[changed[0]].split(",")[:2]) + ",false,CRITICAL,0"


def test_phase_grid_is_a_lazy_sequence(monkeypatch):
    _raise_at(monkeypatch, Q5_BAD)
    grid = ct.sweep(5, *Q5_WINDOW, resolution=12)
    assert isinstance(grid, ct.PhaseGrid) and isinstance(grid, Sequence)
    assert len(grid) == 144
    points = list(grid)
    assert points == [ct.classify_point(5, p.lambda1, p.lambda2) for p in points]
    assert [i for i, p in enumerate(points) if p.error is not None] == [9 * 12 + 7]
    assert points[9 * 12 + 7] == PhasePoint(
        5, *Q5_BAD, False, Regime.CRITICAL, 0, Evidence.ELIMINATION, error="solver gave up"
    )
    assert [grid[i] for i in range(-144, 144)] == points + points
    assert grid[np.int64(5)] == points[5]
    for sl in (slice(10, 14), slice(None, None, -7), slice(5, 2), slice(-3, None), slice(0, 1000)):
        assert grid[sl] == points[sl]
    for i in (144, -145):
        with pytest.raises(IndexError):
            grid[i]
    assert grid != points  # a sequence of points, not a list


@settings(SETTINGS, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    q=st.sampled_from([4, 5]), l1_range=st.tuples(LAMBDA1, LAMBDA1), l2_range=st.tuples(LAMBDA2, LAMBDA2),
    res=st.integers(1, 12), run=st.integers(0, 10**6),
)
def test_evidence_is_elimination_where_a_q5_run_head_was_feasible(monkeypatch, q, l1_range, l2_range, res, run):
    # the grid derives its evidence from q and each run's answer; the head of
    # one drawn run raises, so that a failed run (not feasible) is checked too
    l1s, l2s = (np.linspace(*r, res) for r in (l1_range, l2_range))
    starts = phase._run_starts(q, l1s, l2s)
    k = int(starts[run % (len(starts) - 1)])
    bad = (l1s[k // res], l2s[k % res])
    real = getattr(phase, f"q{q}_solution_counts")

    def counts(lambda1, lambda2):
        if np.any((lambda1 == bad[0]) & (lambda2 == bad[1])):
            raise ct.ContinuationLost("solver gave up")
        return real(lambda1, lambda2)

    monkeypatch.setattr(phase, f"q{q}_solution_counts", counts)
    grid = ct.sweep(q, l1_range, l2_range, resolution=res)
    monkeypatch.undo()
    head = grid.starts[:-1]
    head_feasible = np.repeat(feasible_lambdas(q, l1s[head // res], l2s[head % res]), np.diff(grid.starts))
    assert (grid.error[k] is not None) == bool(head_feasible[k])
    want = [Evidence.ELIMINATION if q == 5 and f else Evidence.CLOSED_FORM for f in head_feasible.tolist()]
    assert [grid.evidences[c] for c in grid.evidence.tolist()] == want
    assert [p.evidence for p in grid] == [grid[i].evidence for i in range(len(grid))] == want


# ---------------------------------------------------------------------------
# the sweep CSV against a writer that formats every cell
# ---------------------------------------------------------------------------


def ref_sweep_csv(grid):
    """The CSV `clocktree sweep` writes for `grid`, one f-string per cell."""
    n_regimes = len(grid.regimes)
    keys = ((grid.n_nontrivial * n_regimes + grid.regime) * 2 + grid.feasible).tolist()
    tails = {}
    for key in set(keys):
        m, rest = divmod(key, 2 * n_regimes)
        c, f = divmod(rest, 2)
        tails[key] = f"{'true' if f else 'false'},{grid.regimes[c].value},{m}"
    l2_text = [format(l2, ".17g") for l2 in grid.lambda2]
    m = len(l2_text)
    text = ["lambda1,lambda2,feasible,regime,n_nontrivial\n"]
    for i, t1 in enumerate(format(l1, ".17g") for l1 in grid.lambda1):
        row = zip(l2_text, keys[i * m : (i + 1) * m])
        text.append("".join(f"{t1},{t2},{tails[key]}\n" for t2, key in row))
    return "".join(text)


_AXIS_VALUE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
# (feasible, regime code, n_nontrivial) of a run, CRITICAL (code 0) included
_ANSWER = st.tuples(st.booleans(), st.integers(0, len(ct.PhaseGrid.regimes) - 1), st.integers(0, 6))


@st.composite
def _phase_grids(draw):
    """A grid built from a drawn run partition, and the same answers with every point a run of its own.

    The partition has every point its own run, one run per lambda1 row, or
    random cuts besides the row starts.  The runs' answers cycle through a
    few drawn ones, so that neighbouring runs often share an answer, as a
    sweep's runs do, and a CRITICAL run one point long carries an error, as
    a failed point does.  q is 4 or 5, so that the evidence the grid derives
    takes both of its values.
    """
    q = draw(st.sampled_from([4, 5]))
    lambda1 = draw(st.lists(_AXIS_VALUE, min_size=1, max_size=30))
    lambda2 = draw(st.lists(_AXIS_VALUE, min_size=1, max_size=30))
    size = len(lambda1) * len(lambda2)
    rows = np.arange(0, size + 1, len(lambda2))
    shape = draw(st.sampled_from(["every point", "one per row", "random cuts"]))
    if shape == "every point":
        starts = np.arange(size + 1)
    elif shape == "one per row":
        starts = rows
    else:
        starts = np.union1d(rows, np.array(draw(st.lists(st.integers(0, size), max_size=40)), dtype=int))
    lengths = np.diff(starts)
    answers = itertools.cycle(draw(st.lists(_ANSWER, min_size=1, max_size=5)))
    columns = [np.array(column) for column in zip(*itertools.islice(answers, len(lengths)))]
    error = ["solver gave up" if c == 0 and k == 1 else None for c, k in zip(columns[1].tolist(), lengths.tolist())]
    grid = ct.PhaseGrid(q, lambda1, lambda2, starts, *columns, error)
    per_point = (np.repeat(column, lengths) for column in columns)
    every_point = ct.PhaseGrid(q, lambda1, lambda2, np.arange(size + 1), *per_point, grid.error)
    return grid, every_point


def ref_sweep_csv(grid):
    """The CSV `clocktree sweep` writes for `grid`, one f-string per cell."""
    l2_text = [format(l2, ".17g") for l2 in grid.lambda2]
    m = len(l2_text)
    answers = list(zip(grid.feasible.tolist(), grid.regime.tolist(), grid.n_nontrivial.tolist()))
    text = ["lambda1,lambda2,feasible,regime,n_nontrivial\n"]
    for i, t1 in enumerate(format(l1, ".17g") for l1 in grid.lambda1):
        row = zip(l2_text, answers[i * m : (i + 1) * m])
        cells = (f"{t1},{t2},{'true' if f else 'false'},{grid.regimes[c].value},{n}\n" for t2, (f, c, n) in row)
        text.append("".join(cells))
    return "".join(text)


@SETTINGS
@given(grids=_phase_grids())
def test_phase_grid_runs_read_as_every_point_a_run(grids):
    grid, every_point = grids
    points = list(every_point)
    assert len(grid) == len(every_point) == len(grid.lambda1) * len(grid.lambda2)
    assert [point_key(p) for p in grid] == [point_key(p) for p in points]
    assert [point_key(grid[i]) for i in range(-len(grid), len(grid))] == [point_key(p) for p in points + points]
    for sl in (slice(None), slice(3, None, 7), slice(None, None, -5), slice(-4, 1000)):
        assert [point_key(p) for p in grid[sl]] == [point_key(p) for p in points[sl]]
    for name in ("feasible", "regime", "n_nontrivial", "evidence"):
        got, want = getattr(grid, name), getattr(every_point, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert grid.error == every_point.error == [p.error for p in points]


@settings(SETTINGS, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(grids=_phase_grids())
def test_sweep_csv_matches_per_cell_reference(monkeypatch, tmp_path, grids):
    grid, every_point = grids
    for g in grids:
        monkeypatch.setattr(phase, "sweep", lambda **kwargs: g)
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--q", "4", "--res", str(len(grid.lambda1)), "--out", str(out)]) == 0
        assert out.read_bytes() == ref_sweep_csv(every_point).encode()


def _rows_of_runs(**change):
    """`PhaseGrid`'s arguments for a 2 x 3 grid of three runs, with some of them replaced."""
    args = dict(
        q=4, lambda1=[0.1, 0.2], lambda2=[0.0, 0.3, 0.6], starts=np.array([0, 3, 4, 6]),
        feasible=np.ones(3, dtype=bool), regime=np.full(3, 4), n_nontrivial=np.zeros(3, dtype=int),
        error=[None] * 3,
    )
    return {**args, **change}


def test_phase_grid_takes_well_formed_runs():
    grid = ct.PhaseGrid(**_rows_of_runs())
    assert len(grid) == 6 and grid.regime.tolist() == [4] * 6 and grid.error == [None] * 6


@pytest.mark.parametrize("change,message", [
    (dict(starts=np.array([1, 3, 4, 6])), "from 0 to the grid size 6"),
    (dict(starts=np.array([0, 3, 4, 5])), "from 0 to the grid size 6"),
    (dict(starts=np.array([0, 3, 4, 7])), "from 0 to the grid size 6"),
    (dict(starts=np.array([], dtype=int)), "from 0 to the grid size 6"),
    (dict(starts=np.array([0, 4, 3, 6])), "strictly increasing"),
    (dict(starts=np.array([0, 3, 3, 6])), "strictly increasing"),
    (dict(starts=np.array([0, 2, 4, 6])), "every lambda1 row"),
    (dict(starts=np.array([0, 6]), error=[None]), "every lambda1 row"),
    (dict(feasible=np.ones(6, dtype=bool)), "one entry per run, 3"),
    (dict(regime=np.full(2, 4)), "one entry per run, 3"),
    (dict(n_nontrivial=np.zeros(4, dtype=int)), "one entry per run, 3"),
    (dict(error=[None] * 6), "one entry per run, 3"),
], ids=["first-not-0", "ends-short", "ends-long", "empty", "decreasing", "repeated", "misses-row",
        "crosses-row", "feasible", "regime", "n_nontrivial", "error"])
def test_phase_grid_rejects_malformed_runs(change, message):
    with pytest.raises(ct.ClockTreeError, match=message):
        ct.PhaseGrid(**_rows_of_runs(**change))
