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
which the CLI's writer by runs of equal answers is checked on drawn grids,
and `ref_svg_cells` the phase SVG's rects drawn one per cell, against which
the SVG drawn one rect per run is checked.
"""
import itertools
import math
import xml.etree.ElementTree as ET
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree import phase
from clocktree.basis import SymmetricDist
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
from clocktree.phase import PhasePoint, Regime
from clocktree.recursion import mode_map
from clocktree.potts import q5_jacobian
from clocktree.spectral import spec_from_lambdas, validate_non_increasing
from clocktree.svg import _REGIME_COLORS, render_phase_svg

from conftest import point_column

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the per-point reference
# ---------------------------------------------------------------------------


def ref_feasible(q, lambda1, lambda2):
    try:
        spec = spec_from_lambdas(q, lambda1, lambda2)
    except ValueError:
        return False
    return validate_non_increasing(spec) is None


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
        if not res < RESIDUAL_TOL:  # a nan residual included
            rejected.append(f"{a}: residual {res:.3e}")
            continue
        accepted.append(a)
    ordered = [accepted[0]] + sorted(accepted[1:], key=lambda s: s[0])
    return SolutionSet(
        q=q,
        lambda1=lambda1,
        lambda2=lambda2,
        solutions=tuple(ordered),
        # the mode map fixes (0, 0) exactly, whatever it evaluates to there
        residuals=(0.0,) + tuple(ref_residual(q, lambda1, lambda2, s) for s in ordered[1:]),
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
            elif not residual[i, j] < RESIDUAL_TOL:
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
    # a root whose numerator -b -+ s cancels is taken as 2c / (-b +- s)
    low = 2.0 * c / (-b + s) if b < 0.0 else (-b - s) / (2.0 * a)
    high = 2.0 * c / (-b - s) if b > 0.0 else (-b + s) / (2.0 * a)
    return [low, high]


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
        return PhasePoint(4, lambda1, lambda2, Regime.INFEASIBLE, 0)
    n = ref_q4_solutions(lambda1, lambda2).n_nontrivial
    if lambda1 * 2.0 > 1.0:
        regime = Regime.PT_AND_RPT
    elif n >= 1:
        regime = Regime.PT_NOT_RPT
    else:
        regime = Regime.NO_PT
    return PhasePoint(4, lambda1, lambda2, regime, n)


# ---------------------------------------------------------------------------
# bit-level keys
# ---------------------------------------------------------------------------


def _bits(x):
    """float.hex tells -0.0 from 0.0 and prints every NaN alike."""
    return float(x).hex()


def point_key(p):
    return (p.q, _bits(p.lambda1), _bits(p.lambda2), p.regime, p.n_nontrivial)


def solution_key(s):
    return (
        s.q,
        tuple((_bits(a), _bits(b)) for a, b in s.solutions),
        tuple(_bits(r) for r in s.residuals),
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
    if not (math.isfinite(lambda1) and math.isfinite(lambda2)):
        with pytest.raises(ct.ClockTreeError, match="must be finite"):
            ct.q4_solutions(lambda1, lambda2)
        return
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


@pytest.mark.parametrize("exc", [
    ct.ClockTreeError("solver gave up"),
    np.linalg.LinAlgError("Array must not contain infs or NaNs"),
    TypeError("programming error"),
], ids=lambda exc: type(exc).__name__)
@pytest.mark.parametrize("q", [4, 5])
def test_a_solver_exception_propagates(monkeypatch, q, exc):
    # no answer stands for a failure: the solver's exception leaves the sweep
    # and the point as it was raised, whatever its type
    def raising(lambda1, lambda2):
        raise exc

    monkeypatch.setattr(phase, f"q{q}_solution_counts", raising)
    for call in (lambda: ct.sweep(q, (0.2, 0.48), (0.4, 0.4), resolution=2), lambda: ct.classify_point(q, 0.48, 0.4)):
        with pytest.raises(type(exc)) as info:
            call()
        assert info.value is exc


@pytest.mark.parametrize("q", [4, 5])
def test_no_solver_call_without_a_feasible_run_head(monkeypatch, q):
    # the solver counts fixed points of feasible points only: where no run
    # head is feasible it is not called, and the answers are those it would give
    calls = []
    solver = getattr(phase, f"q{q}_solution_counts")

    def counting(lambda1, lambda2):
        calls.append(len(lambda1))
        return solver(lambda1, lambda2)

    infeasible = (ct.classify_point(q, 0.2, 0.4), list(ct.sweep(q, (0.0, 0.1), (0.5, 0.6), resolution=5)))
    monkeypatch.setattr(phase, f"q{q}_solution_counts", counting)
    point, grid = ct.classify_point(q, 0.2, 0.4), list(ct.sweep(q, (0.0, 0.1), (0.5, 0.6), resolution=5))
    assert calls == []
    assert (point, grid) == infeasible
    assert {p.regime for p in (point, *grid)} == {Regime.INFEASIBLE}
    # a feasible point still reaches the solver, once and with its one row
    assert ct.classify_point(q, 0.48, 0.4).regime is not Regime.INFEASIBLE and calls == [1]


def test_phase_point_has_no_instance_dict():
    p = ct.classify_point(4, 0.5, 0.4)
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.n_nontrivial = 3


# ---------------------------------------------------------------------------
# the verifier, the columnar grid
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


def test_verify_candidates_walks_a_chain_of_near_candidates_in_slot_order():
    # Along the null direction of the Jacobian at a fixed point next to the
    # fold at lambda2 = 0.370748 the residual stays near 1e-12, so candidates
    # 0.9e-8 apart all pass.  One within DEDUP_TOL of a skipped candidate
    # but not of the accepted one before it is accepted, wherever the
    # skipped one sits among the slots
    l2 = 0.37075
    star, other = ct.q5_solutions(0.5, l2).nontrivial
    v = np.linalg.svd(q5_jacobian(0.5, l2, star)[0])[2][-1]
    chain = [np.array(star) + t * v / np.abs(v).max() for t in (0.0, 0.9e-8, 1.8e-8)]
    cands = np.array([chain + [np.array(other)], [chain[0], np.array(other), chain[1], chain[2]]])
    args = (5, 0.5, l2, cands[..., 0], cands[..., 1], True)
    status, residual = _verify_candidates(*args)
    want_status, want_residual = ref_verify_candidates(*args)
    a, s = _ACCEPTED, _SKIPPED
    assert status.tolist() == want_status.tolist() == [[a, s, a, a], [a, a, s, a]]
    assert residual.tobytes() == want_residual.tobytes()


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
Q5_FOUR = (np.linspace(0.40, 0.52, 12)[9], np.linspace(0.30, 0.56, 12)[7])


def test_a_solver_error_in_the_cli_sweep_is_reported_and_writes_no_csv(monkeypatch, capsys, tmp_path):
    # the window's 21 evaluated feasible points go to the solver in one call;
    # when it raises, that call is not retried and no row is written
    calls = []

    def raising(lambda1, lambda2):
        calls.append(len(lambda1))
        raise ct.ClockTreeError("solver gave up")

    monkeypatch.setattr(phase, "q5_solution_counts", raising)
    out = tmp_path / "grid.csv"
    argv = ["sweep", "--q", "5", "--res", "12", "--l1min", "0.40", "--l1max", "0.52",
            "--l2min", "0.30", "--l2max", "0.56", "--out", str(out)]
    assert main(argv) == 2
    assert calls == [21]
    assert capsys.readouterr() == ("", "error: solver gave up\n")
    assert not out.exists()


def test_phase_grid_is_a_lazy_sequence():
    grid = ct.sweep(5, *Q5_WINDOW, resolution=12)
    assert isinstance(grid, ct.PhaseGrid) and isinstance(grid, Sequence)
    assert len(grid) == 144
    points = list(grid)
    assert points == [ct.classify_point(5, p.lambda1, p.lambda2) for p in points]
    assert points[9 * 12 + 7] == PhasePoint(5, *Q5_FOUR, Regime.PT_NOT_RPT, 4)
    assert [grid[i] for i in range(-144, 144)] == points + points
    assert grid[np.int64(5)] == points[5]
    for sl in (slice(10, 14), slice(None, None, -7), slice(5, 2), slice(-3, None), slice(0, 1000)):
        assert grid[sl] == points[sl]
    for i in (144, -145):
        with pytest.raises(IndexError):
            grid[i]
    assert grid != points  # a sequence of points, not a list


# ---------------------------------------------------------------------------
# the sweep CSV against a writer that formats every cell
# ---------------------------------------------------------------------------


_AXIS_VALUE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
# (regime code, n_nontrivial) of a run
_ANSWER = st.tuples(st.integers(0, len(ct.PhaseGrid.regimes) - 1), st.integers(0, 6))


@st.composite
def _phase_grids(draw):
    """A grid built from a drawn run partition, and the same answers with every point a run of its own.

    The partition has every point its own run, one run per lambda1 row, or
    random cuts besides the row starts.  The runs' answers cycle through a
    few drawn ones, so that neighbouring runs often share an answer, as a
    sweep's runs do.  q is 4 or 5, as in a sweep.
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
    grid = ct.PhaseGrid(q, lambda1, lambda2, starts, *columns)
    per_point = (np.repeat(column, lengths) for column in columns)
    every_point = ct.PhaseGrid(q, lambda1, lambda2, np.arange(size + 1), *per_point)
    return grid, every_point


def ref_sweep_csv(grid):
    """The CSV `clocktree sweep` writes for `grid`, one f-string per cell."""
    l2_text = [format(l2, ".17g") for l2 in grid.lambda2]
    m = len(l2_text)
    columns = (grid.run_regime, grid.run_n_nontrivial)
    answers = list(zip(*(point_column(grid, runs).tolist() for runs in columns)))
    text = ["lambda1,lambda2,feasible,regime,n_nontrivial\n"]
    for i, t1 in enumerate(format(l1, ".17g") for l1 in grid.lambda1):
        row = zip(l2_text, answers[i * m : (i + 1) * m])
        cells = (
            f"{t1},{t2},{'false' if grid.regimes[c] is Regime.INFEASIBLE else 'true'},{grid.regimes[c].value},{n}\n"
            for t2, (c, n) in row
        )
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


@settings(SETTINGS, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(grids=_phase_grids())
def test_sweep_csv_matches_per_cell_reference(monkeypatch, tmp_path, grids):
    grid, every_point = grids
    for g in grids:
        monkeypatch.setattr(phase, "sweep", lambda **kwargs: g)
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--q", "4", "--res", str(len(grid.lambda1)), "--out", str(out)]) == 0
        assert out.read_bytes() == ref_sweep_csv(every_point).encode()


@settings(SETTINGS, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(grids=_phase_grids())
def test_sweep_csv_to_stdout_matches_per_cell_reference(monkeypatch, capsys, grids):
    grid, every_point = grids
    for g in grids:
        monkeypatch.setattr(phase, "sweep", lambda **kwargs: g)
        assert main(["sweep", "--q", "4", "--res", str(len(grid.lambda1))]) == 0
        assert capsys.readouterr() == (ref_sweep_csv(every_point), "")


# ---------------------------------------------------------------------------
# the phase SVG against the picture of its grid
# ---------------------------------------------------------------------------


def ref_svg_cells(grid):
    """The grid's `<rect>` lines as the SVG writer draws them one per cell: the top row first, each left to right."""
    rows, cols = len(grid.lambda1), len(grid.lambda2)
    cell_w, cell_h = 710 / cols, 530 / rows
    x_text = [f"{70 + j * cell_w:.2f}" for j in range(cols)]
    y_text = [f"{20 + (rows - 1 - i) * cell_h:.2f}" for i in range(rows)]
    size = f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}"'
    colors = [_REGIME_COLORS[r] for r in grid.regimes]
    regime = point_column(grid, grid.run_regime).reshape(rows, cols).tolist()
    return [
        f'<rect x="{x_text[j]}" y="{y_text[i]}" {size} fill="{colors[regime[i][j]]}"/>'
        for i in reversed(range(rows))
        for j in range(cols)
    ]


def painted_colors(svg, grid):
    """The fill of the last-drawn `<rect>` covering each cell's centre, in the grid's row-major order.

    Only the unstroked rects are read, the background and the grid's own:
    the frame and the legend boxes are stroked.  The plot spans x in
    [70, 780] and y in [20, 550], with the first lambda1 row at the bottom.
    Each rect is 0.5 taller and wider than its cells, so below a cell size
    of 1 it covers the centres of the next row down or the next cell right,
    which must be drawn after it.
    """
    rows, cols = len(grid.lambda1), len(grid.lambda2)
    cx = 70 + (np.arange(cols) + 0.5) * 710 / cols
    cy = 20 + (np.arange(rows) + 0.5) * 530 / rows  # from the top row down
    painted = np.full((rows, cols), None, dtype=object)
    for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect"):
        if el.get("stroke") is None:
            x, y, w, h = (float(el.get(k)) for k in ("x", "y", "width", "height"))
            # the centres in [y, y + h] and in [x, x + w]
            i0, i1 = np.searchsorted(cy, y), np.searchsorted(cy, y + h, "right")
            j0, j1 = np.searchsorted(cx, x), np.searchsorted(cx, x + w, "right")
            painted[i0:i1, j0:j1] = el.get("fill")
    return painted[::-1].ravel().tolist()


def regime_colors(grid):
    return [_REGIME_COLORS[grid.regimes[c]] for c in point_column(grid, grid.run_regime).tolist()]


# the grids of the SVG golden digests, then descending ranges: a descending
# lambda2 axis makes every point a run of its own, a descending lambda1 axis not
_SVG_GRIDS = [
    (4, (0.0, 0.6), (0.0, 0.6), 24),
    (5, (0.40, 0.52), (0.30, 0.56), 12),
    (4, (0.0, 0.6), (0.0, 0.6), 200),
    (4, (0.6, 0.0), (0.6, 0.0), 24),
    (5, (0.52, 0.40), (0.30, 0.56), 12),
]
_SVG_IDS = ["q4-res24", "q5-window", "q4-res200", "q4-descending", "q5-descending-lambda1"]


# and grids of more than 530 rows, whose cells are less than a pixel high, so
# that each row's rect reaches past the centres of the next row down
@pytest.mark.parametrize(
    "q,l1_range,l2_range,res",
    _SVG_GRIDS + [(4, (0.0, 0.6), (0.0, 0.6), 540), (5, (0.0, 0.6), (0.0, 0.6), 1000)],
    ids=_SVG_IDS + ["q4-res540", "q5-res1000"],
)
def test_phase_svg_paints_every_cell_in_its_regime_color(q, l1_range, l2_range, res):
    grid = ct.sweep(q, l1_range, l2_range, resolution=res)
    assert painted_colors(render_phase_svg(grid, l1_range, l2_range), grid) == regime_colors(grid)


@pytest.mark.parametrize("q,l1_range,l2_range,res", _SVG_GRIDS, ids=_SVG_IDS)
def test_phase_svg_draws_one_rect_per_run(q, l1_range, l2_range, res):
    grid = ct.sweep(q, l1_range, l2_range, resolution=res)
    lines = render_phase_svg(grid, l1_range, l2_range).split("\n")
    runs = len(grid.starts) - 1
    # besides the runs: the background, the frame and the 4 legend boxes
    assert sum(line.startswith("<rect ") for line in lines) == runs + 6
    # and the rest of the document is that of the same answers with every point a run
    columns = (point_column(grid, runs) for runs in (grid.run_regime, grid.run_n_nontrivial))
    every_point = ct.PhaseGrid(q, grid.lambda1, grid.lambda2, np.arange(len(grid) + 1), *columns)
    cells = render_phase_svg(every_point, l1_range, l2_range).split("\n")
    assert lines[:3] + lines[3 + runs :] == cells[:3] + cells[3 + len(grid) :]


@SETTINGS
@given(grids=_phase_grids())
def test_phase_svg_of_drawn_grids(grids):
    grid, every_point = grids
    # ranges away from the critical lines: the rects do not depend on them
    ranges = ((0.0, 0.1), (0.0, 0.1))
    assert painted_colors(render_phase_svg(grid, *ranges), grid) == regime_colors(grid)
    lines = render_phase_svg(every_point, *ranges).split("\n")
    assert lines[3 : 3 + len(grid)] == ref_svg_cells(every_point)


def _rows_of_runs(**change):
    """`PhaseGrid`'s arguments for a 2 x 3 grid of three runs, with some of them replaced."""
    args = dict(
        q=4, lambda1=[0.1, 0.2], lambda2=[0.0, 0.3, 0.6], starts=np.array([0, 3, 4, 6]),
        regime=np.full(3, 3), n_nontrivial=np.zeros(3, dtype=int),
    )
    return {**args, **change}


def test_phase_grid_takes_well_formed_runs():
    grid = ct.PhaseGrid(**_rows_of_runs())
    assert len(grid) == 6 and point_column(grid, grid.run_regime).tolist() == [3] * 6


@pytest.mark.parametrize("change,message", [
    (dict(starts=np.array([1, 3, 4, 6])), "from 0 to the grid size 6"),
    (dict(starts=np.array([0, 3, 4, 5])), "from 0 to the grid size 6"),
    (dict(starts=np.array([0, 3, 4, 7])), "from 0 to the grid size 6"),
    (dict(starts=np.array([], dtype=int)), "from 0 to the grid size 6"),
    (dict(starts=np.array([0, 4, 3, 6])), "strictly increasing"),
    (dict(starts=np.array([0, 3, 3, 6])), "strictly increasing"),
    (dict(starts=np.array([0, 2, 4, 6])), "every lambda1 row"),
    (dict(starts=np.array([0, 6])), "every lambda1 row"),
    (dict(regime=np.full(2, 3)), "one entry per run, 3"),
    (dict(n_nontrivial=np.zeros(4, dtype=int)), "one entry per run, 3"),
], ids=["first-not-0", "ends-short", "ends-long", "empty", "decreasing", "repeated", "misses-row",
        "crosses-row", "regime", "n_nontrivial"])
def test_phase_grid_rejects_malformed_runs(change, message):
    with pytest.raises(ct.ClockTreeError, match=message):
        ct.PhaseGrid(**_rows_of_runs(**change))


_NO_RUNS = dict(starts=np.array([0]), regime=np.zeros(0, dtype=int), n_nontrivial=np.zeros(0, dtype=int))


@pytest.mark.parametrize("lambda1", [[0.1], [0.1, 0.2], []], ids=["one-row", "two-rows", "no-rows"])
def test_phase_grid_rejects_an_empty_lambda2_axis(lambda1):
    # a row with no points has no start; the grid names the empty axis (and
    # computes no start modulo 0)
    with pytest.raises(ct.ClockTreeError, match="the lambda2 axis is empty"):
        ct.PhaseGrid(q=4, lambda1=lambda1, lambda2=[], **_NO_RUNS)


def test_phase_grid_takes_a_grid_of_no_rows():
    grid = ct.PhaseGrid(q=4, lambda1=[], lambda2=[0.0, 0.3], **_NO_RUNS)
    assert len(grid) == 0 and list(grid) == [] and grid[:] == []
    assert point_column(grid, grid.run_regime).tolist() == []
