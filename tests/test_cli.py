"""CLI: flags, CSV schemas, determinism, SVG well-formedness, exit codes."""
import contextlib
import errno
import io
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clocktree
from clocktree import cli, potts
from clocktree.cli import build_parser, main
from conftest import random_feasible_lambdas


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_matrix_q4(capsys):
    code, out = run_cli(capsys, "matrix", "--q", "4", "--lambda1", "0.5", "--lambda2", "0.333333")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,lambda,r"
    rows = [l.split(",") for l in lines[1:5]]
    l2 = 0.333333
    expected = [(1 + 2 * 0.5 + l2) / 4, (1 - l2) / 4, (1 - 2 * 0.5 + l2) / 4, (1 - l2) / 4]
    for (idx, lam, r), exp in zip(rows, expected):
        assert abs(float(r) - exp) < 1e-12
    assert lines[5].startswith("feasible,true")


def test_matrix_potts_theta(capsys):
    code, out = run_cli(capsys, "matrix", "--q", "5", "--potts", "--theta", "6")
    assert code == 0
    lines = out.strip().split("\n")
    lams = [float(l.split(",")[1]) for l in lines[1:6]]
    assert lams[0] == 1.0
    assert all(abs(l - 0.5) < 1e-14 for l in lams[1:])


def test_matrix_potts_theta_is_not_round_tripped_through_beta(capsys):
    # (theta - 1)/(theta + q - 1) = 2/7; theta = exp(log(3)) printed 0.28571428571428575
    code, out = run_cli(capsys, "matrix", "--q", "5", "--potts", "--theta", "3")
    assert code == 0
    assert [line.split(",")[1] for line in out.split("\n")[2:6]] == [repr(2 / 7)] * 4


def test_matrix_potts_beta_too_large_for_theta_is_usage_error(capsys):
    # e^1000 overflowed in math.exp: an OverflowError traceback and exit 1,
    # the code of "infeasible under --strict"
    code = main(["matrix", "--q", "5", "--potts", "--beta", "1000"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and "beta" in captured.err and captured.err.count("\n") == 1


def test_matrix_potts_beta_with_theta_underflowing_to_zero(capsys):
    # theta = e^-1000 is 0.0, and lambda = -1/(q - 1)
    code, out = run_cli(capsys, "matrix", "--q", "5", "--potts", "--beta", "-1000")
    assert code == 0
    assert out == (
        "index,lambda,r\n0,1,0\n1,-0.25,0.24999999999999997\n2,-0.25,0.25\n3,-0.25,0.25\n"
        "4,-0.25,0.24999999999999997\nfeasible,false,r0 < r1 (0.0 < 0.24999999999999997)\n"
    )


def test_matrix_infeasible_row_and_strict(capsys):
    code, out = run_cli(capsys, "matrix", "--q", "4", "--lambda1", "0.2", "--lambda2", "0.5")
    assert code == 0
    assert "feasible,false" in out
    code, _ = run_cli(
        capsys, "matrix", "--q", "4", "--lambda1", "0.2", "--lambda2", "0.5", "--strict"
    )
    assert code == 1


def test_probe_supercritical(capsys):
    code, out = run_cli(
        capsys, "probe", "--q", "4", "--lambda1", "0.55", "--lambda2", "0.3",
        "--u", "0.01", "--levels", "400",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "level,distance"
    final = lines[-1].split(",")
    assert final[0] == "verdict" and final[1] == "BOUNDED_AWAY"
    assert final[2] == "levels" and final[3] == "400"
    assert final[4] == "u" and abs(float(final[5]) - 0.01) < 1e-17


def test_probe_subcritical(capsys):
    code, out = run_cli(
        capsys, "probe", "--q", "4", "--lambda1", "0.45", "--lambda2", "0.3", "--u", "0.01"
    )
    assert code == 0
    assert "verdict,CONVERGES_TO_UNIFORM" in out


def test_probe_full_coupling_q5(capsys):
    code, out = run_cli(
        capsys, "probe", "--q", "5", "--lambda1", "0.5", "--lambda2", "0.45", "--u", "1"
    )
    assert code == 0
    assert "verdict,BOUNDED_AWAY" in out


def test_probe_leaf_layer_underflow_is_usage_error(capsys):
    # every entry of (M(., 0))^2000 underflows to zero; the leaf layer divided
    # 0 by 0, and the probe printed six nan rows, UNDECIDED and exit 0; then
    # the message printed the mass as numpy's scalar repr, np.float64(0.0)
    argv = ["probe", "--q", "4", "--lambda1", "0.3", "--lambda2", "0.1", "--children", "2000"]
    assert main(argv + ["--levels", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unnormalized mass 0.0 below 1e-300\n"


@pytest.mark.parametrize("levels", ["1000001", "100000000000"])
def test_probe_levels_above_a_million_is_usage_error(monkeypatch, capsys, levels):
    # 10^11 levels died in np.empty with a numpy traceback and exit 1, the
    # code of "infeasible under --strict"; the cap is checked before any probe
    def no_probe(*args, **kwargs):
        raise AssertionError("no probe should run")

    monkeypatch.setattr(cli.recursion, "rpt_probe", no_probe)
    argv = ["probe", "--q", "4", "--lambda1", "0.3", "--lambda2", "0.1", "--levels", levels]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --levels must lie in [1, 1000000], got {levels}\n"


def test_probe_a_million_levels_reaches_the_probe(monkeypatch, capsys):
    asked = []

    def record(spec, tree, u, levels, tol):
        asked.append(levels)
        raise clocktree.ClockTreeError("recorded")

    monkeypatch.setattr(cli.recursion, "rpt_probe", record)
    argv = ["probe", "--q", "4", "--lambda1", "0.3", "--lambda2", "0.1", "--levels", "1000000"]
    assert main(argv) == 2 and asked == [1_000_000]
    assert capsys.readouterr().err == "error: recorded\n"


@pytest.mark.parametrize("res", ["10001", "200000", "0", "-3"])
def test_sweep_res_outside_its_cap_is_usage_error(monkeypatch, capsys, res):
    # a sweep marks res^2 + 1 run starts, so --res 200000 would first ask for
    # 4e10 bytes; the cap is checked before the sweep runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("no sweep should run")

    monkeypatch.setattr(cli.phase, "sweep", no_sweep)
    assert main(["sweep", "--q", "4", "--res", res]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --res must lie in [1, 10000], got {res}\n"


def test_sweep_res_at_its_cap_reaches_the_sweep(monkeypatch, capsys):
    asked = []

    def record(q, lambda1_range, lambda2_range, resolution):
        asked.append(resolution)
        raise clocktree.ClockTreeError("recorded")

    monkeypatch.setattr(cli.phase, "sweep", record)
    assert main(["sweep", "--q", "4", "--res", "10000"]) == 2 and asked == [10_000]
    assert capsys.readouterr().err == "error: recorded\n"


def _per_level_probe_csv(result):
    """The probe CSV written one line per level, every distance formatted, no cycle replayed."""
    lines = ["level,distance"]
    for level, distance in enumerate(result.distances):
        lines.append(f"{level},{distance:.17g}")
    lines.append(f"verdict,{result.verdict.value},levels,{len(result.distances) - 1},u,{result.u:.17g}")
    return ("\n".join(lines) + "\n").encode()


# points whose probes fall into cycles of period 8, 3, 4 and 2 (the last with three children)
CYCLE_POINTS = ((5, 0.4, 0.05), (4, 0.55, 0.35), (4, 0.55, 0.2), (5, 0.3, 0.2))


@st.composite
def _probe_args(draw):
    seeded = st.tuples(st.sampled_from((4, 5)), st.integers(0, 2**32 - 1))
    point = draw(st.one_of(st.sampled_from(CYCLE_POINTS), seeded))
    if len(point) == 2:
        q, seed = point
        point = (q, *random_feasible_lambdas(np.random.default_rng(seed), q))
    u = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    return (*point, u, draw(st.integers(2, 4)), draw(st.integers(1, 600)))


@settings(max_examples=100, deadline=None)
@given(_probe_args())
@example((5, 0.4, 0.05, 1.0, 2, 171))  # period 8 from level 158, ends five levels into the replay
@example((5, 0.4, 0.05, 1.0, 2, 166))  # the first repeat is the last level
@example((5, 0.4, 0.05, 1.0, 2, 165))  # ends one level before the first repeat
@example((4, 0.55, 0.35, 1.0, 2, 399))  # period 3 from level 148, ends mid-cycle
@example((5, 0.3, 0.2, 1.0, 3, 400))  # period 2 from level 342
def test_probe_csv_is_the_per_level_writers_byte_for_byte(args):
    q, l1, l2, u, k, levels = args
    spec = clocktree.spec_from_lambdas(q, l1, l2)
    result = clocktree.rpt_probe(spec, clocktree.Cayley(k), u=u, levels=levels)
    argv = ["probe", "--q", str(q), f"--lambda1={l1!r}", f"--lambda2={l2!r}", f"--u={u!r}"]
    argv += ["--children", str(k), "--levels", str(levels)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "probe.csv")
        assert main(argv + ["--out", out]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == _per_level_probe_csv(result)


def test_solve_q4(capsys):
    code, out = run_cli(capsys, "solve", "--q", "4", "--lambda1", "0.5", "--lambda2", "0.4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha1,alpha2,residual"
    assert len(lines) == 4  # trivial + two branches
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0
    a1s = [float(l.split(",")[0]) for l in lines[2:]]
    assert a1s == sorted(a1s)
    assert abs(a1s[0] + 0.349927) < 1e-5 and abs(a1s[1] - 0.349927) < 1e-5


def test_solve_q5_below_threshold(capsys):
    code, out = run_cli(capsys, "solve", "--q", "5", "--lambda1", "0.5", "--lambda2", "0.3")
    assert code == 0
    assert len(out.strip().split("\n")) == 2  # header + trivial row


def test_solve_q5_potts_point(capsys):
    # trivial + the three symmetric boundary-law types
    code, out = run_cli(capsys, "solve", "--q", "5", "--lambda1", "0.5", "--lambda2", "0.5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    residuals = [float(l.split(",")[2]) for l in lines[1:]]
    assert max(residuals) < 1e-9


def test_classify_single(capsys):
    code, out = run_cli(capsys, "classify", "--lambda2", "0.45")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("lambda2,a,b,c,d,e,Delta,P,D,Delta0,structure,roots")
    fields = lines[1].split(",")
    assert fields[10] == "TWO_DISTINCT"
    roots = [float(r) for r in fields[11].split(";")]
    assert len(roots) == 2


def test_classify_degenerate(capsys):
    code, out = run_cli(capsys, "classify", "--lambda2", "0.0")
    assert code == 0
    assert "DEGENERATE_ZERO" in out


def test_classify_tiny_lambda2_is_not_degenerate(capsys):
    # every coefficient carries lambda2^2: the invariants underflow below
    # about 1e-26 and the coefficients below about 1e-162, yet the quartic
    # divided by lambda2^2 tends to a fixed quartic without real roots
    for text in ("1e-20", "1e-25", "1e-27", "1e-30", "1e-100", "1e-170", "1e-200", "5e-324",
                 "-1e-30", "-1e-200"):
        code, out = run_cli(capsys, "classify", f"--lambda2={text}")
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert fields[10:] == ["NO_REAL", ""], text
    # the coefficient columns stay those of the quartic itself
    code, out = run_cli(capsys, "classify", "--lambda2", "1e-30")
    fields = out.strip().split("\n")[1].split(",")
    assert fields[1:6] == ["6.2500000000000006e-59", "-6.3245553203367601e-59",
                           "1.4000000000000002e-58", "-5.0596442562694075e-59",
                           "8.0000000000000009e-60"]


def test_classify_row_lists_a_multiple_root_once_per_multiplicity(capsys, monkeypatch):
    # no lambda2 is known whose rounded quartic has a multiple real root, so
    # the row is fed (x-1)^2 (x+1)(x-2) = x^4 - 3x^3 + x^2 + 3x - 2
    from clocktree import quartic
    from clocktree.quartic import QuarticCoeffs, classify_quartic

    analysis = classify_quartic(QuarticCoeffs(1.0, -3.0, 1.0, 3.0, -2.0))
    monkeypatch.setattr(quartic, "q5_quartic_analysis", lambda lambda2: analysis)
    code, out = run_cli(capsys, "classify", "--lambda2", "0.3")
    assert code == 0
    fields = out.strip().split("\n")[1].split(",")
    assert fields[10:] == ["DOUBLE_ROOT_PLUS(2)", "-1;1;1;2"]


def test_classify_just_above_the_discriminant_roots(capsys):
    # 0.370749 lies about 1e-6 above the first root of Delta, 0.494119 about
    # 1.6e-9 above the second: two and four simple real roots
    for text, structure, n_roots in (("0.370749", "TWO_DISTINCT", 2), ("0.494119", "FOUR_DISTINCT", 4)):
        code, out = run_cli(capsys, "classify", "--lambda2", text)
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert float(fields[6]) < 0.0 if n_roots == 2 else float(fields[6]) > 0.0
        assert fields[10] == structure, (text, fields[10])
        assert len(fields[11].split(";")) == n_roots


def test_classify_scan_brackets_critical_values(capsys):
    code, out = run_cli(capsys, "classify", "--scan", "0.3:0.55:0.001")
    assert code == 0
    lines = out.strip().split("\n")[1:]
    l2s = [float(l.split(",")[0]) for l in lines]
    deltas = [float(l.split(",")[6]) for l in lines]
    flips = [
        (l2s[i], l2s[i + 1])
        for i in range(len(deltas) - 1)
        if deltas[i] * deltas[i + 1] < 0
    ]
    assert len(flips) == 2
    assert flips[0][0] <= 0.370748 <= flips[0][1] + 1e-12
    assert flips[1][0] <= 0.494119 <= flips[1][1] + 1e-12


HUGE_LAMBDA2_ARGV = [
    ("classify", "--lambda2=5.7e12"),
    ("classify", "--lambda2=1e13"),
    ("classify", "--lambda2=-1e13"),
    ("classify", "--lambda2=1e20"),
    ("classify", "--lambda2=1e50"),
    ("classify", "--lambda2=-1e300"),
    ("classify", "--scan", "1e49:1e51:1e50"),
]


@pytest.mark.parametrize("argv", HUGE_LAMBDA2_ARGV, ids=[" ".join(a[1:]) for a in HUGE_LAMBDA2_ARGV])
def test_classify_lambda2_past_the_invariants_overflow_is_usage_error(capsys, argv):
    # the discriminant has degree 24 in lambda2 and overflows from lambda2 of
    # about 5.6325e12 and -5.6329e12: one error line, no CSV, no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "lambda2" in captured.err


def test_classify_lambda2_below_the_invariants_overflow_is_answered(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "classify", "--lambda2=1.49e12")
    assert code == 0 and capsys.readouterr().err == ""
    assert out.split("\n")[1].split(",")[10] == "TWO_DISTINCT"


def test_sweep_csv_single_cell(capsys):
    code, out = run_cli(
        capsys, "sweep", "--q", "4", "--res", "1",
        "--l1min", "0.5", "--l1max", "0.5", "--l2min", "0.4", "--l2max", "0.4",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda1,lambda2,feasible,regime,n_nontrivial"
    assert len(lines) == 2
    assert lines[1].split(",")[3] == "PT_NOT_RPT"


def test_sweep_csv_deterministic(capsys):
    args = ("sweep", "--q", "4", "--res", "12")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    assert "INFEASIBLE" in out1


def test_sweep_svg(tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    code, _ = run_cli(
        capsys, "sweep", "--q", "4", "--res", "24", "--svg", str(svg_path)
    )
    assert code == 0
    text = svg_path.read_text()
    root = ET.fromstring(text)  # well-formed XML
    assert root.tag.endswith("svg")
    assert "polyline" in text and "stroke-dasharray" in text
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")  # self-contained


@pytest.mark.parametrize("q", [4, 5])
def test_sweep_svg_and_out_write_both_files(tmp_path, capsys, q):
    args = ("sweep", "--q", str(q), "--res", "9")
    csv_only, both, svg_only = (tmp_path / name for name in ("csv_only.csv", "both.csv", "svg_only.svg"))
    assert run_cli(capsys, *args, "--out", str(csv_only)) == (0, "")
    assert run_cli(capsys, *args, "--svg", str(svg_only)) == (0, "")
    svg = tmp_path / "both.svg"
    assert run_cli(capsys, *args, "--svg", str(svg), "--out", str(both)) == (0, "")
    assert both.read_bytes() == csv_only.read_bytes()
    assert svg.read_bytes() == svg_only.read_bytes()


@pytest.mark.parametrize("q", [4, 5])
def test_sweep_csv_allocation_stays_with_the_runs(tmp_path, q):
    # a res-1000 grid has 10^6 points; the sweep holds its runs (a few
    # thousand) and one row of text, never a column or a string per point
    tracemalloc.start()
    try:
        assert main(["sweep", "--q", str(q), "--res", "1000", "--out", str(tmp_path / "grid.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# a fresh interpreter's sweep, with every collection of the garbage collector counted
_COUNT_COLLECTIONS = """
import gc, os, sys
from clocktree.cli import main
passes = []
gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(info["generation"]))
code = main(["sweep", "--q", sys.argv[1], "--res", sys.argv[2], "--out", os.devnull])
print(code, len(passes))
"""


@pytest.mark.parametrize("q, res", [(4, 200), (4, 1000), (5, 200), (5, 1000)])
def test_a_sweep_starts_no_garbage_collection(q, res):
    # the CSV writer keeps no object per run: with two lists of one tuple per
    # run it started a generation-1 collection in every sweep (about 1-2 ms
    # at res 200), and 2 of them plus 19 generation-0 ones at q = 4, res 1000
    env = {**os.environ, "PYTHONPATH": str(Path(clocktree.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_COLLECTIONS, str(q), str(res)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "0 0\n"


@pytest.mark.parametrize("q", [4, 5])
def test_sweep_svg_allocation_stays_with_the_runs(tmp_path, q):
    # the phase diagram of a res-1000 grid is one rect per run, under the
    # CSV's bound (259.8 MiB when it held one rect string per grid point)
    tracemalloc.start()
    try:
        assert main(["sweep", "--q", str(q), "--res", "1000", "--svg", str(tmp_path / "grid.svg")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _svg_coordinates(path):
    """(xs, ys) of every rectangle corner, text anchor and polyline vertex, and the polyline's vertices."""
    root = ET.fromstring(path.read_text())
    xs, ys, line = [], [], []
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        if tag in ("rect", "text"):
            xs.append(float(el.get("x")))
            ys.append(float(el.get("y")))
        elif tag == "polyline":
            line = [tuple(map(float, pair.split(","))) for pair in el.get("points").split()]
            xs.extend(x for x, _ in line)
            ys.extend(y for _, y in line)
    return xs, ys, line


@pytest.mark.parametrize("q", [4, 5])
def test_sweep_svg_with_a_descending_range_mirrors_the_ascending_one(tmp_path, capsys, q):
    # the plot is 800 x 600 with margins (70, 20) left and (20, 50) top and
    # bottom, so lambda1 runs over y in [20, 550] and lambda2 over x in [70, 780]
    l2 = ("--l2min", "0.0", "--l2max", "0.6") if q == 4 else ("--l2min", "0.30", "--l2max", "0.56")
    l1 = ("0.0", "0.6") if q == 4 else ("0.40", "0.52")
    lines = {}
    for name, (lo, hi) in (("up", l1), ("down", l1[::-1])):
        path = tmp_path / f"{name}.svg"
        code, _ = run_cli(capsys, "sweep", "--q", str(q), "--res", "5", "--l1min", lo, "--l1max", hi,
                          *l2, "--svg", str(path))
        assert code == 0
        xs, ys, lines[name] = _svg_coordinates(path)
        assert all(0.0 <= x <= 800.0 for x in xs) and all(0.0 <= y <= 600.0 for y in ys)
    assert lines["up"] and len(lines["down"]) == len(lines["up"])
    for (x_up, y_up), (x_down, y_down) in zip(lines["up"], lines["down"]):
        assert x_down == x_up and y_down + y_up == pytest.approx(20.0 + 550.0, abs=0.011)


def test_potts_thresholds(capsys):
    code, out = run_cli(capsys, "potts", "--q", "5", "--degree", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,d,theta_cr,theta_rpt,lambda1"
    fields = lines[1].split(",")
    assert float(fields[2]) == 6.0 and float(fields[4]) == 0.5


def test_potts_jacobian_profile(capsys):
    code, out = run_cli(capsys, "potts", "--q", "5", "--degree", "2",
                        "--jacobian", "0.45:0.4999:0.005")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,det"
    dets = [abs(float(l.split(",")[1])) for l in lines[1:]]
    assert all(dets[i] > dets[i + 1] for i in range(len(dets) - 1))


def test_potts_jacobian_outside_the_lower_branch_is_usage_error(capsys):
    # a lambda the lower branch does not reach is a bad argument; it exited 3,
    # the code once meant for a solver that did not converge
    code = main(["potts", "--q", "5", "--degree", "2", "--jacobian", "0.1:0.2:0.05"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: lower branch exists for lambda in [4/9, 1/2), got 0.1\n"


def test_potts_boundary_laws(capsys):
    code, out = run_cli(capsys, "potts", "--q", "5", "--degree", "2", "--bl", "0.45")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "branch,a,alpha1,alpha2,residual,sign_convention,mode_conversion"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[4]) < 1e-9
        assert fields[5] in ("1-theta", "theta-1")


@pytest.mark.parametrize("lam", ["1", "1e308", "-1e308", "-0.25", "-4", "-10", "1.0000001", "1.5"])
def test_potts_bl_without_a_finite_boundary_law_is_usage_error(capsys, lam):
    # the first three were a ZeroDivisionError traceback and exit 1; outside
    # (-1/4, 1), where theta = e^beta is not positive, -0.25 printed the none
    # row and the others a verified pair
    code = main(["potts", "--q", "5", "--bl", lam])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_probe_of_a_huge_spectrum_names_the_negative_row_entry(capsys):
    # the row's rounding put 2.5e184 in an imaginary part, and the error
    # blamed the symmetric spectrum for it
    code = main(["probe", "--q", "5", "--lambda1", "1e200", "--lambda2", "1e200"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: row entry 1 = -2.000000e+199 below -1e-12\n"


POTTS_Q5_BINARY_ONLY_ARGV = [
    ("potts", "--q", "4", "--bl", "0.45"),
    ("potts", "--q", "7", "--degree", "3", "--bl", "0.45"),
    ("potts", "--q", "5", "--degree", "3", "--bl", "0.45"),
    ("potts", "--q", "4", "--jacobian", "0.45:0.46:0.01"),
    ("potts", "--q", "5", "--degree", "3", "--jacobian", "0.45:0.46:0.01"),
    ("potts", "--q", "5", "--bl", "0.45", "--jacobian", "0.45:0.46:0.01"),
]


@pytest.mark.parametrize("argv", POTTS_Q5_BINARY_ONLY_ARGV, ids=[" ".join(a[1:]) for a in POTTS_Q5_BINARY_ONLY_ARGV])
def test_potts_bl_and_jacobian_are_q5_on_the_binary_tree_only(capsys, argv):
    # both are computed for q = 5 on the binary tree; they printed q = 5's
    # numbers whatever --q and --degree said, and --bl was dropped beside --jacobian
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


UNWRITABLE_ARGV = [
    ("sweep", "--q", "4", "--res", "2", "--out"),
    ("sweep", "--q", "4", "--res", "2", "--svg"),
    ("matrix", "--q", "4", "--lambda1", "0.3", "--lambda2", "0.1", "--out"),
]


@pytest.mark.parametrize("argv", UNWRITABLE_ARGV, ids=[" ".join(a[:1] + a[-1:]) for a in UNWRITABLE_ARGV])
def test_an_unwritable_output_path_is_usage_error(tmp_path, capsys, argv):
    # exit code 1 means verified-infeasible input; a path that cannot be
    # opened exited 1 with a traceback
    path = tmp_path / "missing" / "x.out"
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot write {path}: ") and captured.err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that fails every write")
def test_a_failed_write_or_close_is_usage_error(capsys):
    # a write that failed after the open printed a traceback and exited 1,
    # the code of an infeasible matrix under --strict.  The res-200 CSV fails
    # in a write; the smaller outputs fit the file's buffer and fail when it
    # is flushed on close
    full = "/dev/full"
    for argv in (
        ["sweep", "--q", "4", "--res", "200", "--out", full],
        ["sweep", "--q", "4", "--res", "20", "--out", full],
        ["sweep", "--q", "4", "--res", "20", "--svg", full],
        ["probe", "--q", "4", "--lambda1", "0.6", "--lambda2", "0.2", "--out", full],
        ["matrix", "--q", "4", "--lambda1", "0.3", "--lambda2", "0.1", "--out", full],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err == f"error: cannot write {full}: {os.strerror(errno.ENOSPC)}\n", argv


FULL_STDOUT_ARGV = [
    ("sweep", "--q", "4", "--res", "200"),
    ("sweep", "--q", "4", "--res", "20"),
    ("probe", "--q", "4", "--lambda1", "0.6", "--lambda2", "0.2", "--levels", "5"),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that fails every write")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", FULL_STDOUT_ARGV, ids=[" ".join(a[:5]) for a in FULL_STDOUT_ARGV])
def test_a_failed_write_to_stdout_is_usage_error(argv, unbuffered):
    # `clocktree sweep --q 4 --res 20 > /dev/full` printed an OSError
    # traceback and exited 1, the code of an infeasible matrix under --strict.
    # Unbuffered, every output fails in a write; buffered, the probe's few
    # lines fail in the flush after the command, and the interpreter's own
    # flush at exit must not raise again
    env = {**os.environ, "PYTHONPATH": str(Path(clocktree.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "clocktree", *argv], env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
    want = f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    assert (result.returncode, result.stderr) == (cli.EXIT_USAGE, want)


def test_usage_errors(capsys):
    assert main(["matrix"]) == 2  # missing --q
    assert main(["probe", "--q", "4", "--lambda1", "0.5", "--lambda2", "0.3", "--u", "1.5"]) == 2
    assert main(["classify", "--scan", "bogus"]) == 2
    assert main(["classify"]) == 2
    assert main(["solve", "--q", "6", "--lambda1", "0.5", "--lambda2", "0.3"]) == 2


DROPPED_FLAG_ARGV = [
    ("matrix", "--q", "5", "--potts", "--theta", "3", "--beta", "100"),
    ("matrix", "--q", "5", "--potts", "--theta", "3", "--lambda1", "0.9", "--lambda2", "0.9"),
    ("matrix", "--q", "5", "--potts", "--beta", "0.7", "--lambda1", "0.3"),
    ("matrix", "--q", "5", "--lambda1", "0.3", "--lambda2", "0.2", "--beta", "5"),
    ("matrix", "--q", "4", "--lambda1", "0.3", "--lambda2", "0.2", "--theta", "5"),
]


@pytest.mark.parametrize("argv", DROPPED_FLAG_ARGV, ids=[" ".join(a[3:]) for a in DROPPED_FLAG_ARGV])
def test_matrix_flags_it_would_ignore_are_usage_errors(capsys, argv):
    # each printed one row and exit 0, silently ignoring --beta or the lambdas
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


OVERFLOWING_ROW_ARGV = [
    ("matrix", "--q", "5", "--lambda1", "1e308", "--lambda2", "1e308"),
    ("probe", "--q", "4", "--lambda1", "1e308", "--lambda2", "1e308"),
]


@pytest.mark.parametrize("argv", OVERFLOWING_ROW_ARGV, ids=[a[0] for a in OVERFLOWING_ROW_ARGV])
def test_a_row_that_overflows_is_usage_error_without_warnings(capsys, argv):
    # numpy printed "overflow encountered in add", then the error named an
    # imaginary part of 2e292
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and "overflow" in captured.err and captured.err.count("\n") == 1


def test_sweep_axis_whose_span_overflows_is_usage_error(capsys):
    # the lambda2 column printed nan and inf, exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--q", "4", "--res", "3", "--l2min", "-1e308", "--l2max", "1e308"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and "lambda2" in captured.err and captured.err.count("\n") == 1


UNREACHED_USAGE_ERRORS = [
    (("matrix", "--q", "4", "--potts"), "--potts requires --theta or --beta"),
    (("matrix", "--q", "4"), "need --lambda1 and --lambda2 (or --potts with --theta/--beta)"),
    (("matrix", "--q", "4", "--lambda1", "0.3"), "need --lambda1 and --lambda2 (or --potts with --theta/--beta)"),
    (("classify", "--scan", "0.5:0.3:0.1"), "invalid range '0.5:0.3:0.1'"),
    (("solve", "--q", "4", "--lambda1", "nan", "--lambda2", "0.1"), "--lambda1 must be finite, got nan"),
    (("matrix", "--q", "5", "--lambda1=-inf", "--lambda2", "0.1"), "--lambda1 must be finite, got -inf"),
]


@pytest.mark.parametrize("argv, message", UNREACHED_USAGE_ERRORS, ids=[" ".join(a) for a, _ in UNREACHED_USAGE_ERRORS])
def test_usage_error_messages(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_sweep_non_finite_range_is_usage_error(capsys):
    for flag in ("--l1min", "--l1max", "--l2min", "--l2max"):
        for value in ("nan", "inf"):
            assert main(["sweep", "--q", "4", "--res", "3", flag, value]) == 2
            assert "finite" in capsys.readouterr().err


NON_FINITE_RANGE_ARGV = [
    ("classify", "--scan", "0:nan:0.1"),
    ("classify", "--scan", "0:inf:1"),
    ("classify", "--scan=-inf:0:1"),
    ("classify", "--scan", "0:1:nan"),
    ("potts", "--q", "5", "--jacobian", "0.45:nan:0.01"),
    ("potts", "--q", "5", "--jacobian", "nan:0.5:0.01"),
]


@pytest.mark.parametrize("argv", NON_FINITE_RANGE_ARGV, ids=[" ".join(a) for a in NON_FINITE_RANGE_ARGV])
def test_non_finite_scan_range_is_usage_error(capsys, argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("tol", ["-1", "0", "-0.0", "--tol=-1e-12"])
def test_probe_tol_must_be_positive(capsys, tol):
    # at tol = -1 this probe printed "50,0" and then "verdict,BOUNDED_AWAY"
    argv = ["probe", "--q", "4", "--lambda1", "0.1", "--lambda2", "0.05", "--levels", "50"]
    argv += [tol] if tol.startswith("--") else ["--tol", tol]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --tol must be positive")


@contextlib.contextmanager
def _address_space_headroom(nbytes):
    """Limit this process's address space to its current size plus nbytes, then restore the limit."""
    with open("/proc/self/status") as fh:
        size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


OVERSIZED_RANGE_ARGV = [
    ("classify", "--scan", "0:1:1e-320"),
    ("classify", "--scan", "0:1:1e-12"),
    ("classify", "--scan", "0:1.0000011:1e-6"),
    ("potts", "--q", "5", "--jacobian", "0.45:0.46:1e-320"),
]


@pytest.mark.parametrize("argv", OVERSIZED_RANGE_ARGV, ids=[" ".join(a) for a in OVERSIZED_RANGE_ARGV])
def test_a_range_of_too_many_points_is_usage_error(monkeypatch, capsys, argv):
    # the count is checked before any point is made: a 1e-12 step would ask for 10^12 floats
    def no_points(*args):
        raise AssertionError("no point of the range should be computed")

    monkeypatch.setattr(cli, "_classify_row", no_points)
    monkeypatch.setattr(potts, "jacobian_profile", no_points)
    with _address_space_headroom(256 << 20):  # a list of 10^12 floats fails fast instead
        code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "points" in captured.err and "1000001" in captured.err


def test_a_range_of_a_million_and_one_points_is_built():
    grid = cli._grid_from_range("0:1:1e-6")
    assert len(grid) == 1_000_001 and grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, abs=1e-12)


def test_solve_q5_huge_lambda2_writes_no_warnings(capsys):
    # the sextic's coefficients overflow here; numpy must not print
    # RuntimeWarnings, and the trivial solution is exact, so its residual is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "solve", "--q", "5", "--lambda1", "0.3", "--lambda2", "1e200")
    assert (code, out) == (0, "alpha1,alpha2,residual\n0,0,0\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "lambda1, lambda2, nontrivial",
    [
        ("6.125251463049679e+93", "4.05805268538676e-275", "9.0348935663119866e-48,0.5,0"),
        ("5.1879410162177566e+151", "-1.9313440645065008e-249", "9.8171965770051801e-77,0.5,3.0681834158110791e-92"),
    ],
    ids=["positive-lambda2", "negative-lambda2"],
)
def test_solve_lists_no_fixed_point_whose_residual_is_nan(capsys, lambda1, lambda2, nontrivial):
    # the mode map overflowed to inf/inf at a third candidate, whose nan
    # residual passed the check and was printed as a fixed point
    code, out = run_cli(capsys, "solve", "--q", "4", "--lambda1", lambda1, "--lambda2", lambda2)
    assert (code, out) == (0, f"alpha1,alpha2,residual\n0,0,0\n{nontrivial}\n")


def test_solve_q4_tiny_lambda2(capsys):
    code, out = run_cli(capsys, "solve", "--q", "4", "--lambda1", "0.1", "--lambda2", "1e-200")
    assert code == 0
    assert out == "alpha1,alpha2,residual\n0,0,0\n"


def test_solve_q4_tiny_lambda2_prints_the_nontrivial_pair(capsys):
    # it printed only the trivial point, with exit 0
    code, out = run_cli(capsys, "solve", "--q", "4", "--lambda1", "0.52", "--lambda2", "1e-20")
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 3 and rows[0] == [0.0, 0.0, 0.0]
    for a1, a2, res in rows[1:]:
        assert abs(abs(a1) - 0.19230769230769) < 1e-12 and abs(a2 - 0.01923076923077) < 1e-12 and res < 1e-15


@pytest.mark.parametrize("q", ["4", "5"])
def test_solve_refuses_a_row_that_overflows_as_matrix_does(capsys, q):
    # it printed the trivial point 0,0,0 and exited 0
    flags = ["--q", q, "--lambda1", "1e308", "--lambda2", "0.4"]
    assert main(["matrix", *flags]) == 2
    refusal = capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", *flags])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", refusal)
    assert refusal.startswith("error: the row of ") and refusal.endswith(" overflows the largest float\n")


def test_output_file_lf_endings(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, _ = run_cli(
        capsys, "matrix", "--q", "4", "--lambda1", "0.5", "--lambda2", "0.4",
        "--out", str(out_file),
    )
    assert code == 0
    raw = out_file.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_float_format_roundtrip(capsys):
    import clocktree as ct

    _, out = run_cli(capsys, "solve", "--q", "4", "--lambda1", "0.5", "--lambda2", "0.4")
    printed = [float(l.split(",")[0]) for l in out.strip().split("\n")[1:]]
    exact = [s[0] for s in ct.q4_solutions(0.5, 0.4).solutions]
    assert printed == exact  # 17 significant digits reparse losslessly


def test_sweep_children_is_usage_error(capsys):
    # the sweep classifies the binary tree only: --children, which took only 2, is gone
    for q in ("4", "5"):
        for children in ("2", "3"):
            assert main(["sweep", "--q", q, "--res", "2", "--children", children]) == 2
            assert "unrecognized arguments: --children" in capsys.readouterr().err


def test_sweep_q5_negative_lambda2_has_no_failed_rows(capsys):
    code, out = run_cli(
        capsys, "sweep", "--q", "5", "--res", "4", "--l1min", "0.3", "--l1max", "0.6",
        "--l2min", "-0.2", "--l2max", "-0.05",
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 16
    assert sum(",true," in r for r in rows) == 8


def test_solve_q5_negative_lambda2_at_half(capsys):
    code, out = run_cli(capsys, "solve", "--q", "5", "--lambda1", "0.5", "--lambda2", "-0.1")
    assert code == 0
    assert out.split("\n")[1] == "0,0,0"


NEGATIVE_EXPONENT_ARGV = [
    ("probe", "--q", "5", "--lambda1", "0.3", "--lambda2", "-1e-3", "--levels", "3"),
    ("classify", "--lambda2", "-1e-30"),
    ("sweep", "--q", "4", "--res", "2", "--l2min", "-1e-3", "--l1min", "-2.5E-1"),
    ("matrix", "--q", "5", "--lambda1", "0.3", "--lambda2", "-1.e-3"),
    ("solve", "--q", "5", "--lambda1", "0.5", "--lambda2", "-1E-1"),
    ("potts", "--q", "5", "--bl", "-2e-1"),
]


@pytest.mark.parametrize("argv", NEGATIVE_EXPONENT_ARGV, ids=[a[0] for a in NEGATIVE_EXPONENT_ARGV])
def test_negative_exponent_token_is_a_value(capsys, argv):
    # "--flag -1e-3" reads like "--flag=-1e-3", not like a second option
    code, out = run_cli(capsys, *argv)
    assert code == 0, capsys.readouterr().err
    joined = []
    for token in argv:
        if token[:1] == "-" and token[1:2] != "-" and joined:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert run_cli(capsys, *joined) == (0, out)


def test_negative_exponent_token_reaches_validation(capsys):
    argv = ["probe", "--q", "4", "--lambda1", "0.5", "--lambda2", "0.3", "--u", "-1e-3"]
    assert main(argv) == 2
    assert "--u must lie in (0, 1]" in capsys.readouterr().err


def test_one_process_answers_as_separate_processes_do(capsys):
    # the parser is built once per process: argparse writes what it parses
    # only into the namespace it returns, so a usage error leaves nothing behind
    assert build_parser() is build_parser()
    env = {**os.environ, "PYTHONPATH": str(Path(clocktree.__file__).parents[1])}
    codes = []
    for argv in (
        ["probe", "--lambda1", "0.5", "--lambda2", "0.3"],  # no --q
        ["probe", "--q", "4", "--lambda1", "0.55", "--lambda2", "0.35", "--levels", "40"],
        ["sweep", "--q", "4", "--res", "12"],
    ):
        separate = subprocess.run(
            [sys.executable, "-m", "clocktree", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        codes.append(main(argv))
        captured = capsys.readouterr()
        assert (codes[-1], captured.out, captured.err) == (separate.returncode, separate.stdout, separate.stderr)
    assert codes == [2, 0, 0]


def _parsed(parser, argv):
    """(exit code, stdout, stderr) of parser.parse_args(argv); code None when it parsed."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PARSER_ARGV = [
    *([name, "--help"] for name in cli._COMMANDS),
    *([name, "--bogus", "1"] for name in cli._COMMANDS),
    ["matrix", "--lambda1", "0.3"],
    ["probe", "--q", "4", "--lambda1", "0.5"],
    ["solve", "--lambda1", "0.5", "--lambda2", "0.3"],
    ["classify", "--lambda2"],
    ["sweep", "--q", "4"],
    ["potts", "--degree", "3"],
    ["sweep", "--q", "4", "--res", "3", "extra"],
]


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=[" ".join(a) for a in PARSER_ARGV])
def test_a_command_parser_answers_as_the_full_parser(capsys, argv):
    # the reader declines help and usage errors, so main answers them with
    # the full parser's help, usage errors and exit codes, byte for byte
    code, out, err = _parsed(build_parser(), argv)
    assert code == (0 if "--help" in argv else 2)
    assert cli._read_argv(argv) is None
    assert (main(argv), *capsys.readouterr()) == (code, out, err)


def test_every_command_option_is_one_the_reader_understands():
    # cli._read_argv reads these keys as argparse does; a choices= or nargs=
    # added to a command must fail here, not make the two paths diverge
    for name, (_, _, arguments) in cli._COMMANDS.items():
        for flag, options in arguments:
            assert flag.startswith("--") and flag[2:].isidentifier(), (name, flag)
            assert set(options) <= {"type", "default", "required", "action", "help"}, (name, flag)
            assert options.get("action", "store_true") == "store_true", (name, flag)
            # argparse converts a string default by the flag's type; the reader does not
            assert not isinstance(options.get("default"), str), (name, flag)


# values on which a hand-written reader and argparse could disagree
DIVERGING_VALUES = ["-1e-3", "-.5", "-0", "-inf", "nan", "", " 4", "4.0", "1_0", "-x", "0.5 ", "-1.e-3",
                    "-1\n", "-", "--", "4", "5", "2", "0.3", "-0.2", "1e400", "0.45:0.46:0.01", "x.csv"]


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = [flag for flag, _ in cli._COMMANDS[command][2]]
    odd = ["--", "-h", "--help", "--bogus", *(f[:-1] for f in flags), *(f + "=4" for f in flags)]
    # two values in three are integers, which every flag's type takes, so
    # that a good share of the command lines is read
    integer = st.sampled_from(["4", "5", "-0", "1_0", " 4", "-2"])
    value = st.one_of(st.sampled_from(DIVERGING_VALUES), integer, integer)
    pair = st.tuples(st.sampled_from(flags), value).map(list)
    single = st.one_of(st.sampled_from(flags), st.sampled_from(odd), value).map(lambda t: [t])
    argv = [command]
    if draw(st.integers(0, 3)):
        for flag, options in cli._COMMANDS[command][2]:
            if options.get("required"):
                argv += [flag, draw(st.sampled_from(["4", "5", "3"]))]
    for tokens in draw(st.lists(st.one_of(pair, pair, pair, pair, single), max_size=5)):
        argv += tokens
    return argv


def _attributes(namespace):
    """Each attribute's type and repr, so that -0.0 differs from 0.0 and nan equals nan."""
    return {name: (type(value), repr(value)) for name, value in vars(namespace).items()}


@settings(max_examples=500, deadline=None)
@given(_command_lines())
@example(["probe", "--q", "4", "--lambda1", "-1e-3", "--lambda2", "-.5", "--u", "-0", "--levels", "1_0"])
@example(["matrix", "--q", " 4", "--potts", "--theta", "nan", "--strict", "--potts", "--out", ""])
@example(["sweep", "--q", "4", "--res", "3", "--q", "5", "--l2min", "-1\n", "--l1max", "0.5 "])
def test_the_reader_answers_as_argparse_wherever_it_reads(argv):
    ours = cli._read_argv(argv)
    if ours is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            theirs = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}, which the reader read")
    assert _attributes(ours) == _attributes(theirs)


@pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["-h", "sweep"], ["swee", "--q", "4"]])
def test_main_without_a_command_answers_from_the_full_parser(capsys, argv):
    code, out, err = _parsed(build_parser(), argv)
    assert "{matrix,probe,solve,classify,sweep,potts}" in out + err
    assert (main(argv), *capsys.readouterr()) == (code, out, err)


COLD_CALLS = """
import os, sys
from clocktree import cli, phase
argvs = [
    ["sweep", "--q", "4", "--res", "20", "--out", os.devnull],
    ["sweep", "--q", "5", "--res", "20", "--out", os.devnull],
    ["probe", "--q", "4", "--lambda1", "0.55", "--lambda2", "0.35", "--levels", "40", "--out", os.devnull],
    ["solve", "--q", "5", "--lambda1", "0.45", "--lambda2", "0.4", "--out", os.devnull],
]
before = set(sys.modules)
codes = [cli.main(argv) for argv in argvs]
phase.q5_transition_line([0.45, 0.5])
print(codes, sorted(set(sys.modules) - before), cli.build_parser.cache_info().currsize)
"""


def test_commands_import_nothing_after_the_cli_is_imported():
    # The benchmark times one command per process, so a module a command
    # imports on its first call (numpy.ma, for one, behind np.unique) is paid
    # on every run.  A well-formed command builds no parser either, and so
    # loads none of argparse's own lazy imports.
    env = {**os.environ, "PYTHONPATH": str(Path(clocktree.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", COLD_CALLS], env=env, capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[0, 0, 0, 0] [] 0\n"


def test_the_cli_imports_neither_fractions_nor_decimal():
    # every command imports the cli, and decimal, which fractions imports,
    # costs about 1.7 ms and 0.3 MB of RSS in each process
    env = {**os.environ, "PYTHONPATH": str(Path(clocktree.__file__).parents[1])}
    code = (
        "import os, sys\n"
        "from clocktree import cli\n"
        "cli.main(['classify', '--scan', '0.3:0.5:0.01', '--out', os.devnull])\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # `clocktree sweep --q 4 --res 200 | head -2` printed a BrokenPipeError
    # traceback and exited 1, the code of an infeasible matrix under --strict
    env = {**os.environ, "PYTHONPATH": str(Path(clocktree.__file__).parents[1])}
    with subprocess.Popen(
        [sys.executable, "-m", "clocktree", "sweep", "--q", "4", "--res", "200"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"lambda1,lambda2,feasible,regime,n_nontrivial\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert (proc.returncode, stderr) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 141
