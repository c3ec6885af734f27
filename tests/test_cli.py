"""CLI: flags, CSV schemas, determinism, SVG well-formedness, exit codes."""
import contextlib
import io
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import clocktree
from clocktree import cli
from clocktree.cli import build_parser, main


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
    ("classify", "--lambda2=1.5e12"),
    ("classify", "--lambda2=1e13"),
    ("classify", "--lambda2=-1e13"),
    ("classify", "--lambda2=1e20"),
    ("classify", "--lambda2=1e50"),
    ("classify", "--lambda2=-1e300"),
    ("classify", "--scan", "1e49:1e51:1e50"),
]


@pytest.mark.parametrize("argv", HUGE_LAMBDA2_ARGV, ids=[" ".join(a[1:]) for a in HUGE_LAMBDA2_ARGV])
def test_classify_lambda2_past_the_invariants_overflow_is_usage_error(capsys, argv):
    # the discriminant's terms have degree 24 in lambda2, and they or the sum
    # of their magnitudes overflow from |lambda2| of about 1.495e12: one error
    # line, no CSV, no RuntimeWarning
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
    build_parser("sweep")
    tracemalloc.start()
    try:
        assert main(["sweep", "--q", str(q), "--res", "1000", "--out", str(tmp_path / "grid.csv")]) == 0
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
def test_a_failed_write_is_not_a_usage_error(capsys):
    # only opening the output is a usage error; a write that fails later is not
    with pytest.raises(OSError):
        main(["matrix", "--q", "4", "--lambda1", "0.3", "--lambda2", "0.1", "--out", "/dev/full"])


def test_usage_errors(capsys):
    assert main(["matrix"]) == 2  # missing --q
    assert main(["probe", "--q", "4", "--lambda1", "0.5", "--lambda2", "0.3", "--u", "1.5"]) == 2
    assert main(["classify", "--scan", "bogus"]) == 2
    assert main(["classify"]) == 2
    assert main(["solve", "--q", "6", "--lambda1", "0.5", "--lambda2", "0.3"]) == 2


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
    monkeypatch.setattr(cli.phase, "jacobian_profile", no_points)
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
    # the sextic's coefficients overflow here; numpy must not print RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "solve", "--q", "5", "--lambda1", "0.3", "--lambda2", "1e200")
    assert (code, out) == (0, "alpha1,alpha2,residual\n0,0,nan\n")
    assert capsys.readouterr().err == ""


def test_solve_q4_tiny_lambda2(capsys):
    code, out = run_cli(capsys, "solve", "--q", "4", "--lambda1", "0.1", "--lambda2", "1e-200")
    assert code == 0
    assert out == "alpha1,alpha2,residual\n0,0,0\n"


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


def test_sweep_unsupported_tree_is_usage_error(capsys):
    assert main(["sweep", "--q", "4", "--res", "2", "--children", "3"]) == 2
    assert main(["sweep", "--q", "5", "--res", "2", "--children", "3"]) == 2


def test_sweep_q5_negative_lambda2_has_no_failed_rows(capsys):
    code, out = run_cli(
        capsys, "sweep", "--q", "5", "--res", "4", "--l1min", "0.3", "--l1max", "0.6",
        "--l2min", "-0.2", "--l2max", "-0.05",
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 16
    assert not [r for r in rows if ",false,CRITICAL," in r]
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
    ("potts", "--q", "5", "--bl", "-4e-1"),
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
    # main parses with the named command's parser alone; its help, usage
    # errors and exit codes are the full parser's, byte for byte
    one, full = build_parser(argv[0]), build_parser()
    code, out, err = _parsed(full, argv)
    assert code == (0 if "--help" in argv else 2)
    assert _parsed(one, argv) == (code, out, err)
    assert (main(argv), *capsys.readouterr()) == (code, out, err)


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
for argv in argvs:
    cli.build_parser().parse_args(argv)
before = set(sys.modules)
codes = [cli.main(argv) for argv in argvs]
phase.q5_transition_line([0.45, 0.5])
print(codes, sorted(set(sys.modules) - before))
"""


def test_commands_import_nothing_after_the_cli_is_imported():
    # The benchmark times one command per process, so a module a command
    # imports on its first call (numpy.ma, for one, behind np.unique) is paid
    # on every run.  argparse's own lazy imports are loaded by a parse first.
    env = {**os.environ, "PYTHONPATH": str(Path(clocktree.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", COLD_CALLS], env=env, capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[0, 0, 0, 0] []\n"
