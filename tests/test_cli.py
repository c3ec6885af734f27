"""CLI: flags, CSV schemas, determinism, SVG well-formedness, exit codes."""
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from clocktree.cli import main


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
