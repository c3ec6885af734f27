"""Command-line front end.

Subcommands wrap the library one-to-one and emit deterministic CSV (fixed
ordering, floats with 17 significant digits so re-parsing is lossless, LF
line endings) or a self-contained SVG for phase diagrams.  Exit codes:
0 success, 1 verified-infeasible input under --strict, 2 usage error,
3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import re
import sys
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import phase, recursion, spectral
from .errors import ClockTreeError, ContinuationLost
from .fixedpoint import (
    DegenerateQuartic,
    potts_boundary_laws,
    q4_solutions,
    q5_quartic_analysis,
    q5_quartic_coeffs,
    q5_solutions,
    quartic_invariants,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextlib.contextmanager
def _output(out_path: Optional[str]) -> Iterator[TextIO]:
    """The file at out_path, written with LF line endings, or standard output; only a failed open is a usage error."""
    if out_path:
        try:
            fh = open(out_path, "w", newline="\n")
        except OSError as exc:
            raise ClockTreeError(f"cannot write {out_path}: {exc.strerror or exc}") from None
        with fh:
            yield fh
    else:
        yield sys.stdout


def _emit(lines: Iterable[str], out_path: Optional[str]) -> None:
    with _output(out_path) as fh:
        fh.write("\n".join(lines) + "\n")


def _spec_from_args(args) -> spectral.TransferSpec:
    if getattr(args, "potts", False):
        if getattr(args, "theta", None) is not None:
            return spectral.make_potts_from_theta(args.q, args.theta)
        if getattr(args, "beta", None) is not None:
            return spectral.make_potts(args.q, args.beta)
        raise ClockTreeError("--potts requires --theta or --beta")
    if args.lambda1 is None or args.lambda2 is None:
        raise ClockTreeError("need --lambda1 and --lambda2 (or --potts with --theta/--beta)")
    return spectral.spec_from_lambdas(args.q, args.lambda1, args.lambda2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_matrix(args) -> int:
    spec = _spec_from_args(args)
    report = spectral.validate_non_increasing(spec)
    lines = ["index,lambda,r"]
    for j in range(spec.q):
        lines.append(f"{j},{_fmt(spec.eigenvalues[j])},{_fmt(spec.row[j])}")
    lines.append(f"feasible,{str(report.feasible).lower()},{report.violation or ''}")
    _emit(lines, args.out)
    if args.strict and not report.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_probe(args) -> int:
    spec = _spec_from_args(args)
    result = recursion.rpt_probe(
        spec,
        tree=recursion.Cayley(args.children),
        u=args.u,
        levels=args.levels,
        tol=args.tol,
    )
    # past the first repeated state the distances cycle, and so does their text
    dists = result.distances
    start, period = result.cycle or (len(dists), 0)
    text = [_fmt(d) for d in dists[: start + period]]
    text.extend(itertools.islice(itertools.cycle(text[start:]), len(dists) - start - period))
    lines = ["level,distance"]
    lines.extend(f"{level},{t}" for level, t in enumerate(text))
    lines.append(f"verdict,{result.verdict.value},levels,{result.levels_used},u,{_fmt(result.u)}")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.q == 4:
        sols = q4_solutions(args.lambda1, args.lambda2)
    elif args.q == 5:
        sols = q5_solutions(args.lambda1, args.lambda2)
    else:
        raise ClockTreeError(f"solve supports q in {{4, 5}}, got q={args.q}")
    lines = ["alpha1,alpha2,residual"]
    for (a1, a2), res in zip(sols.solutions, sols.residuals):
        lines.append(f"{_fmt(a1)},{_fmt(a2)},{_fmt(res)}")
    _emit(lines, args.out)
    return EXIT_OK


def _classify_row(lambda2: float) -> str:
    try:
        analysis = q5_quartic_analysis(lambda2)
    except DegenerateQuartic:
        return f"{_fmt(lambda2)},0,0,0,0,0,0,0,0,0,DEGENERATE_ZERO,"
    # the columns are those of the quartic itself, even where its invariants
    # or coefficients underflowed and the structure came from the quartic
    # divided by lambda2^2
    c = q5_quartic_coeffs(lambda2)
    try:
        invariants = quartic_invariants(c)
    except DegenerateQuartic:  # every coefficient underflowed to zero
        invariants = (0.0, 0.0, 0.0, 0.0)
    roots = ";".join(_fmt(r) for r, m in analysis.real_roots for _ in range(m))
    structure = analysis.structure.value
    if analysis.n_simple is not None:
        structure = f"{structure}({analysis.n_simple})"
    return ",".join(_fmt(x) for x in (lambda2, c.a, c.b, c.c, c.d, c.e, *invariants)) + f",{structure},{roots}"


def cmd_classify(args) -> int:
    header = "lambda2,a,b,c,d,e,Delta,P,D,Delta0,structure,roots"
    lines = [header]
    if args.scan:
        for l2 in _grid_from_range(args.scan):
            lines.append(_classify_row(l2))
    elif args.lambda2 is not None:
        lines.append(_classify_row(args.lambda2))
    else:
        raise ClockTreeError("classify needs --lambda2 or --scan lo:hi:step")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = phase.sweep(
        q=args.q,
        lambda1_range=(args.l1min, args.l1max),
        lambda2_range=(args.l2min, args.l2max),
        resolution=args.res,
        tree=recursion.Cayley(args.children),
    )
    if args.svg:
        svg = render_phase_svg(
            grid,
            (args.l1min, args.l1max),
            (args.l2min, args.l2max),
            q=args.q,
        )
        with _output(args.svg) as fh:
            fh.write(svg)
        if not args.out:
            return EXIT_OK
    # The grid holds its answers as runs of equal (feasible, regime,
    # n_nontrivial) that never cross a lambda1 row, so the writer reads the
    # runs, not the points.  Each axis value is formatted once (a memo keyed
    # by the float would merge -0.0 with 0.0, which print differently), each
    # distinct answer's "lambda2,feasible,regime,n_nontrivial" cells once for
    # the whole lambda2 axis, and a row joins its runs' slices of those cells
    # with "lambda1,": one join per run, then one for the row.
    m = len(grid.lambda2)
    col = grid.starts[:-1] % m
    end = col + np.diff(grid.starts)
    answers = list(zip(grid.run_feasible.tolist(), grid.run_regime.tolist(), grid.run_n_nontrivial.tolist()))
    l2_text = [_fmt(l2) for l2 in grid.lambda2]
    cells = {}
    for f, c, n in set(answers):
        tail = f"{'true' if f else 'false'},{grid.regimes[c].value},{n}\n"
        cells[f, c, n] = [f"{t2},{tail}" for t2 in l2_text]
    runs = list(zip(answers, col.tolist(), end.tolist()))
    bounds = np.flatnonzero(col == 0).tolist() + [len(runs)]
    # written one lambda1 row at a time, so the text of the whole grid is never held
    with _output(args.out) as fh:
        fh.write("lambda1,lambda2,feasible,regime,n_nontrivial\n")
        for t1, lo, hi in zip(map(_fmt, grid.lambda1), bounds, bounds[1:]):
            prefix = t1 + ","
            fh.write(prefix + prefix.join([prefix.join(cells[k][a:b]) for k, a, b in runs[lo:hi]]))
    return EXIT_OK


def cmd_potts(args) -> int:
    if args.bl is not None and args.jacobian is not None:
        raise ClockTreeError("--bl and --jacobian cannot be combined")
    if (args.bl is not None or args.jacobian is not None) and (args.q, args.degree) != (5, 2):
        raise ClockTreeError(f"--bl and --jacobian need --q 5 --degree 2, got --q {args.q} --degree {args.degree}")
    if args.jacobian is not None:
        profile = phase.jacobian_profile(_grid_from_range(args.jacobian))
        lines = ["lambda,det"]
        for lam, det in profile:
            lines.append(f"{_fmt(lam)},{_fmt(det)}")
        _emit(lines, args.out)
        return EXIT_OK
    if args.bl is not None:
        bl = potts_boundary_laws(5, args.bl)
        lines = ["branch,a,alpha1,alpha2,residual,sign_convention,mode_conversion"]
        if bl is None:
            lines.append(f"none,,,,,outside existence interval lambda={_fmt(args.bl)},")
        else:
            for branch, a, modes, res in (
                ("plus", bl.a_plus, bl.modes_plus, bl.residual_plus),
                ("minus", bl.a_minus, bl.modes_minus, bl.residual_minus),
            ):
                lines.append(
                    f"{branch},{_fmt(a)},{_fmt(modes[0])},{_fmt(modes[1])},{_fmt(res)},"
                    f"{bl.sign_convention},{bl.mode_conversion}"
                )
        _emit(lines, args.out)
        return EXIT_OK
    theta_cr, theta_rpt, lambda1 = phase.potts_thresholds(args.q, args.degree)
    lines = ["q,d,theta_cr,theta_rpt,lambda1"]
    lines.append(f"{args.q},{args.degree},{_fmt(theta_cr)},{_fmt(theta_rpt)},{_fmt(lambda1)}")
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG phase diagram (no plotting dependency: rectangles + polyline overlay)
# ---------------------------------------------------------------------------

_REGIME_COLORS = {
    phase.Regime.INFEASIBLE: "#d9d9d9",
    phase.Regime.NO_PT: "#f7f7f7",
    phase.Regime.PT_NOT_RPT: "#fdae61",
    phase.Regime.PT_AND_RPT: "#d7191c",
    phase.Regime.CRITICAL: "#2b83ba",
}

_VIEW_W, _VIEW_H = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 50


def render_phase_svg(
    grid: phase.PhaseGrid,
    lambda1_range: tuple[float, float],
    lambda2_range: tuple[float, float],
    q: int,
) -> str:
    """Phase diagram of a sweep's grid as one self-contained SVG 1.1 document.

    lambda2 runs along x, lambda1 along y; one rectangle per grid cell,
    coloured by the cell's regime, the critical line overlaid as a dashed
    polyline.
    """
    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B
    l1_lo, l1_hi = lambda1_range
    l2_lo, l2_hi = lambda2_range

    # a descending range keeps its sign, so its axis runs the other way
    def sx(l2: float) -> float:
        return _MARGIN_L + (l2 - l2_lo) / ((l2_hi - l2_lo) or 1e-300) * plot_w

    def sy(l1: float) -> float:
        return _MARGIN_T + (l1_hi - l1) / ((l1_hi - l1_lo) or 1e-300) * plot_h

    rows, cols = len(grid.lambda1), len(grid.lambda2)
    cell_w = plot_w / cols
    cell_h = plot_h / rows
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_VIEW_W}" '
        f'height="{_VIEW_H}" viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="#ffffff"/>',
    ]
    # row i of the grid (lambda1) is drawn bottom up, column j (lambda2) left to right
    x_text = [f"{_MARGIN_L + j * cell_w:.2f}" for j in range(cols)]
    y_text = [f"{_MARGIN_T + (rows - 1 - i) * cell_h:.2f}" for i in range(rows)]
    size = f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}"'
    colors = [_REGIME_COLORS[r] for r in grid.regimes]
    parts.extend(
        f'<rect x="{x}" y="{y}" {size} fill="{colors[c]}"/>'
        for (y, x), c in zip(itertools.product(y_text, x_text), grid.regime.tolist())
    )
    line_pts = _critical_polyline(q, l1_lo, l1_hi, l2_lo, l2_hi)
    if line_pts:
        path = " ".join(f"{sx(l2):.2f},{sy(l1):.2f}" for l1, l2 in line_pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="#000000" '
            'stroke-width="2" stroke-dasharray="8,5"/>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        l2v = l2_lo + frac * (l2_hi - l2_lo)
        l1v = l1_lo + frac * (l1_hi - l1_lo)
        parts.append(
            f'<text x="{sx(l2v):.1f}" y="{_VIEW_H - _MARGIN_B + 20}" font-size="13" '
            f'text-anchor="middle">{l2v:.2f}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 10}" y="{sy(l1v) + 4:.1f}" font-size="13" '
            f'text-anchor="end">{l1v:.2f}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_VIEW_H - 12}" font-size="14" '
        'text-anchor="middle">lambda2</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">lambda1</text>'
    )
    legend_y = _MARGIN_T + 10
    for regime in (phase.Regime.NO_PT, phase.Regime.PT_NOT_RPT, phase.Regime.PT_AND_RPT,
                   phase.Regime.INFEASIBLE, phase.Regime.CRITICAL):
        parts.append(
            f'<rect x="{_VIEW_W - 180}" y="{legend_y}" width="14" height="14" '
            f'fill="{_REGIME_COLORS[regime]}" stroke="#000000" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{_VIEW_W - 160}" y="{legend_y + 12}" font-size="12">{regime.value}</text>'
        )
        legend_y += 20
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _critical_polyline(q, l1_lo, l1_hi, l2_lo, l2_hi) -> list[tuple[float, float]]:
    pts: list[tuple[float, float]] = []
    if q == 4:
        n = 200
        for i in range(n + 1):
            l2 = l2_lo + (l2_hi - l2_lo) * i / n
            if l2 <= 0.0:
                continue
            l1 = phase.q4_critical_line(l2)
            if min(l1_lo, l1_hi) <= l1 <= max(l1_lo, l1_hi):
                pts.append((l1, l2))
    elif q == 5:
        grid = [0.4 + 0.01 * i for i in range(11)]
        grid = [g for g in grid if min(l1_lo, l1_hi) <= g <= max(l1_lo, l1_hi)]
        for l1, l2c in phase.q5_transition_line(grid):
            if not math.isnan(l2c) and min(l2_lo, l2_hi) <= l2c <= max(l2_lo, l2_hi):
                pts.append((l1, l2c))
    return pts


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_range(spec: str) -> tuple[float, float, float]:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ClockTreeError(f"expected lo:hi:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ClockTreeError(f"lo, hi and step must be finite, got {spec!r}")
    if step <= 0 or hi < lo:
        raise ClockTreeError(f"invalid range {spec!r}")
    return lo, hi, step


# the most points a lo:hi:step range may have: 0:1:1e-6 and no finer
_MAX_RANGE_POINTS = 1_000_001


def _grid_from_range(spec: str) -> list[float]:
    """lo, lo+step, ... capped at hi, with hi always included.

    The number of points is known before any is made; a range of more than
    _MAX_RANGE_POINTS points, or of a number that overflows, is a usage error.
    """
    lo, hi, step = _parse_range(spec)
    steps = (hi - lo) / step + 1e-9
    if not steps < _MAX_RANGE_POINTS:
        raise ClockTreeError(f"range {spec!r} has {steps + 1:.6g} points, more than {_MAX_RANGE_POINTS}")
    n = int(steps)
    count = n + 1 + (lo + n * step < hi - 1e-12)
    if count > _MAX_RANGE_POINTS:
        raise ClockTreeError(f"range {spec!r} has {count} points, more than {_MAX_RANGE_POINTS}")
    grid = [lo + i * step for i in range(n + 1)]
    if grid[-1] < hi - 1e-12:
        grid.append(hi)
    return grid


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads "-1e-3" as a negative number, not an option.

    argparse's own negative-number pattern has no exponent, so `--lambda2
    -1e-3` would fail with "expected one argument"; subparsers are built
    from the same class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _model_flags(lambdas_required: bool = False) -> list[tuple[str, dict]]:
    return [
        ("--q", dict(type=int, required=True, help="number of states")),
        ("--lambda1", dict(type=float, required=lambdas_required, help="second-largest eigenvalue")),
        ("--lambda2", dict(type=float, required=lambdas_required, help="third-largest eigenvalue")),
        ("--out", dict(type=str, default=None, help="output file (default stdout)")),
    ]


# each subcommand: its add_parser keywords, its function, and its add_argument calls
_COMMANDS = {
    "matrix": (
        dict(help="eigenvalues, row, and feasibility of a transfer matrix"),
        cmd_matrix,
        _model_flags() + [
            ("--potts", dict(action="store_true", help="build the Potts row instead")),
            ("--theta", dict(type=float, default=None, help="Potts theta = e^beta")),
            ("--beta", dict(type=float, default=None, help="Potts inverse temperature")),
            ("--strict", dict(action="store_true", help="exit 1 when the matrix is not non-increasing")),
        ],
    ),
    "probe": (
        dict(help="iterate the boundary-condition recursion and classify"),
        cmd_probe,
        _model_flags(lambdas_required=True) + [
            ("--u", dict(type=float, default=1.0, help="boundary coupling weakening in (0, 1]")),
            ("--levels", dict(type=int, default=400, help="recursion depth")),
            ("--tol", dict(type=float, default=1e-12, help="verdict tolerance (default 1e-12)")),
            ("--children", dict(type=int, default=2, help="Cayley children per vertex")),
        ],
    ),
    "solve": (
        dict(help="all symmetric fixed points at one parameter point"),
        cmd_solve,
        _model_flags(lambdas_required=True),
    ),
    "classify": (
        dict(help="quartic coefficients, invariants, and root structure"),
        cmd_classify,
        [
            ("--lambda2", dict(type=float, default=None)),
            ("--scan", dict(type=str, default=None, help="lo:hi:step scan over lambda2")),
            ("--out", dict(type=str, default=None)),
        ],
    ),
    "sweep": (
        dict(
            help="classify a (lambda1, lambda2) grid; CSV or SVG",
            description="Classify a grid of eigenvalue pairs.  A point that fails "
            "exceptionally is recorded as CRITICAL in its row; the sweep itself "
            "exits 0.",
        ),
        cmd_sweep,
        [
            ("--q", dict(type=int, required=True)),
            ("--res", dict(type=int, required=True, help="grid resolution per axis")),
            ("--l1min", dict(type=float, default=0.0)),
            ("--l1max", dict(type=float, default=0.6)),
            ("--l2min", dict(type=float, default=0.0)),
            ("--l2max", dict(type=float, default=0.6)),
            ("--children", dict(type=int, default=2)),
            ("--svg", dict(type=str, default=None, help="write an SVG phase diagram here")),
            ("--out", dict(type=str, default=None)),
        ],
    ),
    "potts": (
        dict(help="Potts thresholds, Jacobian profile, boundary laws"),
        cmd_potts,
        [
            ("--q", dict(type=int, required=True)),
            ("--degree", dict(type=int, default=2, help="Cayley tree degree d")),
            ("--jacobian", dict(type=str, default=None, help="lo:hi:step profile of det(J) at the lower branch")),
            ("--bl", dict(type=float, default=None, help="boundary-law pair at lambda1 = lambda2 = LAM")),
            ("--out", dict(type=str, default=None)),
        ],
    ),
}


@functools.cache
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser, built once per process for each `command`.

    With no command it holds every subcommand of `_COMMANDS`.  With a
    command it holds only that one, and `main` uses it when argv[0] names
    the command, so a call builds one subcommand, not six.  Its help and
    usage errors are the full parser's, byte for byte: the command list in
    the top-level usage line is given as the metavar.  argparse writes what
    it parses only into the namespace it returns, so one parser serves
    every `main` call of a process.
    """
    parser = _Parser(
        prog="clocktree",
        description="Phase transitions of generalized q-state clock models on trees.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        kwargs, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, **kwargs)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _validate_numeric(args)
        return args.func(args)
    except ContinuationLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ClockTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _validate_numeric(args) -> None:
    for name in ("lambda1", "lambda2", "u", "tol", "theta", "beta", "bl"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ClockTreeError(f"--{name} must be finite, got {value!r}")
    tol = getattr(args, "tol", None)
    if tol is not None and tol <= 0.0:
        raise ClockTreeError(f"--tol must be positive, got {tol!r}")
    u = getattr(args, "u", None)
    if u is not None and not (0.0 < u <= 1.0):
        raise ClockTreeError(f"--u must lie in (0, 1], got {u!r}")
    levels = getattr(args, "levels", None)
    if levels is not None and levels < 1:
        raise ClockTreeError(f"--levels must be >= 1, got {levels}")
    res = getattr(args, "res", None)
    if res is not None and res < 1:
        raise ClockTreeError(f"--res must be >= 1, got {res}")


if __name__ == "__main__":
    sys.exit(main())
