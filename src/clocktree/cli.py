"""Command-line front end.

Subcommands wrap the library one-to-one and emit deterministic CSV (fixed
ordering, floats with 17 significant digits so re-parsing is lossless, LF
line endings) or a self-contained SVG for phase diagrams.  Exit codes:
0 success, 1 verified-infeasible input under --strict, 2 usage error,
3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import Iterable, Optional, Sequence

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


def _emit(lines: Iterable[str], out_path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    points = phase.sweep(
        q=args.q,
        lambda1_range=(args.l1min, args.l1max),
        lambda2_range=(args.l2min, args.l2max),
        resolution=args.res,
        tree=recursion.Cayley(args.children),
    )
    if args.svg:
        svg = render_phase_svg(
            points,
            args.res,
            (args.l1min, args.l1max),
            (args.l2min, args.l2max),
            q=args.q,
        )
        with open(args.svg, "w", newline="\n") as fh:
            fh.write(svg)
        return EXIT_OK
    # the grid is row-major, so each axis value is formatted once; a memo
    # keyed by the float would merge -0.0 with 0.0, which print differently
    res = args.res
    l1_text = [_fmt(points[i * res].lambda1) for i in range(res)]
    l2_text = [_fmt(points[j].lambda2) for j in range(res)]
    lines = ["lambda1,lambda2,feasible,regime,n_nontrivial"]
    for (t1, t2), p in zip(itertools.product(l1_text, l2_text), points):
        lines.append(f"{t1},{t2},{'true' if p.feasible else 'false'},{p.regime.value},{p.n_nontrivial}")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_potts(args) -> int:
    if args.jacobian:
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
    points: Sequence[phase.PhasePoint],
    resolution: int,
    lambda1_range: tuple[float, float],
    lambda2_range: tuple[float, float],
    q: int,
) -> str:
    """Phase diagram as one self-contained SVG 1.1 document.

    lambda2 runs along x, lambda1 along y; one rectangle per grid cell,
    the critical line overlaid as a dashed polyline.
    """
    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B
    l1_lo, l1_hi = lambda1_range
    l2_lo, l2_hi = lambda2_range

    def sx(l2: float) -> float:
        return _MARGIN_L + (l2 - l2_lo) / max(l2_hi - l2_lo, 1e-300) * plot_w

    def sy(l1: float) -> float:
        return _MARGIN_T + (l1_hi - l1) / max(l1_hi - l1_lo, 1e-300) * plot_h

    cell_w = plot_w / resolution
    cell_h = plot_h / resolution
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_VIEW_W}" '
        f'height="{_VIEW_H}" viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="#ffffff"/>',
    ]
    for idx, p in enumerate(points):
        i, j = divmod(idx, resolution)  # i indexes lambda1, j lambda2
        x = _MARGIN_L + j * cell_w
        y = _MARGIN_T + (resolution - 1 - i) * cell_h
        color = _REGIME_COLORS[p.regime]
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.5:.2f}" '
            f'height="{cell_h + 0.5:.2f}" fill="{color}"/>'
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
            if l1_lo <= l1 <= l1_hi:
                pts.append((l1, l2))
    elif q == 5:
        grid = [0.4 + 0.01 * i for i in range(11)]
        grid = [g for g in grid if l1_lo <= g <= l1_hi]
        for l1, l2c in phase.q5_transition_line(grid):
            if not math.isnan(l2c) and l2_lo <= l2c <= l2_hi:
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
    if step <= 0 or hi < lo:
        raise ClockTreeError(f"invalid range {spec!r}")
    return lo, hi, step


def _grid_from_range(spec: str) -> list[float]:
    """lo, lo+step, ... capped at hi, with hi always included."""
    lo, hi, step = _parse_range(spec)
    n = int(math.floor((hi - lo) / step + 1e-9))
    grid = [lo + i * step for i in range(n + 1)]
    if grid[-1] < hi - 1e-12:
        grid.append(hi)
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clocktree",
        description="Phase transitions of generalized q-state clock models on trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, lambdas_required=False):
        p.add_argument("--q", type=int, required=True, help="number of states")
        p.add_argument("--lambda1", type=float, required=lambdas_required,
                       help="second-largest eigenvalue")
        p.add_argument("--lambda2", type=float, required=lambdas_required,
                       help="third-largest eigenvalue")
        p.add_argument("--out", type=str, default=None, help="output file (default stdout)")

    p = sub.add_parser("matrix", help="eigenvalues, row, and feasibility of a transfer matrix")
    add_model_flags(p)
    p.add_argument("--potts", action="store_true", help="build the Potts row instead")
    p.add_argument("--theta", type=float, default=None, help="Potts theta = e^beta")
    p.add_argument("--beta", type=float, default=None, help="Potts inverse temperature")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the matrix is not non-increasing")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("probe", help="iterate the boundary-condition recursion and classify")
    add_model_flags(p, lambdas_required=True)
    p.add_argument("--u", type=float, default=1.0, help="boundary coupling weakening in (0, 1]")
    p.add_argument("--levels", type=int, default=400, help="recursion depth")
    p.add_argument("--tol", type=float, default=1e-12, help="verdict tolerance (default 1e-12)")
    p.add_argument("--children", type=int, default=2, help="Cayley children per vertex")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("solve", help="all symmetric fixed points at one parameter point")
    add_model_flags(p, lambdas_required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="quartic coefficients, invariants, and root structure")
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--scan", type=str, default=None, help="lo:hi:step scan over lambda2")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "sweep",
        help="classify a (lambda1, lambda2) grid; CSV or SVG",
        description="Classify a grid of eigenvalue pairs.  A point that fails "
        "exceptionally is recorded as CRITICAL in its row; the sweep itself "
        "exits 0.",
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--res", type=int, required=True, help="grid resolution per axis")
    p.add_argument("--l1min", type=float, default=0.0)
    p.add_argument("--l1max", type=float, default=0.6)
    p.add_argument("--l2min", type=float, default=0.0)
    p.add_argument("--l2max", type=float, default=0.6)
    p.add_argument("--children", type=int, default=2)
    p.add_argument("--svg", type=str, default=None, help="write an SVG phase diagram here")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("potts", help="Potts thresholds, Jacobian profile, boundary laws")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--degree", type=int, default=2, help="Cayley tree degree d")
    p.add_argument("--jacobian", type=str, default=None,
                   help="lo:hi:step profile of det(J) at the lower branch")
    p.add_argument("--bl", type=float, default=None,
                   help="boundary-law pair at lambda1 = lambda2 = LAM")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_potts)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
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
