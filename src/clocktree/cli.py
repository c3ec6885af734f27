"""Command-line front end.

Subcommands wrap the library one-to-one and emit deterministic CSV (fixed
ordering, floats with 17 significant digits so re-parsing is lossless, LF
line endings) or a self-contained SVG for phase diagrams.  Exit codes:
0 success, 1 verified-infeasible input under --strict, 2 usage error, an
--out/--svg file that cannot be opened, written or closed, or a standard
output that cannot be written, 141 (128 + SIGPIPE) when the reader of
standard output closed it early.

`_COMMANDS` declares every subcommand and flag once.  A well-formed command
line (a command, then exact flags each with its value) is read straight
from that table; argparse, built from the same table, answers everything
else: help, usage errors and the spellings it accepts beyond exact flags.

Importing this module loads only what `sweep`, `probe`, `solve` and
`matrix` run.  `classify` imports `quartic`, `potts` imports `potts`, and
`sweep --svg` imports `svg`, each when it first needs it.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import re
import sys
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import phase, recursion, spectral
from .errors import ClockTreeError, DegenerateQuartic
from .fixedpoint import q4_solutions, q5_solutions

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# the buffer of an output file: a 2.3 MB sweep CSV reaches the file in about
# 40 writes, not one per row, and a probe's CSV in one, when it is closed
_OUT_BUFFER_BYTES = 1 << 16


@contextlib.contextmanager
def _output(out_path: Optional[str]) -> Iterator[TextIO]:
    """The file at out_path, written with LF line endings through a 64 KiB buffer, or standard output.

    A file that cannot be opened, written or closed (the buffer reaches the
    file on close) is a usage error naming the path and the reason; standard
    output is left to `main`, which answers a reader that went away and a
    write that failed otherwise.
    """
    if not out_path:
        yield sys.stdout
        return
    try:
        with open(out_path, "w", newline="\n", buffering=_OUT_BUFFER_BYTES) as fh:
            yield fh
    except OSError as exc:
        raise ClockTreeError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _emit(lines: Iterable[str], out_path: Optional[str]) -> None:
    with _output(out_path) as fh:
        fh.write("\n".join(lines) + "\n")


def _spec_from_args(args) -> spectral.TransferSpec:
    # `matrix`'s model; a flag the chosen model does not read is refused, not dropped
    theta, beta = args.theta, args.beta
    if args.potts:
        if args.lambda1 is not None or args.lambda2 is not None:
            raise ClockTreeError("--potts cannot be combined with --lambda1 or --lambda2")
        if theta is not None and beta is not None:
            raise ClockTreeError("--theta and --beta cannot be combined")
        if theta is not None:
            return spectral.make_potts_from_theta(args.q, theta)
        if beta is not None:
            return spectral.make_potts(args.q, beta)
        raise ClockTreeError("--potts requires --theta or --beta")
    if theta is not None or beta is not None:
        raise ClockTreeError("--theta and --beta need --potts")
    if args.lambda1 is None or args.lambda2 is None:
        raise ClockTreeError("need --lambda1 and --lambda2 (or --potts with --theta/--beta)")
    return spectral.spec_from_lambdas(args.q, args.lambda1, args.lambda2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_matrix(args) -> int:
    spec = _spec_from_args(args)
    violation = spectral.validate_non_increasing(spec)
    lines = ["index,lambda,r"]
    for j in range(spec.q):
        lines.append(f"{j},{_fmt(spec.eigenvalues[j])},{_fmt(spec.row[j])}")
    lines.append(f"feasible,{'true' if violation is None else 'false'},{violation or ''}")
    _emit(lines, args.out)
    if args.strict and violation is not None:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_probe(args) -> int:
    spec = spectral.spec_from_lambdas(args.q, args.lambda1, args.lambda2)
    result = recursion.rpt_probe(
        spec,
        tree=recursion.Cayley(args.children),
        u=args.u,
        levels=args.levels,
        tol=args.tol,
    )
    # the distinct distances are formatted by one operation; past the first
    # repeated state the distances cycle, and so does their text
    dists = result.distances
    start, period = result.cycle or (len(dists), 0)
    distinct = start + period
    text = ("%.17g\n" * distinct % dists[:distinct]).splitlines(True)
    text += itertools.islice(itertools.cycle(text[start:]), len(dists) - distinct)
    # each line's level and text, formatted by one more operation
    fields = [None] * (2 * len(text))
    fields[::2] = range(len(text))
    fields[1::2] = text
    verdict = f"verdict,{result.verdict.value},levels,{len(dists) - 1},u,{_fmt(result.u)}\n"
    with _output(args.out) as fh:
        fh.write("level,distance\n" + "%d,%s" * len(text) % tuple(fields) + verdict)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.q not in (4, 5):
        raise ClockTreeError(f"solve supports q in {{4, 5}}, got q={args.q}")
    # a row that overflows is refused, as `matrix` and `probe` refuse it; a
    # row with a negative entry is not, and its fixed points are listed
    spectral.check_row_finite(args.q, args.lambda1, args.lambda2)
    if args.q == 4:
        sols = q4_solutions(args.lambda1, args.lambda2)
    else:
        sols = q5_solutions(args.lambda1, args.lambda2)
    lines = ["alpha1,alpha2,residual"]
    for (a1, a2), res in zip(sols.solutions, sols.residuals):
        lines.append(f"{_fmt(a1)},{_fmt(a2)},{_fmt(res)}")
    _emit(lines, args.out)
    return EXIT_OK


def _classify_row(lambda2: float) -> str:
    from . import quartic  # only `classify` reads the quartic; loaded by its first row

    try:
        analysis = quartic.q5_quartic_analysis(lambda2)
    except DegenerateQuartic:
        return f"{_fmt(lambda2)},0,0,0,0,0,0,0,0,0,DEGENERATE_ZERO,"
    # the columns are those of the quartic itself, even where its
    # coefficients underflowed and the structure came from the quartic
    # divided by lambda2^2: only there are its invariants computed again
    c = quartic.q5_quartic_coeffs(lambda2)
    if analysis.coeffs == c:
        invariants = (analysis.delta, analysis.p, analysis.d, analysis.delta0)
    else:
        try:
            invariants = quartic.quartic_invariants(c)
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
    )
    if args.svg:
        from .svg import render_phase_svg  # only `sweep --svg` draws

        svg = render_phase_svg(grid, (args.l1min, args.l1max), (args.l2min, args.l2max))
        with _output(args.svg) as fh:
            fh.write(svg)
        if not args.out:
            return EXIT_OK
    # The grid holds its answers as runs of equal (regime, n_nontrivial)
    # that never cross a lambda1 row, so the writer reads the runs, not the
    # points.  Each axis value is formatted once (a memo keyed by the float
    # would merge -0.0 with 0.0, which print differently), and
    # each distinct answer's "lambda2,feasible,regime,n_nontrivial" cells
    # once for the whole lambda2 axis, when the answer first appears.  A row
    # gathers its runs' slices of those cells and joins them with "lambda1,"
    # in one join, written one lambda1 row at a time, so the text of the
    # whole grid is never held.  The runs are read lazily from the columns,
    # with no object kept per run, so a sweep keeps too few objects alive at
    # once to start the garbage collector.
    m = len(grid.lambda2)
    col = grid.starts[:-1] % m
    runs = zip(
        grid.run_regime.tolist(), grid.run_n_nontrivial.tolist(), col.tolist(), (col + np.diff(grid.starts)).tolist()
    )
    row_runs = np.diff(np.flatnonzero(col == 0), append=len(col)).tolist()
    l2_text = [_fmt(l2) for l2 in grid.lambda2]
    cells = {}
    with _output(args.out) as fh:
        fh.write("lambda1,lambda2,feasible,regime,n_nontrivial\n")
        for t1, n_runs in zip(map(_fmt, grid.lambda1), row_runs):
            row = [""]
            for c, n, a, b in itertools.islice(runs, n_runs):
                answer = cells.get((c, n))
                if answer is None:  # regime code 0, INFEASIBLE, is the one infeasible answer
                    tail = f"{'true' if c else 'false'},{grid.regimes[c].value},{n}\n"
                    answer = cells[c, n] = [f"{t2},{tail}" for t2 in l2_text]
                row += answer[a:b]
            fh.write((t1 + ",").join(row))
    return EXIT_OK


def cmd_potts(args) -> int:
    from . import potts  # only this command reads the Potts line

    if args.bl is not None and args.jacobian is not None:
        raise ClockTreeError("--bl and --jacobian cannot be combined")
    if (args.bl is not None or args.jacobian is not None) and (args.q, args.degree) != (5, 2):
        raise ClockTreeError(f"--bl and --jacobian need --q 5 --degree 2, got --q {args.q} --degree {args.degree}")
    if args.jacobian is not None:
        profile = potts.jacobian_profile(_grid_from_range(args.jacobian))
        lines = ["lambda,det"]
        for lam, det in profile:
            lines.append(f"{_fmt(lam)},{_fmt(det)}")
        _emit(lines, args.out)
        return EXIT_OK
    if args.bl is not None:
        bl = potts.potts_boundary_laws(args.bl)
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
# the largest sweep --res: a sweep marks its res^2 + 1 run starts in a
# boolean array (`phase._run_starts`), 10^8 bytes at this cap
_MAX_RES = 10_000


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


# a token that is a value, not an option, although it starts with "-"
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads "-1e-3" as a negative number, not an option.

    argparse's own negative-number pattern has no exponent, so `--lambda2
    -1e-3` would fail with "expected one argument"; subparsers are built
    from the same class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


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
        dict(help="the quartic's printed coefficients, invariants, and their root structure, decided exactly"),
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
            description="Classify a grid of eigenvalue pairs.",
        ),
        cmd_sweep,
        [
            ("--q", dict(type=int, required=True)),
            ("--res", dict(type=int, required=True, help="grid resolution per axis")),
            ("--l1min", dict(type=float, default=0.0)),
            ("--l1max", dict(type=float, default=0.6)),
            ("--l2min", dict(type=float, default=0.0)),
            ("--l2max", dict(type=float, default=0.6)),
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
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser of every subcommand in `_COMMANDS`, built once per process.

    `main` needs it only for what `_read_argv` declines: help, usage
    errors, and the spellings argparse accepts beyond exact flags.
    argparse writes what it parses only into the namespace it returns, so
    one parser serves every `main` call of a process.
    """
    parser = _Parser(
        prog="clocktree",
        description="Phase transitions of generalized q-state clock models on trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (kwargs, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, **kwargs)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace `build_parser().parse_args(argv)` returns, read from `_COMMANDS`, or None.

    Only this form is read: argv[0] is a command, and each later token is
    exactly one of its flags, a store_true flag alone and any other followed
    by its value, a token that does not start with "-" or is a negative
    number, converted by the flag's type.  A repeated flag keeps its last
    value, every required flag is given, and the rest take their defaults.
    Anything else (help, "--flag=value", "--", an abbreviation, a missing
    or refused value) is None, for argparse to answer.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    options = dict(arguments)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        opts = options.get(flag)
        if opts is None:
            return None
        if opts.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or (value[:1] == "-" and not _NEGATIVE_NUMBER.match(value)):
            return None
        try:
            given[flag] = opts.get("type", str)(value)
        except (TypeError, ValueError):
            return None
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, opts in arguments:
        if flag in given:
            value = given[flag]
        elif opts.get("required"):
            return None
        else:
            value = opts.get("default", False if opts.get("action") == "store_true" else None)
        setattr(args, flag[2:], value)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit code.

    A well-formed command line is read straight from `_COMMANDS`
    (`_read_argv`); any other goes to argparse (`build_parser`), whose help,
    usage errors and exit codes are then the answer.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _validate_numeric(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ClockTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader went away (`clocktree sweep | head`); the interpreter's
        # final flush of stdout would raise again, so it flushes into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        # `_output` reports the files it opens, so this is standard output
        # (`clocktree sweep > /dev/full`); its final flush goes to devnull too
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
    if levels is not None and not 1 <= levels < _MAX_RANGE_POINTS:
        raise ClockTreeError(f"--levels must lie in [1, {_MAX_RANGE_POINTS - 1}], got {levels}")
    res = getattr(args, "res", None)
    if res is not None and not 1 <= res <= _MAX_RES:
        raise ClockTreeError(f"--res must lie in [1, {_MAX_RES}], got {res}")


if __name__ == "__main__":
    sys.exit(main())
