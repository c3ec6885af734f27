"""Benchmark workloads: the inputs each one runs, made from a seed.

A seed moves only sub-cell grid offsets and sample points, so the amount of
work and every oracle stay the same for any seed.  The inputs are built with
the standard library's `random`, so they do not depend on the numpy
version.  Nothing here imports clocktree.
"""
from __future__ import annotations

import random

import oracle

NAMES = ("q4_grid", "q5_window", "q5_line", "probe_scan")

# acceptance criterion 6: the q=4 sweep over [0, 0.6]^2 at resolution 200
Q4_GRID = {"q": 4, "res": 200, "l1": (0.0, 0.6), "l2": (0.0, 0.6)}
# the q=5 non-robust window, on both sides of lambda1 = 1/2
Q5_WINDOW = {"q": 5, "res": 40, "l1": (0.40, 0.52), "l2": (0.30, 0.56)}
# the lambda1 grid of the q=5 SVG overlay: 0.40, 0.41, ..., 0.50
LINE_POINTS = 11
LINE_STEP = 0.01
PROBE_POINTS = 40  # half q=4, half q=5; each probed at both couplings
PROBE_U = (1.0, oracle.PROBE_CHECK_U)
PROBE_LEVELS = 400


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _offset(rng: random.Random, lo: float, hi: float, res: int) -> float:
    # Stay strictly inside (0, 1/2) of a cell, so a grid point never lands
    # on a grid line of another seed and continuation step counts do not move.
    return rng.uniform(0.05, 0.45) * (hi - lo) / (res - 1)


def _sweep(name: str, base: dict, seed: int) -> dict:
    rng = _rng(name, seed)
    res = base["res"]
    d1 = _offset(rng, *base["l1"], res)
    d2 = _offset(rng, *base["l2"], res)
    return {
        "q": base["q"],
        "res": res,
        "l1min": base["l1"][0] + d1,
        "l1max": base["l1"][1] + d1,
        "l2min": base["l2"][0] + d2,
        "l2max": base["l2"][1] + d2,
    }


def _line(seed: int) -> dict:
    # Interior points move by 0.05..0.45 of a step; the ceiling in the
    # continuation path length then gives the same step count for any seed.
    rng = _rng("q5_line", seed)
    grid = [0.40 + LINE_STEP * (i + rng.uniform(0.05, 0.45)) for i in range(LINE_POINTS - 1)]
    return {"lambda1_grid": grid + [0.5]}


def _feasible_point(rng: random.Random, q: int) -> tuple[float, float]:
    """A (lambda1, lambda2) whose row is non-increasing and strictly positive."""
    while True:
        l1 = rng.uniform(0.0, 0.7)
        l2 = rng.uniform(0.0, l1)
        r = oracle.row(q, l1, l2)
        if min(r) > 1e-3 and oracle.feasibility_margin(q, l1, l2) > 1e-9:
            return l1, l2


def _probes(seed: int) -> dict:
    rng = _rng("probe_scan", seed)
    probes = []
    for i in range(PROBE_POINTS):
        q = 4 if i % 2 == 0 else 5
        l1, l2 = _feasible_point(rng, q)
        probes += [{"q": q, "lambda1": l1, "lambda2": l2, "u": u} for u in PROBE_U]
    return {"levels": PROBE_LEVELS, "probes": probes}


def inputs(name: str, seed: int) -> dict:
    """The inputs of one workload for one seed, as plain JSON-able data."""
    if name == "q4_grid":
        return _sweep(name, Q4_GRID, seed)
    if name == "q5_window":
        return _sweep(name, Q5_WINDOW, seed)
    if name == "q5_line":
        return _line(seed)
    if name == "probe_scan":
        return _probes(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


def item_count(name: str, spec: dict) -> int:
    """Grid points, line points or probes in one repetition."""
    if name in ("q4_grid", "q5_window"):
        return spec["res"] * spec["res"]
    if name == "q5_line":
        return len(spec["lambda1_grid"])
    return len(spec["probes"])


def sweep_argv(spec: dict, out: str) -> list[str]:
    """`clocktree sweep` arguments; --workers stays unset, so it runs serially."""
    argv = ["sweep", "--q", str(spec["q"]), "--res", str(spec["res"])]
    for key in ("l1min", "l1max", "l2min", "l2max"):
        argv += [f"--{key}", repr(spec[key])]
    return argv + ["--out", out]


def probe_argv(probe: dict, levels: int, out: str) -> list[str]:
    return [
        "probe", "--q", str(probe["q"]),
        "--lambda1", repr(probe["lambda1"]), "--lambda2", repr(probe["lambda2"]),
        "--u", repr(probe["u"]), "--levels", str(levels), "--out", out,
    ]
