"""The phase diagram of a sweep as one self-contained SVG 1.1 document.

No plotting dependency: one rectangle per run of the grid, coloured by its
regime, and the critical line of the grid's q overlaid as a dashed polyline.
`clocktree sweep --svg` loads this module; no other command does.
"""
from __future__ import annotations

import math

import numpy as np

from . import phase


# in the order of the legend
_REGIME_COLORS = {
    phase.Regime.NO_PT: "#f7f7f7",
    phase.Regime.PT_NOT_RPT: "#fdae61",
    phase.Regime.PT_AND_RPT: "#d7191c",
    phase.Regime.INFEASIBLE: "#d9d9d9",
}

_VIEW_W, _VIEW_H = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 50


def render_phase_svg(
    grid: phase.PhaseGrid,
    lambda1_range: tuple[float, float],
    lambda2_range: tuple[float, float],
) -> str:
    """Phase diagram of a sweep's grid as one self-contained SVG 1.1 document.

    lambda2 runs along x, lambda1 along y; one rectangle per run of the
    grid, spanning its cells and coloured by its regime, the critical line
    of the grid's q overlaid as a dashed polyline.
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
    # one rect per run, 0.5 taller and wider than its cells: rows (lambda1) top
    # down and runs left to right, so the next row down or run paints over that
    row, col = np.divmod(grid.starts[:-1], cols)
    order = np.argsort(-row, kind="stable")
    runs = zip(*(a[order].tolist() for a in (row, col, np.diff(grid.starts), grid.run_regime)))
    colors = [_REGIME_COLORS[r] for r in grid.regimes]
    parts.extend(
        f'<rect x="{_MARGIN_L + j * cell_w:.2f}" y="{_MARGIN_T + (rows - 1 - i) * cell_h:.2f}" '
        f'width="{n * cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" fill="{colors[c]}"/>'
        for i, j, n, c in runs
    )
    line_pts = _critical_polyline(grid.q, l1_lo, l1_hi, l2_lo, l2_hi)
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
    for regime, color in _REGIME_COLORS.items():
        parts.append(
            f'<rect x="{_VIEW_W - 180}" y="{legend_y}" width="14" height="14" '
            f'fill="{color}" stroke="#000000" stroke-width="0.5"/>'
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
