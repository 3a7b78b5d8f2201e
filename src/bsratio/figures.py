"""Deterministic SVG emitters for the scatter and histogram views.

Hand-rolled SVG with fixed formatting: the same rows always produce
byte-identical output, which plotting libraries do not guarantee.  One
canvas (background, frame, ticks, axis labels) serves both plotters,
which add their marks to it and hand it to one writer.
"""

from __future__ import annotations

import math
import os

import numpy as np

WIDTH, HEIGHT = 960, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 50

PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

_MEAN_STYLE = 'stroke="#d62828" stroke-width="1.5" stroke-dasharray="6,4"'


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / 5
    return [lo + i * step for i in range(6)]


def _canvas(xlo, xhi, ylo, yhi, xlabel: str, ylabel: str) -> list[str]:
    """The opening tag, background, frame, ticks and axis labels."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" height="{PLOT_H}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tx in _ticks(xlo, xhi):
        px = MARGIN_L + (tx - xlo) / (xhi - xlo) * PLOT_W if xhi > xlo else MARGIN_L
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{MARGIN_T + PLOT_H}" x2="{_fmt(px)}" '
            f'y2="{MARGIN_T + PLOT_H + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{MARGIN_T + PLOT_H + 20}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        py = MARGIN_T + PLOT_H - (ty - ylo) / (yhi - ylo) * PLOT_H if yhi > ylo else MARGIN_T
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + PLOT_W / 2:.1f}" y="{HEIGHT - 12}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_T + PLOT_H / 2:.1f}" font-family="monospace" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {MARGIN_T + PLOT_H / 2:.1f})">{ylabel}</text>'
    )
    return parts


def _write(parts: list[str], path: str | os.PathLike) -> None:
    """Close the canvas and write it, one element a line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n</svg>\n")


def scatter_scale(rows: np.recarray, normalized: bool) -> tuple[float, float, float, float]:
    values = rows.R_norm if normalized else rows.R
    xlo, xhi = 0.0, float(rows.q.max()) * 1.02
    ylo, yhi = 0.0, float(values.max()) * 1.05
    return xlo, xhi, ylo, yhi


def plot_scatter(rows: np.recarray, normalized: bool, out_path: str | os.PathLike) -> None:
    """Scatter of (q, R) or (q, R (log q)^0.75) with a dashed mean line.

    The q=3 point, when present, is drawn enlarged in red (it carries the
    maximal R by a wide margin).
    """
    values = rows.R_norm if normalized else rows.R
    xlo, xhi, ylo, yhi = scatter_scale(rows, normalized)
    ylabel = "R(q) (log q)^(3/4)" if normalized else "R(q)"
    parts = _canvas(xlo, xhi, ylo, yhi, "q", ylabel)

    my = MARGIN_T + PLOT_H - (float(np.mean(values)) - ylo) / (yhi - ylo) * PLOT_H
    parts.append(
        f'<line class="mean" x1="{MARGIN_L}" y1="{_fmt(my)}" x2="{MARGIN_L + PLOT_W}" '
        f'y2="{_fmt(my)}" {_MEAN_STYLE}/>'
    )
    pxs = MARGIN_L + (rows.q - xlo) / (xhi - xlo) * PLOT_W
    pys = MARGIN_T + PLOT_H - (values - ylo) / (yhi - ylo) * PLOT_H
    for q, px, py in zip(rows.q.tolist(), pxs.tolist(), pys.tolist()):
        if q == 3:
            parts.append(
                f'<circle class="pt highlight" cx="{_fmt(px)}" cy="{_fmt(py)}" r="4.0" '
                'fill="#d62828"/>'
            )
        else:
            parts.append(
                f'<circle class="pt" cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.6" '
                'fill="#2a6f97" fill-opacity="0.75"/>'
            )
    _write(parts, out_path)


def freedman_diaconis_edges(values: np.ndarray) -> np.ndarray:
    """Bin edges anchored at min(values) with the Freedman-Diaconis width.

    Anchoring at the data minimum makes the rule translation-covariant:
    shifting every value by c shifts every edge by c.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    q25, q75 = np.percentile(values, [25, 75])
    h = 2.0 * (q75 - q25) / len(values) ** (1.0 / 3.0)
    if h <= 0 or not math.isfinite(h):
        return np.array([lo, hi if hi > lo else lo + 1.0])
    nbins = max(1, int(math.ceil((hi - lo) / h)))
    return lo + h * np.arange(nbins + 1)


def plot_histogram(rows: np.recarray, normalized: bool, out_path: str | os.PathLike) -> None:
    """Histogram of the full population with both flagged subpopulations
    (2q+1 prime, 2q-1 prime) superimposed on the same bins."""
    values = rows.R_norm if normalized else rows.R
    edges = freedman_diaconis_edges(values)
    bars = [
        (cls, np.histogram(values[mask], bins=edges)[0], fill)
        for cls, mask, fill in (
            ("bar-total", slice(None), 'fill="#69a2c9" fill-opacity="0.9"'),
            ("bar-2qp1", rows.flag_2qp1, 'fill="#4f9d4f" fill-opacity="0.8"'),
            ("bar-2qm1", rows.flag_2qm1, 'fill="#e8c83d" fill-opacity="0.7"'),
        )
    ]
    xlo, xhi = float(edges[0]), float(edges[-1])
    span = xhi - xlo if xhi > xlo else 1.0
    ymax = max(1, int(bars[0][1].max()))
    xlabel = "R(q) (log q)^(3/4)" if normalized else "R(q)"
    parts = _canvas(xlo, xhi, 0.0, float(ymax), xlabel, "count")

    for cls, counts, fill in bars:
        for i in np.flatnonzero(counts):
            x0 = MARGIN_L + (edges[i] - xlo) / span * PLOT_W
            x1 = MARGIN_L + (edges[i + 1] - xlo) / span * PLOT_W
            hpx = counts[i] / ymax * PLOT_H
            parts.append(
                f'<rect class="{cls}" x="{_fmt(x0)}" y="{_fmt(MARGIN_T + PLOT_H - hpx)}" '
                f'width="{_fmt(x1 - x0)}" height="{_fmt(hpx)}" {fill}/>'
            )

    mx = MARGIN_L + (float(np.mean(values)) - xlo) / span * PLOT_W
    parts.append(
        f'<line class="mean" x1="{_fmt(mx)}" y1="{MARGIN_T}" x2="{_fmt(mx)}" '
        f'y2="{MARGIN_T + PLOT_H}" {_MEAN_STYLE}/>'
    )
    _write(parts, out_path)
