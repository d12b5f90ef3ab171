"""Minimal ASCII line plots (log-log and linear) for terminal output.

The benchmark harness and examples report curves -- xi(r), L(n_g),
step-time vs n_g -- and the environment has no plotting stack, so this
renders them as character rasters with labelled axes.  Deliberately
tiny: one marker per series, NaNs skipped, log or linear per axis.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["line_plot"]

_MARKERS = "ox+*#@"


def _transform(v: np.ndarray, log: bool) -> np.ndarray:
    if log:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log10(v)
        out[~np.isfinite(out)] = np.nan
        return out
    return v.astype(np.float64)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-2:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(series: Dict[str, Sequence], *, width: int = 64,
              height: int = 20, logx: bool = False, logy: bool = False,
              xlabel: str = "", ylabel: str = "") -> str:
    """Render named ``{label: (x, y)}`` series as an ASCII plot.

    Each series gets the next marker character; the legend maps them
    back.  Values outside a log axis's domain (<= 0) are dropped.
    """
    if not series:
        return "(no data)"
    if width < 16 or height < 6:
        raise ValueError("plot must be at least 16 x 6")

    pts = {}
    for name, (x, y) in series.items():
        x = _transform(np.asarray(x, dtype=np.float64), logx)
        y = _transform(np.asarray(y, dtype=np.float64), logy)
        ok = np.isfinite(x) & np.isfinite(y)
        pts[name] = (x[ok], y[ok])

    nonempty = [p for p in pts.values() if len(p[0])]
    if not nonempty:
        return "(no finite points)"
    xs = np.concatenate([p[0] for p in nonempty])
    ys = np.concatenate([p[1] for p in nonempty])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    grid = [[" "] * width for _ in range(height)]
    for k, (name, (x, y)) in enumerate(pts.items()):
        mark = _MARKERS[k % len(_MARKERS)]
        cx = ((x - x0) / (x1 - x0) * (width - 1)).round().astype(int)
        cy = ((y - y0) / (y1 - y0) * (height - 1)).round().astype(int)
        for i, j in zip(cx, cy):
            grid[height - 1 - j][i] = mark

    def back(v, log):
        return 10.0**v if log else v

    lines = []
    lines.append(f"  {_fmt(back(y1, logy)):>10} +"
                 + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 13 + "|" + "".join(row))
    lines.append(f"  {_fmt(back(y0, logy)):>10} +" + "".join(grid[-1]))
    lines.append(" " * 14 + "-" * width)
    lines.append(" " * 14 + f"{_fmt(back(x0, logx))}"
                 + " " * max(1, width - 24)
                 + f"{_fmt(back(x1, logx))}")
    axes = []
    if xlabel or logx:
        axes.append(f"x: {xlabel}{' (log)' if logx else ''}".strip())
    if ylabel or logy:
        axes.append(f"y: {ylabel}{' (log)' if logy else ''}".strip())
    legend = "   ".join(f"{_MARKERS[k % len(_MARKERS)]} = {name}"
                        for k, name in enumerate(pts))
    lines.append(" " * 14 + "; ".join(axes))
    lines.append(" " * 14 + legend)
    return "\n".join(lines)
