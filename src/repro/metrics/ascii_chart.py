"""Text rendering of coverage/success series (figure stand-ins).

The paper's Figures 1, 3 and 4 are time-series plots of coverage and
success.  This module renders the regenerated series as terminal-friendly
charts so experiment reports can *show* the figure shapes — the Static
collapse, the Lazy sawtooth, the Adaptive band — without a plotting
dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["sparkline", "line_chart"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, lo: float = 0.0, hi: float = 1.0) -> str:
    """One-line sparkline of a series scaled to [lo, hi]."""
    if hi <= lo:
        raise ValueError("hi must exceed lo")
    out = []
    span = hi - lo
    top = len(_SPARK_LEVELS) - 1
    for v in values:
        frac = (float(v) - lo) / span
        frac = min(max(frac, 0.0), 1.0)
        out.append(_SPARK_LEVELS[round(frac * top)])
    return "".join(out)


#: one marker per series, in order; series past the sixth are not drawn
_MARKERS = "*o+x#@"


def line_chart(
    series: Mapping[str, Sequence[float]],
    *,
    height: int = 10,
    lo: float = 0.0,
    hi: float = 1.0,
) -> str:
    """Multi-series ASCII chart with a y-axis, one column per x index.

    Later series overwrite earlier ones where they collide (the paper's
    figures overlay coverage and success the same way).
    """
    if height < 2:
        raise ValueError("height must be >= 2")
    if hi <= lo:
        raise ValueError("hi must exceed lo")
    if not series:
        raise ValueError("need at least one series")
    width = max(len(s) for s in series.values())
    if width == 0:
        raise ValueError("series are empty")

    grid = [[" "] * width for _ in range(height)]
    for (name, values), marker in zip(series.items(), _MARKERS):
        for x, v in enumerate(values):
            frac = (float(v) - lo) / (hi - lo)
            frac = min(max(frac, 0.0), 1.0)
            y = round(frac * (height - 1))
            grid[height - 1 - y][x] = marker

    lines = []
    for row_index, row in enumerate(grid):
        level = hi - (hi - lo) * row_index / (height - 1)
        lines.append(f"{level:5.2f} |" + "".join(row))
    lines.append(" " * 6 + "+" + "-" * width)
    legend = "  ".join(
        f"{marker}={name}" for (name, _s), marker in zip(series.items(), _MARKERS)
    )
    lines.append(" " * 7 + legend)
    return "\n".join(lines)
