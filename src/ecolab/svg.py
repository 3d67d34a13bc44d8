"""Single-panel SVG line charts, deterministic byte-for-byte."""

from __future__ import annotations

import math

import numpy as np

from .core import Trajectory

__all__ = ["render_svg", "polyline_chart"]


def escape(text: str) -> str:
    """`text` with "&", ">" and "<" as XML entities, like `xml.sax.saxutils.escape`,
    whose import would load urllib, http and ssl into every `import ecolab`."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

WIDTH, HEIGHT = 640, 400
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 56, 150, 24, 40
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

# points formatted per `%` call; bounds the temporary lists and tuples
BLOCK_POINTS = 1024


def _nice_step(span: float) -> float:
    raw = span / 4
    # a span below about 4e-323 has no quarter, or its quarter's power of ten underflows to 0
    power = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if not power > 0.0:
        raise ValueError(f"cannot place ticks on a span of {span!r}")
    for mult in (1.0, 2.0, 2.5, 5.0):
        if mult * power >= raw:
            return mult * power
    return 10.0 * power


def _ticks(low: float, high: float) -> list[tuple[float, str]]:
    """Tick values on [low, high], each with its label."""
    step = _nice_step(high - low)
    first = math.ceil(low / step - 1e-9) * step
    values = []
    v = first
    while v <= high + 1e-9 * step:
        values.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:
            # the range is only a few ulps of its values wide, so the step
            # cannot move a tick: mark its two ends instead, labelled by
            # their shortest round-trip form, which tells them apart
            return [(low, repr(low)), (high, repr(high))]
        v += step
    return [(v, _fmt(v)) for v in values]


# Pixel coordinates of a tick (a float) or of a block of points (an array).
# The grouping of the operations fixes the last bits of every coordinate, and
# with them the output bytes; float64 ufuncs round as the float operations do.
def _x_pixels(xs, low: float, high: float):
    return MARGIN_LEFT + (xs - low) / (high - low) * PLOT_W


def _y_pixels(ys, low: float, high: float):
    return MARGIN_TOP + (high - ys) / (high - low) * PLOT_H


def _points(xs: np.ndarray, ys: np.ndarray, x_range: tuple, y_range: tuple) -> str:
    """The "x,y x,y ..." pixel list of one polyline, formatted a block of points at a time."""
    blocks = []
    for start in range(0, xs.shape[0], BLOCK_POINTS):
        stop = start + BLOCK_POINTS
        pairs = np.column_stack((_x_pixels(xs[start:stop], *x_range), _y_pixels(ys[start:stop], *y_range)))
        blocks.append(" ".join(["%.2f,%.2f"] * pairs.shape[0]) % tuple(pairs.ravel().tolist()))
    return " ".join(blocks)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def polyline_chart(
    names: tuple[str, ...],
    xs: np.ndarray,
    ys: np.ndarray,
    title: str | None = None,
    x_label: str = "time",
) -> str:
    """Draw one polyline per column of ys against xs.

    Output is valid SVG 1.1 and a pure function of the inputs; every
    coordinate is written with "%.2f". Raises ValueError for fewer than two
    samples, non-finite values, a zero-width x range and a span that
    overflows.  A range too narrow for a tick step to move a tick gets
    ticks at its two ends.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    if xs.shape[0] < 2:
        raise ValueError("need at least two samples to draw a chart")
    if ys.shape != (xs.shape[0], len(names)):
        raise ValueError("ys shape must be (len(xs), len(names))")

    # checked before any arithmetic, so that no coordinate can come out nan or inf
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("cannot chart non-finite values")
    x_low, x_high = float(xs.min()), float(xs.max())
    y_low, y_high = float(ys.min()), float(ys.max())
    if x_high == x_low:
        raise ValueError(f"cannot chart a zero-width x range: every x is {x_low!r}")
    if y_high == y_low:
        y_low -= 1.0
        y_high += 1.0
    if not (math.isfinite(x_high - x_low) and math.isfinite(y_high - y_low)):
        raise ValueError(f"cannot chart a span that overflows: x {x_low!r}..{x_high!r}, y {y_low!r}..{y_high!r}")
    if y_high == y_low:
        raise ValueError(f"cannot chart a zero-width y range: every y is {y_low!r}")

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{MARGIN_LEFT}" y="16" font-family="sans-serif" font-size="13" '
            f'font-weight="bold">{escape(title)}</text>'
        )
    axis_y = MARGIN_TOP + PLOT_H
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + PLOT_W}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tick, label in _ticks(x_low, x_high):
        x = _x_pixels(tick, x_low, x_high)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{escape(label)}</text>'
        )
    for tick, label in _ticks(y_low, y_high):
        y = _y_pixels(tick, y_low, y_high)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" y2="{y:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{escape(label)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + PLOT_W / 2:.2f}" y="{HEIGHT - 6}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{escape(x_label)}</text>'
    )
    for col, name in enumerate(names):
        color = PALETTE[col % len(PALETTE)]
        points = _points(xs, ys[:, col], (x_low, x_high), (y_low, y_high))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        legend_y = MARGIN_TOP + 14 + 18 * col
        legend_x = MARGIN_LEFT + PLOT_W + 12
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y - 4}" x2="{legend_x + 22}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(trajectory: Trajectory, title: str | None = None) -> str:
    """Chart a trajectory, one polyline per variable against its times."""
    return polyline_chart(
        trajectory.variable_names,
        trajectory.times,
        trajectory.values,
        title=title,
    )
