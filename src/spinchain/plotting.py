"""Deterministic SVG rendering of magnetization traces.

The output is plain hand-assembled SVG text: no timestamps, no randomized
ids, fixed coordinate formatting.  Identical input series therefore produce
byte-identical files, which the reproducibility guarantees rely on.
"""

from __future__ import annotations

from .simulator import MagnetizationSeries

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 64
MARGIN_RIGHT = 150
MARGIN_TOP = 30
MARGIN_BOTTOM = 52

Y_MIN = -1.1
Y_MAX = 1.1

_PALETTE = (
    "#1f6fb4",
    "#d9541f",
    "#2f8f41",
    "#c03291",
    "#8a6900",
    "#4b4bc8",
    "#19897f",
    "#a32626",
)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_svg(series: MagnetizationSeries) -> str:
    if not series.times or not series.values:
        raise ValueError("cannot plot an empty magnetization series")

    t0, t1 = series.times[0], series.times[-1]
    if t1 <= t0:
        t1 = t0 + 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(t: float) -> float:
        return MARGIN_LEFT + (t - t0) / (t1 - t0) * plot_w

    def sy(m: float) -> float:
        return MARGIN_TOP + (Y_MAX - m) / (Y_MAX - Y_MIN) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]

    # Gridlines and tick labels.
    for k in range(5):
        t = t0 + (t1 - t0) * k / 4
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_TOP}" x2="{_fmt(x)}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{MARGIN_TOP + plot_h + 18}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle">{t:.3g}</text>'
        )
    for m in (-1.0, -0.5, 0.0, 0.5, 1.0):
        y = sy(m)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(y)}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" font-size="12" '
            f'font-family="sans-serif" text-anchor="end">{m:g}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 12}" font-size="13" '
        f'font-family="sans-serif" text-anchor="middle">time</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.0f}" font-size="13" '
        f'font-family="sans-serif" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.0f})">magnetization</text>'
    )

    for q, row in enumerate(series.values):
        color = _PALETTE[q % len(_PALETTE)]
        points = " ".join(f"{_fmt(sx(t))},{_fmt(sy(m))}" for t, m in zip(series.times, row))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 14 + 18 * q
        lx = MARGIN_LEFT + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">qubit {q}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

