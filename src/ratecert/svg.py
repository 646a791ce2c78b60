"""Hand-emitted SVG line charts (no plotting dependency).

Good enough for sweep outputs: axes with ticks, one polyline per series
(broken at missing values), an optional dashed reference curve, and a
legend.  The CSV a sweep writes stays the authoritative record; these charts
are a pure side output.  This module imports neither numpy nor ``xml``: its
three-entity ``escape`` spares a sweep that charts about 40 ms of ``xml``
(with ``urllib``, ``http`` and ``email``) at start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 50, 55
N_TICKS = 5


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape``
    writes them, without importing ``xml`` (and ``urllib``, ``http`` and
    ``email`` with it)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass
class Series:
    """Named curve: points are (x, y) with y = None marking a gap."""

    name: str
    points: list[tuple[float, float | None]]
    color: str = "#000000"
    dashed: bool = False


def _ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + i * (hi - lo) / (N_TICKS - 1) for i in range(N_TICKS)]


def line_chart(
    series: list[Series],
    *,
    title: str,
    x_label: str,
    y_label: str,
    log_x: bool = False,
) -> str:
    """Render the chart and return the SVG document as a string."""
    # Bounds over the drawn points (x in log10 for a log axis), y padded.
    xs, ys = [], []
    for s in series:
        for x, y in s.points:
            if y is None:
                continue
            xs.append(math.log10(x) if log_x else x)
            ys.append(y)
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_min, x_max = min(xs), max(xs)
    pad_y = 0.05 * (max(ys) - min(ys) or 1.0)
    y_min, y_max = min(ys) - pad_y, max(ys) + pad_y
    x_span, y_span = x_max - x_min or 1.0, y_max - y_min or 1.0

    def tx(x: float) -> float:
        if log_x:
            x = math.log10(x)
        return MARGIN_L + (x - x_min) / x_span * (WIDTH - MARGIN_L - MARGIN_R)

    def ty(y: float) -> float:
        return HEIGHT - MARGIN_B - (y - y_min) / y_span * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="25" text-anchor="middle" '
        f'font-size="16" font-family="sans-serif">{escape(title)}</text>',
    ]
    # Axes.
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    for t in _ticks(x_min, x_max):
        px = tx(10.0 ** t) if log_x else tx(t)
        label = f"{10.0 ** t:.4g}" if log_x else f"{t:.4g}"
        parts.append(
            f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>'
            f'<text x="{px:.1f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{label}</text>'
        )
    for t in _ticks(y_min, y_max):
        py = ty(t)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>'
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{escape(x_label)}</text>'
        f'<text x="18" y="{(y0 + y1) / 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {(y0 + y1) / 2})">'
        f"{escape(y_label)}</text>"
    )
    # Curves, broken at gaps.
    for s in series:
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        segment: list[str] = []
        for x, y in s.points + [(math.nan, None)]:
            if y is None:
                if len(segment) >= 2:
                    parts.append(
                        f'<polyline points="{" ".join(segment)}" fill="none" '
                        f'stroke="{s.color}" stroke-width="1.5"{dash}/>'
                    )
                segment = []
            else:
                segment.append(f"{tx(x):.2f},{ty(y):.2f}")
    # Legend, top right.
    ly = MARGIN_T + 8
    for s in series:
        lx = WIDTH - MARGIN_R - 150
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
            f'stroke="{s.color}" stroke-width="1.5"{dash}/>'
            f'<text x="{lx + 32}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{escape(s.name)}</text>'
        )
        ly += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
