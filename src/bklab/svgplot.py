"""Self-contained SVG log-log plots (no plotting dependency).

Each data point is emitted as a <circle> carrying data-x / data-y
attributes with full-precision values, so the plot and the CSV can be
round-trip checked against each other.
"""

from __future__ import annotations

import math

from .errors import BklabError

WIDTH, HEIGHT = 800, 600
MARGIN = 70
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _ticks(lo: float, hi: float):
    a = math.floor(math.log10(lo))
    b = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(a, b + 1)]


def loglog_svg(xs, series: dict, title: str, xlabel: str, ylabel: str,
               annotations: dict | None = None) -> str:
    """Render series {name: [y...]} over common xs on log10 axes.
    `annotations` maps a series name to a text note (fitted slope)."""
    xs = [float(x) for x in xs]
    # a value a log axis cannot place is an error, not a dropped point:
    # the plot must show every sample its CSV holds
    for name, ys in ((xlabel, xs), *series.items()):
        for x, y in zip(xs, ys):
            if not 0 < y < math.inf:
                raise BklabError(f"log-log plot needs positive finite data: "
                                 f"{name!r} is {float(y)!r} at x = {x!r}")
    ally = [float(y) for ys in series.values() for _, y in zip(xs, ys)]
    if not ally:
        raise BklabError("log-log plot needs positive data")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ally), max(ally)
    if x0 == x1:
        x0, x1 = x0 / 2, x1 * 2
    if y0 == y1:
        y0, y1 = y0 / 2, y1 * 2
    lx0, lx1 = math.log10(x0), math.log10(x1)
    ly0, ly1 = math.log10(y0), math.log10(y1)

    def px(x):
        return MARGIN + (math.log10(x) - lx0) / (lx1 - lx0) * (WIDTH - 2 * MARGIN)

    def py(y):
        return HEIGHT - MARGIN - (math.log10(y) - ly0) / (ly1 - ly0) * (HEIGHT - 2 * MARGIN)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="28" text-anchor="middle" font-size="18">{title}</text>',
        f'<text x="{WIDTH/2:.1f}" y="{HEIGHT-12}" text-anchor="middle" '
        f'font-size="14">{xlabel} (log10)</text>',
        f'<text x="18" y="{HEIGHT/2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {HEIGHT/2:.1f})">{ylabel} (log10)</text>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH-2*MARGIN}" '
        f'height="{HEIGHT-2*MARGIN}" fill="none" stroke="black"/>',
    ]
    for t in _ticks(x0, x1):
        if x0 <= t <= x1:
            out.append(f'<line x1="{px(t):.2f}" y1="{HEIGHT-MARGIN}" x2="{px(t):.2f}" '
                       f'y2="{HEIGHT-MARGIN+6}" stroke="black"/>')
            out.append(f'<text x="{px(t):.2f}" y="{HEIGHT-MARGIN+22}" text-anchor="middle" '
                       f'font-size="12">{t:g}</text>')
    for t in _ticks(y0, y1):
        if y0 <= t <= y1:
            out.append(f'<line x1="{MARGIN-6}" y1="{py(t):.2f}" x2="{MARGIN}" '
                       f'y2="{py(t):.2f}" stroke="black"/>')
            out.append(f'<text x="{MARGIN-10}" y="{py(t):.2f}" text-anchor="end" '
                       f'font-size="12">{t:g}</text>')
    for ci, (name, ys) in enumerate(series.items()):
        color = _COLORS[ci % len(_COLORS)]
        pts = [(x, float(y)) for x, y in zip(xs, ys)]
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" '
                       f'fill="{color}" data-series="{name}" data-x="{x!r}" '
                       f'data-y="{y!r}"/>')
        label = name
        if annotations and name in annotations:
            label += f" ({annotations[name]})"
        out.append(f'<text x="{WIDTH-MARGIN-8}" y="{MARGIN+18+16*ci}" text-anchor="end" '
                   f'font-size="13" fill="{color}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def parse_svg_data(text: str) -> dict:
    """Recover {series: [(x, y), ...]} from the data attributes."""
    import re
    data: dict[str, list] = {}
    pat = re.compile(r'data-series="([^"]+)" data-x="([^"]+)" data-y="([^"]+)"')
    for m in pat.finditer(text):
        data.setdefault(m.group(1), []).append((float(m.group(2)), float(m.group(3))))
    return data
