"""Minimal hand-rolled SVG emission: bar charts, heatmaps, plane scenes."""

from __future__ import annotations

import numpy as np

from .reports import atomic_write

_W, _H = 640, 400
_MARGIN = 50


def _svg(body: str, width=_W, height=_H) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        + body + "</svg>\n"
    )


def _ramp(t: float) -> str:
    """Linear color ramp over [0, 1], white to dark blue."""
    t = min(max(t, 0.0), 1.0)
    r = int(round(255 * (1.0 - 0.85 * t)))
    g = int(round(255 * (1.0 - 0.75 * t)))
    b = int(round(255 * (1.0 - 0.25 * t)))
    return f"#{r:02x}{g:02x}{b:02x}"


def bar_chart(path: str, labels, values, title: str = ""):
    """Per-scale bar chart; bar heights linear over [0, max]."""
    values = [float(v) for v in values]
    vmax = max(values) if values and max(values) > 0 else 1.0
    plot_w = _W - 2 * _MARGIN
    plot_h = _H - 2 * _MARGIN
    n = max(len(values), 1)
    bw = plot_w / n
    parts = []
    if title:
        parts.append(f'<text x="{_W / 2}" y="25" text-anchor="middle" '
                     f'font-family="monospace" font-size="14">{title}</text>\n')
    parts.append(f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
                 f'y2="{_H - _MARGIN}" stroke="black"/>\n')
    for i, (lab, v) in enumerate(zip(labels, values)):
        h = plot_h * v / vmax
        x = _MARGIN + i * bw
        y = _H - _MARGIN - h
        parts.append(f'<rect x="{x + 0.1 * bw:.2f}" y="{y:.2f}" width="{0.8 * bw:.2f}" '
                     f'height="{h:.2f}" fill="{_ramp(0.7)}" stroke="black" stroke-width="0.5"/>\n')
        parts.append(f'<text x="{x + 0.5 * bw:.2f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{lab}</text>\n')
    parts.append(f'<text x="{_MARGIN - 6}" y="{_MARGIN}" text-anchor="end" '
                 f'font-family="monospace" font-size="11">{vmax:.3g}</text>\n')
    parts.append(f'<text x="{_MARGIN - 6}" y="{_H - _MARGIN}" text-anchor="end" '
                 f'font-family="monospace" font-size="11">0</text>\n')
    atomic_write(path, _svg("".join(parts)))


def heatmap(path: str, cells, title: str = ""):
    """Planar heatmap from (x0, y0, w, h, value) cells in data coordinates.

    Colors ramp linearly over [0, max value]; a legend strip with the two
    endpoint values is embedded on the right.
    """
    cells = list(cells)
    if not cells:
        atomic_write(path, _svg(""))
        return
    vmax = max(c[4] for c in cells)
    vmax = vmax if vmax > 0 else 1.0
    x0 = min(c[0] for c in cells)
    y0 = min(c[1] for c in cells)
    x1 = max(c[0] + c[2] for c in cells)
    y1 = max(c[1] + c[3] for c in cells)
    plot = _H - 2 * _MARGIN
    scale = plot / max(x1 - x0, y1 - y0)

    def tx(x):
        return _MARGIN + (x - x0) * scale

    def ty(y):
        return _H - _MARGIN - (y - y0) * scale  # flip so y grows upward

    parts = []
    if title:
        parts.append(f'<text x="{_W / 2}" y="25" text-anchor="middle" '
                     f'font-family="monospace" font-size="14">{title}</text>\n')
    for cx, cy, cw, ch, v in cells:
        parts.append(
            f'<rect x="{tx(cx):.2f}" y="{ty(cy + ch):.2f}" width="{cw * scale:.2f}" '
            f'height="{ch * scale:.2f}" fill="{_ramp(v / vmax)}"/>\n')
    # legend strip
    lx = _W - _MARGIN - 30
    steps = 32
    for i in range(steps):
        t = i / (steps - 1)
        ly = _H - _MARGIN - plot * t
        parts.append(f'<rect x="{lx}" y="{ly - plot / steps:.2f}" width="18" '
                     f'height="{plot / steps + 0.5:.2f}" fill="{_ramp(t)}"/>\n')
    parts.append(f'<text x="{lx + 24}" y="{_H - _MARGIN}" font-family="monospace" '
                 f'font-size="11">0</text>\n')
    parts.append(f'<text x="{lx + 24}" y="{_H - _MARGIN - plot + 10}" font-family="monospace" '
                 f'font-size="11">{vmax:.3g}</text>\n')
    atomic_write(path, _svg("".join(parts)))


def reconstruction_scene(path: str, Q, small_box, simplex, planes, title: str = ""):
    """n = 2 sketch: the box, the small box, the simplex, the plane lines."""
    lo = Q.lo_arr - 0.25 * np.asarray(Q.sides)
    hi = Q.hi + 0.25 * np.asarray(Q.sides)
    scale = (_H - 2 * _MARGIN) / float(max(hi - lo))

    def tx(x):
        return _MARGIN + (x - lo[0]) * scale

    def ty(y):
        return _H - _MARGIN - (y - lo[1]) * scale

    def rect(box, color, width):
        return (f'<rect x="{tx(box.lo[0]):.2f}" y="{ty(box.hi[1]):.2f}" '
                f'width="{box.sides[0] * scale:.2f}" height="{box.sides[1] * scale:.2f}" '
                f'fill="none" stroke="{color}" stroke-width="{width}"/>\n')

    parts = []
    if title:
        parts.append(f'<text x="{_W / 2}" y="25" text-anchor="middle" '
                     f'font-family="monospace" font-size="14">{title}</text>\n')
    parts.append(rect(Q, "black", 1.5))
    parts.append(rect(small_box, "#cc3333", 1.5))
    pts = " ".join(f"{tx(vx):.2f},{ty(vy):.2f}" for vx, vy in simplex.vertices)
    parts.append(f'<polygon points="{pts}" fill="none" stroke="#2255cc" stroke-width="1.5"/>\n')
    for plane in planes:
        e = plane.e
        base = plane.point()
        d = np.array([-e[1], e[0]])
        span = 2.0 * float(max(hi - lo))
        p0 = base - span * d
        p1 = base + span * d
        parts.append(f'<line x1="{tx(p0[0]):.2f}" y1="{ty(p0[1]):.2f}" '
                     f'x2="{tx(p1[0]):.2f}" y2="{ty(p1[1]):.2f}" '
                     f'stroke="#888888" stroke-width="0.7" stroke-dasharray="4 3"/>\n')
    atomic_write(path, _svg("".join(parts)))
