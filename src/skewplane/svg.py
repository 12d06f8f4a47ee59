"""SVG rendering of construction traces.

Drawing needs coordinates that embed in the real plane, so only the
rational backend is drawable; quaternion or prime-field traces raise
UnsupportedBackendError.  Exact coordinates are converted to floats at
this boundary only (the core never touches floating point); one too
large for a float, or a drawing whose padded extent or scale is not a
finite float, is a UsageError.

The output is byte-deterministic for identical input: a fixed canvas,
a viewport autoscaled to the bounding box of the labeled points plus a
10% margin, and fixed-precision coordinate formatting.
"""

from __future__ import annotations

import math

from .constructions import ConstructionTrace
from .errors import UnsupportedBackendError, UsageError
from .plane import PlaneLine, PlanePoint
from .scalars import Rational

CANVAS_W = 640.0
CANVAS_H = 480.0
MARGIN_RATIO = 0.10

_EPS = 1e-9


def _as_float(scalar) -> float:
    if not isinstance(scalar, Rational):
        raise UnsupportedBackendError(
            "SVG output supports the rational backend only; "
            f"got a {type(scalar).__name__} coordinate")
    try:
        return scalar.numerator / scalar.denominator
    except OverflowError:
        raise UsageError("SVG output needs every coordinate within the float "
                         "range (magnitude below about 1.8e308)") from None


def _point_xy(point: PlanePoint) -> tuple[float, float]:
    return (_as_float(point.x), _as_float(point.y))


def _clip_line(line: PlaneLine, x0: float, y0: float, x1: float, y1: float):
    """The two extreme intersections of an infinite line with the box."""
    bx, by = _point_xy(line.base)
    dx, dy = _as_float(line.direction[0]), _as_float(line.direction[1])
    hits: list[tuple[float, float, float]] = []
    if abs(dx) > _EPS:
        for x_edge in (x0, x1):
            t = (x_edge - bx) / dx
            y = by + t * dy
            if y0 - _EPS <= y <= y1 + _EPS:
                hits.append((t, x_edge, y))
    if abs(dy) > _EPS:
        for y_edge in (y0, y1):
            t = (y_edge - by) / dy
            x = bx + t * dx
            if x0 - _EPS <= x <= x1 + _EPS:
                hits.append((t, x, y_edge))
    if len(hits) < 2:
        return None
    hits.sort(key=lambda h: h[0])
    first, last = hits[0], hits[-1]
    return (first[1], first[2]), (last[1], last[2])


def render_construction(trace: ConstructionTrace) -> str:
    """Render a trace to SVG text with O, I, A, B, B1, P1, C labeled."""
    labeled = [
        ("O", trace.frame.origin),
        ("I", trace.frame.unit),
        ("A", trace.a),
        ("B", trace.b),
        ("B1", trace.aux),
        ("P1", trace.p1),
        ("C", trace.result),
    ]
    coords = [_point_xy(point) for _, point in labeled]
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    x_min, x_max, y_min, y_max = min(xs), max(xs), min(ys), max(ys)
    pad_x = MARGIN_RATIO * (x_max - x_min) or 1.0
    pad_y = MARGIN_RATIO * (y_max - y_min) or 1.0
    x_min, x_max = x_min - pad_x, x_max + pad_x
    y_min, y_max = y_min - pad_y, y_max + pad_y

    scale = min(CANVAS_W / (x_max - x_min), CANVAS_H / (y_max - y_min))
    if not all(map(math.isfinite, (x_max - x_min, y_max - y_min, scale))):
        raise UsageError("SVG output needs the padded drawing and its scale "
                         "within the float range")
    offset_x = (CANVAS_W - (x_max - x_min) * scale) / 2.0
    offset_y = (CANVAS_H - (y_max - y_min) * scale) / 2.0

    def to_canvas(x: float, y: float) -> tuple[float, float]:
        # SVG's y axis points down; flip so the drawing reads math-side up.
        return (offset_x + (x - x_min) * scale,
                CANVAS_H - offset_y - (y - y_min) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W:.0f}" '
        f'height="{CANVAS_H:.0f}" viewBox="0 0 {CANVAS_W:.0f} {CANVAS_H:.0f}">',
        f'<!-- {trace.kind} construction -->',
        f'<rect x="0" y="0" width="{CANVAS_W:.0f}" height="{CANVAS_H:.0f}" fill="#ffffff"/>',
    ]
    for label, line in trace.lines:
        clipped = _clip_line(line, x_min, y_min, x_max, y_max)
        if clipped is None:
            continue
        (ax, ay), (bx, by) = clipped
        ca = to_canvas(ax, ay)
        cb = to_canvas(bx, by)
        if label == "base":
            style = 'stroke="#000000" stroke-width="1.5"'
        else:
            style = 'stroke="#888888" stroke-width="1.0"'
        parts.append(
            f'<line x1="{ca[0]:.2f}" y1="{ca[1]:.2f}" x2="{cb[0]:.2f}" '
            f'y2="{cb[1]:.2f}" {style}><title>{label}</title></line>')
    for label, point in labeled:
        cx, cy = to_canvas(*_point_xy(point))
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="#b22222"/>')
        parts.append(
            f'<text x="{cx + 6:.2f}" y="{cy - 6:.2f}" font-family="monospace" '
            f'font-size="12">{label}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def emit_svg(trace: ConstructionTrace, path) -> None:
    """Write the rendered construction to ``path`` (text, UTF-8)."""
    text = render_construction(trace)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
