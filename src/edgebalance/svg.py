"""Static SVG figure of a planar excision plan.

Shows the body outline, the dashed cavity, the construction chord, and the
labeled points: tangency O, body centroid C, cavity centroid C', balance
point P, and far chord end Q.  Output is deterministic for a given plan:
fixed element order and fixed number formatting.
"""

import math

from .planar import ExcisionPlan
from .shapes import Ellipse, Hyperball, Hypercube

_CANVAS = 560.0
_PAD = 40.0


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class _Frame:
    """Maps shape coordinates onto the canvas, with the y axis flipped."""

    def __init__(self, lo, hi):
        extent = max(hi[0] - lo[0], hi[1] - lo[1])
        self.scale = (_CANVAS - 2.0 * _PAD) / extent
        self.lo = lo
        self.hi = hi

    def point(self, p) -> tuple[float, float]:
        return (
            _PAD + (p[0] - self.lo[0]) * self.scale,
            _PAD + (self.hi[1] - p[1]) * self.scale,
        )


def _shape_element(shape, frame: _Frame, style: str) -> str:
    if isinstance(shape, Hyperball):
        cx, cy = frame.point(shape.center)
        r = shape.radius * frame.scale
        return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" {style}/>'
    if isinstance(shape, Ellipse):
        cx, cy = frame.point(shape.center)
        rx = shape.semi_axes[0] * frame.scale
        ry = shape.semi_axes[1] * frame.scale
        angle = -math.degrees(shape.rotation)  # canvas y points down
        return (
            f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" rx="{_fmt(rx)}" ry="{_fmt(ry)}" '
            f'transform="rotate({_fmt(angle)} {_fmt(cx)} {_fmt(cy)})" {style}/>'
        )
    if isinstance(shape, Hypercube):
        (x0, y0), (x1, y1) = shape.bbox()
        vertices = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    else:  # polygons and triangles
        vertices = shape.vertices
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (frame.point(v) for v in vertices))
    return f'<polygon points="{pts}" {style}/>'


def _labeled_point(p, label: str, frame: _Frame) -> str:
    x, y = frame.point(p)
    return (
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="black"/>'
        f'<text x="{_fmt(x + 7.0)}" y="{_fmt(y - 7.0)}" font-size="15" '
        f'font-family="serif" font-style="italic">{label}</text>'
    )


def render_plan(plan: ExcisionPlan) -> str:
    """SVG document for a 2-D excision plan."""
    lo, hi = plan.shape.bbox()
    frame = _Frame(lo, hi)
    chord = plan.chord
    o = frame.point(chord.tangent_point)
    q = frame.point(chord.far_point)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" '
        f'height="{int(_CANVAS)}" viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        _shape_element(plan.shape, frame, 'fill="#eef3fb" stroke="black" stroke-width="1.5"'),
        _shape_element(
            plan.cavity,
            frame,
            'fill="white" stroke="black" stroke-width="1.2" stroke-dasharray="6 4"',
        ),
        f'<line x1="{_fmt(o[0])}" y1="{_fmt(o[1])}" x2="{_fmt(q[0])}" y2="{_fmt(q[1])}" '
        'stroke="#555555" stroke-width="0.8"/>',
        _labeled_point(chord.tangent_point, "O", frame),
        _labeled_point(chord.centroid, "C", frame),
        _labeled_point(plan.cavity.centroid(), "C&#8242;", frame),
        _labeled_point(plan.balance_point, "P", frame),
        _labeled_point(chord.far_point, "Q", frame),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
