"""Deterministic SVG rendering of curves and region shadings.

Pieces map to native path commands (L, A, C); arcs wider than pi are split
so the large-arc flag is never needed.  The y axis is flipped to keep math
orientation (counterclockwise positive) on screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import CurveSpec
from .pieces import ArcPiece, CubicPiece, LinePiece, _arc_xy

__all__ = ["render_svg"]

_INSIDE_FILL = "#cfe3f7"
_NEAR_FILL = "#f7e3a1"


@dataclass(frozen=True)
class _Frame:
    x0: float
    y0: float
    scale: float
    height: float
    pad: float

    def map(self, x: float, y: float) -> tuple[float, float]:
        return (
            (x - self.x0) * self.scale + self.pad,
            self.height - ((y - self.y0) * self.scale + self.pad),
        )

    def xy(self, x: float, y: float) -> str:
        """The point ``map`` takes (x, y) to, as path data."""

        return " ".join(_fmt(v) for v in self.map(x, y))


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _frame_for(bbox: tuple[float, float, float, float], size: int) -> _Frame:
    x0, y0, x1, y1 = bbox
    pad = 0.05 * size
    # only a curve of degenerate pieces has no extent to fill the frame
    span = max(x1 - x0, y1 - y0) or 1e-9
    scale = (size - 2 * pad) / span
    return _Frame(x0=x0, y0=y0, scale=scale, height=size, pad=pad)


def _path_data(spec: CurveSpec, fr: _Frame) -> str:
    start = spec.pieces[0].point(0.0)
    parts = [f"M {fr.xy(start.x, start.y)}"]
    for piece in spec.pieces:
        if isinstance(piece, LinePiece):
            parts.append(f"L {fr.xy(piece.end.x, piece.end.y)}")
        elif isinstance(piece, ArcPiece):
            n = max(1, int(math.ceil(abs(piece.sweep) / math.pi - 1e-12)))
            r = piece.radius * fr.scale
            # math-positive sweep appears angle-decreasing after the y flip
            flag = 0 if piece.sweep > 0 else 1
            for k in range(1, n + 1):
                a = piece.start_angle + piece.sweep * k / n
                end = _arc_xy(piece.center.x, piece.center.y, piece.radius, a)
                parts.append(f"A {_fmt(r)} {_fmt(r)} 0 0 {flag} {fr.xy(*end)}")
        else:
            assert isinstance(piece, CubicPiece)
            parts.append("C " + " ".join(fr.xy(p.x, p.y) for p in piece.controls()[1:]))
    if spec.is_closed:
        parts.append("Z")
    return " ".join(parts)


def render_svg(spec: CurveSpec, size: int = 640, shade=None) -> str:
    """Render a curve (plus an optional shading) to an SVG document string.

    ``shade`` accepts a :class:`~curvewind.index.RegionGrid`: inside cells
    are tinted, invalid (near-carrier) cells get a warning tone.
    """

    fr = _frame_for(spec.bbox, size)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    if shade is not None:
        side = shade.spacing * fr.scale
        cells = []
        for (cx, cy), w, v in zip(shade.centers, shade.winding, shade.valid):
            if v and w == 0:
                continue
            fill = _INSIDE_FILL if v else _NEAR_FILL
            x, y = fr.map(float(cx), float(cy))
            cells.append(
                f'<rect x="{_fmt(x - side / 2)}" y="{_fmt(y - side / 2)}" '
                f'width="{_fmt(side)}" height="{_fmt(side)}" fill="{fill}"/>'
            )
        out.append(f'<g stroke="none">{"".join(cells)}</g>')
    out.append(
        f'<path d="{_path_data(spec, fr)}" fill="none" stroke="#202020" '
        f'stroke-width="1.5"/>'
    )
    out.append("</svg>")
    return "\n".join(out)
