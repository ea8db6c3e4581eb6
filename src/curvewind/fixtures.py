"""Ready-made test curves covering all piece kinds and failure modes.

Every constructor returns a plain :class:`CurveSpec`; run
:func:`~curvewind.curves.validate_jordan` to get certificates.  The
figure-eight is deliberately self-touching and must fail validation.
"""

from __future__ import annotations

import math

from .curves import CurveSpec, unit_circular_path
from .geometry import Point
from .pieces import ArcPiece, CubicPiece, LinePiece

__all__ = [
    "circle",
    "rotated_ellipse",
    "rounded_square",
    "cubic_blob",
    "kidney",
    "figure_eight",
    "arc_through",
    "FIXTURES",
    "fixture",
]


def arc_through(p0: Point, pm: Point, p1: Point) -> ArcPiece:
    """The circular arc from p0 to p1 passing through pm."""

    d = 2.0 * (
        p0.x * (pm.y - p1.y) + pm.x * (p1.y - p0.y) + p1.x * (p0.y - pm.y)
    )
    if abs(d) < 1e-12:
        raise ValueError("arc_through needs non-collinear points")
    s0 = p0.x * p0.x + p0.y * p0.y
    sm = pm.x * pm.x + pm.y * pm.y
    s1 = p1.x * p1.x + p1.y * p1.y
    cx = (s0 * (pm.y - p1.y) + sm * (p1.y - p0.y) + s1 * (p0.y - pm.y)) / d
    cy = (s0 * (p1.x - pm.x) + sm * (p0.x - p1.x) + s1 * (pm.x - p0.x)) / d
    center = Point(cx, cy)
    radius = center.dist(p0)
    a0 = math.atan2(p0.y - cy, p0.x - cx)
    dm = math.fmod(math.atan2(pm.y - cy, pm.x - cx) - a0, math.tau) % math.tau
    d1 = math.fmod(math.atan2(p1.y - cy, p1.x - cx) - a0, math.tau) % math.tau
    sweep = d1 if dm < d1 else d1 - math.tau
    return ArcPiece(center, radius, a0, sweep)


def circle() -> CurveSpec:
    """Unit circle on [0, 2*pi], the canonical smoke fixture."""

    return unit_circular_path()


def rotated_ellipse(
    rx: float = 1.4, ry: float = 0.8, tilt: float = math.pi / 6, n_arcs: int = 8
) -> CurveSpec:
    """Tilted ellipse approximated by circular arcs through sampled points."""

    ct, st = math.cos(tilt), math.sin(tilt)
    pts = []
    for j in range(2 * n_arcs):
        th = math.tau * j / (2 * n_arcs)
        x, y = rx * math.cos(th), ry * math.sin(th)
        pts.append(Point(ct * x - st * y, st * x + ct * y))
    pieces = []
    for k in range(n_arcs):
        pieces.append(
            arc_through(pts[2 * k], pts[2 * k + 1], pts[(2 * k + 2) % (2 * n_arcs)])
        )
    return CurveSpec(tuple(pieces))


def rounded_square(half: float = 1.0, corner: float = 0.3) -> CurveSpec:
    """Axis-aligned square with quarter-circle corners, counterclockwise."""

    if not 0.0 < corner < half:
        raise ValueError("corner radius must be in (0, half)")
    a = half
    r = corner
    q = half - corner
    pieces = (
        LinePiece(Point(a, -q), Point(a, q)),
        ArcPiece(Point(q, q), r, 0.0, math.pi / 2),
        LinePiece(Point(q, a), Point(-q, a)),
        ArcPiece(Point(-q, q), r, math.pi / 2, math.pi / 2),
        LinePiece(Point(-a, q), Point(-a, -q)),
        ArcPiece(Point(-q, -q), r, math.pi, math.pi / 2),
        LinePiece(Point(-q, -a), Point(q, -a)),
        ArcPiece(Point(q, -q), r, 3 * math.pi / 2, math.pi / 2),
    )
    return CurveSpec(pieces)


def _catmull_rom_loop(pts: list[Point]) -> CurveSpec:
    n = len(pts)
    tangents = [
        Point(
            0.5 * (pts[(k + 1) % n].x - pts[(k - 1) % n].x),
            0.5 * (pts[(k + 1) % n].y - pts[(k - 1) % n].y),
        )
        for k in range(n)
    ]
    pieces = []
    for k in range(n):
        p, q = pts[k], pts[(k + 1) % n]
        mp, mq = tangents[k], tangents[(k + 1) % n]
        pieces.append(
            CubicPiece(
                p,
                Point(p.x + mp.x / 3.0, p.y + mp.y / 3.0),
                Point(q.x - mq.x / 3.0, q.y - mq.y / 3.0),
                q,
            )
        )
    return CurveSpec(tuple(pieces))


def cubic_blob(n_points: int = 8, wobble: float = 0.25) -> CurveSpec:
    """Smooth closed cubic spline around a three-lobed radius profile."""

    pts = []
    for k in range(n_points):
        th = math.tau * k / n_points
        r = 1.0 + wobble * math.cos(3.0 * th)
        pts.append(Point(r * math.cos(th), r * math.sin(th)))
    return _catmull_rom_loop(pts)


def kidney() -> CurveSpec:
    """Non-convex blob: a ring of control points with one deep dent."""

    radii = [0.45, 0.8] + [1.0] * 9 + [0.8]
    pts = []
    for k, r in enumerate(radii):
        th = math.tau * k / len(radii)
        pts.append(Point(r * math.cos(th), r * math.sin(th)))
    return _catmull_rom_loop(pts)


def figure_eight() -> CurveSpec:
    """Two unit circles tangent at the origin.  Fails injectivity there."""

    return CurveSpec(
        (
            ArcPiece(Point(-1.0, 0.0), 1.0, 0.0, math.tau),
            ArcPiece(Point(1.0, 0.0), 1.0, math.pi, -math.tau),
        )
    )


FIXTURES = {
    "circle": circle,
    "ellipse": rotated_ellipse,
    "rounded-square": rounded_square,
    "blob": cubic_blob,
    "kidney": kidney,
    "figure-eight": figure_eight,
}


def fixture(name: str) -> CurveSpec:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}, have {sorted(FIXTURES)}"
        ) from None
