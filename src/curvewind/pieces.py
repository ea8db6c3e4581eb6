"""Segment pieces: straight lines, circular arcs, cubic Bezier spans.

Each piece is a smooth map from the local parameter u in [0, 1] into the
plane with a closed-form derivative.  Pieces also know how to bound their
own speed |dp/du| from both sides, report a bounding box, flatten into the
row format the numeric kernels consume, and map themselves through an
affine transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Point, as_point

__all__ = [
    "KIND_LINE",
    "KIND_ARC",
    "KIND_CUBIC",
    "FULL_TURN_TOL",
    "LinePiece",
    "ArcPiece",
    "CubicPiece",
    "Piece",
]

KIND_LINE = 0
KIND_ARC = 1
KIND_CUBIC = 2

# |sweep| within this of 2*pi is treated as a full circle
FULL_TURN_TOL = 1e-12

_SIMILARITY_TOL = 1e-9
_HODOGRAPH_DEPTH = 20


def _seg_dist_origin(ax: float, ay: float, bx: float, by: float) -> float:
    ex, ey = bx - ax, by - ay
    denom = ex * ex + ey * ey
    if denom == 0.0:
        return math.hypot(ax, ay)
    t = -(ax * ex + ay * ey) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(ax + t * ex, ay + t * ey)


def _tri_dist_origin(ax, ay, bx, by, cx, cy) -> float:
    """Distance from the origin to a filled triangle (0 when inside)."""

    orient = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    s1 = (bx - ax) * (-ay) - (by - ay) * (-ax)
    s2 = (cx - bx) * (-by) - (cy - by) * (-bx)
    s3 = (ax - cx) * (-cy) - (ay - cy) * (-cx)
    if orient > 0.0 and s1 > 0.0 and s2 > 0.0 and s3 > 0.0:
        return 0.0
    if orient < 0.0 and s1 < 0.0 and s2 < 0.0 and s3 < 0.0:
        return 0.0
    return min(
        _seg_dist_origin(ax, ay, bx, by),
        _seg_dist_origin(bx, by, cx, cy),
        _seg_dist_origin(cx, cy, ax, ay),
    )


def _check_similarity(m: tuple[float, ...]) -> tuple[float, float]:
    """Return (scale, det) of the linear part, requiring a similarity."""

    a, b, c, d = m[0], m[1], m[2], m[3]
    det = a * d - b * c
    col1 = a * a + c * c
    col2 = b * b + d * d
    scale2 = 0.5 * (col1 + col2)
    if scale2 <= 0.0:
        raise ValueError("transform collapses the plane")
    if abs(col1 - col2) > _SIMILARITY_TOL * scale2 or abs(
        a * b + c * d
    ) > _SIMILARITY_TOL * scale2:
        raise ValueError(
            "arc pieces only survive similarity transforms "
            "(uniform scale, rotation, reflection, translation)"
        )
    return math.sqrt(scale2), det


def _apply(m: tuple[float, ...], p: Point) -> Point:
    return Point(
        m[0] * p.x + m[1] * p.y + m[4],
        m[2] * p.x + m[3] * p.y + m[5],
    )


@dataclass(frozen=True)
class LinePiece:
    """Straight segment from ``start`` to ``end``."""

    start: Point
    end: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_point(self.start))
        object.__setattr__(self, "end", as_point(self.end))
        if self.start.dist(self.end) == 0.0:
            raise ValueError("line piece endpoints must be distinct")

    kind = KIND_LINE

    def point(self, u: float) -> Point:
        return Point(
            self.start.x + u * (self.end.x - self.start.x),
            self.start.y + u * (self.end.y - self.start.y),
        )

    def velocity(self, u: float) -> Point:
        return self.end - self.start

    def speed_bounds(self) -> tuple[float, float]:
        L = self.start.dist(self.end)
        return L, L

    def bbox(self) -> tuple[float, float, float, float]:
        return (
            min(self.start.x, self.end.x),
            min(self.start.y, self.end.y),
            max(self.start.x, self.end.x),
            max(self.start.y, self.end.y),
        )

    def to_row(self) -> list[float]:
        return [self.start.x, self.start.y, self.end.x, self.end.y, 0, 0, 0, 0]

    def transformed(self, m: tuple[float, ...]) -> "LinePiece":
        return LinePiece(_apply(m, self.start), _apply(m, self.end))


@dataclass(frozen=True)
class ArcPiece:
    """Circular arc: center + radius * exp(i*(start_angle + sweep*u)).

    ``sweep`` is signed (positive = counterclockwise) with
    0 < |sweep| <= 2*pi; a |sweep| of exactly 2*pi traces the full circle.
    """

    center: Point
    radius: float
    start_angle: float
    sweep: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("arc radius must be positive and finite")
        if not (0.0 < abs(self.sweep) <= math.tau + FULL_TURN_TOL):
            raise ValueError("arc sweep must satisfy 0 < |sweep| <= 2*pi")
        if not math.isfinite(self.start_angle):
            raise ValueError("arc start_angle must be finite")

    kind = KIND_ARC

    @property
    def is_full_turn(self) -> bool:
        return abs(abs(self.sweep) - math.tau) <= FULL_TURN_TOL

    def point(self, u: float) -> Point:
        a = self.start_angle + self.sweep * u
        return Point(
            self.center.x + self.radius * math.cos(a),
            self.center.y + self.radius * math.sin(a),
        )

    def velocity(self, u: float) -> Point:
        a = self.start_angle + self.sweep * u
        rs = self.radius * self.sweep
        return Point(-rs * math.sin(a), rs * math.cos(a))

    def speed_bounds(self) -> tuple[float, float]:
        s = self.radius * abs(self.sweep)
        return s, s

    def bbox(self) -> tuple[float, float, float, float]:
        a0 = self.start_angle
        a1 = self.start_angle + self.sweep
        lo, hi = (a0, a1) if a1 >= a0 else (a1, a0)
        xs = [self.point(0.0).x, self.point(1.0).x]
        ys = [self.point(0.0).y, self.point(1.0).y]
        k = math.floor(lo / (math.pi / 2))
        ang = k * math.pi / 2
        while ang <= hi:
            if ang >= lo:
                xs.append(self.center.x + self.radius * math.cos(ang))
                ys.append(self.center.y + self.radius * math.sin(ang))
            ang += math.pi / 2
        return (min(xs), min(ys), max(xs), max(ys))

    def to_row(self) -> list[float]:
        return [
            self.center.x,
            self.center.y,
            self.radius,
            self.start_angle,
            self.sweep,
            0,
            0,
            0,
        ]

    def transformed(self, m: tuple[float, ...]) -> "ArcPiece":
        scale, det = _check_similarity(m)
        c = _apply(m, self.center)
        p0 = _apply(m, self.point(0.0))
        a0 = math.atan2(p0.y - c.y, p0.x - c.x)
        sweep = self.sweep if det > 0 else -self.sweep
        return ArcPiece(c, self.radius * scale, a0, sweep)


@dataclass(frozen=True)
class CubicPiece:
    """Cubic Bezier span with control points p0..p3."""

    p0: Point
    p1: Point
    p2: Point
    p3: Point

    def __post_init__(self) -> None:
        for name in ("p0", "p1", "p2", "p3"):
            object.__setattr__(self, name, as_point(getattr(self, name)))

    kind = KIND_CUBIC

    def controls(self) -> tuple[Point, Point, Point, Point]:
        return (self.p0, self.p1, self.p2, self.p3)

    def point(self, u: float) -> Point:
        v = 1.0 - u
        b0 = v * v * v
        b1 = 3.0 * v * v * u
        b2 = 3.0 * v * u * u
        b3 = u * u * u
        return Point(
            b0 * self.p0.x + b1 * self.p1.x + b2 * self.p2.x + b3 * self.p3.x,
            b0 * self.p0.y + b1 * self.p1.y + b2 * self.p2.y + b3 * self.p3.y,
        )

    def velocity(self, u: float) -> Point:
        v = 1.0 - u
        c0 = 3.0 * v * v
        c1 = 6.0 * v * u
        c2 = 3.0 * u * u
        return Point(
            c0 * (self.p1.x - self.p0.x)
            + c1 * (self.p2.x - self.p1.x)
            + c2 * (self.p3.x - self.p2.x),
            c0 * (self.p1.y - self.p0.y)
            + c1 * (self.p2.y - self.p1.y)
            + c2 * (self.p3.y - self.p2.y),
        )

    def hodograph(self) -> tuple[Point, Point, Point]:
        """Control vectors of the derivative (a quadratic Bezier)."""

        return (
            (self.p1 - self.p0).scaled(3.0),
            (self.p2 - self.p1).scaled(3.0),
            (self.p3 - self.p2).scaled(3.0),
        )

    def speed_bounds(self) -> tuple[float, float]:
        """Certified (lower, upper) bounds for |dp/du| on [0, 1].

        The upper bound is the largest hodograph control magnitude.  The
        lower bound refines the hodograph control triangle by bisection
        wherever the triangle still contains the origin; if it never clears
        the origin within the depth cap, the bound is reported as 0 and the
        caller decides whether that disqualifies the piece.
        """

        d0, d1, d2 = self.hodograph()
        hi = max(d0.norm(), d1.norm(), d2.norm())
        stack = [(d0.x, d0.y, d1.x, d1.y, d2.x, d2.y, 0)]
        lo = math.inf
        while stack:
            ax, ay, bx, by, cx, cy, depth = stack.pop()
            d = _tri_dist_origin(ax, ay, bx, by, cx, cy)
            if d > 0.0:
                lo = min(lo, d)
                continue
            if depth >= _HODOGRAPH_DEPTH:
                return 0.0, hi
            m01x, m01y = 0.5 * (ax + bx), 0.5 * (ay + by)
            m12x, m12y = 0.5 * (bx + cx), 0.5 * (by + cy)
            mx, my = 0.5 * (m01x + m12x), 0.5 * (m01y + m12y)
            stack.append((ax, ay, m01x, m01y, mx, my, depth + 1))
            stack.append((mx, my, m12x, m12y, cx, cy, depth + 1))
        return lo, hi

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p.x for p in self.controls()]
        ys = [p.y for p in self.controls()]
        return (min(xs), min(ys), max(xs), max(ys))

    def to_row(self) -> list[float]:
        return [
            self.p0.x,
            self.p0.y,
            self.p1.x,
            self.p1.y,
            self.p2.x,
            self.p2.y,
            self.p3.x,
            self.p3.y,
        ]

    def transformed(self, m: tuple[float, ...]) -> "CubicPiece":
        return CubicPiece(*(_apply(m, p) for p in self.controls()))


Piece = LinePiece | ArcPiece | CubicPiece
