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


# the pieces' closed forms, which every evaluator calls, so a curve point is
# the same float wherever it is taken; all but _arc_xy take numpy arrays too
def _lerp(a, b, u):
    """The point at u of the segment from a to b, one coordinate."""

    return a + u * (b - a)


def _arc_xy(cx, cy, r, angle):
    """The point at ``angle`` on the circle about (cx, cy) of radius r."""

    return cx + r * math.cos(angle), cy + r * math.sin(angle)


def _bernstein(c0, c1, c2, c3, u):
    """Value at u of the cubic with Bernstein coefficients c0..c3."""

    v = 1.0 - u
    return v * v * v * c0 + 3.0 * v * v * u * c1 + 3.0 * v * u * u * c2 + u * u * u * c3


def _bernstein_slope(c0, c1, c2, c3, u):
    """Derivative in u of ``_bernstein(c0, c1, c2, c3, u)``."""

    v = 1.0 - u
    return 3.0 * v * v * (c1 - c0) + 6.0 * v * u * (c2 - c1) + 3.0 * u * u * (c3 - c2)


def _sweep_offset(theta, a0, sign):
    """The angle from a0 to theta along a sweep of sign +-1.0, modulo 2*pi."""

    return (sign * (theta - a0)) % math.tau


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


def _linear_part(m: tuple[float, ...]) -> tuple[tuple[float, ...], int]:
    """The linear part (a, b, c, d) of the affine map ``m`` times 2**-e, and
    e, which brings its largest entry into [0.5, 1): no square overflows."""

    e = math.frexp(max(abs(v) for v in m[:4]))[1]
    return tuple(math.ldexp(v, -e) for v in m[:4]), e


def _check_similarity(m: tuple[float, ...]) -> tuple[float, float]:
    """Return (scale, det) of the linear part, requiring a similarity; det
    is that of ``_linear_part``, of the same sign."""

    (a, b, c, d), e = _linear_part(m)
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
    return math.ldexp(math.sqrt(scale2), e), det


def _box(pts) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) around the (x, y) pairs ``pts``."""

    xs, ys = zip(*pts)
    return (min(xs), min(ys), max(xs), max(ys))


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
        s, e = self.start, self.end
        return Point(_lerp(s.x, e.x, u), _lerp(s.y, e.y, u))

    def velocity(self, u: float) -> Point:
        return self.end - self.start

    def speed_bounds(self) -> tuple[float, float]:
        L = self.start.dist(self.end)
        return L, L

    def bbox(self) -> tuple[float, float, float, float]:
        return _box((self.start.as_tuple(), self.end.as_tuple()))

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
        return Point(*_arc_xy(self.center.x, self.center.y, self.radius, a))

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
        pts = [self.point(0.0).as_tuple(), self.point(1.0).as_tuple()]
        k = math.floor(lo / (math.pi / 2))
        ang = k * math.pi / 2
        while ang <= hi:
            if ang >= lo:
                pts.append(_arc_xy(self.center.x, self.center.y, self.radius, ang))
            ang += math.pi / 2
        return _box(pts)

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
        """The arc under the similarity ``m``.  Its first column turns the
        x axis by ``turn``, so an angle a maps to turn + a, or to turn - a
        when ``m`` reflects.  ``fmod`` by 2 pi is exact and keeps any
        angle below 2 pi in size as it is: a scaling keeps the start angle
        exactly, and a chain of maps cannot let it grow."""

        scale, det = _check_similarity(m)
        turn = math.atan2(m[2], m[0])
        if det > 0:
            a0, sweep = turn + self.start_angle, self.sweep
        else:
            a0, sweep = turn - self.start_angle, -self.sweep
        a0 = math.fmod(a0, math.tau)
        return ArcPiece(_apply(m, self.center), self.radius * scale, a0, sweep)


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
        p0, p1, p2, p3 = self.controls()
        return Point(
            _bernstein(p0.x, p1.x, p2.x, p3.x, u),
            _bernstein(p0.y, p1.y, p2.y, p3.y, u),
        )

    def velocity(self, u: float) -> Point:
        p0, p1, p2, p3 = self.controls()
        return Point(
            _bernstein_slope(p0.x, p1.x, p2.x, p3.x, u),
            _bernstein_slope(p0.y, p1.y, p2.y, p3.y, u),
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
        return _box([p.as_tuple() for p in self.controls()])

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
