"""Planar points: an immutable finite-coordinate :class:`Point` and coercion."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Point"]


def _require_finite(name: str, *vals: float) -> None:
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{name} must have finite coordinates, got {v!r}")


@dataclass(frozen=True)
class Point:
    """A point in the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite("Point", self.x, self.y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, s: float) -> "Point":
        return Point(self.x * s, self.y * s)

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def as_point(p) -> Point:
    """Coerce a Point, complex, or (x, y) pair into a Point."""

    if isinstance(p, Point):
        return p
    if isinstance(p, complex):
        return Point(p.real, p.imag)
    x, y = p
    return Point(float(x), float(y))
