"""Planar points: an immutable finite-coordinate :class:`Point` and coercion."""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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


def _is_real(v) -> bool:
    # bool and numpy's bool_ are numbers to Python, never coordinates.  A
    # float, the common case, skips the abstract class checks, as tuple and
    # list do below: with both, perfbench's classify op_p50_ms read 1.9%
    # lower, better in 9 of 10 alternating pairs
    return type(v) is float or (
        isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
    )


def as_point(p) -> Point:
    """Coerce a Point, a complex, or a length-2 sequence or 1-D array of
    real numbers into a Point.  Anything else, a string, a mapping, a set
    or a pair of bools among them, raises TypeError."""

    if isinstance(p, Point):
        return p
    if isinstance(p, complex):
        return Point(float(p.real), float(p.imag))
    xy = p.tolist() if isinstance(p, np.ndarray) and p.ndim == 1 else p
    if (
        isinstance(xy, (tuple, list, Sequence))
        and not isinstance(xy, (str, bytes, bytearray))
        and len(xy) == 2
        and _is_real(xy[0])
        and _is_real(xy[1])
    ):
        return Point(float(xy[0]), float(xy[1]))
    raise TypeError(f"expected a point: a Point, a complex or an (x, y) pair, got {p!r}")
