"""Seeded inputs: curves as JSON dicts and query points.

Curves are built here as plain ``{"pieces": [...]}`` dicts, the form the
library parses, so the reference checks read the same input the library
does.  Query points are drawn by stratified sampling (one jittered draw per
stratum), which keeps the mix of easy and hard queries the same from seed
to seed while every point still moves with the seed.
"""

from __future__ import annotations

import math

import numpy as np
from curvewind import curves, fixtures

from reference import RefCurve, star_shaped

TWO_PI = 2.0 * math.pi

GOOD_FIXTURES = ("circle", "ellipse", "rounded-square", "blob", "kidney")

# the query workloads run on the five fixtures plus a 64-piece blob; cubic
# curves carry twice the queries so the median falls inside the cubic
# population instead of on the edge between line/arc and cubic costs
QUERY_CURVES = GOOD_FIXTURES + ("blob64",)
QUERY_WEIGHT = {"circle": 1, "ellipse": 1, "rounded-square": 1,
                "blob": 2, "kidney": 2, "blob64": 2}

# piece counts of the 60 star loops in one certify round.  The scan costs
# the square of the count, so small loops are the many and large the few.
# Sorted by cost, the 70 operations of a round put the median in the middle
# of the twenty 24-piece loops and the 75th percentile among the ten
# 32-piece loops, away from the edge between two sizes.
STAR_PIECES = (16,) * 10 + (20,) * 10 + (24,) * 20 + (32,) * 10 + (40,) * 7 + (48, 56, 64)


def fixture_dict(name: str) -> tuple[dict, tuple[float, float]]:
    """A named curve as a JSON dict plus its parameter interval."""

    spec = fixtures.cubic_blob(64) if name == "blob64" else fixtures.fixture(name)
    return curves.curve_to_dict(spec), spec.interval


def catmull_rom_dict(pts: np.ndarray) -> dict:
    """Closed Catmull-Rom spline through pts as cubic Bezier pieces."""

    n = pts.shape[0]
    tan = 0.5 * (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0))
    pieces = []
    for k in range(n):
        p, q = pts[k], pts[(k + 1) % n]
        ctrl = [p, p + tan[k] / 3.0, q - tan[(k + 1) % n] / 3.0, q]
        pieces.append({"type": "cubic", "points": [[float(c[0]), float(c[1])] for c in ctrl]})
    return {"pieces": pieces}


def star_loop(rng: np.random.Generator, n: int) -> dict:
    """A seeded star-shaped Catmull-Rom loop of n pieces around the origin.

    Redrawn until the reference sees strictly increasing polar angle, so
    every loop it returns is simple and must pass validation.
    """

    while True:
        th = TWO_PI * (np.arange(n) + rng.uniform(-0.25, 0.25, n)) / n
        r = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, n)
        obj = catmull_rom_dict(np.column_stack([r * np.cos(th), r * np.sin(th)]))
        if star_shaped(obj):
            return obj


def bow_tie() -> dict:
    """A smooth loop through a lemniscate of Gerono, crossing itself at 0.

    The crossing sits on the joints at parameters 3 and 9, which are scan
    samples at h = 1e-2, so the scan sees a chord of length 0 there.
    """

    t = TWO_PI * np.arange(12) / 12
    return catmull_rom_dict(np.column_stack([np.cos(t), 0.5 * np.sin(2.0 * t)]))


def cusp_cubic() -> dict:
    """A closed loop whose cubic has zero speed at its start."""

    return {"pieces": [
        {"type": "cubic", "points": [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]},
        {"type": "line", "from": [1.0, 0.0], "to": [0.0, 0.0]},
    ]}


def half_circle(radius: float) -> dict:
    """An open half circle: its ends are 2 * radius apart."""

    return {"pieces": [
        {"type": "arc", "center": [0.0, 0.0], "radius": radius, "start_angle": 0.0,
         "sweep": math.pi},
    ]}


def stratified_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values in [0, 1), one in each of n equal strata, in random order."""

    return rng.permutation((np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def box_points(rng: np.random.Generator, n: int, box) -> np.ndarray:
    """n points in a box, stratified along both axes (a Latin hypercube)."""

    x0, y0, x1, y1 = box
    return np.column_stack([x0 + (x1 - x0) * stratified_unit(rng, n),
                            y0 + (y1 - y0) * stratified_unit(rng, n)])


def padded_box(box, share: float):
    x0, y0, x1, y1 = box
    px, py = share * (x1 - x0), share * (y1 - y0)
    return (x0 - px, y0 - py, x1 + px, y1 + py)


def shell_points(rng: np.random.Generator, n: int, ref: RefCurve, band: float) -> np.ndarray:
    """n points off the curve along its normal, 2 to 1000 band widths out.

    Parameters and log-offsets are both stratified; the side is random.
    """

    a, b = ref.interval
    ts = a + (b - a) * stratified_unit(rng, n)
    off = band * 10.0 ** (math.log10(2.0) + math.log10(500.0) * stratified_unit(rng, n))
    off *= rng.choice([-1.0, 1.0], n)
    tan = ref.tangents(ts)
    normal = np.column_stack([-tan[:, 1], tan[:, 0]])
    return ref.points(ts) + off[:, None] * normal


def far_points(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """n points between 1.05 and 3 times a radius, stratified in angle."""

    ang = TWO_PI * stratified_unit(rng, n)
    r = radius * (1.05 + 1.95 * stratified_unit(rng, n))
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def side_points(rng: np.random.Generator, ref: RefCurve, box, want: int,
                n: int, min_dist: float) -> np.ndarray:
    """n points in box on the reference side ``want`` (1 inside, 0 outside),
    at least min_dist from the curve."""

    out = np.empty((0, 2))
    while out.shape[0] < n:
        cand = box_points(rng, 8 * n, box)
        side, _ = ref.sides(cand, 0.0)
        lower, _ = ref.distance_bounds(cand, min_dist)
        out = np.concatenate([out, cand[(side == want) & (lower >= min_dist)]])
    return out[:n]
