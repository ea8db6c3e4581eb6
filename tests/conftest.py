from dataclasses import dataclass

import numpy as np
import pytest

from curvewind import Verdict, classify, validate_jordan
from curvewind.curves import CurveSpec
from curvewind.fixtures import fixture
from curvewind.geometry import Point
from curvewind.pieces import ArcPiece, CubicPiece, LinePiece

GOOD_FIXTURES = ("circle", "ellipse", "rounded-square", "blob", "kidney")


@pytest.fixture(scope="session")
def curves():
    """All well-formed fixtures, validated once per session."""

    return {name: validate_jordan(fixture(name), h=1e-3) for name in GOOD_FIXTURES}


def piece_points(piece, us) -> np.ndarray:
    """Oracle: one piece's points at local parameters ``us``, (m, 2), by
    the per-piece batch formulas the flat evaluator replaced; its floats
    are the ones the library must keep."""

    us = np.asarray(us, dtype=float)
    if isinstance(piece, LinePiece):
        p0 = np.array([piece.start.x, piece.start.y])
        p1 = np.array([piece.end.x, piece.end.y])
        return p0 + us[:, None] * (p1 - p0)
    if isinstance(piece, ArcPiece):
        a = piece.start_angle + piece.sweep * us
        return np.stack(
            [
                piece.center.x + piece.radius * np.cos(a),
                piece.center.y + piece.radius * np.sin(a),
            ],
            axis=1,
        )
    assert isinstance(piece, CubicPiece)
    u = us[:, None]
    v = 1.0 - u
    ctrl = np.array([p.as_tuple() for p in piece.controls()])
    return (
        v * v * v * ctrl[0]
        + 3.0 * v * v * u * ctrl[1]
        + 3.0 * v * u * u * ctrl[2]
        + u * u * u * ctrl[3]
    )


def comb(teeth: int = 40) -> CurveSpec:
    """A polygon with ``teeth`` unit-tall teeth of width 1/2 on a bar below
    y = 0: a ray from (0.25, 0.5) along +x crosses 2 * teeth - 1 sides."""

    verts = []
    for k in range(teeth):
        verts += [Point(k, 0.0), Point(k, 1.0), Point(k + 0.5, 1.0), Point(k + 0.5, 0.0)]
    verts += [Point(teeth, 0.0), Point(teeth, -1.0), Point(0.0, -1.0)]
    n = len(verts)
    return CurveSpec(tuple(LinePiece(verts[k], verts[(k + 1) % n]) for k in range(n)))


def sample_classified(jc, n, rng, min_clearance=0.0, spread=1.3):
    """Classified sample points: list of (point, Classification).

    Rejects near-carrier points and, optionally, points with less than
    ``min_clearance`` certified distance.  Sampling box is the carrier
    bounding box inflated by ``spread``.
    """

    x0, y0, x1, y1 = jc.carrier.bbox
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    hx, hy = spread * 0.5 * (x1 - x0), spread * 0.5 * (y1 - y0)
    out = []
    while len(out) < n:
        pts = rng.uniform((cx - hx, cy - hy), (cx + hx, cy + hy), size=(4 * n, 2))
        lo, _ = jc.carrier.distance_batch(pts)
        for (x, y), clearance in zip(pts, lo):
            if clearance <= min_clearance:
                continue
            c = classify(jc, (float(x), float(y)))
            if c.verdict is Verdict.NEAR_CARRIER:
                continue
            out.append(((float(x), float(y)), c))
            if len(out) == n:
                break
    return out


@dataclass(frozen=True)
class Segment:
    """A straight segment with distinct endpoints (acceptance criterion 5)."""

    start: Point
    end: Point

    def __post_init__(self) -> None:
        if self.start == self.end:
            raise ValueError("Segment endpoints must be distinct")


def dist_point_segment(p: Point, seg: Segment) -> float:
    """Distance from ``p`` to ``seg`` via projection clamped to [0, 1]."""

    d = seg.end - seg.start
    w = p - seg.start
    t = w.dot(d) / d.dot(d)
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    foot = Point(seg.start.x + t * d.x, seg.start.y + t * d.y)
    return p.dist(foot)
