"""Polygonal joins between points through carrier-free corridors.

A cell of side h is marked free when the carrier clearance at its center
is at least ``clearance + h * sqrt(2) / 2``; since the distance function is
1-Lipschitz, every point of a free cell then keeps the full ``clearance``.
Joins are found by 8-connected BFS over free cells and straightened by
greedy string pulling, where every shortcut segment is re-certified by
sampling before it is accepted.  A failed search raises
:class:`NoPathAtResolution`, which is a statement about this grid only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curves import _MAX_GRID_CELLS, JordanCurve, _grid_size, _lattice
from .errors import NoPathAtResolution, PointTooClose
from .geometry import Point, as_point
from .pieces import _lerp

__all__ = [
    "ClearanceGrid",
    "PolygonalJoin",
    "polygonal_join",
    "path_carrier_gap",
]

# free-cell margin: sqrt(2)/2 covers any point of the cell, the extra 1/4
# keeps the midpoint of a diagonal hop (0.707h from both centers) certifiable
# by sampling with slack to spare
_FREE_MARGIN = math.sqrt(2.0) / 2.0 + 0.25


def _check_clearance_and_cell(clearance: float, h: float) -> None:
    """Raise ValueError unless ``clearance`` is finite and non-negative and
    the cell size ``h`` is finite and positive."""

    if not (math.isfinite(clearance) and clearance >= 0.0):
        raise ValueError(f"clearance must be finite and non-negative, got {clearance!r}")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"cell size h must be finite and positive, got {h!r}")


@dataclass(frozen=True)
class ClearanceGrid:
    """Free/blocked cells for a fixed clearance at resolution h."""

    origin: tuple[float, float]
    h: float
    clearance: float
    free: np.ndarray

    @classmethod
    def build(
        cls,
        jc: JordanCurve,
        clearance: float,
        h: float,
        bbox: tuple[float, float, float, float] | None = None,
    ) -> "ClearanceGrid":
        """The grid of cells of side ``h`` over ``bbox`` (the carrier's
        bounding box, padded, by default).  Raises ValueError for a
        clearance that is not finite and non-negative, a cell size h
        that is not finite and positive, a ``bbox`` (x0, y0, x1, y1) that
        holds a NaN or has x1 <= x0 or y1 <= y0, or more than
        ``curves._MAX_GRID_CELLS`` cells."""

        _check_clearance_and_cell(clearance, h)
        if bbox is None:
            bbox = _padded_bbox(jc, clearance, h)
        x0, y0, x1, y1 = bbox
        if any(math.isnan(v) for v in bbox):
            raise ValueError(f"bbox {tuple(bbox)!r} is not finite: it holds a NaN")
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"bbox {tuple(bbox)!r} needs x0 < x1 and y0 < y1")
        nx, ny = _grid_size(
            max(np.ceil((x1 - x0) / h), 2.0), max(np.ceil((y1 - y0) / h), 2.0)
        )
        rows, cols = np.indices((ny, nx), sparse=True)
        centers = _lattice((x0, y0), h, rows + 0.5, cols + 0.5)
        need = clearance + h * _FREE_MARGIN
        lo, _ = jc.carrier.distance_batch(centers, need)
        free = (lo >= need).astype(np.uint8).reshape(ny, nx)
        return cls(origin=(x0, y0), h=h, clearance=clearance, free=free)

    def _cells(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and in-grid mask of the cells holding the (m, 2)
        points; a cell holds its lower and left edges.  Offsets beyond
        +-2**62 cells, all outside the grid, are clipped there, so the
        cast to int64 stays in range."""

        ny, nx = self.free.shape
        cells = np.floor((pts - self.origin) / self.h)
        cells = np.clip(cells, -(2.0**62), 2.0**62).astype(np.int64)
        inside = ((cells >= 0) & (cells < (nx, ny))).all(axis=1)
        return cells[:, 1], cells[:, 0], inside


def _padded_bbox(jc: JordanCurve, clearance: float, h: float, *ends: Point):
    """The carrier's bounding box, grown to hold the points ``ends``, with
    ``clearance + 4h`` of padding on every side: ``ClearanceGrid.build``'s
    default box, and the box ``polygonal_join`` builds a grid over."""

    x0, y0, x1, y1 = jc.carrier.bbox
    xs, ys = [p.x for p in ends], [p.y for p in ends]
    pad = clearance + 4.0 * h
    return (
        min([x0, *xs]) - pad,
        min([y0, *ys]) - pad,
        max([x1, *xs]) + pad,
        max([y1, *ys]) + pad,
    )


@dataclass(frozen=True)
class PolygonalJoin:
    """A certified clear polyline from z1 to z2."""

    vertices: tuple[Point, ...]
    clearance: float
    gap: float
    resolution: float

    @property
    def length(self) -> float:
        return sum(
            self.vertices[k].dist(self.vertices[k + 1])
            for k in range(len(self.vertices) - 1)
        )


def _segment_samples(p: Point, q: Point, spacing: float) -> np.ndarray:
    n = max(int(math.ceil(p.dist(q) / spacing)), 1)
    t = np.linspace(0.0, 1.0, n + 1)
    return np.column_stack([_lerp(p.x, q.x, t), _lerp(p.y, q.y, t)])


def path_carrier_gap(jc: JordanCurve, vertices, spacing: float) -> float:
    """Certified lower bound on carrier clearance along the whole polyline.

    Samples every edge at the given spacing (one vertex is a path of one
    point) and subtracts the Lipschitz slack spacing / 2, so the bound holds
    between samples too.  Raises ValueError for an empty path, a spacing
    that is not finite and positive, or more than
    ``curves._MAX_GRID_CELLS`` samples.
    """

    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing must be finite and positive, got {spacing!r}")
    pts = [as_point(v) for v in vertices]
    if not pts:
        raise ValueError("a path needs at least one vertex")
    edges = list(zip(pts, pts[1:])) or [(pts[0], pts[0])]
    # counted in floats, which may be inf, before any sample is built
    count = sum(max(np.ceil(p.dist(q) / spacing), 1.0) + 1.0 for p, q in edges)
    if not count <= _MAX_GRID_CELLS:
        raise ValueError(
            f"a path sampled at spacing {spacing!r} takes {count:.4g} points, "
            f"more than {_MAX_GRID_CELLS}"
        )
    samples = np.concatenate([_segment_samples(p, q, spacing) for p, q in edges])
    return jc.carrier.least_distance(samples) - spacing / 2.0


def _segment_clear(
    jc: JordanCurve,
    p: Point,
    q: Point,
    clearance: float,
    spacing: float,
    grid: ClearanceGrid,
) -> bool:
    """Whether the segment p-q keeps ``clearance``, sampled at ``spacing``
    on a ``grid`` built for that clearance with h = 4 * spacing."""

    pts = _segment_samples(p, q, spacing)
    # any point of a free cell clears: the centre certifies
    # clearance + h*(sqrt(2)/2 + 1/4) and the Lipschitz slack to the
    # farthest corner eats sqrt(2)/2 * h, leaving clearance + h/4
    # >= clearance + spacing/2.  Only strays need an exact scan.
    rows, cols, inside = grid._cells(pts)
    certified = np.zeros(pts.shape[0], dtype=bool)
    certified[inside] = grid.free[rows[inside], cols[inside]] == 1
    pts = pts[~certified]
    if pts.shape[0] == 0:
        return True
    need = clearance + spacing / 2.0
    lo, _ = jc.carrier.distance_batch(pts, need)
    return bool(lo.min() >= need)


def polygonal_join(
    jc: JordanCurve,
    z1,
    z2,
    clearance: float,
    h: float,
    grid: ClearanceGrid | None = None,
) -> PolygonalJoin:
    """Find a polyline from z1 to z2 keeping ``clearance`` from the carrier.

    Both endpoints need certified clearance of at least ``clearance + h``.
    Raises ValueError for a clearance that is not finite and non-negative
    or a cell size h that is not finite and positive, and
    :class:`NoPathAtResolution` when no free corridor exists at cell
    size h; pass a prebuilt ``grid`` to amortise the clearance field over
    many queries (it must use the same clearance and cover both endpoints).
    """

    _check_clearance_and_cell(clearance, h)
    p1, p2 = as_point(z1), as_point(z2)
    need = clearance + h
    for p in (p1, p2):
        lo, hi = jc.carrier.distance(p, need)
        if lo < need:
            raise PointTooClose(
                f"endpoint ({p.x!r}, {p.y!r}) has clearance in "
                f"[{lo:.3e}, {hi:.3e}], needs {need:.3e}"
            )
    ends = np.array([p1.as_tuple(), p2.as_tuple()])
    if grid is None or not grid._cells(ends)[2].all():
        bbox = _padded_bbox(jc, clearance, h, p1, p2)
        grid = ClearanceGrid.build(jc, clearance, h, bbox)
    elif grid.clearance != clearance or grid.h != h:
        raise ValueError("prebuilt grid does not match clearance/resolution")

    rows, cols, _ = grid._cells(ends)
    # Python ints: grid_path walks back cell by cell in Python, where
    # numpy scalars are slow
    start, goal = zip(rows.tolist(), cols.tolist())
    # an endpoint cell's centre may miss clearance + h * _FREE_MARGIN, so the
    # search enters it; _segment_clear certifies on the grid's free cells
    free = grid.free.copy()
    free[rows, cols] = 1
    cells = _kernels.grid_path(free, start, goal)
    if cells is None:
        raise NoPathAtResolution(
            f"no free corridor of clearance {clearance:.3e} at cell size {h:.3e}",
            h,
        )

    rows, cols = np.array(cells).T
    centers = _lattice(grid.origin, grid.h, rows + 0.5, cols + 0.5).tolist()
    vertices = [p1, *(Point(x, y) for x, y in centers), p2]

    # shortcut by halving candidate step sizes: O(log) certifications per
    # hop, and the unit step between neighbouring free cells always passes
    spacing = h / 4.0
    pulled: list[Point] = [vertices[0]]
    i = 0
    while i < len(vertices) - 1:
        step = len(vertices) - 1 - i
        while not _segment_clear(
            jc, vertices[i], vertices[i + step], clearance, spacing, grid
        ):
            if step == 1:
                raise NoPathAtResolution(
                    f"corridor found but could not be certified at spacing {spacing:.3e}",
                    h,
                )
            step //= 2
        i += step
        pulled.append(vertices[i])

    gap = path_carrier_gap(jc, pulled, spacing)
    if gap < clearance - 1e-12 * jc.diameter():
        raise NoPathAtResolution(
            f"string-pulled path lost clearance: {gap:.3e} < {clearance:.3e}", h
        )
    return PolygonalJoin(
        vertices=tuple(pulled), clearance=clearance, gap=gap, resolution=h
    )
