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
from .curves import _MAX_GRID_CELLS, JordanCurve, _grid_size
from .errors import NoPathAtResolution, PointTooClose
from .geometry import Point, as_point

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
        that is not finite and positive, or more than
        ``curves._MAX_GRID_CELLS`` cells."""

        _check_clearance_and_cell(clearance, h)
        if bbox is None:
            x0, y0, x1, y1 = jc.carrier.bbox
            pad = clearance + 4.0 * h
            bbox = (x0 - pad, y0 - pad, x1 + pad, y1 + pad)
        x0, y0, x1, y1 = bbox
        nx, ny = _grid_size(
            max(np.ceil((x1 - x0) / h), 2.0), max(np.ceil((y1 - y0) / h), 2.0)
        )
        xs = x0 + h * (np.arange(nx) + 0.5)
        ys = y0 + h * (np.arange(ny) + 0.5)
        gx, gy = np.meshgrid(xs, ys)
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        need = clearance + h * _FREE_MARGIN
        lo, _ = jc.carrier.distance_batch(centers, need)
        free = (lo >= need).astype(np.uint8).reshape(ny, nx)
        return cls(origin=(x0, y0), h=h, clearance=clearance, free=free)

    def cell_of(self, p: Point) -> tuple[int, int]:
        j = int(math.floor((p.x - self.origin[0]) / self.h))
        i = int(math.floor((p.y - self.origin[1]) / self.h))
        return i, j

    def center_of(self, i: int, j: int) -> Point:
        return Point(
            self.origin[0] + (j + 0.5) * self.h,
            self.origin[1] + (i + 0.5) * self.h,
        )

    def contains(self, p: Point) -> bool:
        i, j = self.cell_of(p)
        return 0 <= i < self.free.shape[0] and 0 <= j < self.free.shape[1]


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
    return np.column_stack([p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)])


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
    jj = np.floor((pts[:, 0] - grid.origin[0]) / grid.h).astype(np.int64)
    ii = np.floor((pts[:, 1] - grid.origin[1]) / grid.h).astype(np.int64)
    ny, nx = grid.free.shape
    inb = (ii >= 0) & (ii < ny) & (jj >= 0) & (jj < nx)
    certified = np.zeros(pts.shape[0], dtype=bool)
    certified[inb] = grid.free[ii[inb], jj[inb]] == 1
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
    if grid is None or not (grid.contains(p1) and grid.contains(p2)):
        x0, y0, x1, y1 = jc.carrier.bbox
        pad = clearance + 4.0 * h
        bbox = (
            min(x0, p1.x, p2.x) - pad,
            min(y0, p1.y, p2.y) - pad,
            max(x1, p1.x, p2.x) + pad,
            max(y1, p1.y, p2.y) + pad,
        )
        grid = ClearanceGrid.build(jc, clearance, h, bbox)
    elif grid.clearance != clearance or grid.h != h:
        raise ValueError("prebuilt grid does not match clearance/resolution")

    start = grid.cell_of(p1)
    goal = grid.cell_of(p2)
    cells = _kernels.grid_path(grid.free, start, goal)
    if cells is None:
        raise NoPathAtResolution(
            f"no free corridor of clearance {clearance:.3e} at cell size {h:.3e}",
            h,
        )

    vertices: list[Point] = [p1]
    vertices.extend(grid.center_of(i, j) for i, j in cells)
    vertices.append(p2)

    # shortcut by halving candidate step sizes: O(log) certifications per
    # hop, and the unit step between neighbouring free cells always passes
    spacing = h / 4.0
    pulled: list[Point] = [vertices[0]]
    i = 0
    while i < len(vertices) - 1:
        step = len(vertices) - 1 - i
        while step > 1 and not _segment_clear(
            jc, vertices[i], vertices[i + step], clearance, spacing, grid
        ):
            step //= 2
        if step == 1 and not _segment_clear(
            jc, vertices[i], vertices[i + 1], clearance, spacing, grid
        ):
            raise NoPathAtResolution(
                f"corridor found but could not be certified at spacing {spacing:.3e}",
                h,
            )
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
