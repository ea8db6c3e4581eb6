import math
import tracemalloc
import warnings

import numpy as np
import pytest

from curvewind import (
    Affine,
    ClearanceGrid,
    CurveSpec,
    NoPathAtResolution,
    PointTooClose,
    Verdict,
    classify,
    path_carrier_gap,
    polygonal_join,
    validate_jordan,
)
from curvewind import connectivity
from curvewind.connectivity import _FREE_MARGIN
from curvewind.curves import _lattice
from curvewind.geometry import Point

from conftest import comb, sample_classified


def _h(jc, frac=256):
    return jc.diameter() / frac


def test_join_same_side_inside(curves):
    # kidney is non-convex: interior joins must route around the dent
    jc = curves["kidney"]
    h = _h(jc)
    join = polygonal_join(jc, (0.5, 0.25), (0.5, -0.25), clearance=h, h=h)
    assert join.gap >= h
    assert join.vertices[0] == Point(0.5, 0.25)
    assert join.vertices[-1] == Point(0.5, -0.25)
    # every vertex stays on the inside
    for v in join.vertices:
        assert classify(jc, (v.x, v.y)).verdict is Verdict.INSIDE
    assert join.length >= 0.5


def test_join_same_side_outside(curves):
    jc = curves["blob"]
    h = _h(jc)
    join = polygonal_join(jc, (-2.0, 0.0), (2.0, 0.0), clearance=2 * h, h=h)
    assert join.gap >= 2 * h
    assert join.length >= 4.0


def test_join_across_carrier_fails(curves):
    for name in ("circle", "rounded-square", "kidney"):
        jc = curves[name]
        h = _h(jc, 128)
        inside_p, outside_p = None, None
        rng = np.random.default_rng(7)
        for p, c in sample_classified(jc, 30, rng, min_clearance=4 * h):
            if c.verdict is Verdict.INSIDE and inside_p is None:
                inside_p = p
            if c.verdict is Verdict.OUTSIDE and outside_p is None:
                outside_p = p
        assert inside_p and outside_p
        with pytest.raises(NoPathAtResolution):
            polygonal_join(jc, inside_p, outside_p, clearance=h / 2, h=h)


def test_join_endpoint_too_close(curves):
    jc = curves["circle"]
    with pytest.raises(PointTooClose):
        polygonal_join(jc, (0.999, 0.0), (0.0, 0.0), clearance=0.01, h=0.01)


def test_grid_reuse(curves):
    jc = curves["ellipse"]
    h = _h(jc)
    grid = ClearanceGrid.build(jc, clearance=h, h=h)
    j1 = polygonal_join(jc, (0.2, 0.1), (-0.3, -0.1), clearance=h, h=h, grid=grid)
    j2 = polygonal_join(jc, (0.0, 0.3), (0.1, -0.2), clearance=h, h=h, grid=grid)
    assert j1.gap >= h and j2.gap >= h
    with pytest.raises(ValueError):
        polygonal_join(jc, (0.2, 0.1), (-0.3, -0.1), clearance=2 * h, h=h, grid=grid)


@pytest.mark.parametrize(
    "bbox",
    [
        None,
        (0.0, 0.0, 1.0, float("inf")),
        (0.0, 0.0, float("nan"), 1.0),
        (1.0, 1.0, -1.0, -1.0),
    ],
)
def test_grid_refuses_too_many_cells_before_building_them(curves, bbox):
    # at h = 1e-6 the circle's padded bbox takes about 1.6e13 cells; an
    # inverted bbox holds no cell at all, and a NaN extent is no size
    match = "more than 16777216 cells"
    if bbox == (1.0, 1.0, -1.0, -1.0):
        match = "needs x0 < x1"
    elif bbox is not None and math.isnan(bbox[2]):
        match = "is not finite"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            ClearanceGrid.build(curves["circle"], 0.0, 1e-6, bbox=bbox)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_join_from_far_outside_a_prebuilt_grid_warns_nothing(curves):
    # an end 1e300 away is outside the grid: its cell offset is clipped
    # before the cast to int64, and the grid rebuilt to cover it is refused
    # by its size, with no RuntimeWarning on the way
    jc = curves["circle"]
    grid = ClearanceGrid.build(jc, 0.01, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="more than 16777216 cells"):
            polygonal_join(jc, (1e300, 0.0), (0.0, 0.0), 0.01, 0.05, grid=grid)


def test_grid_cells_follow_the_floor_rule(curves):
    # one rule maps points to cells: the floor of the offset from the
    # origin in cells, on cell edges, corners, the grid border and outside
    # the grid alike; a cell's centre is its corner plus half a cell
    grid = ClearanceGrid.build(curves["kidney"], 0.01, 0.05)
    (ox, oy), h = grid.origin, grid.h
    ny, nx = grid.free.shape
    rng = np.random.default_rng(19)
    i = rng.integers(-3, ny + 4, 600)
    j = rng.integers(-3, nx + 4, 600)
    i[:60], j[60:120] = rng.choice([0, ny], 60), rng.choice([0, nx], 60)
    fy = rng.choice([0.0, 0.5, 1.0, rng.uniform()], 600)
    fx = rng.choice([0.0, 0.5, 1.0, rng.uniform()], 600)
    pts = np.column_stack([ox + (j + fx) * h, oy + (i + fy) * h])
    pts = np.concatenate([pts, rng.uniform(-50.0, 50.0, (100, 2))])
    rows, cols, inside = grid._cells(pts)
    for (x, y), r, c, k in zip(pts.tolist(), rows, cols, inside):
        want_r = int(math.floor((y - oy) / h))
        want_c = int(math.floor((x - ox) / h))
        assert (r, c) == (want_r, want_c)
        assert k == (0 <= want_r < ny and 0 <= want_c < nx)
    centers = _lattice(grid.origin, h, rows[inside] + 0.5, cols[inside] + 0.5)
    for (x, y), r, c in zip(centers.tolist(), rows[inside], cols[inside]):
        assert (x, y) == (ox + (int(c) + 0.5) * h, oy + (int(r) + 0.5) * h)
    assert inside.sum() > 300 and (~inside).sum() > 100


def test_grid_mismatched_coverage_rebuilds(curves):
    # endpoints outside a stale grid trigger a silent rebuild, not an error
    jc = curves["circle"]
    h = _h(jc)
    tiny = ClearanceGrid.build(jc, clearance=h, h=h, bbox=(-0.1, -0.1, 0.1, 0.1))
    join = polygonal_join(jc, (2.0, 0.0), (-2.0, 0.0), clearance=h, h=h, grid=tiny)
    assert join.gap >= h


def test_path_carrier_gap_straight_segment(curves):
    jc = curves["circle"]
    # chord from (-2,0) to (-1.5,0): nearest approach to the unit circle is 0.5
    gap = path_carrier_gap(jc, [Point(-2.0, 0.0), Point(-1.5, 0.0)], spacing=1e-3)
    assert gap == pytest.approx(0.5, abs=2e-3)
    assert gap <= 0.5


def test_path_carrier_gap_of_one_vertex(curves):
    jc = curves["circle"]
    lo, _ = jc.carrier.distance((-2.0, 0.0))
    assert path_carrier_gap(jc, [Point(-2.0, 0.0)], spacing=1e-3) == lo - 5e-4


@pytest.mark.parametrize(
    "n_vertices, spacing",
    [(0, 1e-3), (2, 0.0), (2, -1e-3), (2, float("nan")), (2, float("inf"))],
)
def test_path_carrier_gap_rejects_an_empty_path_or_a_bad_spacing(curves, n_vertices, spacing):
    vertices = [Point(-2.0, 0.0), Point(-1.5, 0.0)][:n_vertices]
    with pytest.raises(ValueError, match="vertex|spacing"):
        path_carrier_gap(curves["circle"], vertices, spacing)


@pytest.mark.parametrize("spacing", [1e-9, 5e-324])
def test_path_carrier_gap_refuses_too_many_samples_before_building_them(curves, spacing):
    # the two half-unit edges take 1e9 samples at 1e-9; at 5e-324 the
    # count is inf
    vertices = [Point(-2.0, 0.0), Point(-1.5, 0.0), Point(-1.5, 0.5)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 16777216"):
            path_carrier_gap(curves["circle"], vertices, spacing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["kidney", "blob"])
def test_join_gap_is_the_full_query_minimum_over_the_path(curves, name):
    # the least-distance query behind the gap returns the least lower bound
    # of a full query over the pulled path's samples, bit for bit
    jc = curves[name]
    h = _h(jc, 128)
    clearance = 2.0 * h
    grid = ClearanceGrid.build(jc, clearance, h)
    rng = np.random.default_rng(3)
    pts = sample_classified(jc, 16, rng, min_clearance=clearance + 2.0 * h)
    joins = 0
    for (p1, c1), (p2, c2) in zip(pts[::2], pts[1::2]):
        if c1.verdict is not c2.verdict:
            continue
        join = polygonal_join(jc, p1, p2, clearance, h, grid=grid)
        spacing = h / 4.0
        v = join.vertices
        samples = np.concatenate(
            [connectivity._segment_samples(v[k], v[k + 1], spacing) for k in range(len(v) - 1)]
        )
        lo, _ = jc.carrier.distance_batch(samples)
        assert join.gap == lo.min() - spacing / 2.0
        joins += 1
    assert joins >= 2


def test_string_pulling_shortens(curves):
    jc = curves["circle"]
    h = _h(jc)
    join = polygonal_join(jc, (0.0, 0.5), (0.0, -0.5), clearance=0.05, h=h)
    # the straight chord is clear, so pulling should find (almost) it
    assert join.length <= 1.0 + 4 * h
    assert len(join.vertices) <= 4


@pytest.mark.parametrize("name", ["kidney", "blob"])
def test_grid_free_is_the_full_distance_test(curves, name):
    # the grids that acceptance 4 refuses mixed joins on: a cell is free
    # exactly where the full enclosure's lower bound clears the margin
    jc = curves[name]
    diam = jc.diameter()
    clearance = diam / 1024.0
    x0, y0, x1, y1 = jc.carrier.bbox
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    hx, hy = 0.7 * (x1 - x0), 0.7 * (y1 - y0)
    box = (cx - hx, cy - hy, cx + hx, cy + hy)
    for frac in (64.0, 128.0, 256.0):
        h = diam / frac
        grid = ClearanceGrid.build(jc, clearance, h, bbox=box)
        ny, nx = grid.free.shape
        gx, gy = np.meshgrid(
            grid.origin[0] + h * (np.arange(nx) + 0.5),
            grid.origin[1] + h * (np.arange(ny) + 0.5),
        )
        lo, _ = jc.carrier.distance_batch(np.column_stack([gx.ravel(), gy.ravel()]))
        free = lo >= clearance + h * _FREE_MARGIN
        assert free.any() and not free.all()
        assert np.array_equal(grid.free.ravel() == 1, free)


@pytest.mark.parametrize(
    "clearance, h",
    [(-1.0, 0.01), (float("nan"), 0.01), (float("inf"), 0.01),
     (0.01, 0.0), (0.01, -0.01), (0.01, float("nan")), (0.01, float("inf"))],
)
def test_join_rejects_a_bad_clearance_or_cell(curves, clearance, h):
    with pytest.raises(ValueError, match="clearance|cell size"):
        polygonal_join(curves["circle"], (0.0, 0.0), (0.1, 0.0), clearance=clearance, h=h)
    with pytest.raises(ValueError, match="clearance|cell size"):
        ClearanceGrid.build(curves["circle"], clearance, h)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_join_gap_check_scales_with_the_curve(monkeypatch, scale):
    # with every shortcut passed as clear, the straight join from the first
    # tooth to the third cuts through the comb; the last gap check must
    # refuse it at every scale, not only where 1e-12 is small next to h
    monkeypatch.setattr(connectivity, "_segment_clear", lambda *args: True)
    m = Affine.scaling(scale).coeffs
    jc = validate_jordan(CurveSpec(tuple(p.transformed(m) for p in comb(3).pieces)), h=1e-2)
    with pytest.raises(NoPathAtResolution, match="lost clearance"):
        polygonal_join(
            jc, (0.25 * scale, 0.5 * scale), (2.25 * scale, 0.5 * scale),
            clearance=0.02 * scale, h=0.02 * scale,
        )


def test_join_takes_endpoints_at_the_documented_clearance(curves):
    # endpoints 0.05 rad apart just outside the unit circle, with clearance
    # c + 1.02h: the documented c + h, though most endpoint cells' centres
    # miss the free-cell margin c + 0.957h
    jc = curves["circle"]
    c, h = 0.1, 0.05
    r = 1.0 + c + 1.02 * h
    for a in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False) + 0.1:
        p1 = (r * math.cos(a), r * math.sin(a))
        p2 = (r * math.cos(a + 0.05), r * math.sin(a + 0.05))
        join = polygonal_join(jc, p1, p2, clearance=c, h=h)
        assert join.gap >= c
        assert join.vertices[0] == Point(*p1) and join.vertices[-1] == Point(*p2)
