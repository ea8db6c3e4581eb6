import numpy as np
import pytest

from curvewind import (
    ClearanceGrid,
    NoPathAtResolution,
    PointTooClose,
    Verdict,
    classify,
    path_carrier_gap,
    polygonal_join,
)
from curvewind.connectivity import _FREE_MARGIN
from curvewind.geometry import Point

from conftest import sample_classified


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
