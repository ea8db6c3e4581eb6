"""Kernel-level checks against independent oracles.

The winding kernel is compared with adaptive quadrature of the defining
integral; ray hits with closed-form/polyline intersections; carrier
distances with brute-force dense sampling; the pair scan with an O(N^2)
reference; grid paths with scipy's shortest paths on the free-cell graph.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from curvewind import _kernels
from curvewind.curves import CurveSpec, validate_jordan
from curvewind.fixtures import cubic_blob, rounded_square
from curvewind.geometry import Point
from curvewind.pieces import ArcPiece, CubicPiece, LinePiece

TWO_PI = 2.0 * math.pi


def _rows(pieces):
    kinds = np.array([p.kind for p in pieces], dtype=np.int8)
    data = np.array([p.to_row() for p in pieces], dtype=float)
    return kinds, data


def _quad_winding(pieces, z):
    """Oracle: adaptive quadrature of integral dz/(z - zeta) per piece."""

    total = 0.0 + 0.0j
    for piece in pieces:
        def re_f(u):
            g = piece.point(u)
            v = piece.velocity(u)
            den = complex(g.x - z[0], g.y - z[1])
            return (complex(v.x, v.y) / den).real

        def im_f(u):
            g = piece.point(u)
            v = piece.velocity(u)
            den = complex(g.x - z[0], g.y - z[1])
            return (complex(v.x, v.y) / den).imag

        re, _ = quad(re_f, 0.0, 1.0, limit=200, epsabs=1e-11, epsrel=1e-11)
        im, _ = quad(im_f, 0.0, 1.0, limit=200, epsabs=1e-11, epsrel=1e-11)
        total += complex(re, im)
    return total


def test_winding_full_circle_at_origin():
    kinds, data = _rows([ArcPiece(Point(0, 0), 1.0, 0.0, TWO_PI)])
    total, nodes, status = _kernels.winding_batch(kinds, data, np.array([[0.0, 0.0]]))
    assert status[0] == _kernels.OK
    assert abs(complex(total[0]) - 2j * math.pi) < 1e-12


def test_winding_outside_circle_is_zero():
    kinds, data = _rows([ArcPiece(Point(0, 0), 1.0, 0.0, TWO_PI)])
    pts = np.array([[2.0, 0.3], [-5.0, 1.0], [0.0, -1.0001]])
    total, _, status = _kernels.winding_batch(kinds, data, pts)
    assert (status == _kernels.OK).all()
    assert np.abs(total).max() < 1e-9


def test_winding_matches_quadrature_on_mixed_pieces():
    pieces = list(rounded_square().pieces)
    kinds, data = _rows(pieces)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.8, 1.8, size=(25, 2))
    total, _, status = _kernels.winding_batch(kinds, data, pts)
    for (x, y), t, s in zip(pts, total, status):
        if s != _kernels.OK:
            continue
        oracle = _quad_winding(pieces, (x, y))
        assert abs(complex(t) - oracle) < 1e-7


def test_winding_matches_quadrature_on_cubics():
    pieces = list(cubic_blob().pieces)
    kinds, data = _rows(pieces)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, size=(25, 2))
    total, _, status = _kernels.winding_batch(kinds, data, pts)
    checked = 0
    for (x, y), t, s in zip(pts, total, status):
        if s != _kernels.OK:
            continue
        oracle = _quad_winding(pieces, (x, y))
        assert abs(complex(t) - oracle) < 1e-6
        checked += 1
    assert checked >= 20


def test_winding_near_carrier_reports_on_carrier():
    kinds, data = _rows([ArcPiece(Point(0, 0), 1.0, 0.0, TWO_PI)])
    total, _, status = _kernels.winding_batch(kinds, data, np.array([[1.0, 0.0]]))
    assert status[0] == _kernels.ON_CARRIER


def _ray(kinds, data, p, v):
    out = np.empty((_kernels._HIT_CAP, 6))
    nh, status = _kernels.ray_hits_point(
        kinds, data, p[0], p[1], v[0], v[1], out
    )
    return out[:nh], status


def test_ray_hits_line_piece():
    kinds, data = _rows([LinePiece(Point(1.0, -1.0), Point(1.0, 1.0))])
    hits, status = _ray(kinds, data, (0.0, 0.0), (1.0, 0.0))
    assert status == _kernels.OK
    assert hits.shape[0] == 1
    assert hits[0, 0] == pytest.approx(1.0)
    assert hits[0, 2] == pytest.approx(0.5)
    # pointing away: no hit
    hits, _ = _ray(kinds, data, (0.0, 0.0), (-1.0, 0.0))
    assert hits.shape[0] == 0


def test_ray_collinear_overlap_flagged():
    kinds, data = _rows([LinePiece(Point(1.0, 0.0), Point(2.0, 0.0))])
    _, status = _ray(kinds, data, (0.0, 0.0), (1.0, 0.0))
    assert status == _kernels.ON_CARRIER


def test_ray_hits_circle_twice_from_outside():
    kinds, data = _rows([ArcPiece(Point(0, 0), 1.0, 0.0, TWO_PI)])
    hits, status = _ray(kinds, data, (-3.0, 0.2), (1.0, 0.0))
    assert status == _kernels.OK
    assert hits.shape[0] == 2
    ts = np.sort(hits[:, 0])
    x = math.sqrt(1 - 0.04)
    assert ts[0] == pytest.approx(3.0 - x)
    assert ts[1] == pytest.approx(3.0 + x)


def test_ray_misses_partial_arc():
    # quarter arc in the first quadrant, ray along the negative-x side
    kinds, data = _rows([ArcPiece(Point(0, 0), 1.0, 0.0, math.pi / 2)])
    hits, status = _ray(kinds, data, (-2.0, -0.5), (-1.0, 0.0))
    assert status == _kernels.OK
    assert hits.shape[0] == 0


def _polyline_crossings(piece, p, v, n=200001):
    """Oracle: sign changes of the ray-line side function along the curve."""

    us = np.linspace(0.0, 1.0, n)
    pts = piece.points(us)
    side = (pts[:, 0] - p[0]) * v[1] - (pts[:, 1] - p[1]) * v[0]
    forward = (pts[:, 0] - p[0]) * v[0] + (pts[:, 1] - p[1]) * v[1] > 0
    flips = np.nonzero(np.sign(side[1:]) * np.sign(side[:-1]) < 0)[0]
    return int(forward[flips].sum())


def test_ray_cubic_crossings_match_polyline_oracle():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        pts = rng.uniform(-2, 2, size=(4, 2))
        piece = CubicPiece(*(Point(x, y) for x, y in pts))
        p = tuple(rng.uniform(-3, 3, size=2))
        th = rng.uniform(0, TWO_PI)
        v = (math.cos(th), math.sin(th))
        kinds, data = _rows([piece])
        hits, status = _ray(kinds, data, p, v)
        if status != _kernels.OK:
            continue
        # skip configurations with a hit too close to an endpoint or too
        # grazing for the oracle's finite resolution
        if hits.shape[0] and (
            (hits[:, 2] < 1e-3).any() or (hits[:, 2] > 1 - 1e-3).any()
        ):
            continue
        tangents = hits[:, 3:5]
        if hits.shape[0]:
            crossv = np.abs(v[0] * tangents[:, 1] - v[1] * tangents[:, 0])
            dotv = np.abs(v[0] * tangents[:, 0] + v[1] * tangents[:, 1])
            if (np.arctan2(crossv, dotv) < 1e-2).any():
                continue
        assert hits.shape[0] == _polyline_crossings(piece, p, v)
        checked += 1
    assert checked >= 25


def test_carrier_distance_enclosure_on_blob():
    spec = cubic_blob()
    jc = validate_jordan(spec, h=1e-3)
    ci = jc.carrier
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.8, 1.8, size=(60, 2))
    # dense oracle: one million curve samples
    ts = np.linspace(spec.a, spec.b, 1_000_001)
    curve = spec.points(ts)
    step = float(np.hypot(np.diff(curve[:, 0]), np.diff(curve[:, 1])).max())
    lo, hi = ci.distance_batch(pts)
    for (x, y), l, h in zip(pts, lo, hi):
        oracle = float(np.hypot(curve[:, 0] - x, curve[:, 1] - y).min())
        assert l <= oracle + 1e-12
        assert h >= oracle - step
        assert h - l <= max(ci.lipschitz) * ci.sample_spacing + 1e-12


def test_pair_scan_matches_bruteforce():
    rng = np.random.default_rng(9)
    n = 400
    period = 4.0
    a, b = 0.0, 4.0
    ts = np.sort(rng.uniform(a, b, size=n))
    xy = rng.normal(size=(n, 2))
    sep = 0.05
    eps_levels = np.array([0.2, 0.5, 1.0, 1.6])
    best, bi, bj, deltas = _kernels.pair_scan(xy, ts, period, sep, a, b, eps_levels)

    gaps = np.hypot(
        xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1]
    )
    dt = np.abs(ts[:, None] - ts[None, :])
    wrap = np.minimum(dt, period - dt)
    iu = np.triu_indices(n, 1)
    mask = wrap[iu] >= sep
    ref_best = gaps[iu][mask].min()
    assert best == pytest.approx(ref_best)
    assert wrap[bi, bj] >= sep
    assert gaps[bi, bj] == pytest.approx(best)

    ti, tj = ts[iu[0]], ts[iu[1]]
    cap = np.minimum(tj - ti, np.minimum(2 * (ti - a), 2 * (b - tj)))
    for k, e in enumerate(eps_levels):
        sel = cap >= e
        ref = gaps[iu][sel].min() if sel.any() else np.inf
        assert deltas[k] == pytest.approx(ref)


def test_grid_bfs_finds_and_blocks():
    free = np.ones((20, 20), dtype=np.uint8)
    free[10, :19] = 0  # wall with one gap at the right edge
    path = _kernels.grid_path(free, (2, 2), (18, 2))
    assert path is not None
    assert path[0] == (2, 2) and path[-1] == (18, 2)
    # every step is 8-connected and free
    for (i1, j1), (i2, j2) in zip(path, path[1:]):
        assert max(abs(i1 - i2), abs(j1 - j2)) == 1
        assert free[i2, j2]
    free[10, 19] = 0
    assert _kernels.grid_path(free, (2, 2), (18, 2)) is None
    free[2, 2] = 0
    assert _kernels.grid_path(free, (2, 2), (18, 2)) is None


def _free_cell_graph(free):
    """Adjacency of free cells joined to their free 8-neighbours."""

    ny, nx = free.shape
    rows, cols = [], []
    for i, j in zip(*np.nonzero(free)):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ni, nj = i + di, j + dj
                if (di or dj) and 0 <= ni < ny and 0 <= nj < nx and free[ni, nj]:
                    rows.append(i * nx + j)
                    cols.append(ni * nx + nj)
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(ny * nx, ny * nx))


@pytest.mark.parametrize("seed,walled", [(0, False), (1, False), (2, False), (3, True)])
def test_grid_path_is_shortest(seed, walled):
    rng = np.random.default_rng(seed)
    ny, nx = 24, 30
    free = (rng.random((ny, nx)) > 0.4).astype(np.uint8)
    if walled:
        free[:, nx // 2] = 0  # no path from the left half to the right half
    hops = shortest_path(_free_cell_graph(free), unweighted=True)
    cells = np.argwhere(free)
    reached = 0
    for _ in range(8):
        if walled:
            (si, sj), = cells[rng.choice(np.flatnonzero(cells[:, 1] < nx // 2), 1)]
            (gi, gj), = cells[rng.choice(np.flatnonzero(cells[:, 1] > nx // 2), 1)]
        else:
            (si, sj), (gi, gj) = cells[rng.choice(len(cells), 2, replace=False)]
        want = hops[si * nx + sj, gi * nx + gj]
        path = _kernels.grid_path(free, (si, sj), (gi, gj))
        if not np.isfinite(want):
            assert path is None
            continue
        reached += 1
        assert path[0] == (si, sj) and path[-1] == (gi, gj)
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert max(abs(i1 - i2), abs(j1 - j2)) == 1
            assert free[i2, j2]
        assert len(path) - 1 == want
    # each open grid must exercise real paths, the walled one none at all
    assert reached == 0 if walled else reached >= 4
