"""Kernel-level checks against independent oracles.

The winding kernel is compared with adaptive quadrature of the defining
integral; ray counts with polyline sign changes, with the winding number
and with the signed sums of their earlier root-finding kernel; carrier
distances with brute-force dense sampling; the carrier and winding kernels with their earlier forms
that refine one piece at a time, and the winding kernel's node counts
with a recursive walk of its run trees; region grids with the winding
kernel before the run tree; threshold carrier queries with the full
enclosures, whose decisions they must repeat; the pair scan
with an O(N^2) reference, exactly, also on hypothesis-drawn lattice
points full of ties; the crossing test with exact rational
orientations; grid paths with scipy's shortest paths on the free-cell graph.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from curvewind import _kernels
from curvewind.curves import CarrierIndex, CurveSpec, validate_jordan
from curvewind.fixtures import FIXTURES, cubic_blob, fixture, rounded_square
from curvewind.geometry import Point
from curvewind.index import region_grid
from curvewind.pieces import (
    KIND_ARC,
    KIND_CUBIC,
    KIND_LINE,
    ArcPiece,
    CubicPiece,
    LinePiece,
)

from conftest import comb, piece_points

TWO_PI = 2.0 * math.pi
# the status the old-kernel oracles below return when a refinement runs out
# of levels; the kernels themselves no longer return it
NODE_LIMIT = 2


def _rows(pieces):
    kinds = np.array([p.kind for p in pieces], dtype=np.int8)
    data = np.array([p.to_row() for p in pieces], dtype=float)
    return kinds, data


def _wind(pieces, pts):
    """``winding_batch`` on the path made of ``pieces``."""

    ci = CarrierIndex.build(CurveSpec(tuple(pieces)))
    return _kernels.winding_batch(ci.kinds, ci.geometry, np.asarray(pts, dtype=float))


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
    total, nodes, status = _wind([ArcPiece(Point(0, 0), 1.0, 0.0, TWO_PI)], [[0.0, 0.0]])
    assert status[0] == _kernels.OK
    assert abs(complex(total[0]) - 2j * math.pi) < 1e-12


def test_winding_outside_circle_is_zero():
    pts = np.array([[2.0, 0.3], [-5.0, 1.0], [0.0, -1.0001]])
    total, _, status = _wind([ArcPiece(Point(0, 0), 1.0, 0.0, TWO_PI)], pts)
    assert (status == _kernels.OK).all()
    assert np.abs(total).max() < 1e-9


def test_winding_matches_quadrature_on_mixed_pieces():
    pieces = list(rounded_square().pieces)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.8, 1.8, size=(25, 2))
    total, _, status = _wind(pieces, pts)
    for (x, y), t, s in zip(pts, total, status):
        if s != _kernels.OK:
            continue
        oracle = _quad_winding(pieces, (x, y))
        assert abs(complex(t) - oracle) < 1e-7


def test_winding_matches_quadrature_on_cubics():
    pieces = list(cubic_blob().pieces)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, size=(25, 2))
    total, _, status = _wind(pieces, pts)
    checked = 0
    for (x, y), t, s in zip(pts, total, status):
        if s != _kernels.OK:
            continue
        oracle = _quad_winding(pieces, (x, y))
        assert abs(complex(t) - oracle) < 1e-6
        checked += 1
    assert checked >= 20


def test_winding_near_carrier_reports_on_carrier():
    total, _, status = _wind([ArcPiece(Point(0, 0), 1.0, 0.0, TWO_PI)], [[1.0, 0.0]])
    assert status[0] == _kernels.ON_CARRIER


def _ray(kinds, data, p, v):
    """One ray's records on open pieces, as an (n, 4) array of (piece, u0,
    u1, sign) rows, and its status.  The pieces' own stretches only: the
    line stretches that would close their chain are left out."""

    arcs = _kernels._arc_rows(data[kinds == KIND_ARC])
    lines, arcs, cubics = _kernels._ray_stretches(kinds, data, arcs)
    geo = SimpleNamespace(
        ray_lines=[row for row in lines if row[5] == 0.0], ray_arcs=arcs, ray_cubics=cubics
    )
    out = []
    _, status = _kernels.ray_hits_point(geo, p[0], p[1], v[0], v[1], out)
    return np.array(out, dtype=float).reshape(-1, 4), status


def test_ray_hits_line_piece():
    kinds, data = _rows([LinePiece(Point(1.0, -1.0), Point(1.0, 1.0))])
    hits, status = _ray(kinds, data, (0.0, 0.0), (1.0, 0.0))
    assert status == _kernels.OK
    # the line passes from the ray's right to its left, ahead of the point
    assert hits.tolist() == [[0.0, 0.0, 1.0, 1.0]]
    # pointing away: no hit
    hits, _ = _ray(kinds, data, (0.0, 0.0), (-1.0, 0.0))
    assert hits.shape[0] == 0


def test_ray_collinear_overlap_flagged():
    # a line along the ray has f = 0, side 1, at both ends: it counts
    # nothing, and the ray is not flagged
    kinds, data = _rows([LinePiece(Point(1.0, 0.0), Point(2.0, 0.0))])
    hits, status = _ray(kinds, data, (0.0, 0.0), (1.0, 0.0))
    assert status == _kernels.OK
    assert hits.shape[0] == 0


def test_ray_along_a_straight_cubic_is_flagged_or_missed():
    # every Bernstein offset is exactly 0: the cubic lies on the ray's
    # line, on side 1, so it is dropped at once, ahead of the origin as
    # behind it, with no halving
    cubic = CubicPiece(Point(1.0, 1.0), Point(1 / 3, 1.0), Point(-1 / 3, 1.0), Point(-1.0, 1.0))
    kinds, data = _rows([cubic])
    for p in ((-3.0, 1.0), (3.0, 1.0)):
        hits, status = _ray(kinds, data, p, (1.0, 0.0))
        assert status == _kernels.OK
        assert hits.shape[0] == 0


def test_ray_hits_circle_twice_from_outside():
    # the circle lies wholly ahead of (-3, 0.2) and starts and ends on one
    # side: its two crossings cancel, and nothing is recorded.  From
    # (0, 0.2) it is cut on the perpendicular through the point, and the
    # part ahead, which holds the crossing, counts once
    kinds, data = _rows([ArcPiece(Point(0, 0), 1.0, 0.0, TWO_PI)])
    hits, status = _ray(kinds, data, (-3.0, 0.2), (1.0, 0.0))
    assert status == _kernels.OK
    assert hits.shape[0] == 0
    hits, status = _ray(kinds, data, (0.0, 0.2), (1.0, 0.0))
    assert status == _kernels.OK
    ((piece, u0, u1, sign),) = hits.tolist()
    assert (piece, sign) == (0, 1)
    assert u0 <= math.asin(0.2) / TWO_PI <= u1


def test_ray_misses_partial_arc():
    # quarter arc in the first quadrant, ray along the negative-x side
    kinds, data = _rows([ArcPiece(Point(0, 0), 1.0, 0.0, math.pi / 2)])
    hits, status = _ray(kinds, data, (-2.0, -0.5), (-1.0, 0.0))
    assert status == _kernels.OK
    assert hits.shape[0] == 0


def test_ray_root_on_a_bracket_edge_is_reported_once():
    # the side function's Bernstein coefficients are (1, 1, -1, -1), so its
    # value at u = 1/2 is exactly 0.  The whole cubic lies ahead of the
    # point, so its one side change counts once, with no bracket at all
    kinds, data = _rows([CubicPiece(Point(0, -1), Point(1, -1), Point(-1, 1), Point(0, 1))])
    hits, status = _ray(kinds, data, (-5.0, 0.0), (1.0, 0.0))
    assert status == _kernels.OK
    assert hits.tolist() == [[0.0, 0.0, 1.0, 1.0]]


def _polyline_crossings(piece, p, v, n=200001):
    """Oracle: signed sign changes of the ray-line side function along the
    curve, ahead of p, and the least distance of a sample from p."""

    us = np.linspace(0.0, 1.0, n)
    pts = piece_points(piece, us)
    side = (pts[:, 0] - p[0]) * v[1] - (pts[:, 1] - p[1]) * v[0]
    forward = (pts[:, 0] - p[0]) * v[0] + (pts[:, 1] - p[1]) * v[1] > 0
    flips = np.nonzero(np.sign(side[1:]) * np.sign(side[:-1]) < 0)[0]
    signs = np.where(side[flips] > 0, 1, -1)
    gap = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1]).min()
    return int(signs[forward[flips]].sum()), float(gap)


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
        assert status == _kernels.OK
        want, gap = _polyline_crossings(piece, p, v)
        # skip points nearer the cubic than the oracle's resolution
        if gap < 1e-3:
            continue
        assert int(hits[:, 3].sum()) == want
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
    spacing = spec.piece_param_width() / 512
    lo, hi = ci.distance_batch(pts)
    for (x, y), l, h in zip(pts, lo, hi):
        oracle = float(np.hypot(curve[:, 0] - x, curve[:, 1] - y).min())
        assert l <= oracle + 1e-12
        assert h >= oracle - step
        assert h - l <= _kernels._REFINE_REL_TOL * l + 1e-12
        assert h - l <= max(jc.speed_upper) * spacing + 1e-12


def _winding_batch_oracle(kinds, data, pts):
    """The winding kernel with one refinement loop per piece."""

    pts = np.ascontiguousarray(pts, dtype=float)
    m = pts.shape[0]
    z = pts[:, 0] + 1j * pts[:, 1]
    total = np.zeros(m, dtype=complex)
    nodes = np.zeros(m, dtype=np.int64)
    status = np.zeros(m, dtype=np.int64)
    for i in range(kinds.shape[0]):
        kind = kinds[i]
        row = data[i]
        if kind == KIND_LINE:
            w0 = (row[0] + 1j * row[1]) - z
            w1 = (row[2] + 1j * row[3]) - z
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.log(w1 / w0)
            bad = ~np.isfinite(term)
            status[bad] = _kernels.ON_CARRIER
            term[bad] = 0.0
            total += term
            nodes += 1
        elif kind == KIND_ARC:
            cx, cy, r, a0, sweep = row[:5]
            c = cx + 1j * cy
            idx = np.arange(m)
            ulo = np.zeros(m)
            uhi = np.ones(m)
            for _level in range(80):
                if idx.size == 0:
                    break
                phi0 = a0 + sweep * ulo
                phi1 = a0 + sweep * uhi
                e0 = c + r * np.exp(1j * phi0)
                e1 = c + r * np.exp(1j * phi1)
                # chord bbox inflated by the sagitta bounds the sub-arc hull
                sag = r * (1.0 - np.cos(0.5 * np.abs(sweep) * (uhi - ulo)))
                xmin = np.minimum(e0.real, e1.real) - sag
                xmax = np.maximum(e0.real, e1.real) + sag
                ymin = np.minimum(e0.imag, e1.imag) - sag
                ymax = np.maximum(e0.imag, e1.imag) + sag
                zz = z[idx]
                dx = np.maximum(np.maximum(xmin - zz.real, zz.real - xmax), 0.0)
                dy = np.maximum(np.maximum(ymin - zz.imag, zz.imag - ymax), 0.0)
                outside = np.hypot(dx, dy) > 0.0
                acc = np.where(outside)[0]
                if acc.size:
                    term = np.log((e1[acc] - zz[acc]) / (e0[acc] - zz[acc]))
                    np.add.at(total, idx[acc], term)
                    np.add.at(nodes, idx[acc], 1)
                rest = np.where(~outside)[0]
                if rest.size == 0:
                    idx = idx[:0]
                    break
                narrow = (uhi[rest] - ulo[rest]) < 1e-13
                status[idx[rest[narrow]]] = _kernels.ON_CARRIER
                rest = rest[~narrow]
                mid = 0.5 * (ulo[rest] + uhi[rest])
                idx = np.concatenate([idx[rest], idx[rest]])
                ulo = np.concatenate([ulo[rest], mid])
                uhi = np.concatenate([mid, uhi[rest]])
            else:
                status[idx] = NODE_LIMIT
        else:
            ctrl = row[:8].astype(complex)
            ctrl = ctrl[0::2] + 1j * ctrl[1::2]
            idx = np.arange(m)
            cps = np.broadcast_to(ctrl, (m, 4)).copy()
            widths = np.ones(m)
            for _level in range(80):
                if idx.size == 0:
                    break
                zz = z[idx]
                xmin = cps.real.min(axis=1)
                xmax = cps.real.max(axis=1)
                ymin = cps.imag.min(axis=1)
                ymax = cps.imag.max(axis=1)
                dx = np.maximum(np.maximum(xmin - zz.real, zz.real - xmax), 0.0)
                dy = np.maximum(np.maximum(ymin - zz.imag, zz.imag - ymax), 0.0)
                outside = np.hypot(dx, dy) > 0.0
                acc = np.where(outside)[0]
                if acc.size:
                    term = np.log(
                        (cps[acc, 3] - zz[acc]) / (cps[acc, 0] - zz[acc])
                    )
                    np.add.at(total, idx[acc], term)
                    np.add.at(nodes, idx[acc], 1)
                rest = np.where(~outside)[0]
                if rest.size == 0:
                    idx = idx[:0]
                    break
                narrow = widths[rest] < 1e-13
                status[idx[rest[narrow]]] = _kernels.ON_CARRIER
                rest = rest[~narrow]
                p = cps[rest]
                m01 = 0.5 * (p[:, 0] + p[:, 1])
                m12 = 0.5 * (p[:, 1] + p[:, 2])
                m23 = 0.5 * (p[:, 2] + p[:, 3])
                pa = 0.5 * (m01 + m12)
                pb = 0.5 * (m12 + m23)
                pm = 0.5 * (pa + pb)
                left = np.stack([p[:, 0], m01, pa, pm], axis=1)
                right = np.stack([pm, pb, m23, p[:, 3]], axis=1)
                idx = np.concatenate([idx[rest], idx[rest]])
                cps = np.concatenate([left, right], axis=0)
                widths = np.concatenate(
                    [0.5 * widths[rest], 0.5 * widths[rest]]
                )
            else:
                status[idx] = NODE_LIMIT
    return total, nodes, status


def _refine_cubic_oracle(row, px, py, best_hi, lo_acc, rel_tol):
    """Tighten ``best_hi``/``lo_acc`` in place by one cubic's control boxes.

    ``ctl`` holds one control polygon per column, its rows laid out like a
    data row (x0, y0, ..., x3, y3), so every step is elementwise over rows.
    """

    m = px.shape[0]
    idx = np.arange(m)
    ctl = np.repeat(np.asarray(row[:8], dtype=float)[:, None], m, axis=1)
    for _level in range(80):
        if idx.size == 0:
            break
        x0, y0, x1, y1, x2, y2, x3, y3 = ctl
        xmin = np.minimum(np.minimum(x0, x1), np.minimum(x2, x3))
        xmax = np.maximum(np.maximum(x0, x1), np.maximum(x2, x3))
        ymin = np.minimum(np.minimum(y0, y1), np.minimum(y2, y3))
        ymax = np.maximum(np.maximum(y0, y1), np.maximum(y2, y3))
        qx = px[idx]
        qy = py[idx]
        dx = np.maximum(np.maximum(xmin - qx, qx - xmax), 0.0)
        dy = np.maximum(np.maximum(ymin - qy, qy - ymax), 0.0)
        db = np.hypot(dx, dy)
        live = db < best_hi[idx]
        if not live.all():
            idx = idx[live]
            ctl = ctl[:, live]
            db = db[live]
            xmin, xmax = xmin[live], xmax[live]
            ymin, ymax = ymin[live], ymax[live]
            if idx.size == 0:
                break
        diag = np.hypot(xmax - xmin, ymax - ymin)
        done = diag <= rel_tol * db
        if _level == 79:
            done = np.ones_like(done)
        if done.any():
            di = idx[done]
            np.minimum.at(lo_acc, di, db[done])
            d0 = np.hypot(px[di] - ctl[0, done], py[di] - ctl[1, done])
            np.minimum.at(best_hi, di, d0)
            keep = ~done
            idx = idx[keep]
            ctl = ctl[:, keep]
            if idx.size == 0:
                break
        # de Casteljau split at u = 1/2: left half in the first k columns
        k = idx.size
        x0, y0, x1, y1, x2, y2, x3, y3 = ctl
        split = np.empty((8, 2 * k))
        m01x, m01y = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        m12x, m12y = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        m23x, m23y = 0.5 * (x2 + x3), 0.5 * (y2 + y3)
        ax, ay = 0.5 * (m01x + m12x), 0.5 * (m01y + m12y)
        bx, by = 0.5 * (m12x + m23x), 0.5 * (m12y + m23y)
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        for r, (left, right) in enumerate(
            ((x0, mx), (y0, my), (m01x, bx), (m01y, by),
             (ax, m23x), (ay, m23y), (mx, x3), (my, y3))
        ):
            split[r, :k] = left
            split[r, k:] = right
        idx = np.concatenate([idx, idx])
        ctl = split


def _carrier_batch_oracle(kinds, data, pts):
    """The carrier-distance kernel with one refinement loop per cubic."""

    pts = np.ascontiguousarray(pts, dtype=float)
    px = pts[:, 0]
    py = pts[:, 1]
    m = pts.shape[0]
    best_hi = np.full(m, np.inf)
    lo_acc = np.full(m, np.inf)
    # a lower bound takes off 8 eps (d + M), with M the largest magnitude
    # of a piece of its kind
    mag = {KIND_LINE: 0.0, KIND_ARC: 0.0}
    for kind, row in zip(kinds, data):
        if kind == KIND_LINE:
            ex, ey = row[2] - row[0], row[3] - row[1]
            mag[kind] = max(mag[kind], abs(row[0]) + abs(row[1]) + abs(ex) + abs(ey))
        elif kind == KIND_ARC:
            mag[kind] = max(mag[kind], abs(row[0]) + abs(row[1]) + row[2] * (8.0 + abs(row[3])))

    def lower(d, kind):
        err = 8.0 * np.finfo(float).eps
        return d * (1.0 - err) - err * mag[kind]

    for i in range(kinds.shape[0]):
        kind = kinds[i]
        row = data[i]
        if kind == KIND_LINE:
            ex, ey = row[2] - row[0], row[3] - row[1]
            denom = ex * ex + ey * ey
            t = np.clip(((px - row[0]) * ex + (py - row[1]) * ey) / denom, 0, 1)
            d = np.hypot(px - (row[0] + t * ex), py - (row[1] + t * ey))
            np.minimum(best_hi, d, out=best_hi)
            np.minimum(lo_acc, lower(d, kind), out=lo_acc)
        elif kind == KIND_ARC:
            cx, cy, r, a0, sweep = row[:5]
            wx, wy = px - cx, py - cy
            rad = np.abs(np.hypot(wx, wy) - r)
            if abs(abs(sweep) - TWO_PI) <= 1e-12:
                d = rad
            else:
                theta = np.arctan2(wy, wx)
                if sweep > 0:
                    on = np.mod(theta - a0, TWO_PI) <= sweep + 1e-12
                else:
                    on = np.mod(a0 - theta, TWO_PI) <= -sweep + 1e-12
                a1 = a0 + sweep
                d0 = np.hypot(
                    px - (cx + r * math.cos(a0)), py - (cy + r * math.sin(a0))
                )
                d1 = np.hypot(
                    px - (cx + r * math.cos(a1)), py - (cy + r * math.sin(a1))
                )
                d = np.where(on, rad, np.minimum(d0, d1))
            np.minimum(best_hi, d, out=best_hi)
            np.minimum(lo_acc, lower(d, kind), out=lo_acc)
    # points are independent; blocks keep the refinement arrays in cache
    for s in range(0, m, 4096):
        e = min(m, s + 4096)
        for i in range(kinds.shape[0]):
            if kinds[i] == KIND_CUBIC:
                _refine_cubic_oracle(
                    data[i], px[s:e], py[s:e], best_hi[s:e], lo_acc[s:e],
                    _kernels._REFINE_REL_TOL,
                )
    lo = np.minimum(lo_acc, best_hi)
    np.maximum(lo, 0.0, out=lo)
    return lo, best_hi


def _query_points(ci, spec):
    """One point, 200 uniform points and a grid around the curve's padded
    bounding box, then points next to the carrier and on it."""

    x0, y0, x1, y1 = ci.bbox
    pad = 0.2 * ci.diam
    lo, hi = (x0 - pad, y0 - pad), (x1 + pad, y1 + pad)
    rng = np.random.default_rng(17)
    uniform = rng.uniform(lo, hi, size=(200, 2))
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 40), np.linspace(lo[1], hi[1], 40))
    on = spec.points(rng.uniform(spec.a, spec.b, 60))
    # 1e-13 diameters off is where the refinements' absolute floors act
    off = np.repeat([1e-6, 1e-13, 0.0], 20)[:, None] * ci.diam
    near = on + off * rng.normal(size=on.shape)
    return uniform[:1], uniform, np.column_stack([gx.ravel(), gy.ravel()]), near


_ORACLE_CURVES = sorted(FIXTURES) + ["blob64"]


def _oracle_curve(name):
    if name == "blob64":
        spec = cubic_blob(64)
    elif name == "blob512":
        spec = cubic_blob(512)
    elif name == "comb":
        spec = comb()
    else:
        spec = fixture(name)
    return CarrierIndex.build(spec), spec


@pytest.mark.parametrize("name", _ORACLE_CURVES)
def test_carrier_batch_matches_per_piece_oracle(name):
    ci, spec = _oracle_curve(name)
    for pts in _query_points(ci, spec):
        lo, hi = ci.distance_batch(pts)
        want_lo, want_hi = _carrier_batch_oracle(ci.kinds, ci.data, pts)
        assert np.array_equal(lo, want_lo)
        assert np.array_equal(hi, want_hi)


@pytest.mark.parametrize("name", _ORACLE_CURVES)
def test_distance_is_distance_batch_of_one_point(name):
    ci, spec = _oracle_curve(name)
    _, uniform, _, near = _query_points(ci, spec)
    need = 1e-6 * ci.diam
    for x, y in np.concatenate([uniform[:20], near[::3]]):
        lo, hi = ci.distance_batch(np.array([[x, y]]))
        assert ci.distance((x, y)) == (lo[0], hi[0])
        lo, hi = ci.distance_batch(np.array([[x, y]]), need)
        assert ci.distance((x, y), need) == (lo[0], hi[0])


def _threshold_mismatches(ci, pts):
    """Threshold queries against the full enclosures of ``pts``: the count
    of (need, point) cases whose decision lo >= need or hi < need differs,
    or whose enclosure misses the full one.

    The needs are each point's own full lo and hi, their midpoint, one
    number for all points, the least positive float (which decides lo >
    0), and the bounds that the level-0 boxes and start points alone give
    (a need of +inf stops every point there): one ulp above that lo, and
    that hi, which the refinement then lowers.
    """

    lo, hi = ci.distance_batch(pts)
    lo0, hi0 = ci.distance_batch(pts, np.inf)
    needs = (
        lo, hi, 0.5 * (lo + hi), float(np.median(lo)), math.ulp(0.0),
        np.nextafter(lo0, np.inf), hi0,
    )
    bad = 0
    for need in needs:
        tlo, thi = ci.distance_batch(pts, need)
        bad += np.count_nonzero((tlo >= need) != (lo >= need))
        bad += np.count_nonzero((thi < need) != (hi < need))
        bad += np.count_nonzero((tlo > lo) | (thi < hi))
    return bad


@pytest.mark.parametrize("name", _ORACLE_CURVES)
def test_threshold_queries_decide_as_full_enclosures(name):
    ci, spec = _oracle_curve(name)
    assert _threshold_mismatches(ci, np.concatenate(_query_points(ci, spec))) == 0


def _stop_rule_off_by_one_ulp(side):
    """``_kernels._stopped`` with its lo (envelope) or hi test one ulp
    too eager."""

    def stopped(env, best_hi, lo_acc, need):
        hi_need = np.nextafter(need, np.inf) if side == "hi" else need
        lo_need = np.nextafter(need, -np.inf) if side == "lo" else need
        stop = (best_hi < hi_need) | (env >= lo_need)
        np.copyto(lo_acc, env, where=stop)
        return stop

    return stopped


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_threshold_check_catches_a_stop_rule_off_by_one_ulp(monkeypatch, side):
    ci, spec = _oracle_curve("kidney")
    pts = np.concatenate(_query_points(ci, spec))
    monkeypatch.setattr(_kernels, "_stopped", _stop_rule_off_by_one_ulp(side))
    assert _threshold_mismatches(ci, pts) > 0


_LEAST_CURVES = _ORACLE_CURVES + ["blob512"]


def _assert_least_is_the_full_minimum(ci, pts):
    """``least_distance`` is the full query's least ``lo`` bit for bit; the
    kernel's other entries are lower bounds of the full ``lo``."""

    full, _ = ci.distance_batch(pts)
    lo, _ = _kernels.carrier_batch(
        ci.kinds, ci.data, None, None, pts, ci.geometry, least=True
    )
    assert ci.least_distance(pts) == full.min()
    assert lo.min() == full.min()
    assert np.all(lo <= full)


def _least_sets(ci, spec, seed):
    """One point; seeded sets of 1-400 points as scatter and on a line
    across the padded bounding box; points next to the carrier, each
    twice, with a scatter set."""

    x0, y0, x1, y1 = ci.bbox
    pad = 0.2 * ci.diam
    lo, hi = (x0 - pad, y0 - pad), (x1 + pad, y1 + pad)
    rng = np.random.default_rng(seed)
    sets = [rng.uniform(lo, hi, size=(1, 2))]
    for n in rng.integers(1, 401, size=6):
        sets.append(rng.uniform(lo, hi, size=(n, 2)))
        a, b = rng.uniform(lo, hi, size=(2, 2))
        sets.append(a + np.linspace(0.0, 1.0, n)[:, None] * (b - a))
    near = spec.points(rng.uniform(spec.a, spec.b, 40))
    near += 1e-6 * ci.diam * rng.normal(size=near.shape)
    sets.append(np.concatenate([near, sets[1], near[::-1]]))
    return sets


@pytest.mark.parametrize("name", _LEAST_CURVES)
def test_least_distance_is_the_full_minimum(name):
    ci, spec = _oracle_curve(name)
    for pts in _least_sets(ci, spec, seed=len(name)):
        _assert_least_is_the_full_minimum(ci, pts)


def test_least_distance_on_exact_ties():
    # the circle fixture is the unit circle: points on the concentric
    # circles of radius 2 and 1/2 tie exactly on the axes, at |r - 1| less
    # the round-off bound
    ci, _ = _oracle_curve("circle")
    ang = np.linspace(0.0, TWO_PI, 37)
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    for r in (2.0, 0.5):
        ring = r * np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.concatenate([ring, r * axes])
        lo = ci.distance_batch(pts)[0]
        assert abs(r - 1.0) - 1e-13 < lo[-1] < abs(r - 1.0)
        assert np.count_nonzero(lo == lo[-1]) >= 4
        _assert_least_is_the_full_minimum(ci, pts)


def test_least_distance_carries_its_bound_across_point_blocks(monkeypatch):
    ci, spec = _oracle_curve("blob512")
    pts = np.concatenate(_least_sets(ci, spec, seed=5))
    assert len(_kernels._point_blocks(pts.shape[0], ci.kinds.shape[0])) >= 4
    _assert_least_is_the_full_minimum(ci, pts)
    # blocks of a few points each, on a curve of a few pieces
    monkeypatch.setattr(_kernels, "_PAIR_BLOCK", 64)
    ci, spec = _oracle_curve("kidney")
    for pts in _least_sets(ci, spec, seed=6):
        _assert_least_is_the_full_minimum(ci, pts)


def _cut_sizes(cubics, pts):
    """Per point, the nodes of the run trees over the cubic rows
    ``cubics`` that add one chord each, by a plain recursive walk.

    A run is a maximal sequence of rows in which each row ends exactly
    where the next one starts; its tree splits the rows a .. b - 1 at
    (a + b) // 2, and a node's box is the union of its rows' control boxes.
    A node whose box excludes the point counts one and ends the walk; a
    single row whose box holds the point counts nothing here, as its
    refinement counts its chords.
    """

    ctl = cubics[:, :8].reshape(-1, 4, 2)
    lo, hi = ctl.min(axis=1), ctl.max(axis=1)
    count = np.zeros(pts.shape[0], dtype=np.int64)

    def walk(a, b, idx):
        p = pts[idx]
        out = ((p < lo[a:b].min(axis=0)) | (p > hi[a:b].max(axis=0))).any(axis=1)
        count[idx[out]] += 1
        idx = idx[~out]
        if b - a > 1 and idx.size:
            mid = (a + b) // 2
            walk(a, mid, idx)
            walk(mid, b, idx)

    start = 0
    for j in range(ctl.shape[0]):
        if j + 1 == ctl.shape[0] or (ctl[j, 3] != ctl[j + 1, 0]).any():
            walk(start, j + 1, np.arange(pts.shape[0]))
            start = j + 1
    return count


def _expected_nodes(kinds, data, pts):
    """Chords ``winding_batch`` takes per point: the run-tree cut, the
    per-piece oracle's nodes on every cubic whose control box holds the
    point, and one per line and arc."""

    cubic = np.flatnonzero(kinds == KIND_CUBIC)
    want = _cut_sizes(data[cubic], pts) + np.count_nonzero(kinds != KIND_CUBIC)
    for i in cubic:
        ctl = data[i, :8].reshape(4, 2)
        held = ((pts >= ctl.min(axis=0)) & (pts <= ctl.max(axis=0))).all(axis=1)
        _, nodes, _ = _winding_batch_oracle(kinds[[i]], data[[i]], pts[held])
        want[held] += nodes
    return want


def _assert_winding_matches_oracle(ci, pts):
    """The chord pass and the run-tree cut against the oracle's per-piece
    refinement.

    The node count is exact: ``_expected_nodes``.  The oracle flags a
    point within its narrowest sub-arc box, the kernel within _ON_ARC_TOL
    of an arc, so its flags only add to the oracle's.  Where both are OK
    the totals differ by round-off, within both sides' budgets.
    """

    kinds, data = ci.kinds, ci.data
    total, nodes, status = _kernels.winding_batch(kinds, ci.geometry, pts)
    want_total, want_nodes, want_status = _winding_batch_oracle(kinds, data, pts)
    assert np.array_equal(nodes, _expected_nodes(kinds, data, pts))
    on, want_on = status == _kernels.ON_CARRIER, want_status == _kernels.ON_CARRIER
    assert (on | ~want_on).all()
    ok = (status == _kernels.OK) & (want_status == _kernels.OK)
    assert np.array_equal(
        np.rint(total.imag / TWO_PI)[ok], np.rint(want_total.imag / TWO_PI)[ok]
    )
    budget = (nodes + want_nodes) * 5e-16 + 1e-14
    assert (np.abs(total - want_total) <= budget)[ok].all()


@pytest.mark.parametrize("name", _ORACLE_CURVES)
def test_winding_batch_matches_per_piece_oracle(name):
    ci, spec = _oracle_curve(name)
    for pts in _query_points(ci, spec):
        _assert_winding_matches_oracle(ci, pts)


def _arc_chord_curve(seed):
    """An arc closed by its chord.  Seeds 0 and 1 are full turns of radius
    1e-12, seeds 2 and 3 turns 1e-13 short of one of radius 1e12, each pair
    both ways round; the others have random sweeps of either sign, radii
    1e-12 to 1e12 and centres up to 1e3 radii off the origin."""

    rng = np.random.default_rng(seed)
    if seed < 4:
        sweep = (TWO_PI - 1e-13 * (seed // 2)) * (-1) ** seed
        r, shift = (1e-12, 1e12)[seed // 2], 0.0
    else:
        sweep = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, TWO_PI)
        r, shift = 10.0 ** rng.uniform(-12, 12), rng.uniform(0.0, 1e3)
    centre = Point(*(shift * r * rng.normal(size=2)))
    arc = ArcPiece(centre, r, rng.uniform(-math.pi, math.pi), sweep)
    if abs(sweep) == TWO_PI:
        return CurveSpec((arc,))
    return CurveSpec((arc, LinePiece(arc.point(1.0), arc.point(0.0))))


@pytest.mark.parametrize("seed", range(24))
def test_winding_batch_matches_oracle_on_arc_chord_curves(seed):
    spec = _arc_chord_curve(seed)
    ci = CarrierIndex.build(spec)
    for pts in _query_points(ci, spec):
        _assert_winding_matches_oracle(ci, pts)


def _moved_joint_loop():
    """``cubic_blob(8)`` started two cubics on, with the start of its
    seventh cubic, (1.25, 0), moved 1e-10 diameters along +y.

    That joint is the rightmost point of the whole curve, so points just to
    its right lie outside the box of every tree node spanning it.  Returns
    (spec, joint, diameter).
    """

    pieces = list(cubic_blob(8).pieces)
    pieces = pieces[2:] + pieces[:2]
    c = pieces[6]
    diam = CarrierIndex.build(CurveSpec(tuple(pieces))).diam
    moved = Point(c.p0.x, c.p0.y + 1e-10 * diam)
    pieces[6] = CubicPiece(moved, c.p1, c.p2, c.p3)
    return CurveSpec(tuple(pieces)), c.p0, diam


def _joint_points(joint, diam):
    """Points 1e-6 to 1e-3 diameters from ``joint``, in 32 directions."""

    r = np.geomspace(1e-6, 1e-3, 7)[:, None] * diam
    th = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    return np.column_stack(
        [(joint.x + r * np.cos(th)).ravel(), (joint.y + r * np.sin(th)).ravel()]
    )


def _winding_errors(ci, pts):
    """Points whose winding total leaves the per-piece oracle's by more than
    both sides' round-off budgets, where both are OK: the last check of
    ``_assert_winding_matches_oracle``."""

    total, nodes, status = _kernels.winding_batch(ci.kinds, ci.geometry, pts)
    want, want_nodes, want_status = _winding_batch_oracle(ci.kinds, ci.data, pts)
    ok = (status == _kernels.OK) & (want_status == _kernels.OK)
    budget = (nodes + want_nodes) * 5e-16 + 1e-14
    return np.count_nonzero(ok & (np.abs(total - want) > budget))


def test_winding_batch_splits_runs_at_a_moved_joint():
    spec, joint, diam = _moved_joint_loop()
    validate_jordan(spec, h=1e-3)
    ci = CarrierIndex.build(spec)
    assert _kernels._cubic_runs(ci.geometry.ctl) == [(0, 6), (6, 8)]
    assert np.count_nonzero(ci.geometry.node_parent == -1) == 2
    _assert_winding_matches_oracle(ci, _joint_points(joint, diam))


def test_joint_check_catches_a_tree_that_ignores_joints(monkeypatch):
    spec, joint, diam = _moved_joint_loop()
    monkeypatch.setattr(_kernels, "_cubic_runs", lambda ctl: [(0, ctl.shape[2])])
    assert _winding_errors(CarrierIndex.build(spec), _joint_points(joint, diam)) > 0


def _mixed_curve():
    """Two cubics, three lines and an arc: the line between the cubics
    splits them into two runs."""

    arc = ArcPiece(Point(0.0, -0.5), 1.0, math.pi, math.pi)
    return CurveSpec((
        CubicPiece(
            Point(1.0, 0.0), Point(1.0, 0.55), Point(0.55, 1.0), Point(0.0, 1.0)
        ),
        LinePiece(Point(0.0, 1.0), Point(-0.2, 1.0)),
        CubicPiece(
            Point(-0.2, 1.0), Point(-0.75, 1.0), Point(-1.0, 0.55), Point(-1.0, 0.0)
        ),
        LinePiece(Point(-1.0, 0.0), arc.point(0.0)),
        arc,
        LinePiece(arc.point(1.0), Point(1.0, 0.0)),
    ))


def test_winding_batch_on_mixed_cubics_lines_and_arcs():
    spec = _mixed_curve()
    validate_jordan(spec, h=1e-3)
    ci = CarrierIndex.build(spec)
    assert len(_kernels._cubic_runs(ci.geometry.ctl)) == 2
    for pts in _query_points(ci, spec):
        _assert_winding_matches_oracle(ci, pts)
    pts = np.random.default_rng(5).uniform((-1.3, -1.7), (1.3, 1.3), size=(20, 2))
    total, _, status = _wind(spec.pieces, pts)
    for (x, y), t, st in zip(pts, total, status):
        assert st == _kernels.OK
        assert abs(complex(t) - _quad_winding(spec.pieces, (x, y))) < 1e-7


def _wind_cubics_flat(ctl, z, total, nodes, status):
    """The cubic winding pass without the run tree: every (point, cubic)
    pair refines on control boxes from the cubic's own box, and each chord
    takes its own ``np.log``."""

    b = z.shape[0]
    nc = ctl.shape[2]
    idx = np.repeat(np.arange(b), nc)
    node = ctl.take(np.tile(np.arange(nc), b), axis=2)
    q = np.stack([z.real, z.imag])
    width = 1.0
    acc = []
    while idx.size:
        _, _, gap = _kernels._node_gaps(node, q.take(idx, axis=1))
        outside = np.maximum.reduce(gap) > 0.0
        a = outside.nonzero()[0]
        za = z[idx[a]]
        w0 = (node[0, 0, a] + 1j * node[0, 1, a]) - za
        w1 = (node[3, 0, a] + 1j * node[3, 1, a]) - za
        acc.append((idx[a], np.log(w1 / w0)))
        rest = (~outside).nonzero()[0]
        if width < 1e-13:
            status[idx[rest]] = _kernels.ON_CARRIER
            break
        width *= 0.5
        idx = idx[rest]
        idx = np.concatenate([idx, idx])
        node = _kernels._split(node.take(rest, axis=2))
    idx = np.concatenate([i for i, _ in acc])
    term = np.concatenate([t for _, t in acc])
    total += np.bincount(idx, term.real, b) + 1j * np.bincount(idx, term.imag, b)
    nodes += np.bincount(idx, minlength=b)


def _winding_batch_flat(kinds, geo, pts):
    """``winding_batch`` with ``_wind_cubics_flat`` for the cubics."""

    pts = np.ascontiguousarray(pts, dtype=float)
    m = pts.shape[0]
    total = np.zeros(m, dtype=complex)
    nodes = np.zeros(m, dtype=np.int64)
    status = np.zeros(m, dtype=np.int64)
    for blk in _kernels._point_blocks(m, kinds.shape[0]):
        z = pts[blk, 0] + 1j * pts[blk, 1]
        if geo.e0.size:
            with np.errstate(**_kernels._RATIO_ERRORS):
                total[blk], on = _kernels._wind_chords(geo.e0, geo.e1, geo.arc, z)
            nodes[blk] = geo.e0.size
            status[blk] = np.where(on, _kernels.ON_CARRIER, _kernels.OK)
        if geo.ctl.shape[2]:
            _wind_cubics_flat(geo.ctl, z, total[blk], nodes[blk], status[blk])
    return total, nodes, status


# the figure-eight fails validation, so it has no region grid
_REGION_CURVES = {
    **{n: f for n, f in FIXTURES.items() if n != "figure-eight"},
    "blob64": lambda: cubic_blob(64),
    "blob512": lambda: cubic_blob(512),
}


@pytest.mark.parametrize("name", sorted(_REGION_CURVES))
def test_region_grid_matches_flat_kernel(monkeypatch, name):
    jc = validate_jordan(_REGION_CURVES[name](), h=1e-2)
    res = jc.diameter() / 40
    grid = region_grid(jc, res)
    monkeypatch.setattr(_kernels, "winding_batch", _winding_batch_flat)
    flat = region_grid(jc, res)
    assert np.array_equal(grid.winding, flat.winding)
    assert np.array_equal(grid.valid, flat.valid)


def test_blob64_region_cells_take_at_most_8_nodes():
    jc = validate_jordan(cubic_blob(64), h=1e-2)
    grid = region_grid(jc, jc.diameter() / 32)
    ci = jc.carrier
    _, nodes, _ = _kernels.winding_batch(ci.kinds, ci.geometry, grid.centers)
    assert nodes.mean() <= 8.0


@pytest.mark.parametrize("sweep", [math.pi, -math.pi, 0.5, -2.0, 5.5, -6.0])
def test_winding_on_an_arcs_chord_is_half_a_turn(sweep):
    # a point on the chord sees the arc sweep +-pi.  The arc is symmetric
    # about the x axis, so both ends have the same x, the points lie on the
    # chord exactly and the ratio of the ends is real
    a0 = -0.5 * sweep
    arc = ArcPiece(Point(0.0, 0.0), 1.0, a0, sweep)
    e0, e1 = arc.point(0.0), arc.point(1.0)
    for t in (0.5, 0.1, 0.93):
        z = (e0.x + t * (e1.x - e0.x), e0.y + t * (e1.y - e0.y))
        total, nodes, status = _wind([arc], [z])
        assert status[0] == _kernels.OK and nodes[0] == 1
        assert total[0].imag == pytest.approx(math.copysign(math.pi, sweep), abs=1e-12)
        assert abs(complex(total[0]) - _quad_winding([arc], z)) < 1e-7


# The ray kernel as it was written for numba, when it found every
# transversal root: numpy scratch rows, an explicit DFS stack and an
# insertion sort.  Its hit cap is raised from 64 so that it never binds on
# the test curves.  It stays as a referee of the side-change count.
_STACK_CAP = 256
_HIT_CAP = 256
_BRACKET_WIDTH = 1e-4
_ROOT_TOL = 1e-12
OK, ON_CARRIER = _kernels.OK, _kernels.ON_CARRIER


def _angle_in_sweep(a0, sweep, theta):
    """The arc-sweep rule with one branch per sweep sign."""

    tol = _kernels._SWEEP_TOL
    if sweep > 0.0:
        delta = (theta - a0) % TWO_PI
        if delta <= sweep + tol:
            u = delta / sweep
            return u if u < 1.0 else 1.0
        return -1.0
    delta = (a0 - theta) % TWO_PI
    if delta <= -sweep + tol:
        u = delta / (-sweep)
        return u if u < 1.0 else 1.0
    return -1.0


def test_angle_in_sweep_matches_the_two_branch_rule():
    # a ray from the centre of a unit arc along theta: the arc branch counts
    # it once, with the sweep's sign, exactly where the two-branch rule puts
    # theta on the sweep.  At an end (exact, within the old tolerance, or
    # wrapped into (-pi, pi]) an open arc counts at most once; only a closed
    # chain decides a joint (the ellipse's joint test in test_index)
    rng = np.random.default_rng(61)
    n = 20000
    a0 = rng.uniform(-10.0, 10.0, n)
    sweep = rng.choice([-1.0, 1.0], n) * rng.uniform(1e-9, TWO_PI, n)
    theta = rng.uniform(-math.pi, math.pi, n)
    end = a0 + sweep
    theta[:4000] = a0[:4000]
    theta[4000:8000] = end[4000:8000]
    theta[8000:10000] = end[8000:10000] + rng.uniform(-2e-12, 2e-12, 2000)
    theta[10000:12000] = np.arctan2(np.sin(end[10000:12000]), np.cos(end[10000:12000]))
    inner = 0
    for a, sw, th in zip(a0.tolist(), sweep.tolist(), theta.tolist()):
        kinds, data = _rows([ArcPiece(Point(0.0, 0.0), 1.0, a, sw)])
        hits, status = _ray(kinds, data, (0.0, 0.0), (math.cos(th), math.sin(th)))
        assert status == _kernels.OK
        count = int(hits[:, 3].sum())
        sign = 1 if sw > 0.0 else -1
        ends = (math.remainder(th - a, TWO_PI), math.remainder(th - a - sw, TWO_PI))
        if min(map(abs, ends)) < 1e-9:
            assert count in (0, sign), (a, sw, th)
        else:
            assert count == (sign if _angle_in_sweep(a, sw, th) >= 0.0 else 0), (a, sw, th)
            inner += 1
    assert 7900 < inner <= 8000


def _bern3(f0, f1, f2, f3, u):
    v = 1.0 - u
    return (
        v * v * v * f0
        + 3.0 * v * v * u * f1
        + 3.0 * v * u * u * f2
        + u * u * u * f3
    )


def _cubic_point(row, u):
    v = 1.0 - u
    b0 = v * v * v
    b1 = 3.0 * v * v * u
    b2 = 3.0 * v * u * u
    b3 = u * u * u
    x = b0 * row[0] + b1 * row[2] + b2 * row[4] + b3 * row[6]
    y = b0 * row[1] + b1 * row[3] + b2 * row[5] + b3 * row[7]
    return x, y


def _cubic_velocity(row, u):
    v = 1.0 - u
    c0 = 3.0 * v * v
    c1 = 6.0 * v * u
    c2 = 3.0 * u * u
    x = c0 * (row[2] - row[0]) + c1 * (row[4] - row[2]) + c2 * (row[6] - row[4])
    y = c0 * (row[3] - row[1]) + c1 * (row[5] - row[3]) + c2 * (row[7] - row[5])
    return x, y


def _ray_hits_oracle(kinds, data, px, py, vx, vy, out):
    """Rows (t, piece, u, tan_x, tan_y, 0) of ``out``: returns (n_hits, status)."""

    nh = 0
    froots = np.empty(16)
    stack = np.empty((_STACK_CAP, 6))
    for i in range(kinds.shape[0]):
        kind = kinds[i]
        row = data[i]
        if kind == KIND_LINE:
            ex, ey = row[2] - row[0], row[3] - row[1]
            rx, ry = row[0] - px, row[1] - py
            den = vx * ey - vy * ex
            elen = math.hypot(ex, ey)
            if abs(den) <= 1e-14 * elen:
                perp = rx * vy - ry * vx
                if abs(perp) <= 1e-12 * elen:
                    f0 = rx * vx + ry * vy
                    f1 = (row[2] - px) * vx + (row[3] - py) * vy
                    if f0 > 0.0 or f1 > 0.0:
                        return nh, ON_CARRIER
                continue
            t = (rx * ey - ry * ex) / den
            u = (rx * vy - ry * vx) / den
            if -1e-12 <= u <= 1.0 + 1e-12 and t > 0.0:
                if nh >= _HIT_CAP:
                    return nh, NODE_LIMIT
                uu = min(1.0, max(0.0, u))
                out[nh, 0] = t
                out[nh, 1] = i
                out[nh, 2] = uu
                out[nh, 3] = ex
                out[nh, 4] = ey
                nh += 1
        elif kind == KIND_ARC:
            cx, cy, r, a0, sweep = row[0], row[1], row[2], row[3], row[4]
            ux, uy = px - cx, py - cy
            b = vx * ux + vy * uy
            d = abs(ux * vy - uy * vx)
            disc = (r - d) * (r + d)
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            for sgn in range(2):
                t = -b - sq if sgn == 0 else -b + sq
                if t <= 0.0:
                    continue
                hx = ux + t * vx
                hy = uy + t * vy
                theta = math.atan2(hy, hx)
                uu = _angle_in_sweep(a0, sweep, theta)
                if uu < 0.0:
                    continue
                if nh >= _HIT_CAP:
                    return nh, NODE_LIMIT
                out[nh, 0] = t
                out[nh, 1] = i
                out[nh, 2] = uu
                out[nh, 3] = -hy * sweep
                out[nh, 4] = hx * sweep
                nh += 1
        else:
            f0 = (row[0] - px) * vy - (row[1] - py) * vx
            f1 = (row[2] - px) * vy - (row[3] - py) * vx
            f2 = (row[4] - px) * vy - (row[5] - py) * vx
            f3 = (row[6] - px) * vy - (row[7] - py) * vx
            nroots = 0
            sp = 0
            stack[sp, 0] = 0.0
            stack[sp, 1] = 1.0
            stack[sp, 2] = f0
            stack[sp, 3] = f1
            stack[sp, 4] = f2
            stack[sp, 5] = f3
            sp += 1
            while sp > 0:
                sp -= 1
                ulo, uhi = stack[sp, 0], stack[sp, 1]
                g0, g1 = stack[sp, 2], stack[sp, 3]
                g2, g3 = stack[sp, 4], stack[sp, 5]
                if (g0 > 0.0 and g1 > 0.0 and g2 > 0.0 and g3 > 0.0) or (
                    g0 < 0.0 and g1 < 0.0 and g2 < 0.0 and g3 < 0.0
                ):
                    continue
                if uhi - ulo <= _BRACKET_WIDTH:
                    root = -1.0
                    if g0 == 0.0:
                        root = ulo
                    elif g3 == 0.0 and uhi == 1.0:
                        root = 1.0
                    elif (g0 > 0.0) != (g3 > 0.0):
                        lo, hi = ulo, uhi
                        flo = g0
                        while hi - lo > _ROOT_TOL:
                            mid = 0.5 * (lo + hi)
                            fm = _bern3(f0, f1, f2, f3, mid)
                            if fm == 0.0:
                                lo = mid
                                hi = mid
                                break
                            if (flo > 0.0) != (fm > 0.0):
                                hi = mid
                            else:
                                lo = mid
                                flo = fm
                        root = 0.5 * (lo + hi)
                    if root >= 0.0 and nroots < 16:
                        froots[nroots] = root
                        nroots += 1
                else:
                    if sp + 2 > _STACK_CAP:
                        return nh, NODE_LIMIT
                    m01 = 0.5 * (g0 + g1)
                    m12 = 0.5 * (g1 + g2)
                    m23 = 0.5 * (g2 + g3)
                    ga = 0.5 * (m01 + m12)
                    gb = 0.5 * (m12 + m23)
                    gm = 0.5 * (ga + gb)
                    mid = 0.5 * (ulo + uhi)
                    stack[sp, 0] = ulo
                    stack[sp, 1] = mid
                    stack[sp, 2] = g0
                    stack[sp, 3] = m01
                    stack[sp, 4] = ga
                    stack[sp, 5] = gm
                    sp += 1
                    stack[sp, 0] = mid
                    stack[sp, 1] = uhi
                    stack[sp, 2] = gm
                    stack[sp, 3] = gb
                    stack[sp, 4] = m23
                    stack[sp, 5] = g3
                    sp += 1
            # sort, dedup, convert to forward hits
            for a_i in range(1, nroots):
                key = froots[a_i]
                b_i = a_i - 1
                while b_i >= 0 and froots[b_i] > key:
                    froots[b_i + 1] = froots[b_i]
                    b_i -= 1
                froots[b_i + 1] = key
            # adjacent brackets re-find a shared root within ~2 * _ROOT_TOL;
            # genuine distinct crossings are never that close in parameter
            prev = -1.0
            for k in range(nroots):
                u = froots[k]
                if prev >= 0.0 and u - prev < 1e-11:
                    continue
                prev = u
                hx, hy = _cubic_point(row, u)
                t = (hx - px) * vx + (hy - py) * vy
                if t <= 0.0:
                    continue
                if nh >= _HIT_CAP:
                    return nh, NODE_LIMIT
                tx, ty = _cubic_velocity(row, u)
                out[nh, 0] = t
                out[nh, 1] = i
                out[nh, 2] = u
                out[nh, 3] = tx
                out[nh, 4] = ty
                nh += 1
    return nh, OK


_RAY_CURVES = _ORACLE_CURVES + ["comb"]
# successive multiples of it spread directions evenly around the circle
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _ray_cases(spec, ci):
    """(point, unit direction) pairs: 200 seeded points around the curve,
    each shot along +x, along the next three golden-angle directions and
    through a random piece joint; then a ray along each of the first five
    line pieces, from behind its start."""

    x0, y0, x1, y1 = ci.bbox
    pad = 0.2 * ci.diam
    rng = np.random.default_rng(29)
    pts = rng.uniform((x0 - pad, y0 - pad), (x1 + pad, y1 + pad), size=(200, 2))
    joints = rng.integers(spec.n_pieces, size=len(pts))
    cases = []
    for (px, py), j in zip(pts.tolist(), joints.tolist()):
        q = spec.pieces[j].point(0.0)
        dirs = [(1.0, 0.0), (q.x - px, q.y - py)]
        dirs += [(math.cos(k * _GOLDEN_ANGLE), math.sin(k * _GOLDEN_ANGLE)) for k in (1, 2, 3)]
        cases += [((px, py), d) for d in dirs]
    lines = [pc for pc in spec.pieces if isinstance(pc, LinePiece)][:5]
    for pc in lines:
        dx, dy = pc.end.x - pc.start.x, pc.end.y - pc.start.y
        cases.append(((pc.start.x - 0.5 * dx, pc.start.y - 0.5 * dy), (dx, dy)))
    unit = [(p, (vx / math.hypot(vx, vy), vy / math.hypot(vx, vy))) for p, (vx, vy) in cases]
    return unit, len(lines)


def _accepted_sum(hits, n, vx, vy, diam):
    """The signed sum of the oracle's n hits where the root-finding ray
    would have counted them: every hit inside its piece, crossing at an
    angle and isolated from the next; None where it would have retried."""

    rows = sorted(hits[:n].tolist())
    total = 0
    for k, (t, _, u, tx, ty, _) in enumerate(rows):
        if not 1e-8 < u < 1.0 - 1e-8:
            return None
        if k > 0 and t - rows[k - 1][0] <= 1e-6 * diam:
            return None
        cross = vx * ty - vy * tx
        if math.atan2(abs(cross), abs(vx * tx + vy * ty)) < 1e-4:
            return None
        total += 1 if cross > 0.0 else -1
    return total


@pytest.mark.parametrize("name", _RAY_CURVES)
def test_ray_hits_match_stack_kernel_oracle(name):
    # the side-change count equals the root-finding oracle's signed sum on
    # every ray the oracle accepts, and the winding number on every ray
    # from a point of certified clearance, rays along pieces included
    ci, spec = _oracle_curve(name)
    cases, n_lines = _ray_cases(spec, ci)
    pts = np.array([p for p, _ in cases])
    total, _, wstatus = _kernels.winding_batch(ci.kinds, ci.geometry, pts)
    winding = np.rint((total / (2j * math.pi)).real).astype(int).tolist()
    clear = ci.distance_batch(pts)[0] > 0.0
    accepted = most = 0
    for k, ((px, py), (vx, vy)) in enumerate(cases):
        hits = []
        n, status = _kernels.ray_hits_point(ci.geometry, px, py, vx, vy, hits)
        assert type(n) is int and n == len(hits)
        assert status == _kernels.OK
        count = sum(h[3] for h in hits)
        if clear[k] and wstatus[k] == _kernels.OK:
            assert count == winding[k]
        rows = np.empty((_HIT_CAP, 6))
        want_n, want_status = _ray_hits_oracle(ci.kinds, ci.data, px, py, vx, vy, rows)
        assert want_status != NODE_LIMIT
        want = _accepted_sum(rows, want_n, vx, vy, ci.diam) if want_status == OK else None
        if want is not None:
            assert count == want
            accepted += 1
        most = max(most, n)
    assert accepted >= len(cases) // 2
    # the rays along line pieces, which the oracle refuses, count too
    assert n_lines == 0 or accepted < len(cases)
    if name == "comb":
        assert most > 64


def _pair_scan_oracle(xy, ts, period, sep_floor, a, b, eps_levels):
    """The full O(n^2) chord scan, every pair i < j in one matrix."""

    dt = ts[None, :] - ts[:, None]
    upper = dt > 0
    d = np.hypot(xy[None, :, 0] - xy[:, None, 0], xy[None, :, 1] - xy[:, None, 1])
    ws = np.minimum(dt, period - dt)
    dm = np.where(upper & (ws >= sep_floor), d, np.inf)
    # argmin takes the first minimum in row-major order: the smallest (i, j)
    i, j = np.unravel_index(np.argmin(dm), dm.shape)
    best = float(dm[i, j])
    if best == np.inf:
        i = j = -1
    cap = np.minimum(dt, np.minimum(2.0 * (ts[:, None] - a), 2.0 * (b - ts[None, :])))
    deltas = np.full(len(eps_levels), np.inf)
    for k, e in enumerate(eps_levels):
        sel = upper & (cap >= e)
        if sel.any():
            deltas[k] = d[sel].min()
    return best, int(i), int(j), deltas


def _assert_scan_exact(xy, ts, period, sep, a, b, eps_levels):
    # the scan wraps pairs around the period b - a of its interval
    assert period == b - a
    got = _kernels.pair_scan(xy, ts, sep, a, b, eps_levels)
    want = _pair_scan_oracle(xy, ts, period, sep, a, b, eps_levels)
    assert got[:3] == want[:3]
    assert np.array_equal(got[3], want[3])
    return got


def _validation_samples(spec, h):
    """The samples, parameters and eps levels validate_jordan scans."""

    a, b = spec.interval
    period = b - a
    n = max(int(math.ceil(period / h)), 8 * spec.n_pieces)
    ts = a + (period / n) * np.arange(n)
    eps_levels = np.array([f * period for f in (0.02, 0.05, 0.1, 0.2, 0.3, 0.4)])
    return spec.points(ts), ts, period, h, a, b, eps_levels


def test_pair_scan_matches_bruteforce():
    rng = np.random.default_rng(9)
    n = 400
    a, b = 0.0, 4.0
    ts = np.sort(rng.uniform(a, b, size=n))
    xy = rng.normal(size=(n, 2))
    eps_levels = np.array([0.2, 0.5, 1.0, 1.6])
    _assert_scan_exact(xy, ts, b - a, 0.05, a, b, eps_levels)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_pair_scan_matches_bruteforce_on_fixtures(name):
    _assert_scan_exact(*_validation_samples(fixture(name), 1e-2))


# (dx, dy) of two chords whose squares order them the other way round from
# hypot, and the place of two far samples that set the span:
# - "shorter": the shorter chord has the larger square dx*dx + dy*dy;
# - "tie": equal chords, unequal squares;
# - "subnormal": chords 1e-160 of the span, whose squares round in the
#   subnormal range;
# - "near-subnormal": subnormal chords that hypot rounds equal, although
#   their squares (normal once scaled with the span) differ by 3e-9
_MISORDERED = {
    "shorter": ((0.5842750238899814, 0.7847895789188871),
                (0.5842750233688092, 0.7847895793068993), 4.0),
    "tie": ((0.5204867619680973, 0.5235567906735927),
            (0.5204867620940721, 0.5235567905483566), 4.0),
    "subnormal": ((9.675362118938841e-161, 9.570757932972065e-161),
                  (9.677219010763117e-161, 9.568880746134681e-161), 0.6),
    "near-subnormal": ((5.2048676e-316, 8.74821486e-316),
                       (5.20486765e-316, 8.7482148e-316), 4e-315),
}


@pytest.mark.parametrize("block", [1, 32])
@pytest.mark.parametrize("case", sorted(_MISORDERED))
def test_pair_scan_takes_the_least_chord_not_the_least_square(monkeypatch, case, block):
    # samples 0-1 and 1-2 make the two chords, exactly; 3 and 4 lie far off.
    # The first chord is the least, or ties and has the smaller pair, but
    # its square is the larger, so a filter without slack would miss it
    monkeypatch.setattr(_kernels, "_SCAN_BLOCK", block)
    (ax, ay), (bx, by), far = _MISORDERED[case]
    assert np.hypot(ax, ay) <= np.hypot(bx, by)
    xy = np.array([(-ax, -ay), (0.0, 0.0), (bx, by), (far, 0.0), (far / 2, far)])
    ts = np.array([0.3, 0.4, 0.5, 0.6, 0.7])
    best, bi, bj, deltas = _assert_scan_exact(xy, ts, 1.0, 0.05, 0.0, 1.0, np.array([0.05]))
    assert (best, bi, bj) == (np.hypot(ax, ay), 0, 1)
    assert deltas.tolist() == [best]


@pytest.mark.parametrize("scale", [1e-306, 1e-160, 1e-150, 1e-12, 1e12, 1e150, 1e160])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_pair_scan_squares_stay_exact_at_any_scale(name, scale):
    # unscaled squares would turn subnormal near 1e-154 and overflow near
    # 1e154; at 1e-306 the least chords come near the subnormal range
    xy, *rest = _validation_samples(fixture(name), 1e-2)
    _assert_scan_exact(xy * scale, *rest)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_pair_scan_squares_stay_exact_far_from_the_origin(name):
    xy, *rest = _validation_samples(fixture(name), 1e-2)
    _assert_scan_exact(xy + 1e9, *rest)


@pytest.mark.parametrize(
    "n", [2, 5, _kernels._SCAN_BLOCK - 1, _kernels._SCAN_BLOCK + 1]
)
def test_pair_scan_matches_bruteforce_around_one_block(n):
    rng = np.random.default_rng(n)
    ts = np.arange(n) / n
    xy = rng.normal(size=(n, 2))
    _assert_scan_exact(xy, ts, 1.0, 1.5 / n, 0.0, 1.0, np.array([0.1, 0.3]))


def test_pair_scan_wrapping_pairs():
    # samples 2 and n - 3 nearly meet: five steps apart across the seam,
    # enough for sep_floor; samples 0 and n - 1 meet closer still, but only
    # one step apart across the seam, so that pair is not admissible
    rng = np.random.default_rng(3)
    n = 300
    ts = np.arange(n) / n
    xy = 50.0 * rng.normal(size=(n, 2))
    xy[n - 3] = xy[2] + (1e-3, 0.0)
    xy[n - 1] = xy[0] + (1e-6, 0.0)
    best, bi, bj, _ = _assert_scan_exact(
        xy, ts, 1.0, 3.0 / n, 0.0, 1.0, np.array([0.1, 0.3])
    )
    assert (bi, bj) == (2, n - 3)
    assert best == pytest.approx(1e-3)


def _hairpin(turn):
    """Integer points out along y = 0 to sample ``turn`` and back along
    y = 5, 10 apart in x: every pair straight across is exactly 5 apart."""

    n = 2 * (turn + 1)
    k = np.arange(n)
    xy = np.stack([10.0 * np.where(k <= turn, k, n - 1 - k), 5.0 * (k > turn)], axis=1)
    return xy, k / n


def test_pair_scan_exact_tie_takes_smallest_pair(monkeypatch):
    # blocks of 8 keep the oracle small.  The turn falls inside a block,
    # whose box distance 0 puts its ties first; the smallest admissible
    # pair (1, n - 2) lies in blocks 5 apart, visited steps later, and
    # their caps reach no eps level, so only the J1 bound admits them
    monkeypatch.setattr(_kernels, "_SCAN_BLOCK", 8)
    xy, ts = _hairpin(499)
    n = len(ts)
    best, bi, bj, _ = _assert_scan_exact(
        xy, ts, 1.0, 1.5 / n, 0.0, 1.0, np.array([0.1, 0.3])
    )
    assert (best, bi, bj) == (5.0, 1, n - 2)


def test_pair_scan_level_minimum_behind_a_nearer_box(monkeypatch):
    # with no J1-admissible pair (sep_floor > period / 2) only the J2 bound
    # prunes.  One lifted sample per block (moved to y = 0.5, between two
    # upper ones) gives 38 block pairs box distance 4.5 and chords of 5;
    # one upper sample at y = 4.999 holds the level minimum in blocks
    # 4.999 apart, visited a step after the current delta became 5
    monkeypatch.setattr(_kernels, "_SCAN_BLOCK", 8)
    xy, ts = _hairpin(499)
    lifted = 8 * np.arange(12, 51) + 3
    lifted = lifted[lifted // 8 != 250 // 8]
    xy[lifted] += (5.0, 0.5)
    xy[749, 1] = 4.999
    best, bi, bj, deltas = _assert_scan_exact(
        xy, ts, 1.0, 0.6, 0.0, 1.0, np.array([0.2])
    )
    assert (best, bi, bj) == (np.inf, -1, -1)
    assert deltas.tolist() == [4.999]


@st.composite
def _lattice_scans(draw):
    """A block size and a scan on a small integer lattice: repeated points
    and exact ties, integer parameters, a sep_floor that is one pair's dt,
    above period / 2 or 0, and eps levels that may be 0 or equal a pair's
    cap exactly.  At 0 only the pairs i >= j are left out."""

    n = draw(st.integers(2, 80))
    ts = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    ts = ts.astype(float)
    a = ts[0] - draw(st.integers(0, 2))
    b = ts[-1] + draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    xy = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)), dtype=float)
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(i + 1, n - 1))
    sep = draw(st.sampled_from([ts[j] - ts[i], (b - a) / 2.0 + 0.5, 0.0]))
    caps = np.minimum(ts[None, :] - ts[:, None], 2.0 * (ts[:, None] - a))
    caps = np.minimum(caps, 2.0 * (b - ts[None, :]))[np.triu_indices(n, 1)]
    level = st.one_of(st.sampled_from([0.0] + caps.tolist()), st.floats(0.0, b - a))
    eps_levels = np.sort(draw(st.lists(level, max_size=5)))
    block = draw(st.sampled_from([1, 3, 8, 32]))
    return block, (xy, ts, b - a, sep, a, b, eps_levels)


@given(_lattice_scans())
@settings(max_examples=200, deadline=None)
def test_pair_scan_matches_bruteforce_on_a_lattice(case):
    block, args = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_BLOCK", block)
        _assert_scan_exact(*args)


def _crossing_oracle(xy):
    """Smallest pair of non-adjacent segments that cross or touch, in exact
    arithmetic."""

    pts = [(Fraction(x), Fraction(y)) for x, y in xy.tolist()]
    n = len(pts)

    def turn(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 0) - (v < 0)

    def meet(p, q, r, s):
        a, b = turn(p, q, r), turn(p, q, s)
        if a * b > 0:
            return False
        c, d = turn(r, s, p), turn(r, s, q)
        if a == b == c == d == 0:
            # all four ends on one line: the segments' boxes must meet
            return all(
                max(min(p[k], q[k]), min(r[k], s[k])) <= min(max(p[k], q[k]), max(r[k], s[k]))
                for k in (0, 1)
            )
        return c * d <= 0

    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            if meet(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                return i, j
    return -1, -1


@pytest.mark.parametrize("seed", range(6))
def test_polyline_crossing_matches_exact_oracle(seed):
    rng = np.random.default_rng(seed)
    for n in (4, 5, _kernels._SCAN_BLOCK + 1, 150):
        th = TWO_PI * np.arange(n) / n
        circle = np.stack([np.cos(th), np.sin(th)], axis=1)
        step = TWO_PI / n
        # a noisy circle zigzags across itself here and there; a random
        # walk crosses itself everywhere
        for xy in (
            circle + rng.uniform(-0.6, 0.6) * step * rng.normal(size=(n, 2)),
            np.cumsum(rng.normal(size=(n, 2)), axis=0),
        ):
            assert _kernels.polyline_crossing(xy) == _crossing_oracle(xy)


@pytest.mark.parametrize("seed", range(4))
def test_polyline_crossing_matches_exact_oracle_on_touches(seed):
    # random points of a 5 x 5 lattice: samples on other segments, collinear
    # overlaps, repeated samples and end-to-end touches, all in exact floats
    rng = np.random.default_rng(100 + seed)
    for n in (4, 5, 9, _kernels._SCAN_BLOCK + 1, 70):
        for _ in range(6):
            xy = rng.integers(0, 5, size=(n, 2)).astype(float)
            assert _kernels.polyline_crossing(xy) == _crossing_oracle(xy)


def test_polyline_crossing_finds_a_sample_on_an_edge():
    # the square's bottom edge, sampled, and a spike whose tip sample lies
    # on it; lifted off it, the tip touches nothing
    bottom = [(k / 8.0, 0.0) for k in range(9)]
    tip = (0.3, 0.0)
    rest = [(1.0, 1.0), (0.5, 1.0), tip, (0.2, 1.0), (0.0, 1.0)]
    xy = np.array(bottom + rest)
    assert _kernels.polyline_crossing(xy) == _crossing_oracle(xy) == (2, 10)
    xy[11, 1] = 2.0**-60
    assert _kernels.polyline_crossing(xy) == _crossing_oracle(xy) == (-1, -1)


def test_polyline_crossing_is_exact_on_nearly_collinear_samples():
    # a triangle's samples: float orientations of three samples of one side
    # round to 0 or to either sign, and must not make two of its segments
    # touch
    verts = np.array([[0.0, -0.03125], [0.03125, -0.0625], [-0.03125, 0.09375]])
    u = np.arange(60)[:, None] / 60.0
    xy = np.concatenate([a + u * (b - a) for a, b in zip(verts, np.roll(verts, -1, axis=0))])
    assert _kernels.polyline_crossing(xy) == _crossing_oracle(xy) == (-1, -1)


def test_polyline_crossing_finds_one_curl():
    # a circle that makes one small loop inside one block: segments 103
    # and 108 cross, and nothing else does
    n = 400
    th = TWO_PI * np.arange(n) / n
    xy = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert _kernels.polyline_crossing(xy) == (-1, -1)
    r = 3.0 * TWO_PI / n
    loop = np.linspace(0.0, TWO_PI, 6, endpoint=False)[1:]
    centre = xy[105] * (1.0 - r)
    xy[104:109] = centre + r * np.stack(
        [np.cos(th[105] + loop), np.sin(th[105] + loop)], axis=1
    )
    assert _kernels.polyline_crossing(xy) == _crossing_oracle(xy) == (103, 108)


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
