import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvewind.curves import EVAL_TOL, CurveSpec, _row_points
from curvewind.geometry import Point
from curvewind.pieces import ArcPiece, CubicPiece, LinePiece

from conftest import piece_points

coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def _dense_speeds(piece, n=20001):
    us = np.linspace(0.0, 1.0, n)
    vs = np.array([piece.velocity(float(u)).as_tuple() for u in us])
    return np.hypot(vs[:, 0], vs[:, 1])


def _points(piece, us):
    """The flat evaluator on one piece."""

    us = np.asarray(us, dtype=float)
    kinds = np.array([piece.kind], dtype=np.int8)
    data = np.array([piece.to_row()], dtype=float)
    return _row_points(kinds, data, np.zeros(us.shape[0], dtype=int), us)


def _dense_points(piece, n=2001):
    return _points(piece, np.linspace(0.0, 1.0, n))


def test_line_piece_eval():
    p = LinePiece(Point(1.0, 2.0), Point(3.0, -2.0))
    assert p.point(0.0) == Point(1.0, 2.0)
    assert p.point(1.0) == Point(3.0, -2.0)
    assert p.point(0.5) == Point(2.0, 0.0)
    assert p.velocity(0.3) == Point(2.0, -4.0)
    lo, hi = p.speed_bounds()
    assert lo == hi == pytest.approx(math.hypot(2.0, 4.0))
    with pytest.raises(ValueError):
        LinePiece(Point(0.0, 0.0), Point(0.0, 0.0))


def test_arc_piece_eval_and_bounds():
    a = ArcPiece(Point(1.0, -1.0), 2.0, math.pi / 6, -math.pi / 2)
    s = a.point(0.0)
    assert s.dist(Point(1.0 + 2.0 * math.cos(math.pi / 6), -1.0 + 1.0)) < 1e-12
    lo, hi = a.speed_bounds()
    assert lo == hi == pytest.approx(2.0 * math.pi / 2)
    assert not a.is_full_turn
    assert ArcPiece(Point(0, 0), 1.0, 0.0, 2 * math.pi).is_full_turn
    with pytest.raises(ValueError):
        ArcPiece(Point(0, 0), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ArcPiece(Point(0, 0), 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ArcPiece(Point(0, 0), 1.0, 0.0, 7.0)


def test_arc_bbox_spans_cardinals():
    # sweep through the top cardinal point: bbox must reach the top
    a = ArcPiece(Point(0.0, 0.0), 1.0, math.pi / 4, math.pi / 2)
    x0, y0, x1, y1 = a.bbox()
    assert y1 == pytest.approx(1.0)
    pts = _dense_points(a)
    assert pts[:, 0].min() >= x0 - 1e-12
    assert pts[:, 1].max() <= y1 + 1e-12


def _mixed_path():
    """A line, an arc and a cubic joined end to end, on [0, 3]."""

    line = LinePiece(Point(0.0, 0.0), Point(2.0, 1.0))
    arc = ArcPiece(Point(2.0, 2.5), 1.5, -0.5 * math.pi, 2.0)
    q = arc.point(1.0)
    cubic = CubicPiece(q, Point(1.0, 2.0), Point(0.5, -1.0), Point(-0.5, 0.5))
    return CurveSpec((line, arc, cubic))


def test_flat_points_match_per_piece_oracle_bit_for_bit():
    us = np.concatenate([[0.0, 1.0], np.random.default_rng(5).uniform(size=64)])
    for piece in _mixed_path().pieces:
        assert np.array_equal(_points(piece, us), piece_points(piece, us))


def test_vectorised_points_match_scalar():
    # the ends t = a and t = b, half the tolerance band past each, every
    # joint, and points in between, on one path with all three kinds
    spec = _mixed_path()
    half = EVAL_TOL * (spec.b - spec.a) / 2.0
    ts = np.concatenate(
        [
            np.linspace(spec.a, spec.b, 31),
            [0.0, 1.0, 2.0, 3.0, 1.0 - 1e-15, 2.0 + 1e-15, spec.a - half, spec.b + half],
        ]
    )
    batch = spec.points(ts)
    for t, row in zip(ts, batch):
        assert spec.eval(float(t)).dist(Point(*row)) < 1e-12
    # piece k holds [k, k + 1): a joint evaluates on the piece it starts,
    # t = b on the last piece at u = 1
    for t, k, u in ((0.0, 0, 0.0), (1.0, 1, 0.0), (2.0, 2, 0.0), (3.0, 2, 1.0)):
        want = piece_points(spec.pieces[k], [u])
        assert np.array_equal(spec.points(np.array([t])), want)


@pytest.mark.parametrize("t", [8.0, -5.0, math.nan])
def test_parameters_outside_the_interval_are_refused(t):
    # a parameter names a point of the curve only within EVAL_TOL interval
    # lengths of [a, b] = [0, 3]: b + 5, a - 5 and NaN are refused by the
    # batch, by one point and by either one-sided derivative
    spec = _mixed_path()
    with pytest.raises(ValueError, match="outside"):
        spec.points(np.array([0.5, t, 2.5]))
    with pytest.raises(ValueError, match="outside"):
        spec.eval(t)
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="outside"):
            spec.deriv(t, side)


def test_derivatives_half_the_band_past_an_end():
    # past an end, the one-sided derivative is the one at that end: the
    # piece index is clamped, and the local parameter with it
    spec = _mixed_path()
    half = EVAL_TOL * (spec.b - spec.a) / 2.0
    for t, side, end in ((spec.a - half, "right", spec.a), (spec.b + half, "left", spec.b)):
        assert spec.deriv(t, side) == spec.deriv(end, side)
    with pytest.raises(ValueError, match="no left derivative"):
        spec.deriv(spec.a - half, "left")
    with pytest.raises(ValueError, match="no right derivative"):
        spec.deriv(spec.b + half, "right")


@given(coord, coord, coord, coord, coord, coord, coord, coord)
@settings(max_examples=80, deadline=None)
def test_cubic_speed_bounds_enclose_dense_oracle(x0, y0, x1, y1, x2, y2, x3, y3):
    piece = CubicPiece(
        Point(x0, y0), Point(x1, y1), Point(x2, y2), Point(x3, y3)
    )
    speeds = _dense_speeds(piece, 4001)
    lo, hi = piece.speed_bounds()
    assert lo <= speeds.min() + 1e-9
    assert hi >= speeds.max() - 1e-9
    assert lo >= 0.0


@given(coord, coord, coord, coord, coord, coord, coord, coord)
@settings(max_examples=60, deadline=None)
def test_cubic_bbox_contains_curve(x0, y0, x1, y1, x2, y2, x3, y3):
    piece = CubicPiece(
        Point(x0, y0), Point(x1, y1), Point(x2, y2), Point(x3, y3)
    )
    bx0, by0, bx1, by1 = piece.bbox()
    pts = _dense_points(piece, 501)
    assert pts[:, 0].min() >= bx0 - 1e-9
    assert pts[:, 0].max() <= bx1 + 1e-9
    assert pts[:, 1].min() >= by0 - 1e-9
    assert pts[:, 1].max() <= by1 + 1e-9


def test_cubic_speed_lower_bound_zero_at_cusp():
    # coincident first controls force zero velocity at u = 0
    piece = CubicPiece(
        Point(0.0, 0.0), Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 0.0)
    )
    lo, _ = piece.speed_bounds()
    assert lo == 0.0


def _similarity(theta, scale, dx, dy, flip=False):
    c, s = scale * math.cos(theta), scale * math.sin(theta)
    if flip:
        return (c, s, s, -c, dx, dy)
    return (c, -s, s, c, dx, dy)


@pytest.mark.parametrize("flip", [False, True])
def test_arc_similarity_transform_matches_pointwise(flip):
    a = ArcPiece(Point(0.4, -0.2), 1.3, 0.7, 1.9)
    m = _similarity(0.6, 1.7, 0.3, -0.8, flip)
    ta = a.transformed(m)
    us = np.linspace(0.0, 1.0, 33)
    for u in us:
        p = a.point(float(u))
        q = Point(
            m[0] * p.x + m[1] * p.y + m[4], m[2] * p.x + m[3] * p.y + m[5]
        )
        assert ta.point(float(u)).dist(q) < 1e-9
    if flip:
        assert ta.sweep == pytest.approx(-a.sweep)


def test_arc_rejects_non_similarity():
    a = ArcPiece(Point(0.0, 0.0), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        a.transformed((2.0, 0.0, 0.0, 1.0, 0.0, 0.0))


def test_line_and_cubic_accept_general_affine():
    m = (2.0, 0.3, -0.1, 1.0, 0.5, 0.5)
    l = LinePiece(Point(0.0, 1.0), Point(1.0, 1.0))
    tl = l.transformed(m)
    assert tl.start.dist(Point(0.3 + 0.5, 1.0 + 0.5)) < 1e-12
    c = CubicPiece(Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))
    tc = c.transformed(m)
    for u in (0.0, 0.37, 1.0):
        p = c.point(u)
        q = Point(
            m[0] * p.x + m[1] * p.y + m[4], m[2] * p.x + m[3] * p.y + m[5]
        )
        assert tc.point(u).dist(q) < 1e-12


def test_to_row_round_trips_kind_data():
    line = LinePiece(Point(0.0, 1.0), Point(2.0, 3.0))
    assert line.to_row()[:4] == pytest.approx([0.0, 1.0, 2.0, 3.0])
    arc = ArcPiece(Point(1.0, 2.0), 3.0, 0.5, -1.5)
    assert arc.to_row()[:5] == pytest.approx([1.0, 2.0, 3.0, 0.5, -1.5])
