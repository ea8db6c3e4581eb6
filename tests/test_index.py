import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from curvewind import (
    Affine,
    BudgetNotMet,
    CurveError,
    J1Failure,
    OracleDisagreement,
    PointTooClose,
    Verdict,
    boundary_witnesses,
    classify,
    constant_index_radius,
    outer_radius,
    ray_crossing_index,
    region_distance,
    region_grid,
    reparametrize,
    segment_integral,
    transform_curve,
    validate_jordan,
    winding_number,
)
from curvewind import _kernels, fixtures
from curvewind.curves import CurveSpec
from curvewind.fixtures import kidney, rounded_square
from curvewind.geometry import Point
from curvewind import index
from curvewind.pieces import ArcPiece, CubicPiece, LinePiece

from conftest import GOOD_FIXTURES, comb, sample_classified

TWO_PI = 2.0 * math.pi


def test_winding_number_circle(curves):
    jc = curves["circle"]
    w = winding_number(jc, (0.0, 0.0))
    assert w.rounded == 1
    assert w.residual < 1e-12
    assert w.ok
    w = winding_number(jc, (3.0, 3.0))
    assert w.rounded == 0
    assert w.residual < 1e-12


def test_winding_number_clockwise_is_minus_one():
    spec = CurveSpec((ArcPiece(Point(0, 0), 1.0, 0.0, -TWO_PI),), (0.0, TWO_PI))
    jc = validate_jordan(spec, h=1e-3)
    assert winding_number(jc, (0.1, 0.0)).rounded == -1


def test_winding_rejects_carrier_points(curves):
    with pytest.raises(PointTooClose):
        winding_number(curves["circle"], (1.0, 0.0))


def test_ray_crossing_circle_from_center(curves):
    jc = curves["circle"]
    parity, records = ray_crossing_index(jc, (0.0, 0.0), (0.6, 0.8))
    assert parity == 1
    assert [(r.piece, r.sign) for r in records] == [(0, 1)]
    # the counted stretch holds the crossing's parameter
    assert records[0].u0 <= math.atan2(0.8, 0.6) / TWO_PI <= records[0].u1
    parity, records = ray_crossing_index(jc, (2.0, 0.0), (1.0, 0.01))
    assert parity == 0
    assert records == ()


def test_ray_crossing_more_than_64_hits():
    # a ray from inside the first tooth along +x leaves it and then enters
    # and leaves each of the other 39 teeth
    jc = validate_jordan(comb(40), h=1e-2)
    parity, records = ray_crossing_index(jc, (0.25, 0.5), (1.0, 0.0))
    assert parity == 1
    assert len(records) == 79
    c = classify(jc, (0.25, 0.5))
    assert c.verdict is Verdict.INSIDE
    assert len(c.crossings) == 79
    assert c.rays_tried == 1


def test_classify_agrees_on_grids(curves):
    for name, jc in curves.items():
        x0, y0, x1, y1 = jc.carrier.bbox
        xs = np.linspace(x0 - 0.2, x1 + 0.2, 21)
        ys = np.linspace(y0 - 0.2, y1 + 0.2, 21)
        inside = 0
        for x in xs:
            for y in ys:
                c = classify(jc, (float(x), float(y)))
                if c.verdict is Verdict.NEAR_CARRIER:
                    continue
                assert c.winding is not None and c.crossings is not None
                assert abs(c.winding.rounded) == c.crossing_parity
                inside += c.verdict is Verdict.INSIDE
        assert 0 < inside < 21 * 21, name


def _first_inside(jc):
    x0, y0, x1, y1 = jc.carrier.bbox
    for x in np.linspace(x0, x1, 9)[1:-1]:
        for y in np.linspace(y0, y1, 9)[1:-1]:
            c = classify(jc, (float(x), float(y)))
            if c.verdict is Verdict.INSIDE:
                return c
    raise AssertionError("no inside point on the grid")


def test_signed_crossings_are_the_winding(curves):
    # along a ray to infinity the signed crossing count is the index itself,
    # on counterclockwise curves and on the kidney reflected to clockwise
    jcs = dict(curves)
    jcs["kidney-cw"] = transform_curve(curves["kidney"], Affine.reflection_x())
    rng = np.random.default_rng(53)
    for name, jc in jcs.items():
        assert _first_inside(jc).orientation == (-1 if name == "kidney-cw" else 1)
        for _, c in sample_classified(jc, 60, rng):
            assert {r.sign for r in c.crossings} <= {-1, 1}, name
            assert sum(r.sign for r in c.crossings) == c.winding.rounded, name


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_negated_winding_is_a_disagreement(curves, name, monkeypatch):
    # a winding kernel that negates every total keeps |w| and the parity, so
    # only the signed crossing count can catch it.  classify winds through
    # winding_batch, on the chords of its distance query
    jc = curves[name]
    c = _first_inside(jc)
    wind = _kernels.winding_batch

    def negated(kinds, geo, pts, chords=None):
        total, nodes, status = wind(kinds, geo, pts, chords)
        return -total, nodes, status

    monkeypatch.setattr(_kernels, "winding_batch", negated)
    with pytest.raises(OracleDisagreement) as exc:
        classify(jc, c.point)
    assert exc.value.winding.rounded == -c.winding.rounded
    assert exc.value.crossing_index == c.winding.rounded


def test_classify_near_carrier_band(curves):
    jc = curves["circle"]
    c = classify(jc, (1.0 + 1e-9, 0.0))
    assert c.verdict is Verdict.NEAR_CARRIER
    assert c.winding is None
    # widening the band pulls clearly-outside points into it
    c = classify(jc, (1.05, 0.0), eps_band=0.1)
    assert c.verdict is Verdict.NEAR_CARRIER


@pytest.mark.parametrize("band", [float("nan"), -1.0, -1e-300, float("inf")])
def test_classify_rejects_a_nan_or_negative_band(curves, band):
    with pytest.raises(ValueError, match="eps_band"):
        classify(curves["circle"], (1.0 + 1e-9, 0.0), eps_band=band)


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_classify_calls_near_exactly_when_the_full_enclosure_does(curves, name):
    # classify asks a threshold query; its near-carrier calls must be those
    # of the full enclosure, for the default band and for a band of 0
    jc = curves[name]
    spec = jc.spec
    band = jc.default_eps_band()
    rng = np.random.default_rng(31)
    on = spec.points(rng.uniform(spec.a, spec.b, 40))
    off = np.repeat([0.0, 0.5, 1.0, 2.0, 1e3], 8)[:, None] * band
    theta = rng.uniform(0.0, TWO_PI, 40)
    near = on + off * np.column_stack([np.cos(theta), np.sin(theta)])
    x0, y0, x1, y1 = jc.carrier.bbox
    pts = np.concatenate([near, rng.uniform((x0, y0), (x1, y1), size=(40, 2))])
    lo, hi = jc.carrier.distance_batch(pts)
    for eps in (None, 0.0):
        b = band if eps is None else eps
        for (x, y), l, h in zip(pts.tolist(), lo, hi):
            try:
                c = classify(jc, (x, y), eps_band=eps)
            except (PointTooClose, BudgetNotMet):
                # raised only past the near-carrier test
                assert not (h < b or l <= 0.0)
                continue
            assert (c.verdict is Verdict.NEAR_CARRIER) == (h < b or l <= 0.0)
            c_lo, c_hi = c.carrier_bounds
            assert c_lo <= l and c_hi >= h


def test_classify_orientation(curves):
    assert classify(curves["circle"], (0.2, 0.1)).orientation == 1
    spec = CurveSpec((ArcPiece(Point(0, 0), 1.0, 0.0, -TWO_PI),), (0.0, TWO_PI))
    jc = validate_jordan(spec, h=1e-3)
    assert classify(jc, (0.2, 0.1)).orientation == -1
    assert classify(jc, (2.0, 2.0)).orientation == 0


def test_winding_residual_budget_certified(curves):
    # points at many distance scales: residual + budget always certifies
    jc = curves["blob"]
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = tuple(rng.uniform(-2, 2, size=2))
        lo, _ = jc.carrier.distance(p)
        if lo <= 1e-6:
            continue
        w = winding_number(jc, p)
        assert w.residual + w.error_budget < 0.25
        assert w.integral.imag == pytest.approx(0.0, abs=1e-7)


def test_constant_index_radius_is_clearance(curves):
    jc = curves["kidney"]
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = tuple(rng.uniform(-1.2, 1.2, size=2))
        try:
            r = constant_index_radius(jc, p)
        except PointTooClose:
            continue
        base = winding_number(jc, p).rounded
        for k in range(25):
            th = TWO_PI * k / 25
            q = (p[0] + 0.99 * r * math.cos(th), p[1] + 0.99 * r * math.sin(th))
            assert winding_number(jc, q).rounded == base


def test_outer_radius_bounds_carrier(curves):
    for name, jc in curves.items():
        r = outer_radius(jc)
        assert jc.carrier.max_radius() < r
        for k in range(36):
            th = TWO_PI * k / 36
            w = winding_number(jc, (1.1 * r * math.cos(th), 1.1 * r * math.sin(th)))
            assert w.rounded == 0, name


def test_region_distance_matches_carrier_distance(curves):
    jc = curves["ellipse"]
    for p in [(0.1, 0.05), (-0.4, -0.2), (2.0, 1.2), (-1.8, 0.6)]:
        d = region_distance(jc, p, "opposite")
        lo, hi = jc.carrier.distance(p)
        assert d == hi
        assert abs(d - 0.5 * (lo + hi)) <= 1e-3 * d


# 5e-324 is positive, but half of it rounds to 0
@pytest.mark.parametrize("res", [float("nan"), math.inf, 0.0, -0.1, 5e-324])
def test_region_grid_rejects_a_non_finite_or_non_positive_resolution(curves, res):
    with pytest.raises(ValueError, match="resolution"):
        region_grid(curves["circle"], res)


def test_region_grid_refuses_too_many_points_before_building_them(curves):
    # at h = 1e-6 the circle's padded bbox takes about 1.6e13 points
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 16777216 cells"):
            region_grid(curves["circle"], 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_region_distance_same_region_is_zero(curves):
    jc = curves["circle"]
    assert region_distance(jc, (0.1, 0.0), "inside") == 0.0
    assert region_distance(jc, (2.0, 0.0), "outside") == 0.0


def test_boundary_witnesses_straddle(curves):
    jc = curves["rounded-square"]
    ts = np.linspace(jc.interval[0], jc.interval[1], 17)[:-1]
    ws = boundary_witnesses(jc, ts)
    assert len(ws) == 16
    for w in ws:
        assert classify(jc, w.inside).verdict is Verdict.INSIDE
        assert classify(jc, w.outside).verdict is Verdict.OUTSIDE
        on = Point(*w.on_curve)
        assert on.dist(Point(*w.inside)) == pytest.approx(w.delta, rel=1e-9)
        assert on.dist(Point(*w.outside)) == pytest.approx(w.delta, rel=1e-9)


def test_boundary_witnesses_on_any_parameter_interval():
    # the witness probes take one-sided derivatives at both interval ends
    deltas = []
    for length in (1e-13, 1.0, 1e13):
        jc = validate_jordan(reparametrize(kidney(), (0.0, length)), h=1e-2 * length)
        ws = boundary_witnesses(jc, [0.0, 0.3 * length, length])
        deltas.append([w.delta for w in ws])
    assert deltas[0] == deltas[1] == deltas[2]


def test_boundary_witnesses_just_below_the_interval_end():
    # deriv has no right derivative within EVAL_TOL interval lengths of b,
    # so the witness takes the left one there, as it does at b
    jc = validate_jordan(kidney(), h=1e-2)
    a, b = jc.interval
    ws = boundary_witnesses(jc, [b - 1e-13 * (b - a), math.nextafter(b, 0.0), b])
    for w in ws:
        assert classify(jc, w.inside).verdict is Verdict.INSIDE
        assert classify(jc, w.outside).verdict is Verdict.OUTSIDE
    assert ws[0].delta == ws[1].delta == ws[2].delta


def test_segment_integral_matches_quadrature():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = complex(*rng.uniform(-2, 2, 2))
        b = complex(*rng.uniform(-2, 2, 2))
        z = complex(*rng.uniform(-2, 2, 2))
        # keep the pole visibly off the segment
        t = np.linspace(0, 1, 500)
        pts = a + t * (b - a)
        if np.abs(pts - z).min() < 0.2 or abs(a - b) < 1e-6:
            continue
        got = segment_integral((a.real, a.imag), (b.real, b.imag), (z.real, z.imag))

        re, _ = quad(lambda u: ((b - a) / (a + u * (b - a) - z)).real, 0, 1,
                     limit=200, epsabs=1e-12)
        im, _ = quad(lambda u: ((b - a) / (a + u * (b - a) - z)).imag, 0, 1,
                     limit=200, epsabs=1e-12)
        assert abs(got - complex(re, im)) < 1e-9


def test_segment_integral_refuses_a_pole_on_the_segment():
    # inside the segment no integral exists, whatever the sign of a zero
    with pytest.raises(PointTooClose, match="inside the segment"):
        segment_integral((0.0, 0.0), (2.0, 0.0), (1.0, 0.0))
    with pytest.raises(PointTooClose, match="endpoint"):
        segment_integral((0.0, 0.0), (2.0, 0.0), (2.0, 0.0))
    # on the segment's line beyond its end: the real log of the ratio
    got = segment_integral((0.0, 0.0), (2.0, 0.0), (3.0, 0.0))
    assert got.imag == 0.0
    assert got.real == math.log(1.0 / 3.0)


def test_affine_invariance_of_verdicts(curves):
    jc = curves["blob"]
    t = Affine.rotation(1.1) @ Affine.scaling(1.6) @ Affine.translation(-0.7, 0.9)
    jt = transform_curve(jc, t)
    rng = np.random.default_rng(41)
    pairs = sample_classified(jc, 40, rng)
    for (p, c) in pairs:
        q = t.apply(p)
        ct = classify(jt, (q.x, q.y))
        assert ct.verdict == c.verdict
        if c.verdict is not Verdict.NEAR_CARRIER:
            assert ct.winding.rounded == c.winding.rounded


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_verdicts_hold_at_any_scale(curves, scale):
    for name, jc in curves.items():
        scaled = transform_curve(jc, Affine.scaling(scale))
        x0, y0, x1, y1 = jc.carrier.bbox
        rng = np.random.default_rng(0)
        pts = rng.uniform((x0 - 0.1, y0 - 0.1), (x1 + 0.1, y1 + 0.1), size=(60, 2))
        for x, y in pts:
            want = classify(jc, (x, y)).verdict
            assert classify(scaled, (x * scale, y * scale)).verdict is want, name


@given(
    name=st.sampled_from(GOOD_FIXTURES),
    k=st.integers(-40, 40),
    uv=st.lists(st.tuples(st.floats(-0.1, 1.1), st.floats(-0.1, 1.1)), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_verdicts_hold_under_power_of_two_scalings(curves, name, k, uv):
    # a power of two scales every piece exactly, an arc's start angle
    # included (test_a_power_of_two_keeps_every_arc_angle); the verdicts
    # are what the library promises to keep
    jc = curves[name]
    m = Affine.scaling(2.0**k).coeffs
    scaled = validate_jordan(CurveSpec(tuple(p.transformed(m) for p in jc.spec.pieces)), h=1e-2)
    x0, y0, x1, y1 = jc.carrier.bbox
    for u, v in uv:
        x, y = x0 + u * (x1 - x0), y0 + v * (y1 - y0)
        want = classify(jc, (x, y)).verdict
        assert classify(scaled, (math.ldexp(x, k), math.ldexp(y, k))).verdict is want


def test_the_kidney_scaled_by_2_to_the_520_keeps_its_verdicts(curves):
    # squares of chords and of the map's entries pass 1e308 at this scale
    jc = curves["kidney"]
    s = 2.0**520
    big = transform_curve(jc, Affine.scaling(s))
    assert big.diameter() == s * jc.diameter()
    rng = np.random.default_rng(5)
    for p, c in sample_classified(jc, 30, rng):
        assert classify(big, (p[0] * s, p[1] * s)).verdict is c.verdict


@pytest.mark.parametrize("half", [1e160, 1e200, 1e300])
def test_a_square_beyond_1e154_has_a_finite_band(half):
    # the diameter's squared chords, the line distances' squared lengths
    # and the ray's products with a side would all overflow unscaled
    corners = [Point(-half, -half), Point(half, -half), Point(half, half), Point(-half, half)]
    spec = CurveSpec(tuple(LinePiece(p, q) for p, q in zip(corners, corners[1:] + corners[:1])))
    jc = validate_jordan(spec, h=1e-2, require_smooth=False)
    assert jc.diameter() == pytest.approx(2.0 * math.sqrt(2.0) * half, rel=1e-2)
    assert 0.0 < jc.default_eps_band() < math.inf
    on_side = (half, 0.3 * half)
    assert jc.carrier.distance(on_side)[0] == 0.0
    assert classify(jc, on_side).verdict is Verdict.NEAR_CARRIER
    for p, d, verdict in [
        ((0.5 * half, 0.0), 0.5 * half, Verdict.INSIDE),
        ((3.0 * half, 0.0), 2.0 * half, Verdict.OUTSIDE),
    ]:
        lo, hi = jc.carrier.distance(p)
        assert lo == pytest.approx(d, rel=1e-12) and hi == pytest.approx(d, rel=1e-12)
        c = classify(jc, p)
        assert c.verdict is verdict
        # the +x ray from inside crosses the right side, upward
        assert [(r.piece, r.sign) for r in c.crossings] == ([(1, 1)] if c.winding.rounded else [])


@pytest.mark.parametrize("name", ["kidney", "ellipse"])
def test_curves_scaled_by_2_to_the_520_validate_without_overflow(curves, name):
    # every float filter that can overflow at this scale is scaled or
    # falls through to an exact test without a warning
    jc = curves[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = transform_curve(jc, Affine.scaling(2.0**520))
    assert big.diameter() == 2.0**520 * jc.diameter()


def _tiny_square(k):
    m = Affine.scaling(2.0**-k).coeffs
    return CurveSpec(tuple(p.transformed(m) for p in rounded_square().pieces))


@pytest.mark.parametrize("k", [1040, 1060])
def test_a_curve_below_the_least_diameter_is_refused(k):
    # the rounded square scaled by 2^-1040 or 2^-1060 once validated and
    # then failed its queries with overflow warnings; it is refused before
    # sampling now, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="smaller than the least supported"):
            validate_jordan(_tiny_square(k), h=1e-3)


def test_a_curve_scaled_by_2_to_the_minus_1020_is_still_served():
    # just above the least diameter, every step runs with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        jc = validate_jordan(_tiny_square(1020), h=1e-3)
        assert classify(jc, (0.0, 0.0)).verdict is Verdict.INSIDE
        (w,) = boundary_witnesses(jc, [0.5])
        assert classify(jc, w.inside).verdict is Verdict.INSIDE
        assert classify(jc, w.outside).verdict is Verdict.OUTSIDE


def _diamond():
    verts = [Point(1.0, 0.0), Point(0.0, 1.0), Point(-1.0, 0.0), Point(0.0, -1.0)]
    return CurveSpec(tuple(LinePiece(p, q) for p, q in zip(verts, verts[1:] + verts[:1])))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_ray_through_a_joint_is_retried(scale):
    # the +x ray from (0, 0.7) leaves through the joint where the right
    # side meets the upper right corner.  No ray is retried any more: the
    # first one counts the joint once, on one of the two pieces that meet
    # there (or on the gap between their end floats)
    m = Affine.scaling(scale).coeffs
    spec = CurveSpec(tuple(p.transformed(m) for p in rounded_square().pieces))
    c = classify(validate_jordan(spec, h=1e-2), (0.0, 0.7 * scale))
    assert c.verdict is Verdict.INSIDE
    assert c.rays_tried == 1
    (r,) = c.crossings
    assert r.sign == 1
    assert (r.piece, r.u1) == (0, 1.0) or (r.piece, r.u0) == (1, 0.0)


def test_ray_touching_a_vertex_from_outside_is_retried():
    # the +x ray from (-3, 1) touches the diamond's top vertex and leaves:
    # the sides there stay on one side of the ray's line, so the first ray
    # counts nothing and no other is tried
    c = classify(validate_jordan(_diamond(), h=1e-2), (-3.0, 1.0))
    assert c.verdict is Verdict.OUTSIDE
    assert c.rays_tried == 1
    assert c.crossings == ()


@pytest.mark.parametrize(
    "make, z, want",
    [(rounded_square, (0.0, 0.7), [1]), (_diamond, (-3.0, 1.0), [])],
    ids=["rounded-square", "diamond"],
)
def test_ray_crossing_index_through_a_joint_is_degenerate(make, z, want):
    # a ray through a joint is no longer degenerate: its signs are the count
    jc = validate_jordan(make(), h=1e-2)
    parity, records = ray_crossing_index(jc, z, (1.0, 0.0))
    assert [r.sign for r in records] == want
    assert parity == len(want)


def test_a_ray_tangent_to_a_circle_is_grazing(curves):
    # the +x ray from (-3, 1) touches the unit circle at (0, 1): the circle
    # lies wholly ahead and its ends on one side, so nothing counts
    assert ray_crossing_index(curves["circle"], (-3.0, 1.0), (1.0, 0.0)) == (0, ())


def test_a_ray_nearly_tangent_to_a_small_arc_fails_the_isolation_window():
    # a corner arc of radius 1e-5 on a square of side 2: a ray 0.02 rad
    # off its tangent at mid-arc cuts a chord of 4e-7, which the isolation
    # window of 1e-6 diameters once refused.  Both crossings lie ahead of
    # the point, so the arc adds nothing, and the count is the winding
    r, alpha = 1e-5, 0.02
    jc = validate_jordan(rounded_square(1.0, r), h=1e-2)
    (cx, cy), d = jc.spec.pieces[1].center.as_tuple(), r * math.cos(alpha)
    s = 1.0 / math.sqrt(2.0)
    p = (cx + d * s + s, cy + d * s - s)
    _, records = ray_crossing_index(jc, p, (-s, s))
    assert all(rec.piece != 1 for rec in records)
    assert sum(rec.sign for rec in records) == winding_number(jc, p).rounded


def test_a_ray_at_slope_1e_5_to_a_line_piece_is_grazing():
    # the bottom side rises 1e-4 over 10; the +x ray from (-1, 5e-5)
    # crosses the left side downward, then the bottom upward at x = 5.
    # Neither is a grazing hit any more: the first ray counts both
    verts = [Point(0.0, 0.0), Point(10.0, 1e-4), Point(5.0, 5.0)]
    spec = CurveSpec(tuple(LinePiece(p, q) for p, q in zip(verts, verts[1:] + verts[:1])))
    jc = validate_jordan(spec, h=1e-2)
    _, records = ray_crossing_index(jc, (-1.0, 5e-5), (1.0, 0.0))
    assert [(r.piece, r.sign) for r in records] == [(0, 1), (2, -1)]
    c = classify(jc, (-1.0, 5e-5))
    assert (c.verdict, c.rays_tried) == (Verdict.OUTSIDE, 1)


def test_a_ray_along_a_straight_cubic_side_is_retried():
    # a stadium whose flat sides are straight cubics: the +x ray from
    # (3, 1) passes behind the top side, and from (-3, 1) runs along it.
    # A stretch on the ray's line has side 1 at both ends, so neither ray
    # is retried, and the one from (-3, 1) counts nothing
    spec = CurveSpec((
        CubicPiece(Point(1.0, 1.0), Point(1 / 3, 1.0), Point(-1 / 3, 1.0), Point(-1.0, 1.0)),
        ArcPiece(Point(-1.0, 0.0), 1.0, math.pi / 2, math.pi),
        CubicPiece(Point(-1.0, -1.0), Point(-1 / 3, -1.0), Point(1 / 3, -1.0), Point(1.0, -1.0)),
        ArcPiece(Point(1.0, 0.0), 1.0, -math.pi / 2, math.pi),
    ))
    jc = validate_jordan(spec, h=1e-2)
    right = classify(jc, (3.0, 1.0))
    assert (right.verdict, right.rays_tried) == (Verdict.OUTSIDE, 1)
    assert ray_crossing_index(jc, (-3.0, 1.0), (1.0, 0.0)) == (0, ())
    left = classify(jc, (-3.0, 1.0))
    assert (left.verdict, left.rays_tried) == (Verdict.OUTSIDE, 1)
    assert classify(jc, (0.0, 0.5)).verdict is Verdict.INSIDE


def _capped():
    """A stand-in for ``_kernels.ray_hits_point`` that reaches its
    subdivision cap on every ray, and the rays it was asked."""

    rays = []

    def fake(geo, px, py, vx, vy, out):
        rays.append((vx, vy))
        return len(out), _kernels.ON_CARRIER

    return fake, rays


def test_a_zero_tangent_is_grazing(curves, monkeypatch):
    # no hit is grazing any more; the one failure left is a cubic that the
    # kernel cannot place within its subdivision cap, which is PointTooClose
    fake, _ = _capped()
    monkeypatch.setattr(_kernels, "ray_hits_point", fake)
    with pytest.raises(PointTooClose, match="cannot place the ray"):
        ray_crossing_index(curves["circle"], (0.5, 0.0), (1.0, 0.0))


def test_classify_raises_the_last_degenerate_ray(curves, monkeypatch):
    # classify shoots one ray, along +x, and raises PointTooClose where the
    # kernel reaches its subdivision cap; no other direction is tried
    fake, rays = _capped()
    monkeypatch.setattr(_kernels, "ray_hits_point", fake)
    with pytest.raises(PointTooClose, match="cannot place the ray"):
        classify(curves["circle"], (0.5, 0.0))
    assert rays == [(1.0, 0.0)]


def test_a_boundary_witness_halves_its_offset_in_a_thin_strip():
    # a 10 x 0.1 strip: both probes of the first offsets, from 0.05
    # diameters down to a quarter of that, cross the strip and land outside
    verts = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 0.1), Point(0.0, 0.1)]
    spec = CurveSpec(tuple(LinePiece(p, q) for p, q in zip(verts, verts[1:] + verts[:1])))
    jc = validate_jordan(spec, h=1e-2)
    (w,) = boundary_witnesses(jc, [0.5])
    assert w.on_curve == (5.0, 0.0)
    assert w.delta == index._WITNESS_START * jc.diameter() / 8.0 < 0.1
    assert classify(jc, w.inside).verdict is Verdict.INSIDE
    assert classify(jc, w.outside).verdict is Verdict.OUTSIDE


def _normal_sides(jc, exponents):
    """Whether ``classify`` at band 0 gives the side of its normal (the
    curves run counterclockwise) to points 10**-e diameters off 120
    parameters, on both normals, one entry per point that it does not
    refuse with PointTooClose; an OracleDisagreement propagates."""

    a, b = jc.interval
    sides = []
    for e in exponents:
        off = 10.0**-e * jc.diameter()
        for k in range(120):
            t = a + (k + 0.5) * (b - a) / 120
            z, v = jc.eval(t), jc.deriv(t)
            nx, ny = -v.y / v.norm(), v.x / v.norm()
            for s, want in ((1.0, Verdict.INSIDE), (-1.0, Verdict.OUTSIDE)):
                try:
                    got = classify(jc, (z.x + s * off * nx, z.y + s * off * ny), eps_band=0.0)
                except PointTooClose:
                    continue
                sides.append(got.verdict is want)
    return sides


@pytest.mark.parametrize("name", ["kidney", "blob", "rounded-square"])
def test_classify_at_band_0_decides_points_near_the_carrier(curves, name):
    # 1e-12 and 1e-13 diameters off: every crossing ahead of the point
    # counts, so each point gets the side of its normal or a PointTooClose
    sides = _normal_sides(curves[name], (12, 13))
    assert all(sides) and len(sides) >= 360


@pytest.mark.parametrize("name", ["kidney", "blob", "blob64"])
def test_classify_at_band_0_agrees_at_1e_14_and_1e_15_diameters(curves, name):
    # the side-change count is exact wherever the clearance is certified:
    # no OracleDisagreement this close to the carrier, where a ray that
    # found its crossings as float roots disagreed on up to 82 of 240
    jc = validate_jordan(fixtures.cubic_blob(64), h=1e-3) if name == "blob64" else curves[name]
    sides = _normal_sides(jc, (14, 15))
    assert all(sides) and len(sides) >= 240


def _exact_winding(verts, p):
    """The signed crossings of the +x ray from p with the polygon's sides,
    in exact arithmetic, with the half-open rule at vertices: a side counts
    where it passes from y <= py to y > py or back.  None on a side."""

    px, py = Fraction(p[0]), Fraction(p[1])
    w = 0
    for a, b in zip(verts, verts[1:] + verts[:1]):
        ax, ay, bx, by = map(Fraction, (a.x, a.y, b.x, b.y))
        turn = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if turn == 0 and min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by):
            return None
        if ay <= py < by and turn > 0:
            w += 1
        elif by <= py < ay and turn < 0:
            w -= 1
    return w


@st.composite
def _star_polygons(draw):
    """Simple polygons with dyadic vertices: lattice points sorted by
    angle about the origin, with distinct angles less than pi apart, so
    each side keeps to its own sector; scaled by a power of two."""

    lattice = st.tuples(st.integers(-32, 32), st.integers(-32, 32))
    pts = draw(
        st.lists(
            lattice.filter(lambda q: q != (0, 0)),
            min_size=3,
            max_size=9,
            unique_by=lambda q: math.atan2(q[1], q[0]),
        )
    )
    pts.sort(key=lambda q: math.atan2(q[1], q[0]))
    angles = [math.atan2(y, x) for x, y in pts]
    gaps = np.diff(angles + [angles[0] + TWO_PI])
    if gaps.max() >= math.pi - 1e-9:
        pts = pts[:0]
    scale = 2.0 ** draw(st.integers(-20, 20)) / 32.0
    return [Point(x * scale, y * scale) for x, y in pts]


@given(
    verts=_star_polygons(),
    probes=st.lists(
        st.tuples(st.integers(0, 8), st.floats(0.0, 1.0), st.sampled_from([12, 13, 14, 15])),
        min_size=4,
        max_size=4,
    ),
    uniform=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=2
    ),
)
@settings(max_examples=200, deadline=None)
def test_classify_at_band_0_never_takes_the_wrong_side(verts, probes, uniform):
    # points 1e-12 to 1e-15 diameters off random sides, on both normals,
    # and uniform points in the bounding box; the referee counts the +x
    # ray's crossings exactly
    if len(verts) < 3:
        return
    spec = CurveSpec(tuple(LinePiece(p, q) for p, q in zip(verts, verts[1:] + verts[:1])))
    try:
        jc = validate_jordan(spec, h=1e-2, require_smooth=False)
    except J1Failure as exc:
        # the samples of a simple polygon never meet: only the gap
        # threshold may refuse one
        assert exc.chord > 0.0
        return
    diam = jc.diameter()
    pts = []
    for k, u, e in probes:
        a, b = verts[k % len(verts)], verts[(k + 1) % len(verts)]
        dx, dy = b.x - a.x, b.y - a.y
        off = 10.0**-e * diam / math.hypot(dx, dy)
        x, y = a.x + u * dx, a.y + u * dy
        pts += [(x - off * dy, y + off * dx), (x + off * dy, y - off * dx)]
    x0, y0, x1, y1 = jc.carrier.bbox
    pts += [(x0 + u * (x1 - x0), y0 + v * (y1 - y0)) for u, v in uniform]
    for p in pts:
        want = _exact_winding(verts, p)
        try:
            got = classify(jc, p, eps_band=0.0).verdict
        except CurveError:
            continue
        # a point on a side has no side to take; that classify may still
        # give it one is the defect test_a_point_on_a_side_gets_no_side shows
        if got is not Verdict.NEAR_CARRIER and want is not None:
            assert got is (Verdict.INSIDE if want else Verdict.OUTSIDE), p


@given(
    verts=_star_polygons(),
    picks=st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0])),
        min_size=4,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_a_ray_through_vertices_and_along_sides_counts_the_winding(verts, picks):
    # points at a vertex's height, so that the +x ray passes through that
    # vertex, and points on the line of a side, beyond its ends, so that a
    # ray along a horizontal side runs along it: the first ray's signed
    # count is the exact winding wherever the clearance is certified
    if len(verts) < 3:
        return
    spec = CurveSpec(tuple(LinePiece(p, q) for p, q in zip(verts, verts[1:] + verts[:1])))
    try:
        jc = validate_jordan(spec, h=1e-2, require_smooth=False)
    except J1Failure:
        return
    x0, _, x1, _ = jc.carrier.bbox
    pts = []
    for k, lam in picks:
        a, b = verts[k % len(verts)], verts[(k + 1) % len(verts)]
        pts.append((x0 + (lam + 2.0) / 5.0 * (x1 - x0), a.y))
        pts.append((a.x + lam * (b.x - a.x), a.y + lam * (b.y - a.y)))
    for p in pts:
        want = _exact_winding(verts, p)
        if want is None:
            continue
        try:
            _, records = ray_crossing_index(jc, p, (1.0, 0.0))
        except PointTooClose:
            continue
        assert sum(r.sign for r in records) == want, p
        assert len(records) % 2 == abs(want)


def test_a_ray_through_each_inexact_arc_joint_of_the_ellipse_counts_once(curves):
    # the ellipse's arcs end on cos/sin floats that miss the next arc's
    # start by an ulp or so: each such gap is a line stretch of its own.  A
    # ray from the centre through either end float of a joint counts the
    # one crossing there once, on the joint's pieces and gap, although a
    # float side on the ray's line may split it into three records (+1 on
    # both pieces, -1 on the gap).  The +x ray at an end float's exact
    # height counts the winding
    jc = curves["ellipse"]
    gaps = [row for row in jc.carrier.geometry.ray_lines if row[5] == 1.0]
    assert len(gaps) == 8
    centre = (0.0, 0.0)
    assert winding_number(jc, centre).rounded == 1
    for k, qx, qy, ex, ey, _, _ in gaps:
        for q in ((qx, qy), (ex, ey)):
            _, records = ray_crossing_index(jc, centre, q)
            assert sum(r.sign for r in records) == 1 and len(records) % 2 == 1, q
            assert {r.piece for r in records} <= {k, (k + 1) % 8}, q
            for x in (q[0] - 0.1, q[0] + 0.1, 0.0):
                p = (x, q[1])
                _, records = ray_crossing_index(jc, p, (1.0, 0.0))
                assert sum(r.sign for r in records) == winding_number(jc, p).rounded, p


def test_a_point_on_a_side_gets_no_side():
    # the probe 1e-12 diameters above the bottom left vertex, on the bottom
    # side's normal, lies exactly on the left side x = -1/32
    verts = [Point(-0.03125, -0.03125), Point(0.03125, -0.03125), Point(-0.03125, 0.0625)]
    spec = CurveSpec(tuple(LinePiece(p, q) for p, q in zip(verts, verts[1:] + verts[:1])))
    jc = validate_jordan(spec, h=1e-2, require_smooth=False)
    p = (-0.03125, -0.031249999999887538)
    # the line distance rounds to 3.5e-18; its round-off bound takes the
    # lower bound to 0
    assert _exact_winding(verts, p) is None
    assert jc.carrier.distance(p)[0] == 0.0
    assert classify(jc, p, eps_band=0.0).verdict is Verdict.NEAR_CARRIER


@pytest.mark.parametrize("scale", [1e-6, 1e-12])
def test_transform_curve_keeps_verdicts_at_small_scales(curves, scale):
    t = Affine.scaling(scale)
    rng = np.random.default_rng(47)
    for name, jc in curves.items():
        small = transform_curve(jc, t)
        for (x, y), c in sample_classified(jc, 20, rng):
            assert classify(small, (x * scale, y * scale)).verdict is c.verdict, name


def test_reflection_negates_winding(curves):
    jc = curves["kidney"]
    jr = transform_curve(jc, Affine.reflection_x())
    rng = np.random.default_rng(43)
    for (p, c) in sample_classified(jc, 25, rng):
        w = winding_number(jr, (p[0], -p[1]))
        assert w.rounded == -c.winding.rounded


def _winding_two_pass(jc, p):
    """The oracle's winding at a point of certified clearance: the cubics
    refined again by ``winding_batch``."""

    ci = jc.carrier
    pts = np.array([[p.x, p.y]])
    total, nodes, status = _kernels.winding_batch(ci.kinds, ci.geometry, pts)
    if status[0] == _kernels.ON_CARRIER:
        raise PointTooClose(f"({p.x!r}, {p.y!r}) evaluates on the carrier")
    integral, rounded, residual, _ = index._round_windings(total, nodes)
    return index.WindingResult(
        (p.x, p.y), complex(integral[0]), int(rounded[0]), float(residual[0]),
        int(nodes[0]),
    )


def _winding_number_two_pass(jc, z):
    """The oracle for ``winding_number``: a threshold distance query, then
    ``_winding_two_pass``."""

    p = Point(*z)
    if jc.carrier.distance(p, index._LEAST_POSITIVE)[0] <= 0.0:
        raise PointTooClose(f"cannot certify ({p.x!r}, {p.y!r}) away from the carrier")
    return _winding_two_pass(jc, p)


def _classify_two_pass(jc, z, eps_band=None):
    """The oracle: ``classify`` in two passes, a threshold distance query
    and then ``winding_batch``, which refines the cubics a second time."""

    p = Point(*z)
    band = jc.default_eps_band() if eps_band is None else eps_band
    lo, hi = jc.carrier.distance(p, max(band, index._LEAST_POSITIVE))
    if hi < band or lo <= 0.0:
        near = Verdict.NEAR_CARRIER
        return index.Classification((p.x, p.y), near, None, None, 0, (lo, hi))
    wind = _winding_two_pass(jc, p)
    if not wind.ok:
        raise BudgetNotMet(f"residual {wind.residual!r}")
    records = index._ray_once(jc, p, Point(1.0, 0.0))
    signed = sum(r.sign for r in records)
    if signed != wind.rounded or abs(signed) > 1:
        raise OracleDisagreement((p.x, p.y), wind, signed)
    verdict = Verdict.INSIDE if signed else Verdict.OUTSIDE
    return index.Classification((p.x, p.y), verdict, wind, records, 1, (lo, hi))


def _outcome(fn, *args, **kw):
    """What ``fn`` returns, or the type, message and winding of what it
    raises."""

    try:
        return fn(*args, **kw)
    except (PointTooClose, BudgetNotMet, OracleDisagreement) as exc:
        return type(exc), str(exc), getattr(exc, "winding", None)


def _off_curve(jc, rng, n, offsets):
    """``n`` points at ``offsets`` (drawn per point) along random
    directions from random curve points."""

    spec = jc.spec
    on = spec.points(rng.uniform(spec.a, spec.b, n))
    theta = rng.uniform(0.0, TWO_PI, n)
    return on + rng.choice(offsets, n)[:, None] * np.column_stack(
        [np.cos(theta), np.sin(theta)]
    )


def test_classify_equals_the_two_pass_oracle(curves):
    # classify and winding_number take their cubic chords from the distance
    # refinement; the result, or the exception, must be the two-pass one
    # exactly
    jcs = dict(curves)
    jcs["blob64"] = validate_jordan(fixtures.cubic_blob(64), h=1e-3)
    jcs["comb"] = validate_jordan(comb(), h=1e-3, require_smooth=False)
    raised = 0
    for name, jc in jcs.items():
        rng = np.random.default_rng(len(name))
        x0, y0, x1, y1 = jc.carrier.bbox
        d, band = jc.diameter(), jc.default_eps_band()
        box = (x0 - 0.1 * d, y0 - 0.1 * d), (x1 + 0.1 * d, y1 + 0.1 * d)
        pts = np.concatenate([
            rng.uniform(*box, (40, 2)),
            rng.uniform(-1.0, 1.0, (10, 2)) * 3.0 * index.outer_radius(jc),
            _off_curve(jc, rng, 40, band * np.array([2.0, 5.0, 30.0, 100.0, 1000.0])),
            _off_curve(jc, rng, 20, [1e-13 * d]),
        ])
        for x, y in pts.tolist():
            for eps in (None, 0.0):
                got = _outcome(classify, jc, (x, y), eps_band=eps)
                want = _outcome(_classify_two_pass, jc, (x, y), eps)
                assert got == want, (name, x, y, eps)
                raised += isinstance(got, tuple)
            got = _outcome(winding_number, jc, (x, y))
            assert got == _outcome(_winding_number_two_pass, jc, (x, y)), (name, x, y)
    # the points next to the carrier reach the exceptions too
    assert raised > 0


def test_classify_applies_the_winding_width_rule():
    # a point 1e-14 diameters off the blob: its distance query certifies a
    # clearance, but a cubic node 44 halvings deep still holds it, so the
    # winding puts it on the carrier and classify with a band of 0 raises
    jc = validate_jordan(fixtures.fixture("blob"), h=1e-3)
    p = (0.7425567198333105, -0.46895002291961546)
    assert jc.carrier.distance(p, index._LEAST_POSITIVE)[0] > 0.0
    ci = jc.carrier
    _, _, status = _kernels.winding_batch(ci.kinds, ci.geometry, np.array([p]))
    assert status[0] == _kernels.ON_CARRIER
    for fn in (classify, _classify_two_pass):
        with pytest.raises(PointTooClose, match="evaluates on the carrier"):
            fn(jc, p, 0.0)
    for fn in (winding_number, _winding_number_two_pass):
        with pytest.raises(PointTooClose, match="evaluates on the carrier"):
            fn(jc, p)
