import math

import numpy as np
import pytest
from scipy.integrate import quad

from curvewind import (
    Affine,
    BudgetNotMet,
    DegenerateRay,
    PointTooClose,
    Verdict,
    boundary_witnesses,
    classify,
    constant_index_radius,
    outer_radius,
    ray_crossing_index,
    region_distance,
    region_grid,
    segment_integral,
    transform_curve,
    validate_jordan,
    winding_number,
)
from curvewind.curves import CurveSpec
from curvewind.fixtures import rounded_square
from curvewind.geometry import Point
from curvewind.pieces import ArcPiece

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
    assert len(records) == 1
    assert records[0].t == pytest.approx(1.0)
    parity, records = ray_crossing_index(jc, (2.0, 0.0), (1.0, 0.01))
    assert parity == 0
    assert len(records) in (0, 2)


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
            except (PointTooClose, DegenerateRay, BudgetNotMet):
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
    res = jc.diameter() / 256.0
    grid = region_grid(jc, res)
    for p in [(0.1, 0.05), (-0.4, -0.2), (2.0, 1.2), (-1.8, 0.6)]:
        d = region_distance(jc, p, "opposite", resolution=res, grid=grid)
        lo, hi = jc.carrier_distance(p)
        assert abs(d - 0.5 * (lo + hi)) <= 2.0 * res


@pytest.mark.parametrize("res", [float("nan"), math.inf, 0.0, -0.1])
def test_region_grid_rejects_a_non_finite_or_non_positive_resolution(curves, res):
    with pytest.raises(ValueError, match="resolution"):
        region_grid(curves["circle"], res)


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
    # the pieces are scaled one by one: transform_curve refuses maps this
    # far from unit size
    m = Affine.scaling(scale).coeffs
    for name, jc in curves.items():
        spec = CurveSpec(tuple(p.transformed(m) for p in jc.spec.pieces))
        scaled = validate_jordan(spec, h=1e-2)
        x0, y0, x1, y1 = jc.carrier.bbox
        rng = np.random.default_rng(0)
        pts = rng.uniform((x0 - 0.1, y0 - 0.1), (x1 + 0.1, y1 + 0.1), size=(60, 2))
        for x, y in pts:
            want = classify(jc, (x, y)).verdict
            assert classify(scaled, (x * scale, y * scale)).verdict is want, name


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_joint_probe_floor_scales_with_the_curve(scale):
    # the +x ray from (0, 0.7) leaves through the joint where the right
    # side meets the upper right corner, so the first ray is decided by the
    # joint probe, whose on-the-line floor must shrink with the curve
    m = Affine.scaling(scale).coeffs
    spec = CurveSpec(tuple(p.transformed(m) for p in rounded_square().pieces))
    c = classify(validate_jordan(spec, h=1e-2), (0.0, 0.7 * scale))
    assert c.verdict is Verdict.INSIDE
    assert c.rays_tried == 1
    assert c.crossings[0].through_joint


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
