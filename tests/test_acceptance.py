"""End-to-end checks with pinned tolerances, one printed line per criterion.

Run with plain ``pytest``: each test prints ``[acceptance N] PASS/FAIL ...``
directly to the terminal (capture is suspended for that one line) so the
one-line verdicts are always visible in the log.
"""

import math

import numpy as np
import pytest

from curvewind import (
    Affine,
    ClearanceGrid,
    NoPathAtResolution,
    OracleDisagreement,
    Verdict,
    boundary_witnesses,
    classify,
    constant_index_radius,
    outer_radius,
    polygonal_join,
    region_distance,
    region_grid,
    reparametrize,
    segment_integral,
    transform_curve,
    validate_jordan,
    winding_number,
)
from curvewind.geometry import Point

from conftest import GOOD_FIXTURES, Segment, dist_point_segment, sample_classified

pytestmark = pytest.mark.acceptance

TWO_PI = 2.0 * math.pi

POINTS_PER_FIXTURE = 10_000


def _line(capsys, num: int, ok: bool, detail: str) -> None:
    msg = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(f"\n{msg}", flush=True)
    assert ok, msg


@pytest.fixture(scope="module")
def pools(curves):
    """Per fixture: 10^4 uniform points clear of the carrier band, classified."""

    out = {}
    for name in GOOD_FIXTURES:
        jc = curves[name]
        band = jc.default_eps_band()
        x0, y0, x1, y1 = jc.carrier.bbox
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        hx, hy = 0.65 * (x1 - x0), 0.65 * (y1 - y0)
        rng = np.random.default_rng(1001)
        pts, results, disagreements = [], [], 0
        while len(pts) < POINTS_PER_FIXTURE:
            cand = rng.uniform((cx - hx, cy - hy), (cx + hx, cy + hy),
                               size=(2 * POINTS_PER_FIXTURE, 2))
            lo, _ = jc.carrier.distance_batch(cand)
            for (x, y), clearance in zip(cand, lo):
                if clearance < band:
                    continue
                try:
                    results.append(classify(jc, (float(x), float(y))))
                except OracleDisagreement:
                    disagreements += 1
                    continue
                pts.append((float(x), float(y)))
                if len(pts) == POINTS_PER_FIXTURE:
                    break
        out[name] = (pts, results, disagreements)
    return out


def test_c1_oracle_agreement(curves, pools, capsys):
    total = 0
    disagreements = 0
    worst = 0.0
    for name in GOOD_FIXTURES:
        pts, results, bad = pools[name]
        disagreements += bad
        for c in results:
            total += 1
            assert c.verdict in (Verdict.INSIDE, Verdict.OUTSIDE)
            certified = c.winding.residual + c.winding.error_budget
            worst = max(worst, certified)
            assert abs(c.winding.rounded) == c.crossing_parity
        inside = sum(c.verdict is Verdict.INSIDE for c in results)
        assert 0 < inside < len(results), name
    ok = disagreements == 0 and worst < 0.25
    _line(capsys, 1, ok,
          f"oracle agreement: {total} points over {len(GOOD_FIXTURES)} curves, "
          f"{disagreements} disagreements, max residual+budget {worst:.2e} < 0.25")


def test_c2_far_field_zero(curves, capsys):
    checked = 0
    circle_r = None
    for name in GOOD_FIXTURES:
        jc = curves[name]
        r = outer_radius(jc)
        if name == "circle":
            circle_r = r
            assert jc.deriv_sup <= 1.01
        for k in range(100):
            th = TWO_PI * (k + 0.37) / 100
            p = (1.1 * r * math.cos(th), 1.1 * r * math.sin(th))
            c = classify(jc, p)
            assert c.winding.rounded == 0 and c.crossing_parity == 0, (name, p)
            checked += 1
    ok = circle_r is not None and circle_r <= 3.1
    _line(capsys, 2, ok,
          f"far-field zero: {checked} points at 1.1*R wind 0 / parity 0; "
          f"circle R={circle_r:.4f} <= 3.1")


def test_c3_ball_constancy(curves, capsys):
    rng = np.random.default_rng(1003)
    bases = samples = 0
    for name in GOOD_FIXTURES:
        jc = curves[name]
        diam = jc.diameter()
        for p, base in sample_classified(jc, 20, rng, min_clearance=0.02 * diam):
            r = constant_index_radius(jc, p)
            assert r >= 0.02 * diam
            bases += 1
            for _ in range(50):
                rad = 0.99 * r * math.sqrt(rng.uniform())
                th = rng.uniform(0.0, TWO_PI)
                q = (p[0] + rad * math.cos(th), p[1] + rad * math.sin(th))
                c = classify(jc, q)
                assert c.verdict == base.verdict, (name, p, q)
                assert c.winding.rounded == base.winding.rounded
                samples += 1
    _line(capsys, 3, True,
          f"ball constancy: {samples} samples around {bases} base points, "
          "verdict constant on every 0.99r ball")


def test_c4_dichotomy(curves, capsys):
    rng = np.random.default_rng(1004)
    joined = blocked = 0
    for name in GOOD_FIXTURES:
        jc = curves[name]
        diam = jc.diameter()
        clearance = diam / 1024.0
        pool = sample_classified(jc, 200, rng, min_clearance=diam / 32.0)
        pairs = [(pool[2 * k], pool[2 * k + 1]) for k in range(100)]
        equal = [(a, b) for a, b in pairs if a[1].verdict == b[1].verdict]
        diff = [(a, b) for a, b in pairs if a[1].verdict != b[1].verdict]
        assert equal and diff, name

        # shared grids must cover the whole sampling box, or each join
        # with an endpoint past the carrier bbox would rebuild its own
        x0, y0, x1, y1 = jc.carrier.bbox
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        hx, hy = 0.7 * (x1 - x0), 0.7 * (y1 - y0)
        box = (cx - hx, cy - hy, cx + hx, cy + hy)

        h = diam / 512.0
        grid = ClearanceGrid.build(jc, clearance, h, bbox=box)
        for (p1, _), (p2, _) in equal:
            join = polygonal_join(jc, p1, p2, clearance, h, grid=grid)
            assert join.gap >= clearance - 1e-12
            joined += 1

        for frac in (64.0, 128.0, 256.0):
            h = diam / frac
            grid = ClearanceGrid.build(jc, clearance, h, bbox=box)
            for (p1, c1), (p2, c2) in diff:
                assert abs(c1.winding.rounded - c2.winding.rounded) == 1
                assert c1.crossing_parity != c2.crossing_parity
                with pytest.raises(NoPathAtResolution):
                    polygonal_join(jc, p1, p2, clearance, h, grid=grid)
                blocked += 1
    _line(capsys, 4, True,
          f"dichotomy: {joined} equal-verdict pairs joined at diameter/512, "
          f"{blocked} mixed-verdict joins refused at coarse grids with "
          "index difference 1")


def test_c5_segment_integral_stability(capsys):
    rng = np.random.default_rng(1005)
    checked = 0
    worst = 0.0
    while checked < 1000:
        a1 = complex(*rng.uniform(-1.0, 1.0, 2))
        b1 = complex(*rng.uniform(-1.0, 1.0, 2))
        a2 = a1 + complex(*rng.uniform(-0.2, 0.2, 2))
        b2 = b1 + complex(*rng.uniform(-0.2, 0.2, 2))
        z = complex(*rng.uniform(-2.5, 2.5, 2))
        rho = min(
            dist_point_segment(Point(z.real, z.imag),
                               Segment(Point(a1.real, a1.imag), Point(b1.real, b1.imag))),
            dist_point_segment(Point(z.real, z.imag),
                               Segment(Point(a2.real, a2.imag), Point(b2.real, b2.imag))),
        )
        if rho < 0.05:
            continue
        i1 = segment_integral((a1.real, a1.imag), (b1.real, b1.imag), (z.real, z.imag))
        i2 = segment_integral((a2.real, a2.imag), (b2.real, b2.imag), (z.real, z.imag))
        sup = max(abs(a1 - a2), abs(b1 - b2))
        bound = (sup / rho) * (2.0 + abs(b2 - a2) / rho)
        diff = abs(i1 - i2)
        assert diff <= bound, (a1, b1, a2, b2, z, diff, bound)
        worst = max(worst, diff / bound if bound > 0 else 0.0)
        checked += 1
    _line(capsys, 5, True,
          f"segment integral stability: 1000 perturbed pairs all within the "
          f"closed-form bound (tightest margin {worst:.3f} of bound)")


def test_c6_region_distance(curves, capsys):
    jc = curves["circle"]
    res = jc.diameter() / 256.0
    grid = region_grid(jc, res)
    rng = np.random.default_rng(1006)
    worst = 0.0
    for side, radii in (("inside", rng.uniform(0.05, 0.92, 20)),
                        ("outside", rng.uniform(1.08, 1.95, 20))):
        for k, rad in enumerate(radii):
            th = TWO_PI * (k + 0.29) / 20
            p = (rad * math.cos(th), rad * math.sin(th))
            d = region_distance(jc, p, "opposite", resolution=res, grid=grid)
            exact = abs(1.0 - rad)
            err = abs(d - exact)
            worst = max(worst, err)
            assert err <= 2.0 * res, (side, p, d, exact)
    _line(capsys, 6, True,
          f"region distance: 40 points, max |error| {worst:.2e} <= "
          f"2*resolution {2 * res:.2e}")


def test_c7_boundary_witnesses(curves, capsys):
    found = 0
    for name in GOOD_FIXTURES:
        jc = curves[name]
        a, b = jc.interval
        ts = [a + (k + 0.5) * (b - a) / 64.0 for k in range(64)]
        witnesses = boundary_witnesses(jc, ts)
        assert len(witnesses) == 64, name
        for w in witnesses:
            assert classify(jc, w.inside).verdict is Verdict.INSIDE
            assert classify(jc, w.outside).verdict is Verdict.OUTSIDE
            found += 1
    _line(capsys, 7, True,
          f"normal-flip witnesses: {found} of {64 * len(GOOD_FIXTURES)} "
          "parameters produced straddling pairs")


def test_c8_invariance(curves, pools, capsys):
    repar_checked = affine_checked = mirror_checked = 0
    for name in GOOD_FIXTURES:
        jc = curves[name]
        pts, results, _ = pools[name]

        jr = validate_jordan(reparametrize(jc.spec, (-1.0, 3.0)), h=1e-3)
        for p, base in zip(pts, results):
            c = classify(jr, p)
            assert c.verdict == base.verdict, (name, p)
            assert c.winding.rounded == base.winding.rounded
            repar_checked += 1

        t = Affine.rotation(0.7) @ Affine.scaling(1.3) @ Affine.translation(0.4, -0.2)
        assert t.det > 0
        jt = transform_curve(jc, t)
        for p, base in zip(pts[:1000], results[:1000]):
            q = t.apply(p)
            c = classify(jt, (q.x, q.y))
            assert c.verdict == base.verdict, (name, p)
            assert c.winding.rounded == base.winding.rounded
            affine_checked += 1

        m = Affine.reflection_x()
        assert m.det < 0
        jm = transform_curve(jc, m)
        for p, base in zip(pts[:300], results[:300]):
            c = classify(jm, (p[0], -p[1]))
            assert c.verdict == base.verdict, (name, p)
            assert c.winding.rounded == -base.winding.rounded
            mirror_checked += 1
    _line(capsys, 8, True,
          f"invariance: {repar_checked} verdicts stable under reparametrisation, "
          f"{affine_checked} under orientation-preserving affine maps, "
          f"{mirror_checked} windings negated by reflection")


def test_c9_area_sanity(curves, capsys):
    jc = curves["circle"]
    xs = np.linspace(-2.0, 2.0, 200)
    inside = near = 0
    for y in xs:
        for x in xs:
            v = classify(jc, (float(x), float(y))).verdict
            inside += v is Verdict.INSIDE
            near += v is Verdict.NEAR_CARRIER
    frac = inside / 40000.0
    target = math.pi / 16.0
    ok = near == 0 and abs(frac - target) <= 0.02 * target
    _line(capsys, 9, ok,
          f"area sanity: inside fraction {frac:.5f} vs pi/16 = {target:.5f} "
          f"({abs(frac - target) / target:.2%} off, tolerance 2%)")
