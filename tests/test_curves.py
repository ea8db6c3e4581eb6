import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvewind import (
    Affine,
    ClosureFailure,
    CurveSpec,
    J1Failure,
    NonSmoothPiece,
    ParseError,
    classify,
    curve_from_dict,
    curve_from_json,
    curve_to_dict,
    curve_to_json,
    lin,
    path_sum,
    reparametrize,
    transform_curve,
    unit_circular_path,
    validate_jordan,
    winding_number,
)
from curvewind.fixtures import (
    FIXTURES,
    _catmull_rom_loop,
    cubic_blob,
    figure_eight,
    fixture,
)
from curvewind import _kernels
from curvewind import curves as curves_module
from curvewind.curves import _SAMPLES_PER_PIECE, CarrierIndex
from curvewind.geometry import Point
from curvewind.pieces import ArcPiece, CubicPiece, LinePiece

from conftest import GOOD_FIXTURES, piece_points

TWO_PI = 2.0 * math.pi


def test_spec_requires_meeting_pieces():
    with pytest.raises(ValueError, match="do not meet"):
        CurveSpec(
            (
                LinePiece(Point(0, 0), Point(1, 0)),
                LinePiece(Point(1.1, 0), Point(1, 1)),
            )
        )


def test_interval_default_and_locate():
    spec = CurveSpec(
        (
            LinePiece(Point(0, 0), Point(1, 0)),
            LinePiece(Point(1, 0), Point(1, 1)),
        )
    )
    assert spec.interval == (0.0, 2.0)
    assert spec.eval(0.5) == Point(0.5, 0.0)
    assert spec.eval(1.5) == Point(1.0, 0.5)
    assert spec.eval(2.0) == Point(1.0, 1.0)
    with pytest.raises(ValueError):
        spec.eval(2.5)


def test_eval_continuous_at_joints():
    spec = fixture("rounded-square")
    for k in range(1, spec.n_pieces):
        t = spec.a + k * spec.piece_param_width()
        left = spec.pieces[k - 1].point(1.0)
        assert spec.eval(t).dist(left) < 1e-12


@pytest.mark.parametrize("length", [1e-13, 1.0, 1e13])
def test_deriv_ends_scale_with_the_interval(length):
    # the end guards are relative to the interval: on [0, 1e-13] an
    # absolute 1e-12 would put every parameter past both ends
    unit = reparametrize(fixture("kidney"), (0.0, 1.0))
    spec = reparametrize(fixture("kidney"), (0.0, length))
    for f, side in ((0.0, "right"), (1.0, "left"), (0.3, "right"), (0.3, "left")):
        v = spec.deriv(f * length, side)
        w = unit.deriv(f, side)
        assert v.x * length == pytest.approx(w.x, rel=1e-12)
        assert v.y * length == pytest.approx(w.y, rel=1e-12)


def test_deriv_sides_and_chain_rule():
    spec = unit_circular_path()
    # unit-speed circle: derivative is the unit tangent everywhere
    for t in (0.5, 2.0, 5.5):
        v = spec.deriv(t)
        assert math.hypot(v.x, v.y) == pytest.approx(1.0, abs=1e-12)
        assert v.x == pytest.approx(-math.sin(t), abs=1e-12)
    cramped = reparametrize(spec, (0.0, 1.0))
    v = cramped.deriv(0.25)
    # same geometry traced 2*pi times faster
    assert math.hypot(v.x, v.y) == pytest.approx(TWO_PI, abs=1e-9)
    with pytest.raises(ValueError):
        spec.deriv(spec.b, side="right")
    with pytest.raises(ValueError):
        spec.deriv(spec.a, side="left")
    # one-sided derivatives at a corner differ
    sq = CurveSpec(
        (
            LinePiece(Point(0, 0), Point(1, 0)),
            LinePiece(Point(1, 0), Point(1, 1)),
        )
    )
    vr = sq.deriv(1.0, side="right")
    vl = sq.deriv(1.0, side="left")
    assert vl == Point(1.0, 0.0)
    assert vr == Point(0.0, 1.0)


def test_lin_and_path_sum():
    c1 = lin((0.0, 0.0), (1.0, 0.0))
    c2 = lin((1.0, 0.0), (1.0, 1.0))
    both = path_sum(c1, c2)
    assert both.n_pieces == 2
    assert both.eval(1.5) == Point(1.0, 0.5)
    with pytest.raises(ValueError, match="do not meet"):
        path_sum(c1, lin((2.0, 0.0), (3.0, 0.0)))


def test_unit_circular_path_parametrised_by_angle():
    spec = unit_circular_path()
    assert spec.interval == (0.0, TWO_PI)
    for t in np.linspace(0.0, TWO_PI, 50):
        p = spec.eval(float(t))
        assert p.dist(Point(math.cos(t), math.sin(t))) < 1e-12
    jc = validate_jordan(spec, h=1e-3)
    assert jc.deriv_sup == pytest.approx(1.0)


def test_points_vectorised_matches_eval():
    spec = cubic_blob()
    ts = np.linspace(spec.a, spec.b, 257)
    batch = spec.points(ts)
    for t, row in zip(ts, batch):
        assert spec.eval(float(t)).dist(Point(*row)) < 1e-12


def _sampled_curves():
    return [(name, fixture(name)) for name in sorted(FIXTURES)] + [
        ("blob64", cubic_blob(64))
    ]


def _star_loops(count=20):
    """Seeded star-shaped Catmull-Rom loops of 8 to 40 pieces."""

    rng = np.random.default_rng(2024)
    loops = []
    for _ in range(count):
        n = int(rng.integers(8, 41))
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        rad = rng.uniform(0.8, 1.2, n)
        pts = [Point(float(r * math.cos(a)), float(r * math.sin(a))) for a, r in zip(ang, rad)]
        loops.append(_catmull_rom_loop(pts))
    return loops


def test_validation_builds_no_carrier_samples():
    jc = validate_jordan(cubic_blob(64), h=1e-3)
    assert "geometry" not in jc.carrier.__dict__
    # a distance query builds the kernel arrays
    jc.carrier.distance((0.0, 0.0))
    jc.carrier.distance_batch(np.array([[0.5, 0.5], [3.0, 0.0]]), 1e-3)
    assert "geometry" in jc.carrier.__dict__


# pinned jc.diameter() floats: taking the diameter on its first read must
# not move them
_DIAMETERS = {"circle": 2.0, "kidney": 2.0094680040252952}


def test_validation_takes_no_diameter():
    valid = {}
    for name in FIXTURES:
        try:
            valid[name] = validate_jordan(fixture(name), h=1e-3)
        except J1Failure:
            assert name == "figure-eight"
    assert sorted(valid) == sorted(GOOD_FIXTURES)
    assert not any("diam" in jc.carrier.__dict__ for jc in valid.values())
    for name, diam in _DIAMETERS.items():
        assert valid[name].diameter() == diam
    assert "diam" in valid["circle"].carrier.__dict__


def _dense_diameter(pts):
    d2 = (pts[:, None, 0] - pts[None, :, 0]) ** 2 + (pts[:, None, 1] - pts[None, :, 1]) ** 2
    return float(np.sqrt(d2.max()))


@pytest.mark.parametrize(
    "spec", [s for _, s in _sampled_curves()] + _star_loops(), ids=lambda s: f"{s.n_pieces}p"
)
def test_diameter_branch_and_bound_equals_dense(spec):
    ci = CarrierIndex.build(spec)
    us = (np.arange(_SAMPLES_PER_PIECE) + 0.5) / _SAMPLES_PER_PIECE
    samples = np.concatenate([piece_points(p, us) for p in spec.pieces])
    sub = samples[:: max(1, samples.shape[0] // 512)]
    assert ci.diam == _dense_diameter(sub)


def _polygon():
    verts = [Point(1.5, -0.5), Point(0.25, 1.75), Point(-1.0, 0.5), Point(-0.75, -1.25)]
    return CurveSpec(tuple(LinePiece(p, q) for p, q in zip(verts, verts[1:] + verts[:1])))


@pytest.mark.parametrize("name", GOOD_FIXTURES + ("blob64", "polygon"))
def test_max_radius_bounds_the_carrier(name):
    spec = {"blob64": cubic_blob(64), "polygon": _polygon()}.get(name) or fixture(name)
    r = CarrierIndex.build(spec).max_radius()
    xy = spec.points(np.linspace(spec.a, spec.b, 400_001))
    assert r >= np.hypot(xy[:, 0], xy[:, 1]).max()
    # the bound is the true maximum where the pieces give it in closed form
    exact = {"circle": 1.0, "rounded-square": 0.7 * math.sqrt(2.0) + 0.3}
    if name == "polygon":
        exact[name] = max(math.hypot(p.start.x, p.start.y) for p in spec.pieces)
    if name in exact:
        assert r <= exact[name] * (1.0 + 4.0 * np.finfo(float).eps)


def test_max_radius_covers_the_round_off_of_arc_ends():
    # a short arc through the origin of a circle of radius 2^20, closed by
    # two lines: its ends are the farthest points, and their computed
    # floats are off by about 1e-10, many ulps of their norms
    big = 2.0**20
    pi_lo = 1.2246467991473532e-16  # pi - math.pi
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = rng.uniform(0.5, 2.0) / big
        a0 = math.pi - d + rng.uniform(-0.3, 0.3) / big
        arc = ArcPiece(Point(big, 0.0), big, a0, 2.0 * d)
        e0, e1 = arc.point(0.0), arc.point(1.0)
        left = Point(min(e0.x, e1.x) - 0.3, 0.0)
        spec = CurveSpec((arc, LinePiece(e1, left), LinePiece(left, e0)))
        # |c + r exp(ia)| = 2r |sin((pi - a) / 2)| for c = (r, 0); pi - a0
        # is exact in floats, and pi_lo restores the rest of pi
        far = max(
            abs(2.0 * big * math.sin(((math.pi - a0) + pi_lo) / 2.0)),
            abs(2.0 * big * math.sin((((math.pi - a0) - 2.0 * d) + pi_lo) / 2.0)),
        )
        assert CarrierIndex.build(spec).max_radius() >= far


def test_validate_circle_certificates():
    jc = validate_jordan(unit_circular_path(), h=1e-3)
    assert all(jc.smooth_flags)
    assert jc.j1.min_gap > jc.j1.threshold
    # inverse modulus table: circle chord law is 2 sin(eps / 2); sampled
    # minima can only sit slightly above it (grid rounds dt upward)
    for eps, delta in jc.j2.entries:
        exact = 2.0 * math.sin(eps / 2.0)
        assert exact - 1e-12 <= delta <= 2.0 * math.sin((eps + 2e-3) / 2.0)
        assert delta > 0.0
    entries = list(jc.j2.entries)
    assert all(
        entries[k][1] <= entries[k + 1][1] + 1e-15 for k in range(len(entries) - 1)
    )


def test_validate_rejects_open_path():
    half = CurveSpec((ArcPiece(Point(0, 0), 1.0, 0.0, math.pi),))
    with pytest.raises(ClosureFailure):
        validate_jordan(half, h=1e-3)


@pytest.mark.parametrize(
    "interval, h", [((0.0, 1e13), 1e-2), ((0.0, 1e300), 1e-300), ((0.0, 1.0), 5e-324)]
)
def test_validate_rejects_a_sample_count_it_cannot_hold(interval, h):
    with pytest.raises(ValueError, match="samples"):
        validate_jordan(reparametrize(fixture("kidney"), interval), h=h)


def test_validate_takes_a_512_piece_curve_at_the_default_h(monkeypatch):
    # the sample bound lets it through to the speed profile, which comes next

    class Sampled(Exception):
        pass

    def speed_profile(c):
        raise Sampled

    monkeypatch.setattr(curves_module, "_speed_profile", speed_profile)
    with pytest.raises(Sampled):
        validate_jordan(cubic_blob(512), h=1e-3)


SCALES = [10.0**k for k in range(-12, 13, 2)]


@pytest.mark.parametrize("scale", SCALES)
def test_closure_tolerance_scales_with_the_curve(scale):
    m = Affine.scaling(scale).coeffs
    half = CurveSpec((ArcPiece(Point(0, 0), scale, 0.0, math.pi),))
    assert not half.is_closed
    with pytest.raises(ClosureFailure):
        validate_jordan(half, h=1e-3)
    for name, make in FIXTURES.items():
        spec = CurveSpec(tuple(p.transformed(m) for p in make().pieces))
        assert spec.closure_gap <= spec.closure_tol, name
    blob = CurveSpec(tuple(p.transformed(m) for p in cubic_blob().pieces))
    assert validate_jordan(blob, h=1e-2).j1.min_gap > 0.0


def test_lemniscate_crossing_between_samples_fails_injectivity():
    # a Catmull-Rom loop through points of the lemniscate (cos t, sin 2t / 2)
    # crosses itself once, on the y axis: the nearest samples across the
    # crossing stay above the J1 threshold, but two sample segments cross
    ts = [TWO_PI * (k + 0.25) / 12 for k in range(12)]
    loop = _catmull_rom_loop([Point(math.cos(t), math.sin(2 * t) / 2) for t in ts])
    for h in (1e-2, 1e-3):
        with pytest.raises(J1Failure) as exc:
            validate_jordan(loop, h=h)
        err = exc.value
        assert err.chord == 0.0
        assert abs(err.t2 - err.t1) > 1.0
        # the witnesses are mirror images, one sample step across the crossing
        p1, p2 = loop.eval(err.t1), loop.eval(err.t2)
        assert p1.dist(Point(-p2.x, p2.y)) < 1e-12
        assert p1.dist(p2) < h


def test_figure_eight_fails_injectivity_with_witness():
    with pytest.raises(J1Failure) as exc:
        validate_jordan(figure_eight(), h=1e-3)
    err = exc.value
    assert err.chord < 1e-9
    # witness pair pins the shared tangency point at the origin
    spec = figure_eight()
    p1, p2 = spec.eval(err.t1), spec.eval(err.t2)
    assert p1.dist(Point(0.0, 0.0)) < 1e-6
    assert p2.dist(Point(0.0, 0.0)) < 1e-6


def test_a_repeated_point_fails_injectivity():
    # a constant cubic at the corner (1, 0) of the unit square: its samples
    # all repeat that point, so the chord is 0 and so is the threshold
    corner = Point(1.0, 0.0)
    square = [Point(0.0, 0.0), corner, Point(1.0, 1.0), Point(0.0, 1.0)]
    lines = [LinePiece(p, q) for p, q in zip(square, square[1:] + square[:1])]
    spec = CurveSpec((lines[0], CubicPiece(corner, corner, corner, corner), *lines[1:]))
    with pytest.raises(J1Failure) as exc:
        validate_jordan(spec, h=1e-3, require_smooth=False)
    err = exc.value
    assert err.chord == 0.0 and err.threshold == 0.0
    assert spec.eval(err.t1) == spec.eval(err.t2) == corner
    assert abs(err.t2 - err.t1) >= 1e-3


def _pinched_pentagon(x, m=(1, 0, 0, 1)):
    """The pentagon whose fourth vertex (x, 0) lies on its first edge,
    mapped by the integer matrix m, row by row."""

    a, b, c, d = m
    verts = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (x, 0.0), (0.0, 3.0)]
    verts = [Point(a * u + b * v, c * u + d * v) for u, v in verts]
    return CurveSpec(tuple(LinePiece(p, q) for p, q in zip(verts, verts[1:] + verts[:1])))


def _vertex_on_a_side(spec):
    """Exact referee: whether a polygon's vertex lies on a side that does
    not end at it."""

    verts = [(Fraction(p.start.x), Fraction(p.start.y)) for p in spec.pieces]
    n = len(verts)
    for k, (qx, qy) in enumerate(verts):
        for j in range(n):
            (ax, ay), (bx, by) = verts[j], verts[(j + 1) % n]
            if k in (j, (j + 1) % n) or (bx - ax) * (qy - ay) != (by - ay) * (qx - ax):
                continue
            if min(ax, bx) <= qx <= max(ax, bx) and min(ay, by) <= qy <= max(ay, by):
                return True
    return False


def test_a_vertex_on_an_edge_fails_injectivity():
    # the vertex (x, 0) lies on the edge from (0, 0) to (4, 0), so the
    # pentagon is two triangles pinched at a point.  At x = 2.002 its
    # nearest sample pair is 2.0e-3 apart, above the threshold of 7.5e-4,
    # and only the touch of the sample polylines gives it away
    with pytest.raises(J1Failure) as exc:
        validate_jordan(_pinched_pentagon(2.002), h=1e-3, require_smooth=False)
    assert exc.value.chord == 0.0 and exc.value.threshold == pytest.approx(7.5e-4)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.5, 3.5, 200):
        with pytest.raises(J1Failure):
            validate_jordan(_pinched_pentagon(float(x)), h=1e-3, require_smooth=False)


@given(
    k=st.integers(513, 3583),
    m=st.sampled_from([(3, -1, 1, 3), (5, -3, 3, 5), (7, -2, 2, 7)]),
)
@settings(max_examples=100, deadline=None)
def test_a_mapped_vertex_on_an_edge_fails_injectivity(k, m):
    # the pinched pentagon with x on the 1/1024 grid, mapped by an exact
    # integer similarity: its fourth vertex still lies exactly on its first
    # edge, which is now sloped, so the edge's rounded samples can all miss
    # the vertex on one side.  The edge enters the crossing test as itself
    spec = _pinched_pentagon(k / 1024, m)
    assert _vertex_on_a_side(spec)
    with pytest.raises(J1Failure):
        validate_jordan(spec, h=1e-3, require_smooth=False)


def test_cusp_rejected_unless_allowed():
    a = Point(0.0, 0.0)
    b = Point(2.0, 0.0)
    cusped = CubicPiece(a, a, Point(1.0, 1.0), b)
    back = CubicPiece(b, Point(2.0, -1.5), Point(0.0, -1.5), a)
    spec = CurveSpec((cusped, back))
    with pytest.raises(NonSmoothPiece) as exc:
        validate_jordan(spec, h=1e-3)
    assert exc.value.piece_index == 0
    jc = validate_jordan(spec, h=1e-3, require_smooth=False)
    assert jc.smooth_flags[0] is False
    assert jc.smooth_flags[1] is True


def test_carrier_index_enclosure_invariant(curves):
    for name, jc in curves.items():
        ci = jc.carrier
        rng = np.random.default_rng(hash(name) % 2**32)
        pts = rng.uniform(-2.2, 2.2, size=(200, 2))
        lo, hi = ci.distance_batch(pts)
        assert (lo <= hi + 1e-12).all()
        assert (hi - lo <= _kernels._REFINE_REL_TOL * lo + 1e-12).all()
        spacing = jc.spec.piece_param_width() / _SAMPLES_PER_PIECE
        assert (hi - lo <= max(jc.speed_upper) * spacing + 1e-12).all()
        assert (lo >= 0.0).all()


def test_transform_curve_similarity_and_validation(curves):
    jc = curves["ellipse"]
    t = Affine.rotation(0.4) @ Affine.scaling(0.7) @ Affine.translation(1.0, -2.0)
    jt = transform_curve(jc, t)
    assert jt.spec.n_pieces == jc.spec.n_pieces
    for u in np.linspace(jc.spec.a, jc.spec.b, 37):
        p = jc.eval(float(u))
        assert jt.eval(float(u)).dist(t.apply(p)) < 1e-9


@pytest.mark.parametrize("name", ["ellipse", "rounded-square", "circle"])
def test_a_power_of_two_keeps_every_arc_angle(name):
    # the start angle is the old one plus the map's turn, 0 for a scaling,
    # so the scaled curve is the same floats times 2**k
    jc = validate_jordan(fixture(name), h=1e-2)
    for k in (-520, -7, 3, 10, 520):
        big = transform_curve(jc, Affine.scaling(2.0**k))
        for p, q in zip(jc.spec.pieces, big.spec.pieces):
            if isinstance(p, ArcPiece):
                assert (q.start_angle, q.sweep) == (p.start_angle, p.sweep)
                assert q.radius == math.ldexp(p.radius, k)
        assert big.diameter() == math.ldexp(jc.diameter(), k)
    # a chain of rotations turns each start angle by 100 radians in all,
    # but keeps it below 2 pi in size, on the rotated arc
    m = Affine.rotation(2.5).coeffs
    for p in jc.spec.pieces:
        if isinstance(p, ArcPiece):
            q, z = p, p.point(0.0)
            for _ in range(40):
                q, z = q.transformed(m), Affine.rotation(2.5).apply(z)
            assert abs(q.start_angle) < math.tau
            assert q.point(0.0).dist(z) < 1e-12


def test_transform_curve_rejects_singular(curves):
    singular = Affine((1.0, 0.0, 2.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="invertible"):
        transform_curve(curves["circle"], singular)


def test_transform_arc_curve_rejects_shear(curves):
    shear = Affine((1.0, 0.5, 0.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        transform_curve(curves["circle"], shear)


def test_affine_compose_and_det():
    t = Affine.rotation(0.3) @ Affine.scaling(2.0)
    assert t.det == pytest.approx(4.0)
    assert Affine.reflection_x().det == pytest.approx(-1.0)
    p = Point(1.0, 1.0)
    q = (Affine.translation(3.0, 4.0) @ Affine.rotation(math.pi / 2)).apply(p)
    assert q.dist(Point(2.0, 5.0)) < 1e-12


def test_json_round_trip_exact():
    for name, make in FIXTURES.items():
        spec = make()
        again = curve_from_json(curve_to_json(spec))
        a = np.array([p.to_row() for p in spec.pieces])
        b = np.array([p.to_row() for p in again.pieces])
        assert (a == b).all(), name
        assert [p.kind for p in spec.pieces] == [p.kind for p in again.pieces]


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        curve_from_json('{"pieces": [{"type": "arc", "center": [0, 0]}]}')
    assert "pieces[0]" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        curve_from_json(
            '{"pieces": [{"type": "line", "from": [0, 0], "to": [1, 0]},'
            ' {"type": "cubic", "points": [[1, 0], [2, 0]]}]}'
        )
    assert "pieces[1].points" in str(exc.value)

    with pytest.raises(ParseError, match="invalid JSON"):
        curve_from_json("{not json")

    with pytest.raises(ParseError, match="unknown piece type"):
        curve_from_json('{"pieces": [{"type": "quintic"}]}')

    with pytest.raises(ParseError) as exc:
        curve_from_json(
            '{"pieces": [{"type": "arc", "center": [0, 0], "radius": -1,'
            ' "start_angle": 0, "sweep": 1}]}'
        )
    assert "pieces[0]" in str(exc.value)


_XY = "expected a [x, y] pair of numbers"
_NUM = "expected a number"
_SOURCES = {"line": "rounded-square", "arc": "circle", "cubic": "blob"}


def _mutated(kind, field, value):
    """The fixture dict with ``field`` of its first ``kind`` piece set to
    ``value``, or deleted for ``...``; the piece's index too."""

    d = curve_to_dict(fixture(_SOURCES[kind]))
    i = next(k for k, p in enumerate(d["pieces"]) if p["type"] == kind)
    owner = d["pieces"][i]
    for key in field[:-1]:
        owner = owner[key]
    if value is ...:
        del owner[field[-1]]
    else:
        owner[field[-1]] = value
    return d, i


@pytest.mark.parametrize(
    "kind,field,value,message",
    [
        ("arc", ("radius",), True, _NUM),
        ("arc", ("start_angle",), False, _NUM),
        ("arc", ("sweep",), True, _NUM),
        ("arc", ("center",), [True, False], _XY),
        ("line", ("from",), [True, 0.0], _XY),
        ("line", ("to",), [0.0, False], _XY),
        ("cubic", ("points", 0), [False, 1.0], _XY),
        ("cubic", ("points", 1), [True, True], _XY),
        ("cubic", ("points", 2), [1.0, True], _XY),
        ("cubic", ("points", 3), [0.0, False], _XY),
    ],
    ids=[
        "radius", "start_angle", "sweep", "center", "from", "to",
        "points[0]", "points[1]", "points[2]", "points[3]",
    ],
)
def test_parse_rejects_bools(kind, field, value, message):
    d, i = _mutated(kind, field, value)
    with pytest.raises(ParseError) as exc:
        curve_from_dict(d)
    where = f"pieces[{i}].{field[0]}" + "".join(f"[{k}]" for k in field[1:])
    assert exc.value.where == where
    assert str(exc.value) == f"{where}: {message}"


_INF = "Point must have finite coordinates, got inf"
_FOUR = "cubic needs exactly 4 control points"


def _parse_cases():
    """(kind, field, value, where after "pieces[i]", message) with an id;
    a value of ... deletes the field."""

    cases = [
        (kind, (key,), value, f".{key}", message)
        for kind, keys in (
            ("line", (("from", _XY), ("to", _XY))),
            ("arc", (("center", _XY), ("radius", _NUM), ("start_angle", _NUM),
                     ("sweep", _NUM))),
        )
        for key, message in keys
        for value in (..., "1", None, [1.0], {"x": 1.0})
    ]
    cases += [
        (kind, (key,), [1e400, 0.0], f".{key}", _INF)
        for kind, key in (("line", "from"), ("arc", "center"))
    ]
    cases += [
        ("cubic", ("points",), ..., ".points", _FOUR),
        ("cubic", ("points",), [[0.0, 0.0]] * 3, ".points", _FOUR),
        ("cubic", ("points", 1), None, ".points[1]", _XY),
        ("cubic", ("points", 3), [0.0, "1"], ".points[3]", _XY),
        ("cubic", ("points", 0), [0.0, -1e400], ".points[0]",
         "Point must have finite coordinates, got -inf"),
        ("arc", ("radius",), -1.0, "", "arc radius must be positive and finite"),
        ("arc", ("sweep",), 7.0, "", "arc sweep must satisfy 0 < |sweep| <= 2*pi"),
        ("line", ("type",), ["line"], ".type",
         "unknown piece type ['line'] (want line/arc/cubic)"),
        ("arc", ("type",), {"arc": 1}, ".type",
         "unknown piece type {'arc': 1} (want line/arc/cubic)"),
        ("cubic", ("type",), ..., ".type", "unknown piece type None (want line/arc/cubic)"),
        ("line", ("type",), "arc", ".center", _XY),
        ("arc", ("type",), "cubic", ".points", _FOUR),
    ]
    return [
        pytest.param(
            *c,
            id=f"{c[0]}.{'.'.join(map(str, c[1]))}="
            + ("missing" if c[2] is ... else repr(c[2])),
        )
        for c in cases
    ]


@pytest.mark.parametrize("kind,field,value,at,message", _parse_cases())
def test_parse_errors_pin_where_and_message(kind, field, value, at, message):
    # a missing key (value ...) reads as null; errors raised by a piece
    # itself point at the piece
    d, i = _mutated(kind, field, value)
    with pytest.raises(ParseError) as exc:
        curve_from_dict(d)
    assert exc.value.where == f"pieces[{i}]{at}"
    assert str(exc.value) == f"pieces[{i}]{at}: {message}"


def test_curve_to_dict_schema():
    d = curve_to_dict(fixture("rounded-square"))
    assert set(d) == {"pieces"}
    kinds = {p["type"] for p in d["pieces"]}
    assert kinds == {"line", "arc"}
    for p in d["pieces"]:
        if p["type"] == "arc":
            assert set(p) == {"type", "center", "radius", "start_angle", "sweep"}
        else:
            assert set(p) == {"type", "from", "to"}
    # serialised form is valid JSON and deterministic
    assert curve_to_json(fixture("blob")) == curve_to_json(fixture("blob"))


def test_reparametrize_preserves_geometry_and_verdicts():
    spec = cubic_blob()
    jc = validate_jordan(spec, h=1e-3)
    moved = reparametrize(spec, (-3.0, 7.0))
    jm = validate_jordan(moved, h=2e-3)
    for t in np.linspace(0.0, 1.0, 23):
        orig = spec.eval(spec.a + t * (spec.b - spec.a))
        new = moved.eval(-3.0 + t * 10.0)
        assert orig.dist(new) < 1e-12
    for p in [(0.2, 0.1), (1.4, 1.4), (-0.8, 0.3)]:
        assert classify(jc, p).verdict == classify(jm, p).verdict
        assert winding_number(jc, p).rounded == winding_number(jm, p).rounded
