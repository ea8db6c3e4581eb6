import math

import numpy as np
import pytest

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
from curvewind.curves import _SAMPLES_PER_PIECE, CarrierIndex, _diameter
from curvewind.geometry import Point
from curvewind.pieces import ArcPiece, CubicPiece, LinePiece

from conftest import piece_points

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
    for name in ("samples", "geometry"):
        assert name not in jc.carrier.__dict__
    # a distance query builds the kernel arrays, never the samples
    jc.carrier.distance((0.0, 0.0))
    jc.carrier.distance_batch(np.array([[0.5, 0.5], [3.0, 0.0]]), 1e-3)
    assert "geometry" in jc.carrier.__dict__
    assert "samples" not in jc.carrier.__dict__


@pytest.mark.parametrize("name, spec", _sampled_curves())
def test_carrier_samples_equal_per_piece_sampling(name, spec):
    ci = CarrierIndex.build(spec)
    us = (np.arange(_SAMPLES_PER_PIECE) + 0.5) / _SAMPLES_PER_PIECE
    want = np.concatenate([piece_points(p, us) for p in spec.pieces])
    assert np.array_equal(ci.samples, want)


def _dense_diameter(pts):
    d2 = (pts[:, None, 0] - pts[None, :, 0]) ** 2 + (pts[:, None, 1] - pts[None, :, 1]) ** 2
    return float(np.sqrt(d2.max()))


@pytest.mark.parametrize(
    "spec", [s for _, s in _sampled_curves()] + _star_loops(), ids=lambda s: f"{s.n_pieces}p"
)
def test_diameter_branch_and_bound_equals_dense(spec):
    ci = CarrierIndex.build(spec)
    sub = ci.samples[:: max(1, ci.samples.shape[0] // 512)]
    assert ci.diam == _diameter(sub) == _dense_diameter(sub)
    # a denser sub-sample, a short odd count and one point
    for pts in (ci.samples[:: max(1, ci.samples.shape[0] // 1500)], sub[:45], sub[:1]):
        assert _diameter(pts) == _dense_diameter(pts)


def test_carrier_index_takes_the_validated_speed_bounds():
    spec = fixture("kidney")
    jc = validate_jordan(spec, h=1e-2)
    assert jc.carrier.lipschitz == jc.speed_upper
    assert CarrierIndex.build(spec).lipschitz == jc.speed_upper


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
        assert (hi - lo <= max(ci.lipschitz) * ci.sample_spacing + 1e-12).all()
        assert (lo >= 0.0).all()


def test_transform_curve_similarity_and_validation(curves):
    jc = curves["ellipse"]
    t = Affine.rotation(0.4) @ Affine.scaling(0.7) @ Affine.translation(1.0, -2.0)
    jt = transform_curve(jc, t)
    assert jt.spec.n_pieces == jc.spec.n_pieces
    for u in np.linspace(jc.spec.a, jc.spec.b, 37):
        p = jc.eval(float(u))
        assert jt.eval(float(u)).dist(t.apply(p)) < 1e-9


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


@pytest.mark.parametrize(
    "name,kind,field,value",
    [
        ("circle", "arc", ("radius",), True),
        ("circle", "arc", ("start_angle",), False),
        ("circle", "arc", ("sweep",), True),
        ("circle", "arc", ("center",), [True, False]),
        ("rounded-square", "line", ("from",), [True, 0.0]),
        ("rounded-square", "line", ("to",), [0.0, False]),
        ("blob", "cubic", ("points", 2), [1.0, True]),
    ],
    ids=["radius", "start_angle", "sweep", "center", "from", "to", "points[2]"],
)
def test_parse_rejects_bools(name, kind, field, value):
    d = curve_to_dict(fixture(name))
    i = next(k for k, p in enumerate(d["pieces"]) if p["type"] == kind)
    owner = d["pieces"][i]
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = value
    with pytest.raises(ParseError) as exc:
        curve_from_dict(d)
    where = f"pieces[{i}].{field[0]}" + "".join(f"[{k}]" for k in field[1:])
    assert exc.value.where == where


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
