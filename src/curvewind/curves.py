"""Piecewise paths, Jordan-curve validation, and the carrier index.

A :class:`CurveSpec` strings pieces together over a parameter interval
[a, b]: piece k covers the k-th of n equal subintervals.  Validation checks
closure, per-piece smoothness, sample-scale injectivity (with a wrap-aware
parameter separation so the seam is not flagged), and tabulates a modulus
for the inverse map on interior compacta.  The result is a
:class:`JordanCurve` carrying certificates plus a :class:`CarrierIndex`
that answers distance queries with certified [lower, upper] enclosures.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ClosureFailure, J1Failure, NonSmoothPiece, ParseError
from .geometry import Point, as_point
from .pieces import (
    KIND_ARC,
    KIND_CUBIC,
    KIND_LINE,
    ArcPiece,
    CubicPiece,
    LinePiece,
    Piece,
)

__all__ = [
    "CurveSpec",
    "JordanCurve",
    "CarrierIndex",
    "J1Certificate",
    "J2Certificate",
    "Affine",
    "lin",
    "path_sum",
    "reparametrize",
    "unit_circular_path",
    "validate_jordan",
    "carrier_distance",
    "transform_curve",
    "curve_to_dict",
    "curve_from_dict",
    "curve_to_json",
    "curve_from_json",
]

# joint and closure gaps are measured against these times the diameter of
# the pieces' bounding box, so a certificate means the same at any scale
JOINT_TOL = 1e-9
CLOSURE_TOL = 1e-9
EVAL_TOL = 1e-12

# injectivity fails when the closest well-separated pair lands nearer than
# _J1_FACTOR times the local one-step displacement at the witnesses: a true
# crossing drives the chord toward zero while the branches keep moving, a
# merely slow region shrinks both at the same rate and stays clear
_J1_FACTOR = 0.25

_DEFAULT_EPS_FRACTIONS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4)
_SAMPLES_PER_PIECE = 512
# carrier samples sit at the centres of equal steps of each piece
_SAMPLE_US = (np.arange(_SAMPLES_PER_PIECE) + 0.5) / _SAMPLES_PER_PIECE
# the carrier diameter is the largest distance among this many samples
_DIAM_SAMPLES = 512
# consecutive points per block in the diameter's branch and bound, and
# block pairs per vectorised step
_DIAM_BLOCK = 32
_DIAM_STEP = 8


def _row_points(kinds, data, piece, u):
    """Points at local parameters ``u`` of the pieces numbered ``piece``.

    ``kinds`` and ``data`` are the flattened pieces of ``_kernels``;
    ``piece`` and ``u`` are 1-D and of one length.  Each kind takes one
    numpy pass over its points with the expressions of its piece's
    ``point``, so a curve point is the same float wherever it is taken:
    validation samples, carrier samples and the diameter's sub-sample.
    """

    out = np.empty((u.shape[0], 2))
    kind = kinds[piece]
    for k in (KIND_LINE, KIND_ARC, KIND_CUBIC):
        sel = np.flatnonzero(kind == k)
        if not sel.size:
            continue
        if sel.size == u.shape[0]:
            sel = slice(None)
        r = data[piece[sel]].T
        uk = u[sel]
        if k == KIND_LINE:
            x = r[0] + uk * (r[2] - r[0])
            y = r[1] + uk * (r[3] - r[1])
        elif k == KIND_ARC:
            ang = r[3] + r[4] * uk
            x = r[0] + r[2] * np.cos(ang)
            y = r[1] + r[2] * np.sin(ang)
        else:
            v = 1.0 - uk
            b0 = v * v * v
            b1 = 3.0 * v * v * uk
            b2 = 3.0 * v * uk * uk
            b3 = uk * uk * uk
            x = b0 * r[0] + b1 * r[2] + b2 * r[4] + b3 * r[6]
            y = b0 * r[1] + b1 * r[3] + b2 * r[5] + b3 * r[7]
        out[sel, 0] = x
        out[sel, 1] = y
    return out


def _diameter(pts) -> float:
    """The largest distance between two rows of ``pts``, as the float
    sqrt(max((x_i - x_j)**2 + (y_i - y_j)**2)) over all pairs.

    Branch and bound over blocks of _DIAM_BLOCK consecutive points, the
    farthest-pair form of the chord scan.  A block pair's bound applies
    the same formula to the widest axis spans of the two boxes; float
    subtraction, squaring and addition are monotone, so the bound is at
    least every square computed between the two blocks.  Block pairs are
    taken in order of decreasing bound, and the rest are skipped once the
    bound is no larger than the largest square found.
    """

    m = pts.shape[0]
    nb = -(-m // _DIAM_BLOCK)
    idx = np.minimum(
        np.arange(nb)[:, None] * _DIAM_BLOCK + np.arange(_DIAM_BLOCK), m - 1
    )
    x, y = pts[idx, 0], pts[idx, 1]
    x0, x1 = x.min(axis=1), x.max(axis=1)
    y0, y1 = y.min(axis=1), y.max(axis=1)
    P, Q = np.triu_indices(nb)
    gx = np.maximum(x1[Q] - x0[P], x1[P] - x0[Q])
    gy = np.maximum(y1[Q] - y0[P], y1[P] - y0[Q])
    bound = gx * gx + gy * gy
    order = np.argsort(-bound, kind="stable")
    best = 0.0
    for s in range(0, order.size, _DIAM_STEP):
        k = order[s : s + _DIAM_STEP]
        k = k[bound[k] > best]
        if not k.size:
            break
        dx = x[P[k]][:, :, None] - x[Q[k]][:, None, :]
        dy = y[P[k]][:, :, None] - y[Q[k]][:, None, :]
        best = max(best, float((dx * dx + dy * dy).max()))
    return math.sqrt(best)


@dataclass(frozen=True)
class CurveSpec:
    """A continuous piecewise path on [a, b], not necessarily closed."""

    pieces: tuple[Piece, ...]
    interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("a curve needs at least one piece")
        object.__setattr__(self, "pieces", pieces)
        iv = self.interval if self.interval is not None else (0.0, float(len(pieces)))
        a, b = float(iv[0]), float(iv[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"parameter interval must be finite with a < b, got {iv}")
        object.__setattr__(self, "interval", (a, b))
        gaps = [
            pieces[k].point(1.0).dist(pieces[k + 1].point(0.0))
            for k in range(len(pieces) - 1)
        ]
        # exact joints, the usual case, pass without measuring the extent
        tol = JOINT_TOL * self._extent() if any(gaps) else 0.0
        for k, gap in enumerate(gaps):
            if gap > tol:
                raise ValueError(
                    f"pieces {k} and {k + 1} do not meet: joint gap {gap:.3e}"
                )

    @property
    def a(self) -> float:
        return self.interval[0]

    @property
    def b(self) -> float:
        return self.interval[1]

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    @property
    def closure_gap(self) -> float:
        return self.pieces[-1].point(1.0).dist(self.pieces[0].point(0.0))

    @property
    def closure_tol(self) -> float:
        return CLOSURE_TOL * self._extent()

    @property
    def is_closed(self) -> bool:
        return self.closure_gap <= self.closure_tol

    def _locate(self, t: float) -> tuple[int, float]:
        a, b = self.interval
        if not (a - EVAL_TOL <= t <= b + EVAL_TOL):
            raise ValueError(f"parameter {t!r} outside [{a!r}, {b!r}]")
        n = self.n_pieces
        s = (t - a) * n / (b - a)
        k = int(math.floor(s))
        if k < 0:
            k = 0
        elif k > n - 1:
            k = n - 1
        return k, s - k

    def eval(self, t: float) -> Point:
        k, u = self._locate(t)
        return self.pieces[k].point(u)

    def deriv(self, t: float, side: str = "right") -> Point:
        """One-sided derivative in global-parameter units."""

        a, b = self.interval
        n = self.n_pieces
        scale = n / (b - a)
        s = (t - a) * scale
        if side == "right":
            if t >= b - EVAL_TOL:
                raise ValueError("no right derivative at the interval end")
            k = int(math.floor(s + EVAL_TOL))
            u = s - k
        elif side == "left":
            if t <= a + EVAL_TOL:
                raise ValueError("no left derivative at the interval start")
            k = int(math.ceil(s - EVAL_TOL)) - 1
            u = s - k
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        k = min(max(k, 0), n - 1)
        u = min(max(u, 0.0), 1.0)
        return self.pieces[k].velocity(u).scaled(scale)

    def points(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised evaluation at global parameters (shape (m, 2))."""

        ts = np.asarray(ts, dtype=float)
        a, b = self.interval
        n = self.n_pieces
        s = (ts - a) * n / (b - a)
        ks = np.clip(np.floor(s).astype(int), 0, n - 1)
        return _row_points(*self._rows, ks, s - ks)

    @functools.cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The pieces flattened for the kernels: ``kinds`` and ``data``."""

        kinds = np.array([p.kind for p in self.pieces], dtype=np.int8)
        data = np.array([p.to_row() for p in self.pieces], dtype=float)
        return kinds, data

    def piece_param_width(self) -> float:
        return (self.b - self.a) / self.n_pieces

    @functools.cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) around the boxes of all pieces."""

        x0, y0, x1, y1 = zip(*(p.bbox() for p in self.pieces))
        return (min(x0), min(y0), max(x1), max(y1))

    def _extent(self) -> float:
        """Diameter of ``bbox``, the length scale of the gaps."""

        x0, y0, x1, y1 = self.bbox
        return math.hypot(x1 - x0, y1 - y0)


def lin(z1, z2) -> CurveSpec:
    """The linear path from z1 to z2 on [0, 1]."""

    return CurveSpec((LinePiece(as_point(z1), as_point(z2)),))


def path_sum(c1: CurveSpec, c2: CurveSpec) -> CurveSpec:
    """Concatenate two paths whose endpoints meet, on [0, n1 + n2].

    Each operand keeps its own pacing only up to the affine time maps that
    place the pieces on consecutive unit subintervals.  The joint between
    them is checked like every other joint of the result.
    """

    return CurveSpec(c1.pieces + c2.pieces)


def reparametrize(c: CurveSpec, interval: tuple[float, float]) -> CurveSpec:
    """Same geometry on a new parameter interval (affine time change)."""

    return CurveSpec(c.pieces, interval)


def unit_circular_path() -> CurveSpec:
    """Unit circle traced counterclockwise, parametrised by angle on [0, 2*pi]."""

    piece = ArcPiece(Point(0.0, 0.0), 1.0, 0.0, 2.0 * math.pi)
    return CurveSpec((piece,), (0.0, 2.0 * math.pi))


@dataclass(frozen=True)
class J1Certificate:
    """Sample-scale injectivity record.

    Over all sampled pairs with wrap-aware parameter separation
    >= ``separation``, the chord length never drops below ``min_gap``,
    and ``min_gap`` stayed above ``threshold`` (a quarter of the local
    one-step displacement at the closest pair, scaled to resolution).
    """

    resolution: float
    separation: float
    min_gap: float
    witness: tuple[float, float]
    threshold: float


@dataclass(frozen=True)
class J2Certificate:
    """Inverse-modulus table: chord < delta forces parameter gap < eps.

    Entries (eps, delta(eps)) are computed on the interior compactum
    [a + eps/2, b - eps/2] and are nondecreasing in eps.
    """

    entries: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CarrierIndex:
    """Flattened pieces and the kernel arrays for distance queries.

    Line and arc distances are exact.  Cubic distances refine de Casteljau
    control boxes until each box that can still hold the nearest point has
    a diagonal of at most ``_kernels._REFINE_REL_TOL`` times its distance;
    the lower bound is the least such distance, and the upper bound the
    nearest start point of a box visited, so (upper - lower) is at most
    about ``_REFINE_REL_TOL`` times the distance.  ``distance`` and
    ``distance_batch`` run the same kernel, ``_kernels.carrier_batch``, so
    one point gets one answer either way.  The kernel's per-curve arrays,
    ``geometry``, are built on the first query and kept: validation never
    queries.  ``samples``, curve points at ``sample_spacing`` in global
    parameter, serve only ``max_radius``, and are built when it is first
    called.

    A caller that only asks whether the distance is at least some ``need``
    passes it, and each point stops refining once the answer is certain:
    when its upper bound falls below ``need``, or when the distances of its
    finished refinement nodes and the boxes of its live ones are all at
    least ``need``.  A child's control box lies inside its parent's, so
    the full lower bound is no smaller than that.  The enclosure returned
    then contains the full one, and ``lo >= need`` and ``hi < need`` are
    what the full enclosure gives.
    """

    kinds: np.ndarray
    data: np.ndarray
    sample_spacing: float
    lipschitz: tuple[float, ...]
    bbox: tuple[float, float, float, float]
    diam: float

    @classmethod
    def build(cls, spec: CurveSpec, speed_upper=None) -> "CarrierIndex":
        """The index of ``spec``; ``speed_upper`` are its per-piece speed
        bounds in global parameter (``JordanCurve.speed_upper``), found
        here when not given."""

        kinds, data = spec._rows
        if speed_upper is None:
            speed_upper = _speed_profile(spec)[1]
        # the diameter is taken over every stride-th sample, found without
        # building the rest
        n = spec.n_pieces
        total = n * _SAMPLES_PER_PIECE
        sub = np.arange(0, total, max(1, total // _DIAM_SAMPLES))
        piece, k = np.divmod(sub, _SAMPLES_PER_PIECE)
        pts = _row_points(kinds, data, piece, _SAMPLE_US[k])
        return cls(
            kinds=kinds,
            data=data,
            sample_spacing=spec.piece_param_width() / _SAMPLES_PER_PIECE,
            lipschitz=tuple(speed_upper),
            bbox=spec.bbox,
            diam=_diameter(pts),
        )

    @functools.cached_property
    def samples(self) -> np.ndarray:
        """Each piece's points at the centres of _SAMPLES_PER_PIECE equal
        steps, piece after piece."""

        n = self.kinds.shape[0]
        return _row_points(
            self.kinds,
            self.data,
            np.repeat(np.arange(n), _SAMPLES_PER_PIECE),
            np.tile(_SAMPLE_US, n),
        )

    def distance(self, z, need: float | None = None) -> tuple[float, float]:
        """Certified [lower, upper] enclosure of the distance to the carrier,
        only as tight as deciding ``lower >= need`` takes when ``need`` is
        given."""

        p = as_point(z)
        return _kernels.carrier_dist_point(
            self.kinds, self.data, None, None, p.x, p.y, self.geometry, need
        )

    def distance_batch(
        self, pts: np.ndarray, need=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``distance`` for many points; ``need`` is one number or one per
        point."""

        return _kernels.carrier_batch(
            self.kinds, self.data, None, None, pts, self.geometry, need
        )

    @functools.cached_property
    def geometry(self) -> _kernels.CarrierGeometry:
        """The kernels' per-curve arrays (``_kernels.carrier_geometry``)."""

        # built on the first query, not in build(): validation never queries
        return _kernels.carrier_geometry(self.kinds, self.data)

    def diameter(self) -> float:
        return self.diam

    def max_radius(self) -> float:
        """Upper bound for max |z| over the carrier (samples + slack)."""

        slack = max(self.lipschitz) * self.sample_spacing / 2.0
        return float(np.hypot(self.samples[:, 0], self.samples[:, 1]).max()) + slack


@dataclass(frozen=True)
class JordanCurve:
    """A validated closed simple curve with its certificates."""

    spec: CurveSpec
    j1: J1Certificate
    j2: J2Certificate
    smooth_flags: tuple[bool, ...]
    speed_lower: tuple[float, ...]
    speed_upper: tuple[float, ...]
    deriv_sup: float
    carrier: CarrierIndex

    @property
    def interval(self) -> tuple[float, float]:
        return self.spec.interval

    def eval(self, t: float) -> Point:
        return self.spec.eval(t)

    def deriv(self, t: float, side: str = "right") -> Point:
        return self.spec.deriv(t, side)

    def carrier_distance(self, z) -> tuple[float, float]:
        return self.carrier.distance(z)

    def diameter(self) -> float:
        return self.carrier.diameter()

    def default_eps_band(self) -> float:
        return 1e-6 * self.diameter()


def _speed_profile(spec: CurveSpec):
    scale = 1.0 / spec.piece_param_width()
    lows = []
    highs = []
    for piece in spec.pieces:
        lo, hi = piece.speed_bounds()
        lows.append(lo * scale)
        highs.append(hi * scale)
    return tuple(lows), tuple(highs)


def validate_jordan(
    c: CurveSpec,
    h: float = 1e-3,
    require_smooth: bool = True,
) -> JordanCurve:
    """Check closure, smoothness, and sample-scale injectivity at resolution h.

    Raises :class:`ClosureFailure`, :class:`NonSmoothPiece`, or
    :class:`J1Failure` (with a witness pair: the closest sample pair, or
    the start parameters of two sample segments that cross); otherwise
    returns the curve with J1/J2 certificates and a distance index attached.
    """

    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("sample resolution h must be positive")
    gap = c.closure_gap
    tol = c.closure_tol
    if gap > tol:
        raise ClosureFailure(c.pieces[0].point(0.0), c.pieces[-1].point(1.0), gap, tol)
    lows, highs = _speed_profile(c)
    flags = tuple(lo > 0.0 for lo in lows)
    if require_smooth and not all(flags):
        raise NonSmoothPiece(flags.index(False))

    a, b = c.interval
    period = b - a
    n_samp = max(int(math.ceil(period / h)), 8 * c.n_pieces)
    h_eff = period / n_samp
    ts = a + h_eff * np.arange(n_samp)
    xy = c.points(ts)

    eps_levels = np.array([f * period for f in _DEFAULT_EPS_FRACTIONS])
    min_gap, i1, i2, deltas = _kernels.pair_scan(
        xy, ts, period, h, a, b, eps_levels
    )
    loc1 = float(np.hypot(*(xy[(i1 + 1) % n_samp] - xy[i1])))
    loc2 = float(np.hypot(*(xy[(i2 + 1) % n_samp] - xy[i2])))
    threshold = _J1_FACTOR * min(loc1, loc2) * (h / h_eff)
    if min_gap < threshold:
        raise J1Failure(float(ts[i1]), float(ts[i2]), float(min_gap), threshold)
    # a transversal crossing can fall between samples, half a step from the
    # nearest sample pair; the sample polyline still crosses itself there
    c1, c2 = _kernels.polyline_crossing(xy)
    if c1 >= 0:
        raise J1Failure(float(ts[c1]), float(ts[c2]), 0.0, threshold)

    entries = tuple(
        (float(e), float(d))
        for e, d in zip(eps_levels, deltas)
        if math.isfinite(d)
    )
    j1 = J1Certificate(
        resolution=h,
        separation=h,
        min_gap=float(min_gap),
        witness=(float(ts[i1]), float(ts[i2])),
        threshold=threshold,
    )
    j2 = J2Certificate(entries=entries)
    carrier = CarrierIndex.build(c, highs)
    return JordanCurve(
        spec=c,
        j1=j1,
        j2=j2,
        smooth_flags=flags,
        speed_lower=lows,
        speed_upper=highs,
        deriv_sup=max(highs),
        carrier=carrier,
    )


def carrier_distance(jc: JordanCurve, z) -> tuple[float, float]:
    """Certified [lower, upper] distance from z to the carrier of jc."""

    return jc.carrier.distance(z)


@dataclass(frozen=True)
class Affine:
    """Invertible affine map x' = A x + t, stored row-major (a b; c d) + (e, f)."""

    coeffs: tuple[float, float, float, float, float, float]

    @property
    def det(self) -> float:
        a, b, c, d, _, _ = self.coeffs
        return a * d - b * c

    def apply(self, p) -> Point:
        p = as_point(p)
        a, b, c, d, e, f = self.coeffs
        return Point(a * p.x + b * p.y + e, c * p.x + d * p.y + f)

    def __matmul__(self, other: "Affine") -> "Affine":
        a1, b1, c1, d1, e1, f1 = self.coeffs
        a2, b2, c2, d2, e2, f2 = other.coeffs
        return Affine(
            (
                a1 * a2 + b1 * c2,
                a1 * b2 + b1 * d2,
                c1 * a2 + d1 * c2,
                c1 * b2 + d1 * d2,
                a1 * e2 + b1 * f2 + e1,
                c1 * e2 + d1 * f2 + f1,
            )
        )

    @classmethod
    def rotation(cls, theta: float) -> "Affine":
        c, s = math.cos(theta), math.sin(theta)
        return cls((c, -s, s, c, 0.0, 0.0))

    @classmethod
    def scaling(cls, s: float) -> "Affine":
        return cls((s, 0.0, 0.0, s, 0.0, 0.0))

    @classmethod
    def translation(cls, dx: float, dy: float) -> "Affine":
        return cls((1.0, 0.0, 0.0, 1.0, dx, dy))

    @classmethod
    def reflection_x(cls) -> "Affine":
        """Reflection across the x axis (det < 0)."""

        return cls((1.0, 0.0, 0.0, -1.0, 0.0, 0.0))


def transform_curve(jc: JordanCurve, t: Affine) -> JordanCurve:
    """Apply an invertible affine map and revalidate at the same resolution.

    Arc pieces survive only similarity maps; a non-similarity on a curve
    with arcs raises ValueError rather than silently changing the shape.
    """

    # the determinant scales like the squared norm of the linear part, so
    # the test means the same for a map of any size
    a, b, c, d, _, _ = t.coeffs
    if abs(t.det) <= 1e-12 * (a * a + b * b + c * c + d * d):
        raise ValueError(f"transform is not invertible: det = {t.det!r}")
    pieces = tuple(p.transformed(t.coeffs) for p in jc.spec.pieces)
    spec = CurveSpec(pieces, jc.spec.interval)
    return validate_jordan(spec, h=jc.j1.resolution)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _is_num(val) -> bool:
    # bool is an int subclass, but JSON true/false is never a coordinate
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _parse_xy(val, where: str) -> Point:
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or not all(_is_num(v) for v in val)
    ):
        raise ParseError("expected a [x, y] pair of numbers", where)
    try:
        return Point(float(val[0]), float(val[1]))
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def _parse_num(val, where: str) -> float:
    if not _is_num(val):
        raise ParseError("expected a number", where)
    return float(val)


def curve_from_dict(obj) -> CurveSpec:
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    raw = obj.get("pieces")
    if not isinstance(raw, list) or not raw:
        raise ParseError("missing or empty 'pieces' array", "pieces")
    pieces: list[Piece] = []
    for i, item in enumerate(raw):
        where = f"pieces[{i}]"
        if not isinstance(item, dict):
            raise ParseError("piece must be an object", where)
        kind = item.get("type")
        try:
            if kind == "line":
                pieces.append(
                    LinePiece(
                        _parse_xy(item.get("from"), where + ".from"),
                        _parse_xy(item.get("to"), where + ".to"),
                    )
                )
            elif kind == "arc":
                pieces.append(
                    ArcPiece(
                        _parse_xy(item.get("center"), where + ".center"),
                        _parse_num(item.get("radius"), where + ".radius"),
                        _parse_num(item.get("start_angle"), where + ".start_angle"),
                        _parse_num(item.get("sweep"), where + ".sweep"),
                    )
                )
            elif kind == "cubic":
                pts = item.get("points")
                if not isinstance(pts, list) or len(pts) != 4:
                    raise ParseError(
                        "cubic needs exactly 4 control points", where + ".points"
                    )
                pieces.append(
                    CubicPiece(
                        *(
                            _parse_xy(p, f"{where}.points[{j}]")
                            for j, p in enumerate(pts)
                        )
                    )
                )
            else:
                raise ParseError(
                    f"unknown piece type {kind!r} (want line/arc/cubic)",
                    where + ".type",
                )
        except ValueError as exc:
            raise ParseError(str(exc), where) from None
    try:
        return CurveSpec(tuple(pieces))
    except ValueError as exc:
        raise ParseError(str(exc), "pieces") from None


def curve_to_dict(spec: CurveSpec) -> dict:
    out = []
    for p in spec.pieces:
        if isinstance(p, LinePiece):
            out.append(
                {
                    "type": "line",
                    "from": [p.start.x, p.start.y],
                    "to": [p.end.x, p.end.y],
                }
            )
        elif isinstance(p, ArcPiece):
            out.append(
                {
                    "type": "arc",
                    "center": [p.center.x, p.center.y],
                    "radius": p.radius,
                    "start_angle": p.start_angle,
                    "sweep": p.sweep,
                }
            )
        else:
            out.append(
                {"type": "cubic", "points": [[q.x, q.y] for q in p.controls()]}
            )
    return {"pieces": out}


def curve_from_json(text: str) -> CurveSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return curve_from_dict(obj)


def curve_to_json(spec: CurveSpec, indent: int | None = 2) -> str:
    return json.dumps(curve_to_dict(spec), indent=indent)
