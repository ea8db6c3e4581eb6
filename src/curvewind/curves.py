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
    _apply,
    _bernstein,
    _lerp,
    _linear_part,
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
    "transform_curve",
    "curve_to_dict",
    "curve_from_dict",
    "curve_to_json",
    "curve_from_json",
]

# joint gaps are measured against this times the diameter of the pieces'
# bounding box, so a certificate means the same at any scale; closure is
# the joint from the last piece back to the first
JOINT_TOL = 1e-9
# parameters this many interval lengths past an end still evaluate there
EVAL_TOL = 1e-12

# injectivity fails when the closest well-separated pair lands nearer than
# _J1_FACTOR times the local one-step displacement at the witnesses: a true
# crossing drives the chord toward zero while the branches keep moving, a
# merely slow region shrinks both at the same rate and stays clear
_J1_FACTOR = 0.25

_DEFAULT_EPS_FRACTIONS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4)
# validation takes at most this many samples (64 MB of points): eight times
# a 512-piece curve on a unit interval per piece at the default h
_MAX_SAMPLES = 1 << 22
# region and clearance grids take at most this many cells (256 MB of
# centres)
_MAX_GRID_CELLS = 1 << 24
# the smallest diameter of the pieces' bounding box that validation
# accepts: below it, a point a fraction of the diameter off the curve is
# nearer the chord ends than the least normal float, 2**-1022, and the
# winding's complex division no longer returns a finite ratio
_MIN_DIAMETER = 2.0**-1021
# the carrier diameter is the largest distance among this many points:
# every n-th of the centres of this many equal steps of each of n pieces
_SAMPLES_PER_PIECE = 512


def _row_points(kinds, data, piece, u):
    """Points at local parameters ``u`` of the pieces numbered ``piece``.

    ``kinds`` and ``data`` are the flattened pieces of ``_kernels``;
    ``piece`` and ``u`` are 1-D and of one length.  Each kind takes one
    numpy pass over its points with the closed form of its piece's
    ``point``, so a curve point is the same float wherever it is taken:
    validation samples and the diameter's sub-sample.
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
            out[sel] = _lerp(r[0:2], r[2:4], uk).T
        elif k == KIND_ARC:
            ang = r[3] + r[4] * uk
            out[sel, 0] = r[0] + r[2] * np.cos(ang)
            out[sel, 1] = r[1] + r[2] * np.sin(ang)
        else:
            out[sel] = _bernstein(r[0:2], r[2:4], r[4:6], r[6:8], uk).T
    return out


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
        # exact joints, the usual case, pass without measuring the extent
        tol = self.closure_tol if any(self._gaps[:-1]) else 0.0
        for k, gap in enumerate(self._gaps[:-1]):
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

    @functools.cached_property
    def _gaps(self) -> tuple[float, ...]:
        """The gap from the end of each piece to the start of the next, the
        last one's (the closure) to the first's."""

        ps = self.pieces
        return tuple(p.point(1.0).dist(q.point(0.0)) for p, q in zip(ps, ps[1:] + ps[:1]))

    @property
    def closure_gap(self) -> float:
        return self._gaps[-1]

    @property
    def closure_tol(self) -> float:
        """JOINT_TOL times the diameter of ``bbox``, for every joint gap."""

        x0, y0, x1, y1 = self.bbox
        return JOINT_TOL * math.hypot(x1 - x0, y1 - y0)

    @property
    def is_closed(self) -> bool:
        return self.closure_gap <= self.closure_tol

    def _params(self, ts) -> np.ndarray:
        """``ts`` as a float array, or ValueError when one names no point
        of the curve: NaN, or more than ``EVAL_TOL`` interval lengths
        outside [a, b]."""

        ts = np.asarray(ts, dtype=float)
        a, b = self.interval
        tol = EVAL_TOL * (b - a)
        out = ~((ts >= a - tol) & (ts <= b + tol))
        if out.any():
            raise ValueError(f"parameter {float(ts[out][0])!r} outside [{a!r}, {b!r}]")
        return ts

    def eval(self, t: float) -> Point:
        return Point(*self.points([t])[0].tolist())

    def deriv(self, t: float, side: str = "right") -> Point:
        """One-sided derivative in global-parameter units.  Raises
        ValueError where ``points`` does, and for a right derivative at b
        or a left one at a."""

        self._params(t)
        a, b = self.interval
        first, last = self._deriv_ends
        n = self.n_pieces
        scale = n / (b - a)
        s = (t - a) * scale
        if side == "right":
            if t >= last:
                raise ValueError("no right derivative at the interval end")
            k = int(math.floor(s + EVAL_TOL))
        elif side == "left":
            if t <= first:
                raise ValueError("no left derivative at the interval start")
            k = int(math.ceil(s - EVAL_TOL)) - 1
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        k = min(max(k, 0), n - 1)
        u = min(max(s - k, 0.0), 1.0)
        return self.pieces[k].velocity(u).scaled(scale)

    @property
    def _deriv_ends(self) -> tuple[float, float]:
        """(a, b) moved ``EVAL_TOL`` interval lengths inwards: ``deriv``
        takes a left derivative only above the first and a right one only
        below the second."""

        a, b = self.interval
        return a + EVAL_TOL * (b - a), b - EVAL_TOL * (b - a)

    def points(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised evaluation at global parameters (shape (m, 2)).
        Raises ValueError for NaN or a parameter more than ``EVAL_TOL``
        interval lengths outside [a, b]."""

        ts = self._params(ts)
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


def _grid_size(nx: float, ny: float) -> tuple[int, int]:
    """A grid's side lengths in cells, counted in floats that may be inf,
    as ints; ValueError when the grid has more than ``_MAX_GRID_CELLS``
    cells, before anything is built for it."""

    if not nx * ny <= _MAX_GRID_CELLS:
        raise ValueError(
            f"a grid of {nx:.4g} by {ny:.4g} cells has more than "
            f"{_MAX_GRID_CELLS} cells"
        )
    return int(nx), int(ny)


def _lattice(origin, h: float, rows, cols) -> np.ndarray:
    """The points ``origin + h * (cols, rows)`` as an (m, 2) array, ``rows``
    and ``cols`` broadcast together, row-major: ``index.region_grid``'s
    grid points at whole offsets, and ``connectivity.ClearanceGrid``'s cell
    centres at offsets of a whole number and a half."""

    x = origin[0] + h * cols
    y = origin[1] + h * rows
    return np.stack(np.broadcast_arrays(x, y), axis=-1).reshape(-1, 2)


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

    piece = ArcPiece(Point(0.0, 0.0), 1.0, 0.0, math.tau)
    return CurveSpec((piece,), (0.0, math.tau))


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

    Line and arc distances are closed form, and the lower bound takes off
    their round-off (``_kernels._exact_pieces``).  Cubic distances refine
    de Casteljau control boxes until each box that can still hold the
    nearest point has a diagonal of at most ``_kernels._REFINE_REL_TOL``
    times its distance; the lower bound is the least such distance, and the
    upper bound the nearest start point of a box visited.  The node that
    sets the lower bound has such a diagonal, and its start point, which
    lies in its box, has lowered the upper bound already, so (upper -
    lower) is at most ``_REFINE_REL_TOL`` times the lower bound, plus
    round-off.
    ``distance`` and ``distance_batch`` run the same kernel,
    ``_kernels.carrier_batch``, so one point gets one answer either way.
    ``build`` only wraps the flattened pieces and their bbox.  The
    kernel's per-curve arrays, ``geometry``, and the length scale ``diam``
    are each computed on the first read and kept: validation reads
    neither.  ``diam`` is a plain maximum over all pairs of a fixed
    sub-sample of 512 curve points, about a millisecond per curve.

    A caller that only asks whether the distance is at least some ``need``
    passes it, and each point stops refining once the answer is certain:
    when its upper bound falls below ``need``, or when the distances of its
    finished refinement nodes and the boxes of its live ones are all at
    least ``need``.  A child's control box lies inside its parent's, so
    the full lower bound is no smaller than that.  The enclosure returned
    then contains the full one, and ``lo >= need`` and ``hi < need`` are
    what the full enclosure gives.

    A caller that wants only the least distance over a set of points calls
    ``least_distance``.  A point stops refining once the distances of its
    finished nodes and the boxes of its live ones are all above the least
    upper bound of any point so far; the point with the least lower bound
    never stops, so the minimum is the full query's bit for bit.
    """

    kinds: np.ndarray
    data: np.ndarray
    bbox: tuple[float, float, float, float]

    @classmethod
    def build(cls, spec: CurveSpec) -> "CarrierIndex":
        """The index of ``spec``."""

        kinds, data = spec._rows
        return cls(kinds=kinds, data=data, bbox=spec.bbox)

    def distance(
        self, z, need: float | None = None, chords: list | None = None
    ) -> tuple[float, float]:
        """Certified [lower, upper] enclosure of the distance to the carrier,
        only as tight as deciding ``lower >= need`` takes when ``need`` is
        given.  An empty list ``chords`` collects the winding chords of the
        cubic refinement, which ``_kernels.winding_batch`` sums where
        ``lower > 0`` (``_kernels`` module docstring)."""

        p = as_point(z)
        return _kernels.carrier_dist_point(
            self.kinds, self.data, None, None, p.x, p.y, self.geometry, need, chords
        )

    def distance_batch(
        self, pts: np.ndarray, need=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``distance`` for many points; ``need`` is one number or one per
        point."""

        return _kernels.carrier_batch(
            self.kinds, self.data, None, None, pts, self.geometry, need
        )

    def least_distance(self, pts: np.ndarray) -> float:
        """``distance_batch(pts)[0].min()``, refining only the points that
        can still hold the minimum."""

        lo, _ = _kernels.carrier_batch(
            self.kinds, self.data, None, None, pts, self.geometry, least=True
        )
        return float(lo.min())

    @functools.cached_property
    def geometry(self) -> _kernels.CarrierGeometry:
        """The kernels' per-curve arrays (``_kernels.carrier_geometry``)."""

        return _kernels.carrier_geometry(self.kinds, self.data)

    @functools.cached_property
    def diam(self) -> float:
        """The curve's length scale: the float sqrt(max((x_i - x_j)**2 +
        (y_i - y_j)**2)) over the pairs i <= j of the points that
        ``_SAMPLES_PER_PIECE`` describes, 64 rows of pairs at a time, on the
        points scaled as in ``_kernels.pair_scan``: no square overflows."""

        s = _SAMPLES_PER_PIECE
        piece, k = divmod(np.arange(s) * self.kinds.shape[0], s)
        xy = _row_points(self.kinds, self.data, piece, (k + 0.5) / s)
        e = math.frexp(float(np.max(xy.max(axis=0) - xy.min(axis=0))))[1]
        x, y = np.ldexp(xy, -e).T
        sq = 0.0
        for i in range(0, s, 64):
            dx, dy = x[i : i + 64, None] - x[i:], y[i : i + 64, None] - y[i:]
            sq = max(sq, float((dx * dx + dy * dy).max()))
        return math.ldexp(math.sqrt(sq), e)

    def max_radius(self) -> float:
        """Upper bound for max |z| over the carrier, from the pieces.

        A line is farthest from the origin at an end, and a cubic lies in
        the convex hull of its control points.  An arc reaches |c| + r
        where its sweep holds the direction of its centre c from the
        origin, and is farthest at an end otherwise; its ends are computed
        points, so they get a slack for the round-off of the end angle, cos
        and sin.  A norm rounds by at most an ulp and |c| + r by two, so the
        maximum is rounded up by more than that.
        """

        geo = self.geometry
        eps = np.finfo(float).eps
        nl = geo.line.shape[1]
        cx, cy, r, a0, sign, span, e0x, e0y, e1x, e1y = geo.arc
        c = np.hypot(cx, cy)
        far = _kernels._in_sweep(cx, cy, a0, sign, span)
        ends = np.maximum(np.hypot(e0x, e0y), np.hypot(e1x, e1y))
        ends += 4.0 * eps * (c + r * (2.0 + np.abs(a0) + span))
        m = max(
            np.abs(np.concatenate([geo.e0[:nl], geo.e1[:nl]])).max(initial=0.0),
            np.where(far, c + r, ends).max(initial=0.0),
            np.hypot(geo.ctl[:, 0], geo.ctl[:, 1]).max(initial=0.0),
        )
        return float(np.nextafter(m * (1.0 + 2.0 * eps), np.inf))


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

    def diameter(self) -> float:
        return self.carrier.diam

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


def _crossing_polyline(c: CurveSpec, ts, xy):
    """The closed polyline for ``polyline_crossing`` and its parameters:
    the samples ``xy`` at ``ts`` of every piece but a line, which enters as
    its start point at its start parameter."""

    kinds, data = c._rows
    a, b = c.interval
    n = c.n_pieces
    ks = np.clip(np.floor((ts - a) * n / (b - a)).astype(int), 0, n - 1)
    keep = kinds[ks] != KIND_LINE
    lines = np.flatnonzero(kinds == KIND_LINE)
    order = np.argsort(np.concatenate([ks[keep], lines]), kind="stable")
    pts = np.concatenate([xy[keep], data[lines, :2]])[order]
    params = np.concatenate([ts[keep], a + lines * ((b - a) / n)])[order]
    return pts, params


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
    Raises ValueError, before sampling, for an h that is not finite and
    positive or that would take more than ``_MAX_SAMPLES`` samples, and
    for a curve whose pieces' bounding box has a diameter below
    ``_MIN_DIAMETER`` (2**-1021, about 4.5e-308).
    """

    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("sample resolution h must be positive")
    a, b = c.interval
    period = b - a
    steps = period / h
    if not (math.isfinite(steps) and max(steps, 8 * c.n_pieces) <= _MAX_SAMPLES):
        raise ValueError(
            f"h={h!r} on an interval of length {period!r} with {c.n_pieces} "
            f"pieces takes more than {_MAX_SAMPLES} samples"
        )
    x0, y0, x1, y1 = c.bbox
    diam = math.hypot(x1 - x0, y1 - y0)
    if not diam >= _MIN_DIAMETER:
        raise ValueError(
            f"a curve of diameter {diam!r} is smaller than the least "
            f"supported, {_MIN_DIAMETER!r}"
        )
    gap = c.closure_gap
    tol = c.closure_tol
    if gap > tol:
        raise ClosureFailure(c.pieces[0].point(0.0), c.pieces[-1].point(1.0), gap, tol)
    lows, highs = _speed_profile(c)
    flags = tuple(lo > 0.0 for lo in lows)
    if require_smooth and not all(flags):
        raise NonSmoothPiece(flags.index(False))

    n_samp = max(int(math.ceil(steps)), 8 * c.n_pieces)
    h_eff = period / n_samp
    ts = a + h_eff * np.arange(n_samp)
    xy = c.points(ts)

    eps_levels = np.array([f * period for f in _DEFAULT_EPS_FRACTIONS])
    min_gap, i1, i2, deltas = _kernels.pair_scan(xy, ts, h, a, b, eps_levels)
    loc1 = float(np.hypot(*(xy[(i1 + 1) % n_samp] - xy[i1])))
    loc2 = float(np.hypot(*(xy[(i2 + 1) % n_samp] - xy[i2])))
    threshold = _J1_FACTOR * min(loc1, loc2) * (h / h_eff)
    # a chord of 0 between samples at least h apart is a collision whatever
    # the threshold, which is itself 0 where consecutive samples coincide
    if min_gap < threshold or min_gap == 0.0:
        raise J1Failure(float(ts[i1]), float(ts[i2]), float(min_gap), threshold)
    # a transversal crossing can fall between samples, half a step from the
    # nearest sample pair; the sample polyline still crosses itself there.
    # A line piece enters as its start point alone, so the polyline runs
    # along the line itself and not along its rounded samples, between
    # which a vertex exactly on the line could hide
    pts, params = _crossing_polyline(c, ts, xy)
    c1, c2 = _kernels.polyline_crossing(pts)
    if c1 >= 0:
        raise J1Failure(float(params[c1]), float(params[c2]), 0.0, threshold)

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
    carrier = CarrierIndex.build(c)
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


@dataclass(frozen=True)
class Affine:
    """Invertible affine map x' = A x + t, stored row-major (a b; c d) + (e, f)."""

    coeffs: tuple[float, float, float, float, float, float]

    @property
    def det(self) -> float:
        a, b, c, d, _, _ = self.coeffs
        return a * d - b * c

    def apply(self, p) -> Point:
        return _apply(self.coeffs, as_point(p))

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
    (a, b, c, d), _ = _linear_part(t.coeffs)
    if abs(a * d - b * c) <= 1e-12 * (a * a + b * b + c * c + d * d):
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


# the JSON keys of a line and an arc, in the order of the piece's
# arguments: (key, parser, piece attribute); a cubic is its list of four
# control points under "points"
_SCHEMA = {
    "line": (LinePiece, (("from", _parse_xy, "start"), ("to", _parse_xy, "end"))),
    "arc": (ArcPiece, (("center", _parse_xy, "center"),
                       ("radius", _parse_num, "radius"),
                       ("start_angle", _parse_num, "start_angle"),
                       ("sweep", _parse_num, "sweep"))),
}


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
            # a list or object "type" is no key of the table
            if isinstance(kind, str) and kind in _SCHEMA:
                cls, fields = _SCHEMA[kind]
                pieces.append(
                    cls(*(parse(item.get(k), f"{where}.{k}") for k, parse, _ in fields))
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
        for kind, (cls, fields) in _SCHEMA.items():
            if isinstance(p, cls):
                row = {"type": kind}
                for key, _, attr in fields:
                    val = getattr(p, attr)
                    row[key] = [val.x, val.y] if isinstance(val, Point) else val
                break
        else:
            row = {"type": "cubic", "points": [[q.x, q.y] for q in p.controls()]}
        out.append(row)
    return {"pieces": out}


def curve_from_json(text: str) -> CurveSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return curve_from_dict(obj)


def curve_to_json(spec: CurveSpec, indent: int | None = 2) -> str:
    return json.dumps(curve_to_dict(spec), indent=indent)
