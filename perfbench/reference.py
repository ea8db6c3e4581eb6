"""Reference computations made apart from curvewind.

Everything here reads curves from their JSON dict (``{"pieces": [...]}``)
and uses only numpy and scipy, so a fault in the library cannot hide
itself by agreeing with its own output.

* :class:`RefCurve` evaluates line, arc and cubic pieces with its own
  formulas, flattens the curve into a dense closed polyline with a proven
  chordal error bound ``err``, and answers even-odd parity and distance
  bounds against that polyline.  Any point whose polyline distance exceeds
  ``err`` sits on the same side of the true curve as of the polyline.
* :func:`scan_violations` re-checks a J1/J2 certificate with a k-d tree
  over the same samples the chord scan used.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

TWO_PI = 2.0 * math.pi


def piece_points(piece: dict, u: np.ndarray) -> np.ndarray:
    """Points of one JSON piece at local parameters u in [0, 1]."""

    u = np.asarray(u, dtype=float)
    kind = piece["type"]
    if kind == "line":
        p0 = np.asarray(piece["from"], dtype=float)
        p1 = np.asarray(piece["to"], dtype=float)
        return p0 + u[:, None] * (p1 - p0)
    if kind == "arc":
        cx, cy = piece["center"]
        ang = piece["start_angle"] + piece["sweep"] * u
        r = piece["radius"]
        return np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
    if kind == "cubic":
        c = np.asarray(piece["points"], dtype=float)
        v = 1.0 - u[:, None]
        w = u[:, None]
        return v**3 * c[0] + 3.0 * v * v * w * c[1] + 3.0 * v * w * w * c[2] + w**3 * c[3]
    raise ValueError(f"unknown piece type {kind!r}")


def _piece_samples(piece: dict, target_err: float, max_step: float) -> tuple[int, float]:
    """Samples per piece and the chordal error bound they give.

    Lines are exact with any count; they are cut into steps of at most
    ``max_step`` so that the nearest-vertex distance bound stays tight.
    """

    kind = piece["type"]
    if kind == "line":
        length = float(np.hypot(*np.subtract(piece["to"], piece["from"])))
        return max(1, int(math.ceil(length / max_step))), 0.0
    if kind == "arc":
        r, sweep = float(piece["radius"]), abs(float(piece["sweep"]))
        # the sagitta of a step of angle a is 2 r sin^2(a / 4)
        step = 4.0 * math.asin(min(1.0, math.sqrt(target_err / (2.0 * r))))
        m = max(4, int(math.ceil(sweep / step)))
        return m, 2.0 * r * math.sin(sweep / (4.0 * m)) ** 2
    c = np.asarray(piece["points"], dtype=float)
    # |B''(u)| <= 6 max(|p0 - 2p1 + p2|, |p1 - 2p2 + p3|); a chord over a
    # parameter step du stays within max|B''| du^2 / 8 of the arc
    m2 = 6.0 * max(
        float(np.hypot(*(c[0] - 2 * c[1] + c[2]))),
        float(np.hypot(*(c[1] - 2 * c[2] + c[3]))),
    )
    m = max(4, int(math.ceil(math.sqrt(m2 / (8.0 * target_err)))))
    return m, m2 / (8.0 * m * m)


def _seg_dist(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from one point p to each segment a[i] -> b[i]."""

    e = b - a
    den = np.einsum("ij,ij->i", e, e)
    t = np.einsum("ij,ij->i", p - a, e) / np.where(den > 0.0, den, 1.0)
    t = np.clip(t, 0.0, 1.0)
    q = a + t[:, None] * e
    return np.hypot(p[0] - q[:, 0], p[1] - q[:, 1])


class RefCurve:
    """A curve read from its JSON dict, with its own evaluation and tests."""

    def __init__(self, obj: dict, interval: tuple[float, float] | None = None,
                 rel_err: float = 1e-7):
        self.pieces = list(obj["pieces"])
        n = len(self.pieces)
        self.interval = (0.0, float(n)) if interval is None else tuple(map(float, interval))
        span = np.concatenate([piece_points(p, np.linspace(0.0, 1.0, 17)) for p in self.pieces])
        self.scale = float(max(np.ptp(span[:, 0]), np.ptp(span[:, 1]), 1e-300))
        target = rel_err * self.scale
        chunks, errs = [], []
        for piece in self.pieces:
            m, e = _piece_samples(piece, target, 1e-3 * self.scale)
            chunks.append(piece_points(piece, np.arange(m) / m))
            errs.append(e)
        self.vertices = np.concatenate(chunks, axis=0)
        # a few ulps of the coordinates on top of the analytic bound
        self.err = max(errs) + 64.0 * np.finfo(float).eps * self.scale
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        self._a, self._b = a, b
        self.seg_max = float(np.hypot(*(b - a).T).max())
        self._tree = cKDTree(a)
        x, y = a[:, 0], a[:, 1]
        self.area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        self.perimeter = float(np.hypot(*(b - a).T).sum())
        self.bbox = (float(x.min()), float(y.min()), float(x.max()), float(y.max()))

    # -- evaluation ------------------------------------------------------

    def points(self, ts: np.ndarray) -> np.ndarray:
        """Curve points at global parameters, piece k on the k-th subinterval."""

        ts = np.asarray(ts, dtype=float)
        a, b = self.interval
        n = len(self.pieces)
        s = (ts - a) * n / (b - a)
        k = np.clip(np.floor(s).astype(int), 0, n - 1)
        out = np.empty((ts.shape[0], 2))
        for j in np.unique(k):
            sel = k == j
            out[sel] = piece_points(self.pieces[j], s[sel] - j)
        return out

    def tangents(self, ts: np.ndarray, du: float = 1e-7) -> np.ndarray:
        """Unit tangents by a central difference inside each piece."""

        ts = np.asarray(ts, dtype=float)
        a, b = self.interval
        step = du * (b - a) / len(self.pieces)
        lo = np.maximum(ts - step, a)
        hi = np.minimum(ts + step, b)
        d = self.points(hi) - self.points(lo)
        return d / np.hypot(d[:, 0], d[:, 1])[:, None]

    def closure_gap(self) -> float:
        first = piece_points(self.pieces[0], np.array([0.0]))[0]
        last = piece_points(self.pieces[-1], np.array([1.0]))[0]
        return float(np.hypot(*(last - first)))

    # -- side and distance -------------------------------------------------

    def parity(self, pts: np.ndarray) -> np.ndarray:
        """Even-odd crossing count of the +x ray against the polyline, mod 2."""

        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        out = np.zeros(pts.shape[0], dtype=np.int64)
        ax, ay = self._a[:, 0], self._a[:, 1]
        bx, by = self._b[:, 0], self._b[:, 1]
        ys, inv = np.unique(pts[:, 1], return_inverse=True)
        for r, y in enumerate(ys):
            m = (ay > y) != (by > y)
            xs = ax[m] + (y - ay[m]) * (bx[m] - ax[m]) / (by[m] - ay[m])
            xs.sort()
            rows = np.nonzero(inv == r)[0]
            right = xs.shape[0] - np.searchsorted(xs, pts[rows, 0], side="right")
            out[rows] = right % 2
        return out

    def poly_distance(self, pts: np.ndarray, exact_below: float) -> tuple[np.ndarray, np.ndarray]:
        """Distance to the polyline: (lower bound, upper bound), exact below a level.

        The nearest vertex is at most half a segment from the nearest point
        of any segment, so ``d_vertex - seg_max/2`` is a lower bound.  Points
        whose bound falls under ``exact_below`` get the exact distance from
        every segment that has an endpoint inside that reach.
        """

        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        upper, _ = self._tree.query(pts)
        lower = upper - 0.5 * self.seg_max
        nv = self.vertices.shape[0]
        for i in np.nonzero(lower < exact_below)[0]:
            reach = upper[i] + 0.5 * self.seg_max * (1.0 + 1e-9)
            near = np.asarray(self._tree.query_ball_point(pts[i], reach), dtype=np.int64)
            idx = np.concatenate([near, (near - 1) % nv])
            lower[i] = upper[i] = _seg_dist(pts[i], self._a[idx], self._b[idx]).min()
        return np.maximum(lower, 0.0), upper

    def distance_bounds(self, pts: np.ndarray, exact_below: float) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) bounds on the distance to the true curve."""

        lower, upper = self.poly_distance(pts, exact_below)
        return np.maximum(lower - self.err, 0.0), upper + self.err

    def sides(self, pts: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray]:
        """Reference winding (0 or +1, curves are counter-clockwise) and a
        mask of the points far enough from the curve to trust it."""

        lower, _ = self.distance_bounds(pts, self.err + margin)
        return self.parity(pts), lower > margin


def star_shaped(obj: dict, samples_per_piece: int = 64) -> bool:
    """Strictly increasing polar angle about the origin on dense samples.

    A closed loop with this property meets every ray from the origin once,
    so it is simple.
    """

    u = np.arange(samples_per_piece) / samples_per_piece
    pts = np.concatenate([piece_points(p, u) for p in obj["pieces"]])
    ang = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    steps = np.diff(np.append(ang, ang[0] + TWO_PI))
    return bool(np.all(steps > 0.0))


def scan_samples(ref: RefCurve, n_pieces: int, h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The chord scan's sample grid: ceil(period/h) steps, at least 8 a piece."""

    a, b = ref.interval
    period = b - a
    n = max(int(math.ceil(period / h)), 8 * n_pieces)
    h_eff = period / n
    ts = a + h_eff * np.arange(n)
    return ts, ref.points(ts), h_eff


def scan_violations(ref: RefCurve, n_pieces: int, h: float, min_gap: float,
                    j2, witness: tuple[float, float] | None = None) -> list[str]:
    """Problems with a J1/J2 certificate, as found by a k-d tree search.

    * no pair with wrap-aware separation >= h lies closer than min_gap,
      and some such pair lies at min_gap;
    * the witness pair, when given, is admissible and its distance is
      min_gap (the indices may differ from the scan's, the distance may not);
    * the inverse-modulus table is nondecreasing.
    """

    rel = 1e-9
    problems = []
    ts, xy, _ = scan_samples(ref, n_pieces, h)
    a, b = ref.interval
    period = b - a
    pairs = cKDTree(xy).query_pairs(min_gap * (1.0 + rel), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    dt = np.abs(ts[j] - ts[i])
    ws = np.minimum(dt, period - dt)
    d = np.hypot(*(xy[j] - xy[i]).T)
    below = (ws >= h * (1.0 + rel)) & (d < min_gap * (1.0 - rel))
    if below.any():
        k = int(np.argmin(np.where(below, d, np.inf)))
        problems.append(f"admissible pair at distance {d[k]:.6e} < min_gap {min_gap:.6e}")
    if not np.any(ws >= h * (1.0 - rel)):
        problems.append(f"no admissible pair at distance min_gap {min_gap:.6e}")
    if witness is not None:
        w = ref.points(np.array(witness, dtype=float))
        wd = float(np.hypot(*(w[1] - w[0])))
        dt = abs(witness[1] - witness[0])
        if min(dt, period - dt) < h * (1.0 - rel):
            problems.append(f"witness separation {min(dt, period - dt):.3e} < h {h:.3e}")
        if abs(wd - min_gap) > rel * min_gap + 1e-15 * ref.scale:
            problems.append(f"witness distance {wd:.12e} != min_gap {min_gap:.12e}")
    deltas = [float(x[1]) for x in j2]
    if any(d1 < d0 for d0, d1 in zip(deltas, deltas[1:])):
        problems.append(f"J2 table decreases: {deltas}")
    return problems


def unit_circle_violations(h: float, min_gap: float, j2: tuple) -> list[str]:
    """Closed forms on the unit circle parametrised by angle on [0, 2 pi]."""

    n = max(int(math.ceil(TWO_PI / h)), 8)
    h_eff = TWO_PI / n
    problems = []
    want = 2.0 * math.sin(h_eff)
    if abs(min_gap - want) > 1e-9 * want:
        problems.append(f"circle min_gap {min_gap!r}, closed form {want!r}")
    for eps, delta in j2:
        want = 2.0 * math.sin(math.ceil(eps / h_eff - 1e-9) * h_eff / 2.0)
        if abs(delta - want) > 1e-9 * want:
            problems.append(f"circle J2 delta({eps!r}) = {delta!r}, closed form {want!r}")
    return problems
