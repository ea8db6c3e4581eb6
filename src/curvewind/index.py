"""Point classification by two independent oracles that must agree.

The first oracle integrates dz/(z - p) around the curve and rounds the
result to an integer winding number.  Lines and arcs contribute in closed
form, one chord log each (an arc adds a whole turn for points between it
and its chord), and cubics are subdivided until each node's chord log is
exact, so the only error is float round-off tracked in ``error_budget``.
The second oracle counts transversal crossings of a ray from p and
reduces mod 2.  ``classify`` runs both and raises
:class:`OracleDisagreement` on any mismatch rather than guessing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .curves import JordanCurve
from .errors import (
    BudgetNotMet,
    DegenerateRay,
    OracleDisagreement,
    PointTooClose,
    RegionEmpty,
    WitnessNotFound,
)
from .geometry import Point, as_point

__all__ = [
    "Verdict",
    "WindingResult",
    "CrossingRecord",
    "Classification",
    "winding_number",
    "ray_crossing_index",
    "classify",
    "outer_radius",
    "constant_index_radius",
    "RegionGrid",
    "region_grid",
    "region_distance",
    "Witness",
    "boundary_witnesses",
    "segment_integral",
]

TWO_PI = 2.0 * math.pi

# round-off per accepted node: one complex log plus a handful of adds
_PER_NODE = 5e-16
_BUDGET_FLOOR = 1e-14
_RESIDUAL_LIMIT = 0.25

# the least positive float: lo >= it decides lo > 0
_LEAST_POSITIVE = math.ulp(0.0)

_MIN_CROSS_ANGLE = 1e-4
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_MAX_RAYS = 32
_JOINT_U_TOL = 1e-8
_ISOLATION_FRACTION = 1e-6
# local-parameter offset for probing which side of the ray line the curve
# occupies just before/after a joint hit
_JOINT_PROBE_DU = 1e-3
# ray hits nearer the origin than this times the curve's diameter are not
# counted as forward, and joint probes this near the ray line are on it
_RAY_T_MIN = 1e-12
# boundary witnesses start their normal probes this many diameters off the
# curve and halve the offset at most this often
_WITNESS_START = 0.05
_WITNESS_HALVINGS = 40


class Verdict(str, Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    NEAR_CARRIER = "near-carrier"


@dataclass(frozen=True, slots=True)
class WindingResult:
    """Contour integral of dz/(z - p), normalised by 2*pi*i."""

    point: tuple[float, float]
    integral: complex
    rounded: int
    residual: float
    nodes: int

    @property
    def error_budget(self) -> float:
        return _budget(self.nodes)

    @property
    def ok(self) -> bool:
        return _certified(self.residual, self.error_budget)


@dataclass(frozen=True, slots=True)
class CrossingRecord:
    """One transversal ray/carrier crossing."""

    t: float
    piece: int
    u: float
    point: tuple[float, float]
    angle: float
    through_joint: bool = False


@dataclass(frozen=True, slots=True)
class Classification:
    """A verdict with the evidence for it.

    ``carrier_bounds`` is a certified enclosure of the distance from the
    point to the carrier, only as tight as the verdict needed: it settles
    whether the distance reaches the near-carrier band, and it may be
    wider than ``CarrierIndex.distance`` without a threshold would give.
    """

    point: tuple[float, float]
    verdict: Verdict
    winding: WindingResult | None
    crossings: tuple[CrossingRecord, ...] | None
    rays_tried: int
    carrier_bounds: tuple[float, float]

    @property
    def ray_direction(self) -> tuple[float, float] | None:
        """Unit direction of the ray that counted, the last one tried."""

        if self.rays_tried == 0:
            return None
        theta = (self.rays_tried - 1) * _GOLDEN_ANGLE
        return (math.cos(theta), math.sin(theta))

    @property
    def crossing_parity(self) -> int | None:
        if self.crossings is None:
            return None
        return len(self.crossings) % 2

    @property
    def orientation(self) -> int:
        """+1 counterclockwise, -1 clockwise, 0 when not inside."""

        if self.verdict is Verdict.INSIDE and self.winding is not None:
            return 1 if self.winding.rounded > 0 else -1
        return 0


def winding_number(jc: JordanCurve, z, check_distance: bool = True) -> WindingResult:
    """Winding of the curve around z, with a certified round-off budget."""

    p = as_point(z)
    if check_distance:
        lo, _ = jc.carrier.distance(p, _LEAST_POSITIVE)
        if lo <= 0.0:
            raise PointTooClose(
                f"cannot certify ({p.x!r}, {p.y!r}) away from the carrier"
            )
    pts = np.array([[p.x, p.y]])
    total, nodes, status = _kernels.winding_batch(
        jc.carrier.kinds, jc.carrier.geometry, pts
    )
    if status[0] == _kernels.ON_CARRIER:
        raise PointTooClose(f"({p.x!r}, {p.y!r}) evaluates on the carrier")
    integral, rounded, residual, _ = _round_windings(total, nodes)
    return WindingResult(
        point=(p.x, p.y),
        integral=complex(integral[0]),
        rounded=int(rounded[0]),
        residual=float(residual[0]),
        nodes=int(nodes[0]),
    )


def _round_windings(total, nodes):
    """Winding integrals over 2*pi*i, their nearest integers, the distances
    to them and the round-off budgets of ``nodes`` chords: the one rounding
    rule of ``winding_number`` and ``region_grid``."""

    integral = total / (2j * math.pi)
    rounded = np.rint(integral.real)
    residual = np.abs(integral - rounded)
    return integral, rounded.astype(np.int64), residual, _budget(nodes)


def _budget(nodes):
    """Round-off budget of a winding integral summed over ``nodes`` chords."""

    return nodes * _PER_NODE + _BUDGET_FLOOR


def _certified(residual, budget):
    """Whether a rounded winding is certified: within the residual limit
    even after the round-off budget."""

    return residual + budget < _RESIDUAL_LIMIT


def _ray_once(jc: JordanCurve, p: Point, direction: Point):
    """One ray shot: returns sorted transversal crossings or raises DegenerateRay."""

    spec = jc.spec
    n = spec.n_pieces
    carrier = jc.carrier
    norm = direction.norm()
    if norm <= 0.0:
        raise ValueError("ray direction must be nonzero")
    # kernels measure the ray parameter as arc length, so normalise here
    vx, vy = direction.x / norm, direction.y / norm
    found = []
    _, status = _kernels.ray_hits_point(
        carrier.kinds, carrier.data, p.x, p.y, vx, vy, found, _RAY_T_MIN * carrier.diam
    )
    if status == _kernels.ON_CARRIER:
        raise DegenerateRay("ray runs along a straight piece")

    hits = []
    for t, piece, u, tx, ty in found:
        if u >= 1.0 - _JOINT_U_TOL:
            joint = (piece + 1) % n
        elif u <= _JOINT_U_TOL:
            joint = piece
        else:
            joint = None
        hits.append((t, piece, u, tx, ty, joint))
    hits.sort(key=lambda h: h[0])

    iso = _ISOLATION_FRACTION * carrier.diam
    for i in range(1, len(hits)):
        a, b = hits[i - 1], hits[i]
        if b[0] - a[0] <= iso and not (a[5] is not None and a[5] == b[5]):
            raise DegenerateRay(
                f"two hits only {b[0] - a[0]:.3e} apart along the ray",
                record=(a[:3], b[:3]),
            )

    records: list[CrossingRecord] = []
    seen_joints: set[int] = set()
    for t, piece, u, tx, ty, joint in hits:
        hx, hy = p.x + t * vx, p.y + t * vy
        if joint is None:
            tnorm = math.hypot(tx, ty)
            if tnorm <= 0.0:
                raise DegenerateRay("zero tangent at a hit")
            cross = vx * ty - vy * tx
            dot = vx * tx + vy * ty
            angle = math.atan2(abs(cross), abs(dot))
            if angle < _MIN_CROSS_ANGLE:
                raise DegenerateRay(
                    f"grazing hit: tangent within {angle:.2e} rad of the ray"
                )
            records.append(CrossingRecord(t, piece, u, (hx, hy), angle))
            continue
        if joint in seen_joints:
            continue
        seen_joints.add(joint)
        # the curve touches the ray line at a corner; decide by which side
        # the two adjacent branches occupy
        prev_piece = spec.pieces[(joint - 1) % n]
        next_piece = spec.pieces[joint % n]
        q_before = prev_piece.point(1.0 - _JOINT_PROBE_DU)
        q_after = next_piece.point(_JOINT_PROBE_DU)
        s_before = vx * (q_before.y - p.y) - vy * (q_before.x - p.x)
        s_after = vx * (q_after.y - p.y) - vy * (q_after.x - p.x)
        floor = _RAY_T_MIN * carrier.diam
        if abs(s_before) <= floor or abs(s_after) <= floor:
            raise DegenerateRay("joint probe still on the ray line")
        if (q_before.x - p.x) * vx + (q_before.y - p.y) * vy <= 0.0 or (
            q_after.x - p.x
        ) * vx + (q_after.y - p.y) * vy <= 0.0:
            raise DegenerateRay("joint probe fell behind the ray origin")
        if (s_before > 0.0) != (s_after > 0.0):
            angle = math.atan2(
                abs(vx * (q_after.y - q_before.y) - vy * (q_after.x - q_before.x)),
                abs(vx * (q_after.x - q_before.x) + vy * (q_after.y - q_before.y)),
            )
            records.append(
                CrossingRecord(t, piece, u, (hx, hy), angle, through_joint=True)
            )
        # same side: the corner touches the line and retreats, parity 0

    return tuple(records)


def ray_crossing_index(
    jc: JordanCurve, z, direction=(1.0, 0.0)
) -> tuple[int, tuple[CrossingRecord, ...]]:
    """Crossing parity of a single ray; raises DegenerateRay when unsafe."""

    p = as_point(z)
    lo, _ = jc.carrier.distance(p, _LEAST_POSITIVE)
    if lo <= 0.0:
        raise PointTooClose(
            f"cannot certify ({p.x!r}, {p.y!r}) away from the carrier"
        )
    records = _ray_once(jc, p, as_point(direction))
    return len(records) % 2, records


def classify(jc: JordanCurve, z, eps_band: float | None = None) -> Classification:
    """Classify z inside/outside/near-carrier with both oracles in agreement.

    Rays start along +x and rotate by the golden angle on each degenerate
    retry.  Any winding/parity mismatch raises :class:`OracleDisagreement`;
    it is never downgraded to a verdict.  ``eps_band`` defaults to
    ``jc.default_eps_band()``; a band that is not finite and non-negative
    raises ValueError.
    """

    p = as_point(z)
    band = jc.default_eps_band() if eps_band is None else float(eps_band)
    if not (math.isfinite(band) and band >= 0.0):
        raise ValueError(
            f"eps_band must be a finite non-negative number, got {eps_band!r}"
        )
    # a positive band decides lo <= 0 along with hi < band; a band of 0
    # leaves lo <= 0 alone to decide
    lo, hi = jc.carrier.distance(p, max(band, _LEAST_POSITIVE))
    if hi < band or lo <= 0.0:
        # hi < band: certified near.  lo <= 0: cannot certify any clearance,
        # so the conservative call is also near-carrier.
        return Classification(
            point=(p.x, p.y),
            verdict=Verdict.NEAR_CARRIER,
            winding=None,
            crossings=None,
            rays_tried=0,
            carrier_bounds=(lo, hi),
        )

    wind = winding_number(jc, p, check_distance=False)
    if not wind.ok:
        raise BudgetNotMet(
            f"winding residual {wind.residual:.3e} + budget "
            f"{wind.error_budget:.3e} exceeds {_RESIDUAL_LIMIT}"
        )

    for k in range(_MAX_RAYS):
        theta = k * _GOLDEN_ANGLE
        d = Point(math.cos(theta), math.sin(theta))
        try:
            records = _ray_once(jc, p, d)
            break
        except DegenerateRay as exc:
            last = exc
    else:
        raise last
    parity = len(records) % 2
    if abs(wind.rounded) != parity:
        raise OracleDisagreement((p.x, p.y), wind, parity)

    return Classification(
        point=wind.point,
        verdict=Verdict.INSIDE if parity == 1 else Verdict.OUTSIDE,
        winding=wind,
        crossings=records,
        rays_tried=k + 1,
        carrier_bounds=(lo, hi),
    )


def outer_radius(jc: JordanCurve) -> float:
    """Radius R with the whole carrier inside |z| < R, by a length argument.

    max |z| over the carrier is bounded by the sample maximum plus Lipschitz
    slack; the generous extra term (b - a)(1 + M) / (2 pi) keeps R stable
    across reparametrisations.
    """

    a, b = jc.interval
    return jc.carrier.max_radius() + (b - a) * (1.0 + jc.deriv_sup) / TWO_PI


def constant_index_radius(jc: JordanCurve, z) -> float:
    """Radius of a ball around z on which the winding number cannot change.

    The certified carrier clearance: the ball misses the carrier, so the
    winding is locally constant on it.
    """

    p = as_point(z)
    lo, _ = jc.carrier.distance(p)
    if lo <= 0.0:
        raise PointTooClose(
            f"no positive clearance certified at ({p.x!r}, {p.y!r})"
        )
    return lo


@dataclass(frozen=True)
class RegionGrid:
    """Winding numbers on a grid covering the carrier's bounding box."""

    spacing: float
    centers: np.ndarray
    winding: np.ndarray
    valid: np.ndarray


def region_grid(jc: JordanCurve, resolution: float) -> RegionGrid:
    """Sample windings on a grid twice as fine as the requested resolution,
    which must be finite and positive (ValueError otherwise)."""

    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and positive, got {resolution!r}")
    h = resolution / 2.0
    x0, y0, x1, y1 = jc.carrier.bbox
    pad = 3.0 * resolution
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    nx = int(math.ceil((x1 - x0) / h)) + 1
    ny = int(math.ceil((y1 - y0) / h)) + 1
    xs = x0 + h * np.arange(nx)
    ys = y0 + h * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    total, nodes, status = _kernels.winding_batch(
        jc.carrier.kinds, jc.carrier.geometry, centers
    )
    _, winding, residual, budget = _round_windings(total, nodes)
    valid = (status == _kernels.OK) & _certified(residual, budget)
    return RegionGrid(spacing=h, centers=centers, winding=winding, valid=valid)


def region_distance(
    jc: JordanCurve,
    z,
    target: str = "opposite",
    resolution: float | None = None,
    grid: RegionGrid | None = None,
) -> float:
    """Approximate distance from z to the inside/outside region.

    ``target`` is "inside", "outside", or "opposite" (the region not
    containing z).  The approximation error is bounded by the resolution:
    returned values use region samples on a half-resolution grid.
    """

    p = as_point(z)
    res = jc.diameter() / 256.0 if resolution is None else float(resolution)
    if target not in ("inside", "outside", "opposite"):
        raise ValueError(f"unknown target region {target!r}")
    own = classify(jc, p).verdict
    if target == "opposite":
        if own is Verdict.NEAR_CARRIER:
            raise PointTooClose("ambiguous side: point is near the carrier")
        want_inside = own is Verdict.OUTSIDE
    else:
        want_inside = target == "inside"
    if (own is Verdict.INSIDE) == want_inside and own is not Verdict.NEAR_CARRIER:
        return 0.0
    if grid is None:
        grid = region_grid(jc, res)
    sel = grid.valid & ((grid.winding != 0) == want_inside)
    if not sel.any():
        raise RegionEmpty(f"no {target} sample found at resolution {res:.3e}")
    pts = grid.centers[sel]
    return float(np.hypot(pts[:, 0] - p.x, pts[:, 1] - p.y).min())


@dataclass(frozen=True)
class Witness:
    """A boundary point with certified company on both sides."""

    t: float
    on_curve: tuple[float, float]
    inside: tuple[float, float]
    outside: tuple[float, float]
    delta: float


def boundary_witnesses(jc: JordanCurve, params) -> tuple[Witness, ...]:
    """For each parameter, find inside/outside points within delta of the curve.

    Probes along the normal, halving delta until both probes classify
    cleanly to opposite verdicts.  Raises :class:`WitnessNotFound` if the
    probe scale collapses to the near-carrier band first.
    """

    a, b = jc.interval
    band = jc.default_eps_band()
    out: list[Witness] = []
    for t in params:
        t = float(t)
        z = jc.eval(t)
        side = "right" if t < b else "left"
        v = jc.deriv(t, side)
        vn = v.norm()
        if vn <= 0.0:
            raise WitnessNotFound(f"zero tangent at t = {t!r}")
        nx, ny = -v.y / vn, v.x / vn
        delta = _WITNESS_START * jc.diameter()
        found = None
        for _ in range(_WITNESS_HALVINGS):
            if delta < 4.0 * band:
                break
            p1 = Point(z.x + delta * nx, z.y + delta * ny)
            p2 = Point(z.x - delta * nx, z.y - delta * ny)
            try:
                c1 = classify(jc, p1)
                c2 = classify(jc, p2)
            except (DegenerateRay, BudgetNotMet, PointTooClose):
                delta *= 0.5
                continue
            verdicts = {c1.verdict, c2.verdict}
            if verdicts == {Verdict.INSIDE, Verdict.OUTSIDE}:
                pin = p1 if c1.verdict is Verdict.INSIDE else p2
                pout = p2 if c1.verdict is Verdict.INSIDE else p1
                found = Witness(
                    t=t,
                    on_curve=(z.x, z.y),
                    inside=(pin.x, pin.y),
                    outside=(pout.x, pout.y),
                    delta=delta,
                )
                break
            delta *= 0.5
        if found is None:
            raise WitnessNotFound(
                f"no two-sided witness at t = {t!r} down to delta = {delta:.3e}"
            )
        out.append(found)
    return tuple(out)


def segment_integral(z1, z2, zeta) -> complex:
    """Exact integral of dz/(z - zeta) along the segment z1 -> z2.

    A segment subtends less than pi from any point off its line, so the
    principal logarithm of the endpoint ratio is the true integral.
    """

    a = complex(*as_point(z1).as_tuple())
    b = complex(*as_point(z2).as_tuple())
    c = complex(*as_point(zeta).as_tuple())
    w0, w1 = a - c, b - c
    if abs(w0) == 0.0 or abs(w1) == 0.0:
        raise PointTooClose("pole sits on a segment endpoint")
    return cmath.log(w1 / w0)
