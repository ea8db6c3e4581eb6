"""Point classification by two independent oracles that must agree.

The first oracle integrates dz/(z - p) around the curve and rounds the
result to an integer winding number; node-splitting makes each accepted
node's contribution an exact principal logarithm, so the only error is
float round-off tracked in ``error_budget``.  The second oracle counts
transversal crossings of a ray from p and reduces mod 2.  ``classify``
runs both and raises :class:`OracleDisagreement` on any mismatch rather
than guessing.
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

_MIN_CROSS_ANGLE = 1e-4
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_MAX_RAYS = 32
_JOINT_U_TOL = 1e-8
_ISOLATION_FRACTION = 1e-6
# local-parameter offset for probing which side of the ray line the curve
# occupies just before/after a joint hit
_JOINT_PROBE_DU = 1e-3


class Verdict(str, Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    NEAR_CARRIER = "near-carrier"


@dataclass(frozen=True)
class WindingResult:
    """Contour integral of dz/(z - p), normalised by 2*pi*i."""

    point: tuple[float, float]
    integral: complex
    rounded: int
    residual: float
    error_budget: float
    nodes: int

    @property
    def ok(self) -> bool:
        return self.residual + self.error_budget < _RESIDUAL_LIMIT


@dataclass(frozen=True)
class CrossingRecord:
    """One transversal ray/carrier crossing."""

    t: float
    piece: int
    u: float
    point: tuple[float, float]
    angle: float
    through_joint: bool = False


@dataclass(frozen=True)
class Classification:
    point: tuple[float, float]
    verdict: Verdict
    winding: WindingResult | None
    crossings: tuple[CrossingRecord, ...] | None
    ray_direction: tuple[float, float] | None
    rays_tried: int
    carrier_bounds: tuple[float, float]

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
        lo, _ = jc.carrier.distance(p)
        if lo <= 0.0:
            raise PointTooClose(
                f"cannot certify ({p.x!r}, {p.y!r}) away from the carrier"
            )
    pts = np.array([[p.x, p.y]])
    total, nodes, status = _kernels.winding_batch(jc.carrier.kinds, jc.carrier.data, pts)
    if status[0] == _kernels.ON_CARRIER:
        raise PointTooClose(f"({p.x!r}, {p.y!r}) evaluates on the carrier")
    if status[0] == _kernels.NODE_LIMIT:
        raise BudgetNotMet("winding refinement hit its node cap")
    integral = complex(total[0]) / (2j * math.pi)
    rounded = int(round(integral.real))
    residual = abs(integral - rounded)
    budget = float(nodes[0]) * _PER_NODE + _BUDGET_FLOOR
    return WindingResult(
        point=(p.x, p.y),
        integral=integral,
        rounded=rounded,
        residual=residual,
        error_budget=budget,
        nodes=int(nodes[0]),
    )


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
    out = np.empty((_kernels._HIT_CAP, 6))
    nh, status = _kernels.ray_hits_point(
        carrier.kinds, carrier.data, p.x, p.y, vx, vy, out
    )
    if status == _kernels.ON_CARRIER:
        raise DegenerateRay("ray runs along a straight piece")
    if status == _kernels.NODE_LIMIT:
        raise DegenerateRay("ray produced too many candidate hits")

    hits = []
    for row in out[:nh]:
        t, piece, u, tx, ty = row[0], int(row[1]), row[2], row[3], row[4]
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
        floor = 1e-12 * max(1.0, carrier.diam)
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
    lo, _ = jc.carrier.distance(p)
    if lo <= 0.0:
        raise PointTooClose(
            f"cannot certify ({p.x!r}, {p.y!r}) away from the carrier"
        )
    records = _ray_once(jc, p, as_point(direction))
    return len(records) % 2, records


def classify(
    jc: JordanCurve,
    z,
    eps_band: float | None = None,
    max_rays: int = _MAX_RAYS,
    require_both: bool = True,
) -> Classification:
    """Classify z inside/outside/near-carrier with both oracles in agreement.

    Rays start along +x and rotate by the golden angle on each degenerate
    retry.  Any winding/parity mismatch raises :class:`OracleDisagreement`;
    it is never downgraded to a verdict.
    """

    p = as_point(z)
    band = jc.default_eps_band() if eps_band is None else float(eps_band)
    lo, hi = jc.carrier.distance(p)
    if hi < band or lo <= 0.0:
        # hi < band: certified near.  lo <= 0: cannot certify any clearance,
        # so the conservative call is also near-carrier.
        return Classification(
            point=(p.x, p.y),
            verdict=Verdict.NEAR_CARRIER,
            winding=None,
            crossings=None,
            ray_direction=None,
            rays_tried=0,
            carrier_bounds=(lo, hi),
        )

    wind = winding_number(jc, p, check_distance=False)
    if not wind.ok:
        raise BudgetNotMet(
            f"winding residual {wind.residual:.3e} + budget "
            f"{wind.error_budget:.3e} exceeds {_RESIDUAL_LIMIT}"
        )

    records = None
    ray_dir = None
    tried = 0
    last: DegenerateRay | None = None
    for k in range(max_rays):
        theta = k * _GOLDEN_ANGLE
        d = Point(math.cos(theta), math.sin(theta))
        tried = k + 1
        try:
            records = _ray_once(jc, p, d)
            ray_dir = (d.x, d.y)
            break
        except DegenerateRay as exc:
            last = exc
    if records is None:
        if require_both:
            raise last if last is not None else DegenerateRay("no usable ray")
        parity = None
    else:
        parity = len(records) % 2

    if parity is not None and abs(wind.rounded) != parity:
        raise OracleDisagreement((p.x, p.y), wind, parity)

    inside = parity == 1 if parity is not None else wind.rounded != 0
    return Classification(
        point=(p.x, p.y),
        verdict=Verdict.INSIDE if inside else Verdict.OUTSIDE,
        winding=wind,
        crossings=records,
        ray_direction=ray_dir,
        rays_tried=tried,
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
    """Sample windings on a grid twice as fine as the requested resolution."""

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
    total, _, status = _kernels.winding_batch(jc.carrier.kinds, jc.carrier.data, centers)
    winding = np.rint(total.imag / TWO_PI).astype(np.int64)
    residual = np.abs(total / (2j * math.pi) - winding)
    valid = (status == _kernels.OK) & (residual < _RESIDUAL_LIMIT)
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
    own: Verdict | None = None
    if target == "opposite":
        own = classify(jc, p).verdict
        if own is Verdict.NEAR_CARRIER:
            raise PointTooClose("ambiguous side: point is near the carrier")
        want_inside = own is Verdict.OUTSIDE
    else:
        want_inside = target == "inside"
        own = classify(jc, p).verdict
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


def boundary_witnesses(
    jc: JordanCurve,
    params,
    delta_max: float | None = None,
    max_halvings: int = 40,
) -> tuple[Witness, ...]:
    """For each parameter, find inside/outside points within delta of the curve.

    Probes along the normal, halving delta until both probes classify
    cleanly to opposite verdicts.  Raises :class:`WitnessNotFound` if the
    probe scale collapses to the near-carrier band first.
    """

    a, b = jc.interval
    diam = jc.diameter()
    band = jc.default_eps_band()
    start_delta = 0.05 * diam if delta_max is None else float(delta_max)
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
        delta = start_delta
        found = None
        for _ in range(max_halvings):
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
