"""Point classification by two independent oracles that must agree.

The first oracle integrates dz/(z - p) around the curve and rounds the
result to an integer winding number.  Lines and arcs contribute in closed
form, one chord log each (an arc adds a whole turn for points between it
and its chord), and cubics are subdivided until each node's chord log is
exact, so the only error is float round-off tracked in ``error_budget``.
``winding_number`` and ``classify`` first certify the point's clearance
with a threshold carrier-distance query, which splits every cubic node
whose box holds the point just as the winding does; that query hands over
those chords, and ``_kernels.winding_batch`` sums them with the rest
without refining the cubics again, to the same floats as its own
refinement, which ``region_grid`` runs on its grid alone.
The second oracle counts the signed crossings of the +x ray from p as
side changes (``_kernels.ray_hits_point``): with s = (f >= 0) for a
curve point's offset f from the ray's line, a stretch of curve wholly
ahead of p adds s(start) - s(end), stretches behind p or on one side of
the line add nothing, and only those that straddle both lines through p
are split.  The index changes by +-1 wherever the curve crosses a line
(the paper's Proposition jun04p1), so the count is the winding number
itself, and exactly: the sum telescopes over shared end floats, p's
certified clearance lo > 0 keeps every ahead or behind decision at least
lo from p, and tangencies and runs along the ray need no special case.
No ray is retried; a cubic that the subdivision cap cannot place raises
:class:`PointTooClose`, as ``winding_number`` does on the carrier.
``classify`` runs both and raises :class:`OracleDisagreement` on any
mismatch rather than guessing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .curves import JordanCurve, _grid_size, _lattice
from .errors import (
    BudgetNotMet,
    OracleDisagreement,
    PointTooClose,
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

# round-off per accepted node: one complex log plus a handful of adds
_PER_NODE = 5e-16
_BUDGET_FLOOR = 1e-14
_RESIDUAL_LIMIT = 0.25

# the least positive float: lo >= it decides lo > 0
_LEAST_POSITIVE = math.ulp(0.0)

# boundary witnesses start their normal probes this many diameters off the
# curve and halve the offset until it is below four times the band
_WITNESS_START = 0.05


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
    """One counted stretch of a ray's crossing count: the curve passes
    across the ray within parameters [u0, u1] of ``piece``, ahead of the
    ray's origin.  ``sign`` is +1 where it passes from the ray's right (or
    the ray's line) to its left, and -1 the other way.  A gap between the
    end floats of pieces k and k + 1 is recorded on piece k as [1, 1]."""

    piece: int
    u0: float
    u1: float
    sign: int


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
        """Unit direction of the ray that counted: +x, when one did."""

        return (1.0, 0.0) if self.rays_tried else None

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


def _require_clear(jc: JordanCurve, p: Point) -> list:
    """Raise PointTooClose unless p has a certified positive clearance;
    returns the winding chords of the query that certified it."""

    chords: list = []
    lo, _ = jc.carrier.distance(p, _LEAST_POSITIVE, chords)
    if lo <= 0.0:
        raise PointTooClose(f"cannot certify ({p.x!r}, {p.y!r}) away from the carrier")
    return chords


def winding_number(jc: JordanCurve, z) -> WindingResult:
    """Winding of the curve around z, with a certified round-off budget."""

    p = as_point(z)
    return _winding(jc, p, _require_clear(jc, p))


def _winding(jc: JordanCurve, p: Point, chords: list) -> WindingResult:
    """``winding_number`` at a point whose positive clearance a threshold
    distance query certified, from the cubic chords that query collected:
    the cubics are not refined again."""

    ci = jc.carrier
    pts = np.array([[p.x, p.y]])
    total, nodes, status = _kernels.winding_batch(ci.kinds, ci.geometry, pts, chords)
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
    """The counted stretches of the ray from p along ``direction``, as
    records in piece order; raises PointTooClose where a cubic cannot be
    placed within the kernel's subdivision cap."""

    carrier = jc.carrier
    norm = direction.norm()
    if norm <= 0.0:
        raise ValueError("ray direction must be nonzero")
    # the arc rule compares ray parameters with radii, so normalise here
    hits = []
    _, status = _kernels.ray_hits_point(
        carrier.geometry, p.x, p.y, direction.x / norm, direction.y / norm, hits
    )
    if status == _kernels.ON_CARRIER:
        raise PointTooClose(f"cannot place the ray's crossings from ({p.x!r}, {p.y!r})")
    return tuple(CrossingRecord(*h) for h in hits)


def ray_crossing_index(
    jc: JordanCurve, z, direction=(1.0, 0.0)
) -> tuple[int, tuple[CrossingRecord, ...]]:
    """Crossing parity of a single ray and its counted stretches; the signs
    sum to the winding number."""

    p = as_point(z)
    _require_clear(jc, p)
    records = _ray_once(jc, p, as_point(direction))
    return len(records) % 2, records


def classify(jc: JordanCurve, z, eps_band: float | None = None) -> Classification:
    """Classify z inside/outside/near-carrier with both oracles in agreement.

    The ray runs along +x.  A signed crossing count other than the rounded
    winding, or than 0 or +-1 (a Jordan curve's index), raises
    :class:`OracleDisagreement`; it is never downgraded to a verdict.
    ``eps_band`` defaults to ``jc.default_eps_band()``; a band that is not
    finite and non-negative raises ValueError.
    """

    p = as_point(z)
    band = jc.default_eps_band() if eps_band is None else float(eps_band)
    if not (math.isfinite(band) and band >= 0.0):
        raise ValueError(
            f"eps_band must be a finite non-negative number, got {band!r}"
        )
    # a positive band decides lo <= 0 along with hi < band; a band of 0
    # leaves lo <= 0 alone to decide.  The query keeps the chords of its
    # cubic refinement, which are the winding's wherever lo > 0
    chords: list = []
    lo, hi = jc.carrier.distance(p, max(band, _LEAST_POSITIVE), chords)
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

    wind = _winding(jc, p, chords)
    if not wind.ok:
        raise BudgetNotMet(
            f"winding residual {wind.residual:.3e} + budget "
            f"{wind.error_budget:.3e} exceeds {_RESIDUAL_LIMIT}"
        )

    records = _ray_once(jc, p, Point(1.0, 0.0))
    signed = sum(r.sign for r in records)
    if signed != wind.rounded or abs(signed) > 1:
        raise OracleDisagreement((p.x, p.y), wind, signed)

    return Classification(
        point=wind.point,
        verdict=Verdict.INSIDE if signed else Verdict.OUTSIDE,
        winding=wind,
        crossings=records,
        rays_tried=1,
        carrier_bounds=(lo, hi),
    )


def outer_radius(jc: JordanCurve) -> float:
    """Radius R with the whole carrier inside |z| < R, by a length argument.

    max |z| over the carrier is bounded from the pieces
    (``CarrierIndex.max_radius``); the generous extra term
    (b - a)(1 + M) / (2 pi) keeps R stable across reparametrisations.
    """

    a, b = jc.interval
    return jc.carrier.max_radius() + (b - a) * (1.0 + jc.deriv_sup) / math.tau


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
    """Winding numbers on a grid covering the carrier's bounding box.

    The grid points are ``origin + spacing * (j, i)`` for ``j < shape[1]``
    and ``i < shape[0]``, row by row; ``centers`` rebuilds them on each
    access, with the expressions ``region_grid`` sampled them at.
    """

    origin: tuple[float, float]
    spacing: float
    shape: tuple[int, int]
    winding: np.ndarray
    valid: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return _lattice(self.origin, self.spacing, *np.indices(self.shape, sparse=True))


def region_grid(jc: JordanCurve, resolution: float) -> RegionGrid:
    """Sample windings on a grid twice as fine as the requested resolution,
    which must be finite, positive after halving and give at most
    ``curves._MAX_GRID_CELLS`` points (ValueError otherwise)."""

    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and positive, got {resolution!r}")
    h = resolution / 2.0
    if not h > 0.0:
        raise ValueError(f"resolution {resolution!r} halves to 0")
    x0, y0, x1, y1 = jc.carrier.bbox
    pad = 3.0 * resolution
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    nx, ny = _grid_size(np.ceil((x1 - x0) / h) + 1, np.ceil((y1 - y0) / h) + 1)
    pts = _lattice((x0, y0), h, *np.indices((ny, nx), sparse=True))
    ci = jc.carrier
    total, nodes, status = _kernels.winding_batch(ci.kinds, ci.geometry, pts)
    _, winding, residual, budget = _round_windings(total, nodes)
    valid = (status == _kernels.OK) & _certified(residual, budget)
    return RegionGrid(
        origin=(x0, y0), spacing=h, shape=(ny, nx), winding=winding, valid=valid
    )


def region_distance(jc: JordanCurve, z, target: str = "opposite") -> float:
    """Distance from z to the inside or the outside region.

    ``target`` is "inside", "outside", or "opposite" (the region not
    containing z; PointTooClose for a near-carrier z).  Returns 0 where
    ``classify`` puts z in the target, and otherwise the upper end of
    ``jc.carrier.distance(z)``: the carrier is the boundary of both
    regions, so a point's distance to the other region is its distance to
    the carrier.  A near-carrier z may lie in the target already, so for
    it the value is an upper bound.
    """

    p = as_point(z)
    if target not in ("inside", "outside", "opposite"):
        raise ValueError(f"unknown target region {target!r}")
    own = classify(jc, p).verdict
    if target == "opposite":
        if own is Verdict.NEAR_CARRIER:
            raise PointTooClose("ambiguous side: point is near the carrier")
    elif own is (Verdict.INSIDE if target == "inside" else Verdict.OUTSIDE):
        return 0.0
    return jc.carrier.distance(p)[1]


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

    # the right derivative, but the left one where deriv has no right one
    last = jc.spec._deriv_ends[1]
    band = jc.default_eps_band()
    out: list[Witness] = []
    for t in params:
        t = float(t)
        z = jc.eval(t)
        side = "right" if t < last else "left"
        v = jc.deriv(t, side)
        vn = v.norm()
        if vn <= 0.0:
            raise WitnessNotFound(f"zero tangent at t = {t!r}")
        nx, ny = -v.y / vn, v.x / vn
        delta = _WITNESS_START * jc.diameter()
        found = None
        # a band that underflows to 0 (diameters below about 1e-317) leaves
        # delta reaching 0 to end the loop
        while delta >= 4.0 * band and delta > 0.0:
            p1 = Point(z.x + delta * nx, z.y + delta * ny)
            p2 = Point(z.x - delta * nx, z.y - delta * ny)
            try:
                c1 = classify(jc, p1)
                c2 = classify(jc, p2)
            except (BudgetNotMet, PointTooClose):
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

    A segment subtends less than pi from any point off it, so the
    principal logarithm of the endpoint ratio is the true integral.  A pole
    on the segment, where no integral exists, raises PointTooClose.
    """

    a = complex(*as_point(z1).as_tuple())
    b = complex(*as_point(z2).as_tuple())
    c = complex(*as_point(zeta).as_tuple())
    w0, w1 = a - c, b - c
    if abs(w0) == 0.0 or abs(w1) == 0.0:
        raise PointTooClose("pole sits on a segment endpoint")
    # the ends are collinear with the pole and on opposite sides of it
    cross = w0.real * w1.imag - w0.imag * w1.real
    dot = w0.real * w1.real + w0.imag * w1.imag
    if cross == 0.0 and dot < 0.0:
        raise PointTooClose("pole sits inside the segment")
    return cmath.log(w1 / w0)
