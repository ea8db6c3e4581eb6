"""Numeric kernels for winding, ray casting, carrier distance, and scans.

Pieces are flattened into ``kinds`` (int8) and ``data`` (float64, n x 8)
rows before hitting these functions:

* line : x0, y0, x1, y1
* arc  : cx, cy, r, start_angle, sweep
* cubic: x0, y0, x1, y1, x2, y2, x3, y3

Each kernel has one implementation.  ``ray_hits_point`` is the only one
that walks the pieces for one query point: a plain Python loop over
floats that solves lines and arcs in closed form and brackets and bisects
each cubic's sign changes.  The batch kernels (``winding_batch``,
``carrier_batch``, ``grid_path``) are vectorised numpy over all query
points or grid cells at once: lines and arcs take one closed-form pass
over all (point, piece) pairs, cubics refine all their (point, piece)
pairs of a block of points together, one subdivision level per step (in
the winding kernel only the pairs that the run tree below leaves open),
and ``carrier_dist_point`` is ``carrier_batch`` on one point.  The sample-pair
kernels (``pair_scan``, ``polyline_crossing``) run over the sample pairs
of many blocks at once.

Threshold carrier queries: most callers of ``carrier_batch`` only ask
whether a point's distance is at least some ``need``, as in Bishop's
dichotomy "d >= r or d < r + eps", which an approximation decides.  Given
``need``, a point stops refining as soon as either

* its upper bound ``hi`` is below ``need``: the full refinement only
  lowers ``hi``, and its ``lo`` is at most ``hi``; or
* its lower envelope is at least ``need`` (and ``hi`` is not below it).
  The envelope is the minimum of the distances of its finished nodes and
  the box distances of its live ones.  A de Casteljau child's control box
  lies inside its parent's, so no descendant of a live node finishes
  nearer than that node's box, and every curve point that could still
  lower ``hi`` lies in a live box: the full ``lo`` is at least the
  envelope.

A stopped point's live boxes join its finished distances, so the
enclosure returned still contains the full one, and ``lo >= need`` and
``hi < need`` come out exactly as without ``need``.  The level-0 control
boxes and the cubics' start points decide most points before any cubic
is split.

Why the winding sums are exact: each term is the principal complex log of
a chord's endpoint ratio, which is the integral of dz/(z - zeta) along the
chord because a segment never subtends an angle >= pi from a point off the
segment.  A line is its own chord.  A cubic node replaces a sub-path by its
chord; sub-path and chord both lie in the node's control box, so when the
query point lies strictly outside that box the closed loop (sub-path
forward, chord back) cannot wind around it, and the two integrals
coincide.  Refinement stops as soon as boxes exclude the query point.  An
arc needs no refinement: the arc followed by its chord in reverse bounds
the circular segment between them, so that loop winds +-1 (the sign of
the sweep) around points of the segment and 0 around all other points,
and the arc's integral is its chord's plus 2*pi*i times that.  A full turn
has no segment: its loop is the whole circle.

The same argument settles a whole run of cubics at once.  Consecutive
cubics form one run only where each ends exactly (as equal floats) where the
next one starts, so the run's sub-paths join into one continuous path, and
any stretch of consecutive cubics in it is a sub-path from the first one's
start to the last one's end.  That sub-path lies in the union of the
cubics' control boxes, and so does its chord.  A run-tree node stores that
union box, so when the query point lies strictly outside it, the node adds
exactly the log of its end-to-start ratio.  A node's box contains its
children's, so along the path from a root to a cubic the boxes that
exclude a point form a tail: the cut (excluded nodes whose parent is not,
or that are roots) covers every cubic whose own box excludes the point
exactly once, and the cubics whose box holds the point refine as above.
A joint that is off by any amount, even inside the validation tolerance,
ends the run: a node across it would add the gap's chord, which no piece
has.  The only error left is float round-off.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .pieces import FULL_TURN_TOL, KIND_ARC, KIND_CUBIC, KIND_LINE

TWO_PI = 2.0 * math.pi

# status codes shared by the kernels
OK = 0
ON_CARRIER = 1
# no kernel returns NODE_LIMIT any more; only the benchmark tracer reads it
NODE_LIMIT = 2

# cubic ray brackets this narrow are bisected to _ROOT_TOL
_BRACKET_WIDTH = 1e-4
_ROOT_TOL = 1e-12
# an angle this far past either end of an arc's sweep still lies on it
_SWEEP_TOL = 1e-12
# a point this far from an arc's circle, relative to the radius, and within
# its sweep evaluates on the arc in the winding kernel
_ON_ARC_TOL = 1e-12
# cubic carrier-distance nodes are finished once their box diagonal is at
# most this times their distance
_REFINE_REL_TOL = 1e-3
# subdivision levels of the carrier-distance refinement; a node that
# reaches the last one is finished as it stands
_REFINE_LEVELS = 80
# (point, piece) pairs per block of query points in the batch kernels
_PAIR_BLOCK = 1 << 17
# consecutive samples per block in the chord scan and the crossing test
_SCAN_BLOCK = 32
# block pairs per vectorised step, and block pairs filtered to find them
_SCAN_STEP = 32
_SCAN_WINDOW = 2048
# the scan picks minima on squared chords and takes hypot only on pairs
# whose square is within this factor, plus _SQ_ABS, of the least square
_SQ_REL = 1.0 + 1e-13
_SQ_ABS = float(np.finfo(float).tiny)
# below this a chord's hypot may round by more than an ulp of itself
_HYPOT_FLOOR = 2.0**-1020


def _angle_in_sweep(a0, sweep, theta):
    """Local parameter u in [0, 1] if theta lies on the sweep, else -1."""

    if sweep > 0.0:
        delta = (theta - a0) % TWO_PI
        if delta <= sweep + _SWEEP_TOL:
            u = delta / sweep
            return u if u < 1.0 else 1.0
        return -1.0
    delta = (a0 - theta) % TWO_PI
    if delta <= -sweep + _SWEEP_TOL:
        u = delta / (-sweep)
        return u if u < 1.0 else 1.0
    return -1.0


def _cubic_value(c0, c1, c2, c3, u):
    """Value at u of the cubic with Bernstein coefficients c0..c3."""

    v = 1.0 - u
    return v * v * v * c0 + 3.0 * v * v * u * c1 + 3.0 * v * u * u * c2 + u * u * u * c3


def _bisect_root(f, lo, hi, flo):
    """The sign change of the Bernstein cubic ``f`` on [lo, hi] to within
    _ROOT_TOL; ``flo`` is its value at lo."""

    while hi - lo > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        fm = _cubic_value(*f, mid)
        if fm == 0.0:
            return mid
        if (flo > 0.0) != (fm > 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def ray_hits_point(kinds, data, px, py, vx, vy, out, t_min):
    """All forward ray/carrier intersections, unsorted.

    Only hits at ray parameters above ``t_min`` count as forward, so the
    caller sets the floor to the curve's scale.  ``out`` is an empty list;
    each hit is appended to it as a tuple (t, piece, u, tan_x, tan_y).
    Returns (len(out), status) where status is OK, or ON_CARRIER as soon as
    a collinear segment overlap turns up.  Tangential (even-order) contacts
    are deliberately not reported: they contribute an even crossing count,
    so parity is unaffected; near-tangencies that do split into close root
    pairs are caught later by the isolation window.
    """

    for i, (kind, row) in enumerate(zip(kinds.tolist(), data.tolist())):
        if kind == KIND_LINE:
            x0, y0, x1, y1 = row[:4]
            ex, ey = x1 - x0, y1 - y0
            rx, ry = x0 - px, y0 - py
            den = vx * ey - vy * ex
            elen = math.hypot(ex, ey)
            if abs(den) <= 1e-14 * elen:
                perp = rx * vy - ry * vx
                if abs(perp) <= 1e-12 * elen:
                    f0 = rx * vx + ry * vy
                    f1 = (x1 - px) * vx + (y1 - py) * vy
                    if f0 > t_min or f1 > t_min:
                        return len(out), ON_CARRIER
                continue
            t = (rx * ey - ry * ex) / den
            u = (rx * vy - ry * vx) / den
            if -1e-12 <= u <= 1.0 + 1e-12 and t > t_min:
                out.append((t, i, min(1.0, max(0.0, u)), ex, ey))
        elif kind == KIND_ARC:
            cx, cy, r, a0, sweep = row[:5]
            ux, uy = px - cx, py - cy
            b = vx * ux + vy * uy
            c = ux * ux + uy * uy - r * r
            disc = b * b - c
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            for t in (-b - sq, -b + sq):
                if t <= t_min:
                    continue
                hx, hy = ux + t * vx, uy + t * vy
                u = _angle_in_sweep(a0, sweep, math.atan2(hy, hx))
                if u >= 0.0:
                    out.append((t, i, u, -hy * sweep, hx * sweep))
        else:
            x0, y0, x1, y1, x2, y2, x3, y3 = row
            # the control points' signed offsets from the ray line are the
            # Bernstein coefficients of the curve's offset
            f = (
                (x0 - px) * vy - (y0 - py) * vx,
                (x1 - px) * vy - (y1 - py) * vx,
                (x2 - px) * vy - (y2 - py) * vx,
                (x3 - px) * vy - (y3 - py) * vx,
            )
            roots = []
            brackets = [(0.0, 1.0, *f)]
            while brackets:
                ulo, uhi, g0, g1, g2, g3 = brackets.pop()
                if (g0 > 0.0 and g1 > 0.0 and g2 > 0.0 and g3 > 0.0) or (
                    g0 < 0.0 and g1 < 0.0 and g2 < 0.0 and g3 < 0.0
                ):
                    continue
                if uhi - ulo > _BRACKET_WIDTH:
                    # de Casteljau split at the midpoint
                    m01 = 0.5 * (g0 + g1)
                    m12 = 0.5 * (g1 + g2)
                    m23 = 0.5 * (g2 + g3)
                    ga = 0.5 * (m01 + m12)
                    gb = 0.5 * (m12 + m23)
                    gm = 0.5 * (ga + gb)
                    mid = 0.5 * (ulo + uhi)
                    brackets.append((ulo, mid, g0, m01, ga, gm))
                    brackets.append((mid, uhi, gm, gb, m23, g3))
                elif g0 == 0.0:
                    roots.append(ulo)
                elif g3 == 0.0 and uhi == 1.0:
                    roots.append(1.0)
                elif (g0 > 0.0) != (g3 > 0.0):
                    roots.append(_bisect_root(f, ulo, uhi, g0))
            roots.sort()
            # adjacent brackets re-find a shared root within ~2 * _ROOT_TOL;
            # genuine distinct crossings are never that close in parameter
            prev = -1.0
            for u in roots:
                if u - prev < 1e-11:
                    continue
                prev = u
                hx = _cubic_value(x0, x1, x2, x3, u)
                hy = _cubic_value(y0, y1, y2, y3, u)
                t = (hx - px) * vx + (hy - py) * vy
                if t <= t_min:
                    continue
                v = 1.0 - u
                c0, c1, c2 = 3.0 * v * v, 6.0 * v * u, 3.0 * u * u
                tx = c0 * (x1 - x0) + c1 * (x2 - x1) + c2 * (x3 - x2)
                ty = c0 * (y1 - y0) + c1 * (y2 - y1) + c2 * (y3 - y2)
                out.append((t, i, u, tx, ty))
    return len(out), OK


def carrier_dist_point(kinds, data, samples, offsets, px, py, geo, need=None):
    """``carrier_batch`` on the one point (px, py): returns floats (lo, hi)."""

    lo, hi = carrier_batch(
        kinds, data, samples, offsets, np.array([[px, py]]), geo, need
    )
    return float(lo[0]), float(hi[0])


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------


def _point_blocks(m, per_point):
    """Slices of query points with at most _PAIR_BLOCK pairs per block."""

    step = max(1, _PAIR_BLOCK // max(1, per_point))
    return [slice(s, s + step) for s in range(0, m, step)]


def _control_polygons(kinds, data):
    """The cubics' control polygons as a (4, 2, k) array: control point,
    axis, piece."""

    cubics = data[kinds == KIND_CUBIC, :8].reshape(-1, 4, 2)
    return np.ascontiguousarray(cubics.transpose(1, 2, 0))


def _node_gaps(ctl, q):
    """Control boxes of the nodes and their axis gaps to the points.

    ``ctl`` holds one control polygon per node, (4, 2, k), and ``q`` one
    query point per node, (2, k).  Returns (lo, hi, gap): the (2, k) box
    corners and the (2, k) distances from each point to its box along x
    and y, 0 where it lies within.
    """

    lo = np.minimum.reduce(ctl)
    hi = np.maximum.reduce(ctl)
    gap = np.maximum(lo - q, q - hi)
    np.maximum(gap, 0.0, out=gap)
    return lo, hi, gap


def _split(ctl):
    """de Casteljau halves at u = 1/2 of (4, 2, k) control polygons: left
    halves in the first k columns of the result, right halves in the last k.
    """

    # s holds p0, m01, a, mid, b, m23, p3: left is s[:4], right s[3:]
    s = np.empty((7,) + ctl.shape[1:])
    s[0::6] = ctl[0::3]
    m = s[1:6:2]
    np.add(ctl[:-1], ctl[1:], out=m)
    m *= 0.5
    ab = s[2:5:2]
    np.add(m[:-1], m[1:], out=ab)
    ab *= 0.5
    np.add(ab[0], ab[1], out=s[3])
    s[3] *= 0.5
    return np.concatenate([s[:4], s[3:]], axis=2)


def _arc_rows(arc):
    """Per-arc columns cx, cy, r, a0, sign of the sweep, the angular span on
    the arc (|sweep| + _SWEEP_TOL, infinite for a full circle), then both
    end points, which ``math.cos``/``math.sin`` evaluate: a (10, k) array
    for the k data rows ``arc``."""

    rows = []
    for cx, cy, r, a0, sweep in arc[:, :5].tolist():
        a1 = a0 + sweep
        full = abs(abs(sweep) - TWO_PI) <= FULL_TURN_TOL
        rows.append((
            cx, cy, r, a0, math.copysign(1.0, sweep),
            math.inf if full else abs(sweep) + _SWEEP_TOL,
            cx + r * math.cos(a0), cy + r * math.sin(a0),
            cx + r * math.cos(a1), cy + r * math.sin(a1),
        ))
    return np.array(rows).reshape(-1, 10).T.copy()


def winding_batch(kinds, geo, pts):
    """Winding integrals for many points: returns (total, nodes, status).

    ``total`` is the complex contour integral of dz/(z - p) per point,
    ``nodes`` counts chords for the float round-off budget, and ``status``
    is OK or ON_CARRIER.  Lines and arcs take one exact pass over all
    (point, piece) pairs, one chord each.  Cubics take one cut through the
    run tree: every tree node whose box excludes a point while its parent's
    box does not (or that is a root) adds one chord, and every cubic whose
    control box holds the point refines from its two halves in one level
    loop, which ends once every node is accepted or too narrow to split.
    The chord ratios of a block go through one log.  ``geo`` is the
    curve's ``carrier_geometry``.
    """

    pts = np.ascontiguousarray(pts, dtype=float)
    m = pts.shape[0]
    total = np.zeros(m, dtype=complex)
    nodes = np.zeros(m, dtype=np.int64)
    status = np.zeros(m, dtype=np.int64)
    for blk in _point_blocks(m, geo.e0.size + geo.node_parent.size):
        z = pts[blk, 0] + 1j * pts[blk, 1]
        if geo.e0.size:
            total[blk], on = _wind_chords(geo.e0, geo.e1, geo.arc, z)
            nodes[blk] = geo.e0.size
            status[blk] = np.where(on, ON_CARRIER, OK)
        if geo.ctl.shape[2]:
            _wind_cubics(geo, z, total[blk], nodes[blk], status[blk])
    return total, nodes, status


def _log(ratio):
    """Principal complex log of ``ratio``, elementwise.

    Equal to ``np.log`` up to round-off, several times faster on complex
    arrays, and with the same branch: the sign bit of a zero imaginary part
    picks +pi or -pi on the negative real axis.
    """

    out = np.empty_like(ratio)
    np.log(np.abs(ratio), out=out.real)
    np.arctan2(ratio.imag, ratio.real, out=out.imag)
    return out


def _wind_chords(e0, e1, arc, z):
    """Exact terms of every (point, line) and (point, arc) pair, summed.

    ``e0``, ``e1`` and ``arc`` are the curve's ``CarrierGeometry`` fields.
    An arc adds a whole turn, signed like its sweep, where z lies inside
    its circle and on its side of the chord (right of the chord for a
    positive sweep); a full turn has no chord side.  The log's branch
    follows the same sign bit of the ratio's imaginary part, so a point on
    the chord gets the arc's +-pi.  Returns (sums, on): ``on`` marks points
    where a log is not finite or that lie within _ON_ARC_TOL of an arc.
    """

    zc = z[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (e1 - zc) / (e0 - zc)
        term = _log(ratio)
    bad = ~np.isfinite(term)
    na = arc.shape[1]
    if na:
        cx, cy, r, a0, sign, span = arc[:6]
        w = zc - (cx + 1j * cy)
        rad = np.abs(w)
        side = np.signbit(ratio[:, -na:].imag) == (sign > 0.0)
        turn = (rad < r) & (side | np.isinf(span))
        term[:, -na:] += np.where(turn, (2j * math.pi) * sign, 0.0)
        on = np.mod(sign * (np.angle(w) - a0), TWO_PI) <= span
        bad[:, -na:] |= on & (np.abs(rad - r) <= _ON_ARC_TOL * r)
    term[bad] = 0.0
    return term.sum(axis=1), bad.any(axis=1)


def _wind_cubics(geo, z, total, nodes, status):
    """Add the chord terms of every (point, cubic) pair to the block's
    ``total``, ``nodes`` and ``status`` in place.

    One pass tests every run-tree node's box against every point and takes
    the cut; the cubics whose own control box holds a point refine on
    control boxes from their halves.  Chord ratios of all levels are
    collected and their logs taken once.
    """

    b = z.shape[0]
    nn = geo.node_parent.size
    nc = geo.ctl.shape[2]
    px, py = z.real[:, None], z.imag[:, None]
    lo, hi = geo.node_lo, geo.node_hi
    # whether each node's box excludes each point; the last column stays
    # False, and a root's parent -1 reads it
    excl = np.zeros((b, nn + 1), dtype=bool)
    out = excl[:, :-1]
    np.greater(lo[0], px, out=out)
    out |= px > hi[0]
    out |= lo[1] > py
    out |= py > hi[1]
    # the cut: excluded, and the parent is not
    i, n = np.divmod(np.flatnonzero(out > excl[:, geo.node_parent]), nn)
    zi = z[i]
    acc = [(i, (geo.node_e1[n] - zi) / (geo.node_e0[n] - zi))]
    # the cubics, nodes 0 .. nc - 1, whose control box holds the point
    idx, col = np.divmod(np.flatnonzero(~out[:, :nc]), nc)
    node = _split(geo.ctl.take(col, axis=2))
    idx = np.concatenate([idx, idx])
    q = np.stack([z.real, z.imag])
    width = 0.5
    while idx.size:
        _, _, gap = _node_gaps(node, q.take(idx, axis=1))
        outside = np.maximum.reduce(gap) > 0.0
        a = outside.nonzero()[0]
        za = z[idx[a]]
        w0 = (node[0, 0, a] + 1j * node[0, 1, a]) - za
        w1 = (node[3, 0, a] + 1j * node[3, 1, a]) - za
        acc.append((idx[a], w1 / w0))
        rest = (~outside).nonzero()[0]
        if width < 1e-13:
            status[idx[rest]] = ON_CARRIER
            break
        width *= 0.5
        idx = idx[rest]
        idx = np.concatenate([idx, idx])
        node = _split(node.take(rest, axis=2))
    idx = np.concatenate([i for i, _ in acc])
    term = _log(np.concatenate([r for _, r in acc]))
    total += np.bincount(idx, term.real, b) + 1j * np.bincount(idx, term.imag, b)
    nodes += np.bincount(idx, minlength=b)


def _cubic_runs(ctl):
    """The maximal runs (a, b) of consecutive columns a .. b - 1 of the
    (4, 2, k) control polygons ``ctl`` in which every column ends exactly
    where the next one starts."""

    joint = (ctl[3, :, :-1] == ctl[0, :, 1:]).all(axis=0)
    bounds = [0, *(np.flatnonzero(~joint) + 1).tolist(), ctl.shape[2]]
    return list(zip(bounds[:-1], bounds[1:])) if ctl.shape[2] else []


def _run_tree(ctl):
    """Balanced binary trees over the ``_cubic_runs`` of ``ctl``.

    Returns (lo, hi, e0, e1, parent): per node its box corners (2, n), the
    complex start and end of its sub-path and its parent (-1 at a root).
    Nodes 0 .. k - 1 are the cubics themselves, with their control boxes.
    The node over columns a .. b - 1 has the children over a .. m - 1 and
    m .. b - 1, m = (a + b) // 2, the union of their boxes, and a larger
    index than both.
    """

    nc = ctl.shape[2]
    lo = ctl.min(axis=0).T.tolist()
    hi = ctl.max(axis=0).T.tolist()
    first, last = list(range(nc)), list(range(nc))
    parent = [-1] * nc

    def build(a, b):
        if b - a == 1:
            return a
        mid = (a + b) // 2
        left, right = build(a, mid), build(mid, b)
        parent[left] = parent[right] = len(parent)
        parent.append(-1)
        lo.append([min(lo[left][0], lo[right][0]), min(lo[left][1], lo[right][1])])
        hi.append([max(hi[left][0], hi[right][0]), max(hi[left][1], hi[right][1])])
        first.append(a)
        last.append(b - 1)
        return len(parent) - 1

    for a, b in _cubic_runs(ctl):
        build(a, b)
    e0 = ctl[0, :, first]
    e1 = ctl[3, :, last]
    return (
        np.array(lo).reshape(-1, 2).T.copy(),
        np.array(hi).reshape(-1, 2).T.copy(),
        e0[:, 0] + 1j * e0[:, 1],
        e1[:, 0] + 1j * e1[:, 1],
        np.array(parent, dtype=np.intp),
    )


class CarrierGeometry(NamedTuple):
    """Per-curve arrays for ``carrier_batch`` and ``winding_batch``,
    independent of the queries.

    Lines: rows x0, y0, ex, ey, ex^2 + ey^2.  Arcs: ``_arc_rows``.  Chords:
    the complex chord ends of the lines, then of the arcs.  Cubics:
    ``_control_polygons`` and their boxes.  Run tree: ``_run_tree``, whose
    first nodes are the cubics, so ``ctl_lo`` and ``ctl_hi`` are the first
    columns of ``node_lo`` and ``node_hi``.
    """

    line: np.ndarray
    arc: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    ctl: np.ndarray
    ctl_lo: np.ndarray
    ctl_hi: np.ndarray
    node_lo: np.ndarray
    node_hi: np.ndarray
    node_e0: np.ndarray
    node_e1: np.ndarray
    node_parent: np.ndarray


def carrier_geometry(kinds, data):
    """The ``CarrierGeometry`` of one flattened curve."""

    x0, y0, x1, y1 = data[kinds == KIND_LINE, :4].T
    ex, ey = x1 - x0, y1 - y0
    line = np.array([x0, y0, ex, ey, ex * ex + ey * ey]).reshape(5, -1)
    arc = _arc_rows(data[kinds == KIND_ARC])
    ctl = _control_polygons(kinds, data)
    node_lo, node_hi, node_e0, node_e1, node_parent = _run_tree(ctl)
    nc = ctl.shape[2]
    return CarrierGeometry(
        line=line,
        arc=arc,
        e0=np.concatenate([x0 + 1j * y0, arc[6] + 1j * arc[7]]),
        e1=np.concatenate([x1 + 1j * y1, arc[8] + 1j * arc[9]]),
        ctl=ctl,
        ctl_lo=node_lo[:, :nc],
        ctl_hi=node_hi[:, :nc],
        node_lo=node_lo,
        node_hi=node_hi,
        node_e0=node_e0,
        node_e1=node_e1,
        node_parent=node_parent,
    )


def carrier_batch(kinds, data, samples, offsets, pts, geo, need=None):
    """Carrier-distance enclosures for many points: returns (lo, hi) arrays.

    Line and arc pieces are exact.  Cubic pieces refine control boxes until
    each surviving box is small relative to its distance; every cubic's
    start point, and then the start point of every refinement node, lowers
    the upper bound, since it lies on the curve.  A node whose box cannot
    beat the running upper bound is dropped; everything below it is no
    nearer than the final bound, so the enclosure is the one a full
    refinement gives, in whatever order nodes are visited.  ``geo`` is the
    curve's ``carrier_geometry``; only it, ``kinds`` and ``pts`` are read.
    ``data``, ``samples`` and ``offsets`` keep their places only because
    ``perfbench/tracing.py`` counts the points as the fifth argument;
    ``CarrierIndex`` passes None for ``samples`` and ``offsets``.

    ``need``, one number or one per point, makes this a threshold query:
    a point stops refining once the stop rule in the module docstring
    holds.  Its (lo, hi) then contains the full enclosure, and ``lo >=
    need`` and ``hi < need`` are what they are without ``need``; a point
    the rule never stops gets the full enclosure bit for bit.
    """

    pts = np.ascontiguousarray(pts, dtype=float)
    m = pts.shape[0]
    best_hi = np.full(m, np.inf)
    lo_acc = np.full(m, np.inf)
    if need is not None:
        need = np.broadcast_to(np.asarray(need, dtype=float), (m,))
    for blk in _point_blocks(m, kinds.shape[0]):
        q = pts[blk].T
        _exact_pieces(geo, q, best_hi[blk], lo_acc[blk])
        if geo.ctl.shape[2]:
            _cubic_pieces(
                geo, q, best_hi[blk], lo_acc[blk], None if need is None else need[blk]
            )
    lo = np.minimum(lo_acc, best_hi)
    np.maximum(lo, 0.0, out=lo)
    return lo, best_hi


def _stopped(env, best_hi, lo_acc, need):
    """The points that the stop rule decides, given their lower envelopes
    ``env`` (at most ``lo_acc``); a decided point's envelope becomes its
    ``lo_acc`` in place, so its enclosure keeps containing the full one."""

    stop = (best_hi < need) | (env >= need)
    np.copyto(lo_acc, env, where=stop)
    return stop


def _exact_pieces(geo, q, best_hi, lo_acc):
    """Lower ``best_hi`` and ``lo_acc`` in place to the line and arc
    distances, one pass over all (point, piece) pairs of each kind."""

    px, py = q[0][:, None], q[1][:, None]
    parts = []
    if geo.line.shape[1]:
        x0, y0, ex, ey, denom = geo.line
        t = np.clip(((px - x0) * ex + (py - y0) * ey) / denom, 0, 1)
        parts.append(np.hypot(px - (x0 + t * ex), py - (y0 + t * ey)))
    if geo.arc.shape[1]:
        cx, cy, r, a0, sign, span, e0x, e0y, e1x, e1y = geo.arc
        wx, wy = px - cx, py - cy
        rad = np.abs(np.hypot(wx, wy) - r)
        on = np.mod(sign * (np.arctan2(wy, wx) - a0), TWO_PI) <= span
        ends = np.minimum(
            np.hypot(px - e0x, py - e0y), np.hypot(px - e1x, py - e1y)
        )
        parts.append(np.where(on, rad, ends))
    for d in parts:
        d = d.min(axis=1)
        np.minimum(best_hi, d, out=best_hi)
        np.minimum(lo_acc, d, out=lo_acc)


def _cubic_pieces(geo, q, best_hi, lo_acc, need):
    """Tighten ``best_hi``/``lo_acc`` in place by the cubic pieces.

    The cubics' start points lower ``best_hi``, then ``_refine_cubics``
    finishes.  With ``need``, the level-0 control boxes give every point an
    envelope, and points the stop rule decides on it skip the refinement.
    """

    qq = q[:, :, None]
    d = np.maximum(geo.ctl_lo[:, None, :] - qq, qq - geo.ctl_hi[:, None, :])
    np.maximum(d, 0.0, out=d)
    db = np.hypot(d[0], d[1])
    d = qq - geo.ctl[0][:, None, :]
    np.minimum(best_hi, np.hypot(d[0], d[1]).min(axis=1), out=best_hi)
    todo = np.arange(q.shape[1])
    if need is not None:
        env = np.minimum(lo_acc, db.min(axis=1))
        todo = (~_stopped(env, best_hi, lo_acc, need)).nonzero()[0]
        if not todo.size:
            return
    _refine_cubics(geo, q, db, todo, best_hi, lo_acc, need)


def _refine_cubics(geo, q, db, todo, best_hi, lo_acc, need):
    """Tighten ``best_hi``/``lo_acc`` in place by every cubic's control boxes.

    The (point, cubic) pairs of the points ``todo`` whose control box
    distance ``db`` is below ``best_hi`` refine together, one level per
    step; their start points have lowered ``best_hi`` already.  A node is
    finished when its box is small next to its distance, or at the last
    level, and then lowers ``lo_acc`` to that distance.  With ``need``, a
    point leaves the loop as soon as the stop rule decides it.
    """

    i, piece = np.nonzero(db[todo] < best_hi[todo, None])
    idx = todo[i]
    ctl = geo.ctl.take(piece, axis=2)
    fresh = idx.size
    for level in range(_REFINE_LEVELS):
        qn = q.take(idx, axis=1)
        lo, hi, gap = _node_gaps(ctl, qn)
        db = np.hypot(gap[0], gap[1])
        # a start point lies on the curve; a left half keeps its parent's
        d0 = qn[:, fresh:] - ctl[0, :, fresh:]
        np.minimum.at(best_hi, idx[fresh:], np.hypot(d0[0], d0[1]))
        live = db < best_hi[idx]
        ext = hi - lo
        done = np.hypot(ext[0], ext[1]) <= _REFINE_REL_TOL * db + 1e-15
        if level == _REFINE_LEVELS - 1:
            done[:] = True
        np.minimum.at(lo_acc, idx, np.where(live & done, db, np.inf))
        keep = (live > done).nonzero()[0]
        if need is not None and keep.size:
            env = lo_acc.copy()
            np.minimum.at(env, idx[keep], db[keep])
            keep = keep[~_stopped(env, best_hi, lo_acc, need)[idx[keep]]]
        if not keep.size:
            break
        fresh = keep.size
        idx = idx[keep]
        idx = np.concatenate([idx, idx])
        ctl = _split(ctl.take(keep, axis=2))


def _scan_blocks(n):
    """Sample indices of the blocks of _SCAN_BLOCK consecutive samples.

    A short last block is padded with the last sample, which leaves its box
    alone and only repeats sample pairs that are already there.
    """

    nb = -(-n // _SCAN_BLOCK)
    idx = np.arange(nb)[:, None] * _SCAN_BLOCK + np.arange(_SCAN_BLOCK)
    return np.minimum(idx, n - 1)


def _box_gaps(xy, cols):
    """Axis gaps between the boxes of every block pair P <= Q.

    Row P of ``cols`` lists the samples in box P.  Returns (P, Q, gx, gy);
    a gap is 0 exactly where the two boxes overlap on that axis.
    """

    x = xy[cols, 0]
    y = xy[cols, 1]
    x0, x1 = x.min(axis=1), x.max(axis=1)
    y0, y1 = y.min(axis=1), y.max(axis=1)
    P, Q = np.triu_indices(cols.shape[0])
    gx = np.maximum(np.maximum(x0[Q] - x1[P], x0[P] - x1[Q]), 0.0)
    gy = np.maximum(np.maximum(y0[Q] - y1[P], y0[P] - y1[Q]), 0.0)
    return P, Q, gx, gy


def pair_scan(xy, ts, period, sep_floor, a, b, eps_levels):
    """Chord-gap scan driving the injectivity and inverse-modulus tables.

    Returns (min_gap, i_min, j_min, deltas) over pairs i < j of samples
    with increasing parameters ``ts``.  ``min_gap`` is the shortest chord
    among pairs whose wrap-aware parameter separation is >= sep_floor;
    among the pairs at exactly ``min_gap`` the witness is the smallest
    (i, j).  deltas[k] is the shortest chord among pairs admissible for
    eps_levels[k] (nondecreasing in k): separation >= eps and both
    parameters inside [a + eps/2, b - eps/2].  A pair is admissible for
    every level up to its cap, so the deltas are nondecreasing too.  A
    chord is ``np.hypot`` of the coordinate differences, as in a full
    O(n^2) scan, and the outputs equal that scan's bit for bit.

    Branch and bound over blocks of _SCAN_BLOCK consecutive samples, the
    dual-tree pruning of Gray & Moore ("N-Body Problems in Statistical
    Learning", NIPS 2000).  Block pairs P <= Q are visited in order of
    increasing box distance, up to _SCAN_STEP pairs per vectorised step;
    the sample pairs of one block pair form a slab.  The box distance is
    rounded down two ulps with ``np.nextafter``: the axis gaps round
    monotonically and hypot is faithful to an ulp, so the result never
    exceeds a chord computed between the two blocks.  The block parameter
    ranges bound each pair's separation and cap the same way.

    The level minima are kept as suffix minima: ``deltas[k]`` runs over
    every pair that reaches level k, so it is never above ``deltas[k + 1]``,
    and the J2 threshold of a block pair is ``deltas`` at the highest level
    its largest cap reaches.  A block pair is skipped when its box
    distance is above both

    * the current ``min_gap`` (or the pair holds no pair separated by
      sep_floor or more), and
    * its J2 threshold (or it reaches no level).

    A slab chosen by the first bound alone skips the level work, and one
    chosen by the second alone skips the J1 work.  Level k is updated only
    from slabs whose box distance is at most ``deltas[k]``; no pair of any
    other slab can lower it.  A slab whose pairs all pass a test (all
    separated by sep_floor, or all reaching level k) takes its plain
    minimum; only the others mask pairs.

    A skipped pair can change neither a minimum nor a tie.

    Minima are picked on squared chords ``dx*dx + dy*dy``, and hypot is
    taken only on the pairs whose square lies within a factor _SQ_REL of
    the least one.  hypot is faithful to an ulp and a square rounds three
    times, so every pair whose chord is the least, or ties it, passes the
    filter, and the minimum, its ties and the witness are the floats of a
    full scan.  The guard against overflow and underflow: the squares are
    taken on the coordinates multiplied by the power of two that brings
    the largest coordinate span into [0.5, 1).  That product is exact, so
    no square overflows at any scale, and the absolute slack _SQ_ABS, the
    smallest normal float, covers squares that still fall into the
    subnormal range (chords below about 1e-154 spans).  Where the least
    chord itself is below _HYPOT_FLOOR, near the subnormal range, hypot's
    rounding is no longer relative, and hypot is taken on every pair of
    the slabs in question.
    """

    xy = np.ascontiguousarray(xy, dtype=float)
    ts = np.ascontiguousarray(ts, dtype=float)
    eps_levels = np.ascontiguousarray(eps_levels, dtype=float)
    nl = eps_levels.shape[0]
    level_min = np.full(nl, np.inf)
    n = xy.shape[0]
    best = np.inf
    bi = bj = -1
    if n < 2:
        return best, bi, bj, level_min
    cols = _scan_blocks(n)
    P, Q, gx, gy = _box_gaps(xy, cols)
    lower = np.nextafter(np.nextafter(np.hypot(gx, gy), 0.0), 0.0)
    order = np.argsort(lower, kind="stable")
    P, Q, lower = P[order], Q[order], lower[order]
    # block parameter ranges bound dt, the wrap-aware separation and the
    # cap of each pair; float subtraction is monotone, so the bounds also
    # hold for the values computed pair by pair
    t_lo = ts[cols[:, 0]]
    t_hi = ts[cols[:, -1]]
    dt_max = t_hi[Q] - t_lo[P]
    dt_min = np.where(P == Q, 0.0, t_lo[Q] - t_hi[P])
    j1_ok = np.minimum(dt_max, period - dt_min) >= sep_floor
    cap_max = np.minimum(
        dt_max, np.minimum(2.0 * (t_hi[P] - a), 2.0 * (b - t_lo[Q]))
    )
    # no pair of a block pair reaches a level past top
    top = np.searchsorted(eps_levels, cap_max, side="right") - 1
    # squares are taken on xs, ys (scaled by a power of two, exactly) and
    # chords on x, y; buf holds a step's squares, their addends and dt
    span = float(np.max(xy.max(axis=0) - xy.min(axis=0)))
    e = math.frexp(span)[1] if 0.0 < span < np.inf else 0
    xs, ys = np.ldexp(xy[:, 0], -e), np.ldexp(xy[:, 1], -e)
    x, y = xy[:, 0].copy(), xy[:, 1].copy()
    bs = cols.shape[1]
    buf = np.empty((3, _SCAN_STEP, bs, bs))
    m = P.shape[0]
    pos = 0
    while pos < m:
        # the appended -inf is read by top == -1, a pair that reaches no
        # level; level_min is nondecreasing, so its largest entry is last
        reach = np.append(level_min, -np.inf)
        if lower[pos] > max(best, reach.max()):
            break  # later pairs are no nearer
        end = min(m, pos + _SCAN_WINDOW)
        lw = lower[pos:end]
        want1 = (lw <= best) & j1_ok[pos:end]
        want2 = lw <= reach[top[pos:end]]
        hit = np.flatnonzero(want1 | want2)[:_SCAN_STEP]
        w1, w2 = want1[hit], want2[hit]
        hit += pos
        pos = end if hit.size < _SCAN_STEP else int(hit[-1]) + 1
        if not hit.size:
            continue
        S = hit.size
        I, J = cols[P[hit]], cols[Q[hit]]
        dx = np.subtract(xs[J][:, None, :], xs[I][:, :, None], out=buf[0, :S])
        dy = np.subtract(ys[J][:, None, :], ys[I][:, :, None], out=buf[1, :S])
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        d2 = np.add(dx, dy, out=dx)
        # the least separation and the least cap of a slab's pairs i < j;
        # a diagonal slab also holds pairs i >= j, which count for nothing
        p, q = P[hit], Q[hit]
        diag = p == q
        sep = np.where(diag, -np.inf, t_lo[q] - t_hi[p])
        ends = np.minimum(2.0 * (t_lo[p] - a), 2.0 * (b - t_hi[q]))
        all1 = np.minimum(sep, period - dt_max[hit]) >= sep_floor
        # the lowest level each slab can still lower, and the levels that
        # all of its pairs reach (up to bot) or only some (up to tp)
        k0 = np.searchsorted(level_min, lower[hit], side="left")
        bot = np.searchsorted(eps_levels, np.minimum(sep, ends), side="right") - 1
        tp = top[hit]
        lo2 = np.maximum(k0, bot + 1)
        part1 = w1 & ~all1
        part2 = w2 & (lo2 <= tp)
        full = np.flatnonzero((w1 & all1) | (w2 & (k0 <= bot)))
        if full.size:
            smin, fc = _least(d2, I, J, x, y, full)
        part = np.flatnonzero(part1 | part2)
        if part.size:
            dt = np.subtract(
                ts[J[part]][:, None, :], ts[I[part]][:, :, None], out=buf[2, : part.size]
            )
            for s in np.flatnonzero(diag[part]):
                # pairs i >= j: a separation of -inf passes no test
                sub = dt[s]
                sub[sub <= 0.0] = -np.inf
        if w1.any():
            cands = []
            if full.size:
                on = (w1 & all1)[full][fc[0]]
                cands.append([c[on] for c in fc])
            s1 = np.flatnonzero(part1[part])
            if s1.size:
                dts = _rows(dt, s1)
                ok = dts >= sep_floor
                # the far side of the seam counts only near the seam
                wrap = np.flatnonzero(period - dt_max[hit[part[s1]]] < sep_floor)
                if wrap.size:
                    ok[wrap] &= period - dts[wrap] >= sep_floor
                cands.append(_least(d2, I, J, x, y, part[s1], ok, False)[1])
            _, ii, jj, hh = (np.concatenate(c) for c in zip(*cands))
            g = float(hh.min()) if hh.size else np.inf
            if g <= best and g < np.inf:
                at = hh == g
                ii, jj = ii[at], jj[at]
                w = np.lexsort((jj, ii))[0]
                tie = (int(ii[w]), int(jj[w]))
                if g < best or tie < (bi, bj):
                    best = g
                    bi, bj = tie
        if not w2.any():
            continue
        if full.size:
            # a slab whose pairs all reach level k lowers it by its minimum
            f2, kf, bf = w2[full], k0[full], bot[full]
            for k in range(int(kf.min()), int(bf.max()) + 1):
                on = f2 & (kf <= k) & (k <= bf)
                if on.any():
                    level_min[k] = min(level_min[k], float(smin[on].min()))
        s2 = np.flatnonzero(part2[part])
        if s2.size:
            # the other slabs mask their pairs by cap, one level per slab
            # and pass, from the top level down
            sl = part[s2]
            lo, hi = lo2[sl], tp[sl]
            cap = _rows(dt, s2)
            # where the interval ends allow every level a slab can reach,
            # its caps are its separations
            near = np.flatnonzero(ends[sl] < eps_levels[hi])
            if near.size:
                sub = cap[near]
                lim = np.minimum(
                    2.0 * (ts[I[sl[near]]] - a)[:, :, None],
                    2.0 * (b - ts[J[sl[near]]])[:, None, :],
                )
                cap[near] = np.minimum(sub, lim, out=sub)
            for depth in range(int((hi - lo).max()) + 1):
                on = np.flatnonzero(hi - depth >= lo)
                lev = hi[on] - depth
                ok = _rows(cap, on) >= eps_levels[lev][:, None, None]
                least, _ = _least(d2, I, J, x, y, sl[on], ok)
                np.minimum.at(level_min, lev, least)
    return best, bi, bj, level_min


def _rows(arr, idx):
    """``arr[idx]``, or ``arr`` itself where ``idx`` takes all of its rows
    in order."""

    return arr if idx.size == arr.shape[0] else arr[idx]


def _least(d2, I, J, x, y, slabs, ok=None, per_slab=True):
    """The chords that may be least among the pairs of ``slabs``.

    ``d2`` holds the squared chords of the step's slabs, rows ``I`` and
    columns ``J`` their samples, and ``ok``, for the slabs taken, masks
    the pairs that count.  Returns the least chord of each slab (inf where
    none counts) and the candidates (position in ``slabs``, i, j, chord):
    every pair whose square is within the slack of its slab's least
    square, or with ``per_slab=False`` of the least square of them all.
    """

    dm = _rows(d2, slabs)
    if ok is not None:
        dm = np.where(ok, dm, np.inf)
    if per_slab:
        m2 = dm.reshape(dm.shape[0], -1).min(axis=1)
    else:
        m2 = np.full(dm.shape[0], dm.min())
    thr = np.where(m2 < np.inf, m2 * _SQ_REL + _SQ_ABS, -1.0)
    s, i, j, h = _chords(I, J, x, y, slabs, dm <= thr[:, None, None])
    if h.size and h.min() < _HYPOT_FLOOR:
        s, i, j, h = _chords(I, J, x, y, slabs, dm < np.inf)
    least = np.full(dm.shape[0], np.inf)
    np.minimum.at(least, s, h)
    return least, (s, i, j, h)


def _chords(I, J, x, y, slabs, mask):
    """hypot of the pairs that ``mask`` marks in ``slabs``, with their
    slab positions and sample indices."""

    bs = mask.shape[1]
    f = np.flatnonzero(mask)
    s, r, c = f // (bs * bs), f // bs % bs, f % bs
    i, j = I[slabs[s], r], J[slabs[s], c]
    return s, i, j, np.hypot(x[j] - x[i], y[j] - y[i])


def polyline_crossing(xy):
    """The smallest pair of non-adjacent sample segments that cross.

    Segment k runs from sample k to sample k + 1, the last one back to
    sample 0.  Returns (i, j), i < j, for the smallest pair of segments
    that are not neighbours on the closed polyline and whose interiors
    cross properly (strict orientation changes both ways), or (-1, -1).
    Only block pairs whose boxes overlap are tested, each box spanning
    its block's samples and the end of its last segment.
    """

    xy = np.ascontiguousarray(xy, dtype=float)
    n = xy.shape[0]
    if n < 4:
        return -1, -1
    cols = _scan_blocks(n)
    ends = (cols[:, -1] + 1) % n
    P, Q, gx, gy = _box_gaps(xy, np.concatenate([cols, ends[:, None]], axis=1))
    # a run of segments that all point forward along the run's chord is
    # monotone along it and cannot cross itself, so a block need not be
    # tested against itself or its successor when their run is
    seg = np.roll(xy, -1, axis=0) - xy
    nxt = np.roll(np.arange(cols.shape[0]), -1)
    mono_self = _forward(seg[cols], xy[ends] - xy[cols[:, 0]])
    mono_next = _forward(
        np.concatenate([seg[cols], seg[cols[nxt]]], axis=1),
        xy[ends[nxt]] - xy[cols[:, 0]],
    )
    skip = ((P == Q) & mono_self[P]) | ((Q == nxt[P]) & mono_next[P])
    skip |= (P == nxt[Q]) & mono_next[Q]
    near = np.flatnonzero((gx == 0.0) & (gy == 0.0) & ~skip)
    x, y = xy[:, 0], xy[:, 1]
    found = (n, n)
    for s in range(0, near.size, _SCAN_STEP):
        k = near[s : s + _SCAN_STEP]
        i = cols[P[k]][:, :, None]
        j = cols[Q[k]][:, None, :]
        i1, j1 = (i + 1) % n, (j + 1) % n
        # first the segments j whose ends lie strictly on both sides of the
        # line of segment i, few of them.  Neighbours share an endpoint,
        # whose turn is exactly 0, so j > i is the only other mask needed
        s0 = _orient(x[i], y[i], x[i1], y[i1], x[j], y[j])
        s1 = _orient(x[i], y[i], x[i1], y[i1], x[j1], y[j1])
        ok = (j > i) & (s0 * s1 < 0)
        if not ok.any():
            continue
        ii = np.broadcast_to(i, ok.shape)[ok]
        jj = np.broadcast_to(j, ok.shape)[ok]
        ii1, jj1 = (ii + 1) % n, (jj + 1) % n
        s0 = _orient(x[jj], y[jj], x[jj1], y[jj1], x[ii], y[ii])
        s1 = _orient(x[jj], y[jj], x[jj1], y[jj1], x[ii1], y[ii1])
        hit = s0 * s1 < 0
        if hit.any():
            ii, jj = ii[hit], jj[hit]
            w = np.lexsort((jj, ii))[0]
            found = min(found, (int(ii[w]), int(jj[w])))
    return found if found[0] < n else (-1, -1)


def _forward(seg, chord):
    """Per row, whether every vector of ``seg`` points along ``chord``.

    ``seg`` is (rows, k, 2) and ``chord`` (rows, 2); pointing along means a
    positive dot product.
    """

    dots = seg[:, :, 0] * chord[:, None, 0] + seg[:, :, 1] * chord[:, None, 1]
    return (dots > 0.0).all(axis=1)


def _orient(px, py, qx, qy, rx, ry):
    """Sign of the turn p -> q -> r: +1 left, -1 right, 0 collinear."""

    return np.sign((qx - px) * (ry - py) - (qy - py) * (rx - px))


def grid_path(free, start, goal):
    """Shortest 8-connected chain of free cells, or None.

    Breadth-first search on a copy of the grid framed by blocked cells, so
    the eight neighbours of a cell are fixed offsets of its flat index and
    each step touches only the current frontier.  The walk back from the
    goal moves through cells one step nearer the start.
    """

    si, sj = start
    gi, gj = goal
    ny, nx = free.shape
    if not (free[si, sj] and free[gi, gj]):
        return None
    w = nx + 2
    unseen = np.zeros((ny + 2, w), dtype=bool)
    unseen[1:-1, 1:-1] = free != 0
    unseen = unseen.ravel()
    dist = np.full(unseen.shape[0], -1, dtype=np.int64)
    offsets = np.array([-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1])
    src = (si + 1) * w + sj + 1
    dst = (gi + 1) * w + gj + 1
    dist[src] = 0
    unseen[src] = False
    frontier = np.array([src])
    step = 0
    while dist[dst] < 0:
        if frontier.size == 0:
            return None
        step += 1
        nbrs = (frontier[:, None] + offsets).ravel()
        frontier = np.unique(nbrs[unseen[nbrs]])
        unseen[frontier] = False
        dist[frontier] = step
    dist = dist.reshape(ny + 2, w)
    path = [(gi, gj)]
    ci, cj = gi + 1, gj + 1
    for d in range(dist[ci, cj] - 1, -1, -1):
        ci, cj = next(
            (ni, nj)
            for ni in (ci - 1, ci, ci + 1)
            for nj in (cj - 1, cj, cj + 1)
            if dist[ni, nj] == d
        )
        path.append((ci - 1, cj - 1))
    path.reverse()
    return path
