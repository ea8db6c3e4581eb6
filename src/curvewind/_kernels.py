"""Numeric kernels for winding, ray casting, carrier distance, and scans.

Pieces are flattened into ``kinds`` (int8) and ``data`` (float64, n x 8)
rows before hitting these functions:

* line : x0, y0, x1, y1
* arc  : cx, cy, r, start_angle, sweep
* cubic: x0, y0, x1, y1, x2, y2, x3, y3

Each kernel has one implementation.  ``ray_hits_point`` is the only one
that walks the pieces for one query point: a plain Python loop over
floats that counts the ray's crossings by the side-change rule below,
lines and arcs in closed form and cubics by de Casteljau subdivision of
their control polygons.  The batch kernels
(``winding_batch``, ``carrier_batch``, ``grid_path``) are vectorised
numpy over all query points or grid cells at once: lines and arcs take
one closed-form pass over all (point, piece) pairs, cubics refine all
their (point, piece) pairs of a block of points together, one
subdivision level per step (in the winding kernel only the pairs that
the run tree below leaves open),
``carrier_dist_point`` is ``carrier_batch`` on one point, and
``winding_batch`` takes the cubic chords that ``carrier_batch`` collected
in place of its own refinement when it is given them (see the end of this
docstring).  The sample-pair kernels (``pair_scan``,
``polyline_crossing``) run over the sample pairs of many blocks at once.

Ray crossings as side changes (``ray_hits_point``): a point q has the
offset f = (q - p) x v from the line of the ray from p along v, the ray
parameter t = (q - p) . v, and the side s = (f >= 0), read as 1 or 0.
Along the closed chain of stretches (``_ray_stretches``: the pieces, and
a line across each joint whose end floats differ), a stretch whose hull
lies wholly ahead of p (every t > 0) adds s(start) - s(end); one whose
hull lies behind p or on one side of the ray's line adds nothing; only
one that straddles both lines through p is split.  A line is decided in
closed form: it meets the ray's line at t* = (t0 f1 - t1 f0) / (f1 - f0).
A cubic splits its control polygon by de Casteljau.  An arc is decided by
its disk and its end floats, cut where needed where its circle meets the
perpendicular through p.  This is the half-open rule of Hormann and
Agathos ("The point in polygon problem for arbitrary polygons", 2001),
and since the index changes by +-1 wherever the curve crosses a line (the
paper's Proposition jun04p1), the count is the winding number, exactly:

* the sum telescopes over shared end floats, so a float side that is
  wrong at a shared point moves a crossing across it but keeps the total;
* p has a certified clearance lo > 0, so every ahead or behind decision
  is made at least lo from p;
* tangencies and runs along the ray need no special case.

No root is found and no ray is retried.  The one failure is a cubic
bracket that still straddles both lines after _REFINE_LEVELS halvings.

Cubic carrier distances refine de Casteljau control boxes.  A node is
finished once its box diagonal is at most _REFINE_REL_TOL times its box
distance, or at level _REFINE_LEVELS - 1.  The rule holds no length, so a
scaling by a power of two finishes the same nodes; a point on a cubic,
whose held nodes have distance 0 and never finish by width, refines to
the level cap.

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

Least-distance carrier queries: a caller that wants only the least
distance over a set of points, such as a join's gap over the samples of
its path, passes ``least=True``.  Let ``U`` be the least upper bound
``hi`` of any point so far in the call, carried from block to block.  A
point stops refining as soon as its lower envelope is strictly above
``U``, and its envelope becomes its ``lo``.  The envelope is a lower bound
on the point's full ``lo`` (as above), and ``U`` only falls, so a stopped
point's full ``lo`` is above the final ``U``, which is at least the least
full ``lo`` of all points: the point that holds it never stops.  Nor does
the point that sets ``U``, whose envelope is at most its ``hi``.  Points
are independent in the refinement, so the points that do not stop refine
exactly as in a full query.  A stopped point returns its envelope or its
``hi``, whichever is less, and both are at least the final ``U``.  So the
least returned ``lo`` is the least full ``lo`` bit for bit, ties included.

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

Winding chords from a distance query: ``carrier_batch`` refines the same
de Casteljau nodes as ``winding_batch``, and given a list ``chords`` it
collects the winding's chords on the way, so ``winding_number`` and
``classify`` refine each cubic once: they pass those chords to
``winding_batch``, which then skips ``_refine_held``.
Call a node held when its control box holds its point: its axis gaps are
0, which both kernels test alike, so its box distance is exactly 0.  For
every point whose returned ``lo`` is positive, the refinement keeps and
splits every held node down to level _WIND_LEVELS (below _REFINE_LEVELS),
because each way to lose one sets ``lo`` to 0:

* a held node that finishes lowers ``lo_acc`` to its distance, 0;
* a held node that is not live, or not near at level 0, has ``hi <= 0``;
* a point stopped by a stop rule takes its envelope as ``lo_acc``, and a
  kept held node makes that envelope 0 (the least-distance rule never
  stops such a point: 0 is above no bound).

Level 0 holds the cubics in column order, so the held ones come in the
order ``winding_batch`` starts from.  Each level's nodes are [left halves,
right halves] of the kept nodes in order, so by induction the halves of
held nodes come as ``winding_batch`` has them, [left halves, right halves]
of the held nodes in order, and ``_split`` computes each column alone, so
their floats are equal too.  Both kernels pass these halves to
``_held_chords``, which gives the chord ratios of the halves that exclude
the point and applies the width rule at level _WIND_LEVELS.  A half lies in
its node's box, so no other node can be held.  ``_add_chords`` then sums
the run-tree cut and these chords per point in the same order, so
``total``, ``nodes`` and ``status`` are ``winding_batch``'s bit for bit.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .pieces import FULL_TURN_TOL, KIND_ARC, KIND_CUBIC, KIND_LINE
from .pieces import _arc_xy, _sweep_offset

# status codes shared by the kernels
OK = 0
ON_CARRIER = 1
# no kernel returns NODE_LIMIT any more; only the benchmark tracer reads it
NODE_LIMIT = 2

# an angle this far past either end of an arc's sweep still lies on it
_SWEEP_TOL = 1e-12
# a point this far from an arc's circle, relative to the radius, and within
# its sweep evaluates on the arc in the winding kernel
_ON_ARC_TOL = 1e-12
# cubic carrier-distance nodes are finished once their box diagonal is at
# most this times their distance
_REFINE_REL_TOL = 1e-3
# subdivision levels of the carrier-distance refinement, where a node that
# reaches the last one is finished as it stands, and of a cubic ray bracket,
# which puts its point ON_CARRIER there
_REFINE_LEVELS = 80
# a cubic winding node this many halvings deep whose box still holds the
# point puts it ON_CARRIER; fewer than _REFINE_LEVELS, so a carrier_batch
# query reaches it too.  A depth, not a length: deeper float de Casteljau
# nodes stop tracking the curve, and their chords can make the winding
# disagree with the ray where the ray still counts right
_WIND_LEVELS = 44
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
# a float orientation determinant a - b above _ORIENT_ERR (|a| + |b|) plus
# _ORIENT_ABS, the round-off of products that underflow, has the exact sign
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_ABS = 2.0**-1070
# bounds a line or arc distance's round-off over magnitudes (_exact_pieces)
_EXACT_ERR = 8.0 * float(np.finfo(float).eps)
# a chord ratio whose denominator is 0 is not finite, and puts its point
# ON_CARRIER with no warning (_wind_chords, _add_chords); _ratio's first
# division may also overflow
_RATIO_ERRORS = dict(divide="ignore", invalid="ignore", over="ignore")


def _halves(c0, c1, c2, c3):
    """The de Casteljau halves at u = 1/2 of Bernstein coefficients c0..c3."""

    m01, m12, m23 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c2 + c3)
    a, b = 0.5 * (m01 + m12), 0.5 * (m12 + m23)
    m = 0.5 * (a + b)
    return (c0, m01, a, m), (m, b, m23, c3)


def ray_hits_point(geo, px, py, vx, vy, out):
    """The signed crossings of the ray from (px, py) along the unit
    direction (vx, vy): one record per counted stretch.

    Each counted stretch is appended to ``out`` as a tuple (piece, u0, u1,
    sign): the curve passes across the ray's line within piece parameters
    [u0, u1] ahead of the point, from the side f >= 0 to f < 0 for sign +1
    and back for -1.  A gap stretch between the unequal end floats of
    pieces k and k + 1 is recorded as (k, 1.0, 1.0, sign).  ``out`` ends
    sorted.  Returns (len(out), status): OK, or ON_CARRIER where a cubic
    bracket still straddles both lines through the point after
    _REFINE_LEVELS halvings.  ``geo`` is the curve's ``carrier_geometry``;
    the module docstring gives the rule and why its sum is the winding
    number.
    """

    for i, x0, y0, x1, y1, ua, ub in geo.ray_lines:
        f0 = (x0 - px) * vy - (y0 - py) * vx
        f1 = (x1 - px) * vy - (y1 - py) * vx
        if (f0 >= 0.0) == (f1 >= 0.0):
            continue
        t0 = (x0 - px) * vx + (y0 - py) * vy
        t1 = (x1 - px) * vx + (y1 - py) * vy
        if t0 <= 0.0 and t1 <= 0.0:
            continue
        # where the line meets the ray's line, t* = (t0 f1 - t1 f0) /
        # (f1 - f0), written so that no product can overflow
        if (t0 > 0.0 and t1 > 0.0) or t0 + (t1 - t0) * (f0 / (f0 - f1)) > 0.0:
            out.append((i, ua, ub, 1 if f0 >= 0.0 else -1))
    for i, cx, cy, r, a0, sweep, x0, y0, x1, y1 in geo.ray_arcs:
        tc = (cx - px) * vx + (cy - py) * vy
        if tc + r <= 0.0:
            continue
        s0 = (x0 - px) * vy - (y0 - py) * vx >= 0.0
        s1 = (x1 - px) * vy - (y1 - py) * vx >= 0.0
        if tc - r > 0.0:
            if s0 != s1:
                out.append((i, 0.0, 1.0, 1 if s0 else -1))
            continue
        fc = (cx - px) * vy - (cy - py) * vx
        if s0 == s1 and abs(fc) > r:
            continue
        # the circle meets the perpendicular through the point where
        # f = fc + b, b = -+h: cut the arc there, so that each part lies
        # wholly ahead of the point or wholly behind it
        sign, span = math.copysign(1.0, sweep), abs(sweep)
        # sqrt(r^2 - tc^2) without a square to underflow or overflow
        h = math.sqrt(r - abs(tc)) * math.sqrt(r + abs(tc))
        cuts = [(0.0, s0), (span, s1)]
        for b in (-h, h):
            theta = math.atan2(-tc * vy - b * vx, -tc * vx + b * vy)
            d = _sweep_offset(theta, a0, sign)
            if d < span:
                cuts.append((d, fc + b >= 0.0))
        cuts.sort()
        for (da, sa), (db, sb) in zip(cuts, cuts[1:]):
            mid = a0 + sign * 0.5 * (da + db)
            if sa != sb and tc + r * (math.cos(mid) * vx + math.sin(mid) * vy) > 0.0:
                out.append((i, da / span, db / span, 1 if sa else -1))
    for i, x0, y0, x1, y1, x2, y2, x3, y3 in geo.ray_cubics:
        # the control points' offsets f and ray parameters t are the
        # Bernstein coefficients of f and t along the cubic
        g0 = (x0 - px) * vy - (y0 - py) * vx
        g1 = (x1 - px) * vy - (y1 - py) * vx
        g2 = (x2 - px) * vy - (y2 - py) * vx
        g3 = (x3 - px) * vy - (y3 - py) * vx
        if (g0 >= 0.0) == (g1 >= 0.0) == (g2 >= 0.0) == (g3 >= 0.0):
            continue
        h = (
            (x0 - px) * vx + (y0 - py) * vy,
            (x1 - px) * vx + (y1 - py) * vy,
            (x2 - px) * vx + (y2 - py) * vy,
            (x3 - px) * vx + (y3 - py) * vy,
        )
        brackets = [(0.0, 1.0, 0, (g0, g1, g2, g3), h)]
        while brackets:
            ulo, uhi, level, g, h = brackets.pop()
            if min(g) >= 0.0 or max(g) < 0.0 or max(h) <= 0.0:
                continue
            if min(h) > 0.0:
                if (g[0] >= 0.0) != (g[3] >= 0.0):
                    out.append((i, ulo, uhi, 1 if g[0] >= 0.0 else -1))
                continue
            if level == _REFINE_LEVELS:
                return len(out), ON_CARRIER
            mid = 0.5 * (ulo + uhi)
            (gl, gr), (hl, hr) = _halves(*g), _halves(*h)
            brackets.append((mid, uhi, level + 1, gr, hr))
            brackets.append((ulo, mid, level + 1, gl, hl))
    out.sort()
    return len(out), OK


def carrier_dist_point(
    kinds, data, samples, offsets, px, py, geo, need=None, chords=None
):
    """``carrier_batch`` on the one point (px, py): returns floats (lo, hi)."""

    lo, hi = carrier_batch(
        kinds, data, samples, offsets, np.array([[px, py]]), geo, need,
        chords=chords,
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
    end points, which ``_arc_xy`` evaluates with ``math``'s trig: a (10, k)
    array for the k data rows ``arc``."""

    rows = []
    for cx, cy, r, a0, sweep in arc[:, :5].tolist():
        full = abs(abs(sweep) - math.tau) <= FULL_TURN_TOL
        rows.append((
            cx, cy, r, a0, math.copysign(1.0, sweep),
            math.inf if full else abs(sweep) + _SWEEP_TOL,
            *_arc_xy(cx, cy, r, a0), *_arc_xy(cx, cy, r, a0 + sweep),
        ))
    return np.array(rows).reshape(-1, 10).T.copy()


def winding_batch(kinds, geo, pts, chords=None):
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

    ``chords``, when given, are the points' cubic refinement chords as a
    ``carrier_batch`` call with a chords list collected them, and the
    cubics are not refined again: the result is the same for every point
    whose ``lo`` that call returned positive (module docstring).  Points
    given with chords form one block, since the chords index them all.
    """

    pts = np.ascontiguousarray(pts, dtype=float)
    m = pts.shape[0]
    total = np.zeros(m, dtype=complex)
    nodes = np.zeros(m, dtype=np.int64)
    status = np.zeros(m, dtype=np.int64)
    with np.errstate(**_RATIO_ERRORS):
        if chords is not None:
            _wind_block(geo, pts, total, nodes, status, chords)
            return total, nodes, status
        for blk in _point_blocks(m, geo.e0.size + geo.node_parent.size):
            _wind_block(geo, pts[blk], total[blk], nodes[blk], status[blk])
    return total, nodes, status


def _wind_block(geo, pts, total, nodes, status, chords=None):
    """Fill one block's ``total``, ``nodes`` and ``status`` in place: the
    line and arc chords, then the run-tree cut and the cubic refinement
    chords, from ``_refine_held`` unless ``chords`` gives them."""

    z = pts[:, 0] + 1j * pts[:, 1]
    if geo.e0.size:
        total[:], on = _wind_chords(geo.e0, geo.e1, geo.arc, z)
        nodes[:] = geo.e0.size
        status[:] = np.where(on, ON_CARRIER, OK)
    if geo.ctl.shape[2]:
        cut, excl = _tree_cut(geo, z)
        if chords is None:
            chords = _refine_held(geo, z, excl)
        _add_chords([cut, *chords], total, nodes, status)


def _in_sweep(wx, wy, a0, sign, span):
    """Whether the directions (wx, wy) from the arcs' centres lie on their
    sweeps, within _SWEEP_TOL (anywhere, for a full circle); ``a0``,
    ``sign`` and ``span`` are the arcs' ``_arc_rows`` rows."""

    return _sweep_offset(np.arctan2(wy, wx), a0, sign) <= span


def _ratio(num, den):
    """num / den elementwise, finite wherever den is not 0 and the
    quotient is in range.

    numpy divides complex numbers by way of 1 / den, which overflows once
    |den| is below about 2**-1024; the entries that come out non-finite
    are divided again with both parts scaled by 2**64, which is exact.
    """

    out = num / den
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = (num[bad] * 2.0**64) / (den[bad] * 2.0**64)
    return out


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
    ratio = _ratio(e1 - zc, e0 - zc)
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
        on = _in_sweep(w.real, w.imag, a0, sign, span)
        bad[:, -na:] |= on & (np.abs(rad - r) <= _ON_ARC_TOL * r)
    term[bad] = 0.0
    return term.sum(axis=1), bad.any(axis=1)


def _tree_cut(geo, z):
    """The run-tree cut for the points ``z``.

    One pass tests every run-tree node's box against every point.  Returns
    ((i, ratio), excl): the point index and chord ratio of every node whose
    box excludes point i while its parent's box does not (or that is a
    root), and the (b, k) mask of the cubics, nodes 0 .. k - 1, whose
    control box excludes each point.
    """

    b = z.shape[0]
    nn = geo.node_parent.size
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
    cut = (i, _ratio(geo.node_e1[n] - zi, geo.node_e0[n] - zi))
    return cut, out[:, : geo.ctl.shape[2]]


def _refine_held(geo, z, excl):
    """The refinement chords of every (point, cubic) pair whose control box
    holds the point (``excl`` False): the cubics split into halves, and
    each level passes through ``_held_chords``."""

    nc = geo.ctl.shape[2]
    chords = []
    idx, col = np.divmod(np.flatnonzero(~excl), nc)
    if not idx.size:
        return chords
    node = _split(geo.ctl.take(col, axis=2))
    idx = np.concatenate([idx, idx])
    q = np.stack([z.real, z.imag])
    for level in range(1, _WIND_LEVELS + 1):
        _, _, gap = _node_gaps(node, q.take(idx, axis=1))
        outside = np.maximum.reduce(gap) > 0.0
        rest = _held_chords(node, outside, idx, z, level, chords)
        if not rest.size:
            break
        idx = idx[rest]
        idx = np.concatenate([idx, idx])
        node = _split(node.take(rest, axis=2))
    return chords


def _held_chords(node, outside, idx, z, level, chords):
    """One winding refinement level of the (4, 2, k) nodes ``node``, the
    halves of cubic nodes whose box holds their point ``z[idx]``;
    ``outside`` marks the halves whose box excludes it.

    Appends (idx, ratio) to ``chords`` for those, each ratio (end - z) /
    (start - z), and returns the positions of the others.  At level
    _WIND_LEVELS those points are on the carrier: (their idx, None) is
    appended instead and no position is returned.
    """

    a = outside.nonzero()[0]
    ends = node[0::3, :, a]
    w = (ends[:, 0] + 1j * ends[:, 1]) - z[idx[a]]
    chords.append((idx[a], _ratio(w[1], w[0])))
    rest = (~outside).nonzero()[0]
    if level == _WIND_LEVELS:
        chords.append((idx[rest], None))
        return rest[:0]
    return rest


def _add_chords(chords, total, nodes, status):
    """Add the (idx, ratio) chords to the block's ``total`` and ``nodes``
    in place, all logs in one call, each point's terms summed in the order
    given; an (idx, None) entry, or a ratio whose log is not finite, puts
    its points ON_CARRIER."""

    b = total.shape[0]
    for i, ratio in chords:
        if ratio is None:
            status[i] = ON_CARRIER
    chords = [c for c in chords if c[1] is not None]
    idx = np.concatenate([i for i, _ in chords])
    term = _log(np.concatenate([r for _, r in chords]))
    bad = ~np.isfinite(term)
    if bad.any():
        status[idx[bad]] = ON_CARRIER
        term[bad] = 0.0
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

    Lines: rows x0, y0, ex, ey, sx, sy, (sx^2 + sy^2) / s, where (sx, sy)
    is the line's (ex, ey) times the power of two s that brings the larger
    of |ex| and |ey| into [0.5, 1), so no square or product with a
    coordinate overflows (``_exact_pieces``).  Arcs: ``_arc_rows``.  Chords: the
    complex chord ends of the lines, then of the arcs.  Cubics:
    ``_control_polygons``.  Run tree: ``_run_tree``, whose first nodes are
    the cubics, so the first columns of ``node_lo`` and ``node_hi`` are
    the cubics' control boxes.  ``slack``: _EXACT_ERR times the largest
    magnitude of a line and of an arc (``_exact_pieces``).  ``ray_lines``,
    ``ray_arcs``, ``ray_cubics``: ``_ray_stretches``, for ``ray_hits_point``.
    """

    line: np.ndarray
    arc: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    ctl: np.ndarray
    node_lo: np.ndarray
    node_hi: np.ndarray
    node_e0: np.ndarray
    node_e1: np.ndarray
    node_parent: np.ndarray
    slack: tuple[float, float]
    ray_lines: tuple
    ray_arcs: tuple
    ray_cubics: tuple


def carrier_geometry(kinds, data):
    """The ``CarrierGeometry`` of one flattened curve."""

    x0, y0, x1, y1 = data[kinds == KIND_LINE, :4].T
    ex, ey = x1 - x0, y1 - y0
    arc = _arc_rows(data[kinds == KIND_ARC])
    cx, cy, r, a0 = arc[:4]
    mag = (
        np.abs(x0) + np.abs(y0) + np.abs(ex) + np.abs(ey),
        np.abs(cx) + np.abs(cy) + r * (8.0 + np.abs(a0)),
    )
    e = np.frexp(np.maximum(np.abs(ex), np.abs(ey)))[1]
    sx, sy = np.ldexp(ex, -e), np.ldexp(ey, -e)
    denom = np.ldexp(sx * sx + sy * sy, e)
    line = np.array([x0, y0, ex, ey, sx, sy, denom]).reshape(7, -1)
    ctl = _control_polygons(kinds, data)
    node_lo, node_hi, node_e0, node_e1, node_parent = _run_tree(ctl)
    ray_lines, ray_arcs, ray_cubics = _ray_stretches(kinds, data, arc)
    return CarrierGeometry(
        line=line,
        arc=arc,
        e0=np.concatenate([x0 + 1j * y0, arc[6] + 1j * arc[7]]),
        e1=np.concatenate([x1 + 1j * y1, arc[8] + 1j * arc[9]]),
        ctl=ctl,
        node_lo=node_lo,
        node_hi=node_hi,
        node_e0=node_e0,
        node_e1=node_e1,
        node_parent=node_parent,
        slack=tuple(_EXACT_ERR * float(m.max(initial=0.0)) for m in mag),
        ray_lines=ray_lines,
        ray_arcs=ray_arcs,
        ray_cubics=ray_cubics,
    )


def _ray_stretches(kinds, data, arc):
    """The closed chain of stretches ``ray_hits_point`` walks, by kind:
    tuples (piece, row...) for lines, arcs and cubics.

    Rows: a line's x0, y0, x1, y1, 0.0, 1.0 (the last two are the parameter
    interval it records); an arc's cx, cy, r, a0, sweep and the end floats
    of ``_arc_rows``; a cubic's eight control coordinates.  Wherever a
    piece's end floats differ from the next piece's start floats (arc ends
    come from cos and sin), a line (k, end of k, start of k + 1, 1.0, 1.0)
    bridges the gap after piece k, so every stretch starts on the floats
    that the one before it in the chain ends on.
    """

    rows = ([], [], [])
    ends = []
    arcs = iter(arc.T.tolist())
    for i, (kind, row) in enumerate(zip(kinds.tolist(), data.tolist())):
        if kind == KIND_LINE:
            rows[0].append((i, *row[:4], 0.0, 1.0))
            ends.append((row[0:2], row[2:4]))
        elif kind == KIND_ARC:
            a = next(arcs)
            rows[1].append((i, *row[:5], *a[6:10]))
            ends.append((a[6:8], a[8:10]))
        else:
            rows[2].append((i, *row))
            ends.append((row[0:2], row[6:8]))
    for k, (_, end) in enumerate(ends):
        start = ends[(k + 1) % len(ends)][0]
        if end != start:
            rows[0].append((k, *end, *start, 1.0, 1.0))
    return tuple(map(tuple, rows))


def carrier_batch(
    kinds, data, samples, offsets, pts, geo, need=None, least=False, chords=None
):
    """Carrier-distance enclosures for many points: returns (lo, hi) arrays.

    Line and arc pieces are closed form, less their round-off in ``lo``
    (``_exact_pieces``).  Cubic pieces refine control boxes until each
    surviving box is small relative to its distance, or reaches the level
    cap (module docstring); every cubic's start point, and then the start
    point of every refinement node, lowers the upper bound, since it lies on
    the curve.  A node whose box cannot beat the running upper bound is
    dropped; everything below it is no nearer than the final bound, so the
    enclosure is the one a full refinement gives, in whatever order nodes
    are visited.  ``geo`` is the curve's ``carrier_geometry``; only it,
    ``kinds`` and ``pts`` are read.  ``data``, ``samples`` and ``offsets``
    keep their places only because ``perfbench/tracing.py`` counts the
    points as the fifth argument; ``CarrierIndex`` passes None for
    ``samples`` and ``offsets``.

    ``need``, one number or one per point, makes this a threshold query:
    a point stops refining once the stop rule in the module docstring
    holds.  Its (lo, hi) then contains the full enclosure, and ``lo >=
    need`` and ``hi < need`` are what they are without ``need``; a point
    the rule never stops gets the full enclosure bit for bit.

    ``least=True``, in place of ``need``, makes this a least-distance query:
    points stop by the least-distance rule in the module docstring, and
    ``lo.min()`` is that of the full query bit for bit.  Every entry is at
    most the full ``lo`` and at least that minimum.

    ``chords``, an empty list, collects the winding chords of the cubic
    refinement as ``winding_batch`` takes them: (point index, ratio) and
    (point index, None) entries, in the order of the module docstring.
    """

    pts = np.ascontiguousarray(pts, dtype=float)
    m = pts.shape[0]
    best_hi = np.full(m, np.inf)
    lo_acc = np.full(m, np.inf)
    if need is not None:
        need = np.broadcast_to(np.asarray(need, dtype=float), (m,))
    bound = np.inf
    for blk in _point_blocks(m, kinds.shape[0]):
        q = pts[blk].T
        hi_b, lo_b = best_hi[blk], lo_acc[blk]
        _exact_pieces(geo, q, hi_b, lo_b)
        if geo.ctl.shape[2]:
            stop = None
            if need is not None:
                stop = functools.partial(
                    _stopped, best_hi=hi_b, lo_acc=lo_b, need=need[blk]
                )
            elif least:
                stop = functools.partial(
                    _least_stopped, best_hi=hi_b, lo_acc=lo_b, bound=bound
                )
            part = None if chords is None else []
            with np.errstate(**_RATIO_ERRORS):
                _cubic_pieces(geo, q, hi_b, lo_b, stop, part)
            if part:
                chords += [(i + blk.start, r) for i, r in part]
        if least:
            bound = min(bound, float(hi_b.min()))
    lo = np.minimum(lo_acc, best_hi)
    # fmax: a bound that overflowed to NaN (line pieces past about 1e154)
    # certifies no clearance
    np.fmax(lo, 0.0, out=lo)
    return lo, best_hi


def _stopped(env, best_hi, lo_acc, need):
    """The points that the threshold stop rule decides, given their lower
    envelopes ``env`` (at most ``lo_acc``); a decided point's envelope
    becomes its ``lo_acc`` in place, so its enclosure keeps containing the
    full one."""

    stop = (best_hi < need) | (env >= need)
    np.copyto(lo_acc, env, where=stop)
    return stop


def _least_stopped(env, best_hi, lo_acc, bound):
    """The points that the least-distance stop rule stops: those whose
    envelope ``env`` is above both ``bound``, the least upper bound of the
    earlier blocks, and every ``best_hi``.  A stopped point's envelope
    becomes its ``lo_acc`` in place."""

    stop = env > min(bound, best_hi.min())
    np.copyto(lo_acc, env, where=stop)
    return stop


def _exact_pieces(geo, q, best_hi, lo_acc):
    """Lower ``best_hi`` and ``lo_acc`` in place to the line and arc
    distances, one pass over all (point, piece) pairs of each kind.

    ``best_hi`` takes each kind's least distance d as computed, ``lo_acc``
    d less _EXACT_ERR (d + M), with M the largest |x0| + |y0| + |ex| + |ey|
    of the lines or |cx| + |cy| + r (8 + |a0|) of the arcs (``geo.slack``
    holds _EXACT_ERR M).  That grows with d, so taken of the least d it is
    the least of the pieces'.  In units of u = 2**-53 a line's distance is
    off by at most 9 (d + M): M from rounding ex, ey; 6 (d + M) from t,
    whose error is 6u |p - a| / |e| along a segment of length |e| from a,
    with |p - a| <= d + |e|; 2 M to form the foot; 3 d in the difference
    and hypot.  An arc's is off by at most 4 d + 3 M on its sweep, from
    the offset to the centre, whose length is at most d + r, hypot and
    - r; off it, by 3 M for each end, through its rounded angle, cos, sin
    and sum, and 3.5 d in the difference and hypot.  8 eps is 16u, with
    room for the terms in u**2.  A direction within _SWEEP_TOL past an
    arc's end takes the distance to its circle, which is no larger.
    """

    px, py = q[0][:, None], q[1][:, None]
    parts = []
    if geo.line.shape[1]:
        # numerator and denominator both carry the factor s, so t is the
        # unscaled quotient to the bit
        x0, y0, ex, ey, sx, sy, denom = geo.line
        t = np.clip(((px - x0) * sx + (py - y0) * sy) / denom, 0, 1)
        parts.append((np.hypot(px - (x0 + t * ex), py - (y0 + t * ey)), geo.slack[0]))
    if geo.arc.shape[1]:
        cx, cy, r, a0, sign, span, e0x, e0y, e1x, e1y = geo.arc
        wx, wy = px - cx, py - cy
        rad = np.abs(np.hypot(wx, wy) - r)
        on = _in_sweep(wx, wy, a0, sign, span)
        ends = np.minimum(
            np.hypot(px - e0x, py - e0y), np.hypot(px - e1x, py - e1y)
        )
        parts.append((np.where(on, rad, ends), geo.slack[1]))
    for d, slack in parts:
        d = d.min(axis=1)
        np.minimum(best_hi, d, out=best_hi)
        np.minimum(lo_acc, d * (1.0 - _EXACT_ERR) - slack, out=lo_acc)


def _cubic_pieces(geo, q, best_hi, lo_acc, stop, chords=None):
    """Tighten ``best_hi``/``lo_acc`` in place by every cubic's control boxes.

    The cubics' start points lower ``best_hi`` first.  Level 0 is the
    cubics' own control boxes, measured once over every (point, cubic)
    pair from the run tree's first nodes.  With a stop rule ``stop``
    (``_stopped`` or ``_least_stopped`` bound to these points, taking their
    envelopes), those boxes give every point an envelope, and points the
    rule stops on it skip the refinement.  The pairs whose box distance is
    below ``best_hi`` then refine together, one level per step: a node is
    finished when its box is small next to its distance, or at the last
    level, and then lowers ``lo_acc`` to that distance; the halves of the
    others are measured for the next level, and each right half's start
    point, which lies on the curve, lowers ``best_hi``.  With ``stop``, a
    point leaves the loop as soon as the rule stops it.  With a list
    ``chords``, the children of the kept nodes whose box holds their point
    pass through ``_held_chords`` down to level _WIND_LEVELS.
    """

    qq = q[:, :, None]
    # whether kept nodes may still hold their point and give chords
    wind = chords is not None
    z = q[0] + 1j * q[1] if wind else None
    nc = geo.ctl.shape[2]
    lo, hi = geo.node_lo[:, :nc], geo.node_hi[:, :nc]
    gap = np.maximum(lo[:, None, :] - qq, qq - hi[:, None, :])
    np.maximum(gap, 0.0, out=gap)
    db = np.hypot(gap[0], gap[1])
    d = qq - geo.ctl[0][:, None, :]
    np.minimum(best_hi, np.hypot(d[0], d[1]).min(axis=1), out=best_hi)
    todo = np.arange(q.shape[1])
    if stop is not None:
        todo = (~stop(np.minimum(lo_acc, db.min(axis=1)))).nonzero()[0]
        if not todo.size:
            return
    db = db[todo]
    near = db < best_hi[todo, None]
    i, col = near.nonzero()
    idx, db = todo[i], db[near]
    ext = hi - lo
    diag = np.hypot(ext[0], ext[1])[col]
    node = geo.ctl
    for level in range(_REFINE_LEVELS):
        live = db < best_hi[idx]
        done = diag <= _REFINE_REL_TOL * db
        if level == _REFINE_LEVELS - 1:
            done[:] = True
        np.minimum.at(lo_acc, idx, np.where(live & done, db, np.inf))
        keep = (live > done).nonzero()[0]
        if stop is not None and keep.size:
            env = lo_acc.copy()
            np.minimum.at(env, idx[keep], db[keep])
            keep = keep[~stop(env)[idx[keep]]]
        if not keep.size:
            break
        # the kept nodes whose box holds their point; a half lies in its
        # node's box, so only the halves of these can hold it in turn
        held = keep[:0]
        if wind:
            held = np.flatnonzero(db[keep] == 0.0)
            wind = held.size > 0 and level + 1 < _WIND_LEVELS
        # the next level: both halves of each kept node, left halves first
        node = _split(node.take(col[keep], axis=2))
        idx = np.concatenate([idx[keep], idx[keep]])
        col = np.arange(idx.size)
        qn = q.take(idx, axis=1)
        lo, hi, gap = _node_gaps(node, qn)
        db = np.hypot(gap[0], gap[1])
        ext = hi - lo
        diag = np.hypot(ext[0], ext[1])
        if held.size:
            c = np.concatenate([held, held + keep.size])
            _held_chords(node[:, :, c], db[c] > 0.0, idx[c], z, level + 1, chords)
        # a left half keeps its parent's start point
        d0 = qn[:, keep.size :] - node[0, :, keep.size :]
        np.minimum.at(best_hi, idx[keep.size :], np.hypot(d0[0], d0[1]))


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


def pair_scan(xy, ts, sep_floor, a, b, eps_levels):
    """Chord-gap scan driving the injectivity and inverse-modulus tables.

    Returns (min_gap, i_min, j_min, deltas) over pairs i < j of samples
    with increasing parameters ``ts`` in [a, b].  ``min_gap`` is the
    shortest chord among pairs whose parameter separation, wrapped around
    the period b - a, is >= sep_floor;
    among the pairs at exactly ``min_gap`` the witness is the smallest
    (i, j).  deltas[k] is the shortest chord among pairs admissible for
    eps_levels[k] (nondecreasing in k): separation >= eps and both
    parameters inside [a + eps/2, b - eps/2].  A pair is admissible for
    every level up to its cap, so the deltas are nondecreasing too.  A
    chord is ``np.hypot`` of the coordinate differences, as in a full
    O(n^2) scan, and the outputs equal that scan's bit for bit.

    Two branch and bound scans over blocks of _SCAN_BLOCK consecutive
    samples, the dual-tree pruning of Gray & Moore ("N-Body Problems in
    Statistical Learning", NIPS 2000), one for ``min_gap`` (J1) and one for
    the deltas (J2).  Both walk one list of the block pairs P <= Q in order
    of increasing box distance, up to _SCAN_STEP pairs per vectorised step
    (``_visit``); the sample pairs of one block pair form a slab.  The box
    distance is rounded down two ulps with ``np.nextafter``: the axis gaps
    round monotonically and hypot is faithful to an ulp, so the result
    never exceeds a chord computed between the two blocks.  The block
    parameter ranges bound each pair's separation and cap the same way.

    The J1 scan takes a block pair whose box distance is at most the
    current ``min_gap`` and that holds a pair separated by sep_floor or
    more, and masks the pairs of each slab by separation.  The J2 scan
    keeps the level minima as suffix minima: ``deltas[k]`` runs over every
    pair that reaches level k, so it is never above ``deltas[k + 1]``, and
    the threshold of a block pair is ``deltas`` at the highest level its
    largest cap reaches.  Level k is updated only from slabs whose box
    distance is at most ``deltas[k]``; no pair of any other slab can lower
    it.  A skipped pair can change neither a minimum nor a tie.

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
    period = b - a
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
    e = math.frexp(span)[1]
    xs, ys = np.ldexp(xy[:, 0], -e), np.ldexp(xy[:, 1], -e)
    x, y = xy[:, 0].copy(), xy[:, 1].copy()
    bs = cols.shape[1]
    buf = np.empty((3, _SCAN_STEP, bs, bs))

    def slabs(hit):
        """Rows, columns, squared chords and dt of the slabs ``hit``; a
        diagonal slab also holds pairs i >= j, whose dt is -inf, so they
        pass no test."""

        S = hit.size
        I, J = cols[P[hit]], cols[Q[hit]]
        dx = np.subtract(xs[J][:, None, :], xs[I][:, :, None], out=buf[0, :S])
        dy = np.subtract(ys[J][:, None, :], ys[I][:, :, None], out=buf[1, :S])
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        dt = np.subtract(ts[J][:, None, :], ts[I][:, :, None], out=buf[2, :S])
        for s in np.flatnonzero(P[hit] == Q[hit]):
            sub = dt[s]
            sub[sub <= 0.0] = -np.inf
        return I, J, np.add(dx, dy, out=dx), dt

    # J1: the least chord among the pairs separated by sep_floor, and the
    # smallest (i, j) at it
    for hit in _visit(
        lower,
        lambda start, end: np.where(j1_ok[start:end], best, -np.inf),
        lambda: best,
    ):
        I, J, d2, dt = slabs(hit)
        ok = np.minimum(dt, period - dt) >= sep_floor
        _, (_, ii, jj, hh) = _least(d2, I, J, x, y, np.arange(hit.size), ok, False)
        g = float(hh.min()) if hh.size else np.inf
        if g <= best and g < np.inf:
            at = hh == g
            ii, jj = ii[at], jj[at]
            w = np.lexsort((jj, ii))[0]
            tie = (int(ii[w]), int(jj[w]))
            if g < best or tie < (bi, bj):
                best = g
                bi, bj = tie
    # J2: the level minima.  The appended -inf is read by top == -1, a pair
    # that reaches no level; level_min is nondecreasing, so its largest
    # entry is the last
    for hit in _visit(
        lower,
        lambda start, end: np.append(level_min, -np.inf)[top[start:end]],
        lambda: level_min.max(initial=-np.inf),
    ):
        I, J, d2, cap = slabs(hit)
        np.minimum(cap, 2.0 * (ts[I] - a)[:, :, None], out=cap)
        np.minimum(cap, 2.0 * (b - ts[J])[:, None, :], out=cap)
        # the levels each slab can still lower; a slab's box distance is at
        # most level_min[top], so lo <= hi.  One level per slab and pass,
        # from the top level down
        lo = np.searchsorted(level_min, lower[hit], side="left")
        hi = top[hit]
        for depth in range(int((hi - lo).max()) + 1):
            on = np.flatnonzero(hi - depth >= lo)
            lev = hi[on] - depth
            ok = _rows(cap, on) >= eps_levels[lev][:, None, None]
            least, _ = _least(d2, I, J, x, y, on, ok)
            np.minimum.at(level_min, lev, least)
    return best, bi, bj, level_min


def _visit(lower, admit, cap):
    """The steps of a branch and bound over block pairs sorted by ``lower``.

    Yields up to _SCAN_STEP positions at a time whose ``lower`` is at most
    ``admit(start, end)``, the bounds of positions start:end, searching
    _SCAN_WINDOW positions at a time, and stops at the first window whose
    ``lower`` is above ``cap()``: no later pair is nearer.  Both are read
    again before every step, so they see what the last step lowered.
    """

    m = lower.shape[0]
    pos = 0
    while pos < m and lower[pos] <= cap():
        end = min(m, pos + _SCAN_WINDOW)
        hit = np.flatnonzero(lower[pos:end] <= admit(pos, end))[:_SCAN_STEP] + pos
        pos = end if hit.size < _SCAN_STEP else int(hit[-1]) + 1
        if hit.size:
            yield hit


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
    """The smallest pair of non-adjacent sample segments that meet.

    Segment k runs from sample k to sample k + 1, the last one back to
    sample 0.  Returns (i, j), i < j, for the smallest pair of segments
    that are not neighbours on the closed polyline and that cross or
    touch (a sample on another segment counts), or (-1, -1).  Each has
    its ends on both sides of the other's line or on it, and collinear
    segments meet where their boxes do.  Only block pairs whose boxes
    overlap are tested, each box spanning its block's samples and the end
    of its last segment.
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
    found = (n, n)
    for s in range(0, near.size, _SCAN_STEP):
        k = near[s : s + _SCAN_STEP]
        i, j = np.broadcast_arrays(cols[P[k]][:, :, None], cols[Q[k]][:, None, :])
        # each pair once, and no neighbours: they share an endpoint
        pair = (j > i + 1) & ((j + 1) % n != i)
        ii, jj = i[pair], j[pair]
        a0, a1, b0, b1 = xy[ii], xy[(ii + 1) % n], xy[jj], xy[(jj + 1) % n]
        # first the segments j whose ends lie on both sides of the line of
        # segment i or on it, few of them
        s0, s1 = _orient(a0, a1, b0), _orient(a0, a1, b1)
        ok = s0 * s1 <= 0
        flat = ((s0 == 0) & (s1 == 0))[ok]
        ii, jj, a0, a1, b0, b1 = ii[ok], jj[ok], a0[ok], a1[ok], b0[ok], b1[ok]
        s0, s1 = _orient(b0, b1, a0), _orient(b0, b1, a1)
        hit = s0 * s1 <= 0
        # four ends on one line: the segments meet where their boxes do
        flat &= (s0 == 0) & (s1 == 0)
        lo = np.maximum(np.minimum(a0, a1), np.minimum(b0, b1))
        hi = np.minimum(np.maximum(a0, a1), np.maximum(b0, b1))
        hit[flat] = (lo <= hi).all(axis=1)[flat]
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

    # a product that overflows reads inf or NaN, which only keeps a block
    # pair for the exact test
    with np.errstate(over="ignore", invalid="ignore"):
        dots = seg[:, :, 0] * chord[:, None, 0] + seg[:, :, 1] * chord[:, None, 1]
    return (dots > 0.0).all(axis=1)


def _orient(p, q, r):
    """Exact sign of the turn p -> q -> r, rows of points: +1 left, -1
    right, 0 collinear.  Shewchuk's orient2d filter ("Adaptive Precision
    Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997)
    passes the float signs it proves; the rest, float zeros among them,
    are decided on the floats as exact integers."""

    # an overflow reads inf or NaN, which the filter passes to the exact test
    with np.errstate(over="ignore", invalid="ignore"):
        (ux, uy), (vx, vy) = (q - p).T, (r - p).T
        a, b = ux * vy, uy * vx
        out = np.sign(a - b)
        err = _ORIENT_ERR * (np.abs(a) + np.abs(b)) + _ORIENT_ABS
        k = np.flatnonzero(~(np.abs(a - b) > err))
    if k.size:
        m, e = np.frexp(np.stack([p[k], q[k], r[k]]))
        e = (e - e.min()).astype(object)
        p, q, r = np.ldexp(m, 53).astype(np.int64).astype(object) << e
        (ux, uy), (vx, vy) = (q - p).T, (r - p).T
        out[k] = np.sign(ux * vy - uy * vx)
    return out


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
