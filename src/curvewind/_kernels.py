"""Numeric kernels for winding, ray casting, carrier distance, and scans.

Pieces are flattened into ``kinds`` (int8) and ``data`` (float64, n x 8)
rows before hitting these functions:

* line : x0, y0, x1, y1
* arc  : cx, cy, r, start_angle, sweep
* cubic: x0, y0, x1, y1, x2, y2, x3, y3

Each kernel has one implementation.  The scalar kernels
(``carrier_dist_point``, ``ray_hits_point``) walk the pieces for one query
point with explicit DFS stacks; the batch kernels (``winding_batch``,
``carrier_batch``, ``grid_path``) are vectorised numpy over all query points
or grid cells at once, and the sample-pair kernels (``pair_scan``,
``polyline_crossing``) over the sample pairs of many blocks at once.

Why the winding sums are exact: every accepted node replaces a sub-path by
its chord.  Sub-path and chord both live in the node's box (the control
point box for a cubic, the chord box grown by the sagitta for an arc), so
when the query point lies strictly outside that box the closed loop (sub-path
forward, chord back) cannot wind around it, and the two integrals of
dz/(z - zeta) coincide.  The chord integral is the principal complex log of
the endpoint ratio because a segment never subtends an angle >= pi from a
point off the segment.  Refinement therefore stops as soon as boxes exclude
the query point, and the only error left is float round-off.
"""

from __future__ import annotations

import math

import numpy as np

KIND_LINE = 0
KIND_ARC = 1
KIND_CUBIC = 2

TWO_PI = 2.0 * math.pi

# status codes shared by the kernels
OK = 0
ON_CARRIER = 1
NODE_LIMIT = 2

# DFS stacks hold one pending sibling per level, so depth bounds the size
_STACK_CAP = 256
_HIT_CAP = 64
_RAY_T_MIN = 1e-12
_BRACKET_WIDTH = 1e-4
_ROOT_TOL = 1e-12
# consecutive carrier samples per pruning box in the batch distance seed
_SEED_RUN = 32
# query points per block in the batch cubic refinement
_REFINE_BLOCK = 4096
# consecutive samples per block in the chord scan and the crossing test
_SCAN_BLOCK = 32
# block pairs per vectorised step, and block pairs filtered to find them
_SCAN_STEP = 32
_SCAN_WINDOW = 2048


def _bbox_dist(px, py, xmin, ymin, xmax, ymax):
    dx = 0.0
    if px < xmin:
        dx = xmin - px
    elif px > xmax:
        dx = px - xmax
    dy = 0.0
    if py < ymin:
        dy = ymin - py
    elif py > ymax:
        dy = py - ymax
    return math.hypot(dx, dy)


def _seg_point_dist(px, py, x0, y0, x1, y1):
    ex, ey = x1 - x0, y1 - y0
    denom = ex * ex + ey * ey
    if denom == 0.0:
        return math.hypot(px - x0, py - y0)
    t = ((px - x0) * ex + (py - y0) * ey) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (x0 + t * ex), py - (y0 + t * ey))


def _angle_in_sweep(a0, sweep, theta):
    """Local parameter u in [0, 1] if theta lies on the sweep, else -1."""

    if sweep > 0.0:
        delta = (theta - a0) % TWO_PI
        if delta <= sweep + 1e-12:
            u = delta / sweep
            return u if u < 1.0 else 1.0
        return -1.0
    delta = (a0 - theta) % TWO_PI
    if delta <= -sweep + 1e-12:
        u = delta / (-sweep)
        return u if u < 1.0 else 1.0
    return -1.0


def _arc_point_dist(px, py, cx, cy, r, a0, sweep):
    wx, wy = px - cx, py - cy
    d = math.hypot(wx, wy)
    if abs(abs(sweep) - TWO_PI) <= 1e-12:
        return abs(d - r)
    theta = math.atan2(wy, wx)
    if _angle_in_sweep(a0, sweep, theta) >= 0.0:
        return abs(d - r)
    e0 = math.hypot(px - (cx + r * math.cos(a0)), py - (cy + r * math.sin(a0)))
    a1 = a0 + sweep
    e1 = math.hypot(px - (cx + r * math.cos(a1)), py - (cy + r * math.sin(a1)))
    return min(e0, e1)


def _arc_span_bbox(cx, cy, r, alo, ahi):
    """Bounding box of the arc over angles [alo, ahi] (alo <= ahi)."""

    x0, y0 = cx + r * math.cos(alo), cy + r * math.sin(alo)
    x1, y1 = cx + r * math.cos(ahi), cy + r * math.sin(ahi)
    xmin = min(x0, x1)
    xmax = max(x0, x1)
    ymin = min(y0, y1)
    ymax = max(y0, y1)
    half_pi = 0.5 * math.pi
    k = math.ceil(alo / half_pi)
    ang = k * half_pi
    while ang <= ahi:
        x = cx + r * math.cos(ang)
        y = cy + r * math.sin(ang)
        xmin = min(xmin, x)
        xmax = max(xmax, x)
        ymin = min(ymin, y)
        ymax = max(ymax, y)
        ang += half_pi
    return xmin, ymin, xmax, ymax


def _bern3(f0, f1, f2, f3, u):
    v = 1.0 - u
    return (
        v * v * v * f0
        + 3.0 * v * v * u * f1
        + 3.0 * v * u * u * f2
        + u * u * u * f3
    )


def _cubic_point(row, u):
    v = 1.0 - u
    b0 = v * v * v
    b1 = 3.0 * v * v * u
    b2 = 3.0 * v * u * u
    b3 = u * u * u
    x = b0 * row[0] + b1 * row[2] + b2 * row[4] + b3 * row[6]
    y = b0 * row[1] + b1 * row[3] + b2 * row[5] + b3 * row[7]
    return x, y


def _cubic_velocity(row, u):
    v = 1.0 - u
    c0 = 3.0 * v * v
    c1 = 6.0 * v * u
    c2 = 3.0 * u * u
    x = c0 * (row[2] - row[0]) + c1 * (row[4] - row[2]) + c2 * (row[6] - row[4])
    y = c0 * (row[3] - row[1]) + c1 * (row[5] - row[3]) + c2 * (row[7] - row[5])
    return x, y


def ray_hits_point(kinds, data, px, py, vx, vy, out):
    """All forward ray/carrier intersections, unsorted.

    ``out`` is an (_HIT_CAP, 6) scratch array filled with rows
    (t, piece, u, tan_x, tan_y, 0).  Returns (n_hits, status) where status
    is OK, ON_CARRIER for a collinear segment overlap, or NODE_LIMIT on
    overflow.  Tangential (even-order) contacts are deliberately not
    reported: they contribute an even crossing count, so parity is
    unaffected; near-tangencies that do split into close root pairs are
    caught later by the isolation window.
    """

    nh = 0
    froots = np.empty(16)
    stack = np.empty((_STACK_CAP, 6))
    for i in range(kinds.shape[0]):
        kind = kinds[i]
        row = data[i]
        if kind == KIND_LINE:
            ex, ey = row[2] - row[0], row[3] - row[1]
            rx, ry = row[0] - px, row[1] - py
            den = vx * ey - vy * ex
            elen = math.hypot(ex, ey)
            if abs(den) <= 1e-14 * elen:
                perp = rx * vy - ry * vx
                if abs(perp) <= 1e-12 * max(1.0, elen):
                    f0 = rx * vx + ry * vy
                    f1 = (row[2] - px) * vx + (row[3] - py) * vy
                    if f0 > _RAY_T_MIN or f1 > _RAY_T_MIN:
                        return nh, ON_CARRIER
                continue
            t = (rx * ey - ry * ex) / den
            u = (rx * vy - ry * vx) / den
            if -1e-12 <= u <= 1.0 + 1e-12 and t > _RAY_T_MIN:
                if nh >= _HIT_CAP:
                    return nh, NODE_LIMIT
                uu = min(1.0, max(0.0, u))
                out[nh, 0] = t
                out[nh, 1] = i
                out[nh, 2] = uu
                out[nh, 3] = ex
                out[nh, 4] = ey
                nh += 1
        elif kind == KIND_ARC:
            cx, cy, r, a0, sweep = row[0], row[1], row[2], row[3], row[4]
            ux, uy = px - cx, py - cy
            b = vx * ux + vy * uy
            c = ux * ux + uy * uy - r * r
            disc = b * b - c
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            for sgn in range(2):
                t = -b - sq if sgn == 0 else -b + sq
                if t <= _RAY_T_MIN:
                    continue
                hx = ux + t * vx
                hy = uy + t * vy
                theta = math.atan2(hy, hx)
                uu = _angle_in_sweep(a0, sweep, theta)
                if uu < 0.0:
                    continue
                if nh >= _HIT_CAP:
                    return nh, NODE_LIMIT
                out[nh, 0] = t
                out[nh, 1] = i
                out[nh, 2] = uu
                out[nh, 3] = -hy * sweep
                out[nh, 4] = hx * sweep
                nh += 1
        else:
            f0 = (row[0] - px) * vy - (row[1] - py) * vx
            f1 = (row[2] - px) * vy - (row[3] - py) * vx
            f2 = (row[4] - px) * vy - (row[5] - py) * vx
            f3 = (row[6] - px) * vy - (row[7] - py) * vx
            nroots = 0
            sp = 0
            stack[sp, 0] = 0.0
            stack[sp, 1] = 1.0
            stack[sp, 2] = f0
            stack[sp, 3] = f1
            stack[sp, 4] = f2
            stack[sp, 5] = f3
            sp += 1
            while sp > 0:
                sp -= 1
                ulo, uhi = stack[sp, 0], stack[sp, 1]
                g0, g1 = stack[sp, 2], stack[sp, 3]
                g2, g3 = stack[sp, 4], stack[sp, 5]
                if (g0 > 0.0 and g1 > 0.0 and g2 > 0.0 and g3 > 0.0) or (
                    g0 < 0.0 and g1 < 0.0 and g2 < 0.0 and g3 < 0.0
                ):
                    continue
                if uhi - ulo <= _BRACKET_WIDTH:
                    root = -1.0
                    if g0 == 0.0:
                        root = ulo
                    elif g3 == 0.0 and uhi == 1.0:
                        root = 1.0
                    elif (g0 > 0.0) != (g3 > 0.0):
                        lo, hi = ulo, uhi
                        flo = g0
                        while hi - lo > _ROOT_TOL:
                            mid = 0.5 * (lo + hi)
                            fm = _bern3(f0, f1, f2, f3, mid)
                            if fm == 0.0:
                                lo = mid
                                hi = mid
                                break
                            if (flo > 0.0) != (fm > 0.0):
                                hi = mid
                            else:
                                lo = mid
                                flo = fm
                        root = 0.5 * (lo + hi)
                    if root >= 0.0 and nroots < 16:
                        froots[nroots] = root
                        nroots += 1
                else:
                    if sp + 2 > _STACK_CAP:
                        return nh, NODE_LIMIT
                    m01 = 0.5 * (g0 + g1)
                    m12 = 0.5 * (g1 + g2)
                    m23 = 0.5 * (g2 + g3)
                    ga = 0.5 * (m01 + m12)
                    gb = 0.5 * (m12 + m23)
                    gm = 0.5 * (ga + gb)
                    mid = 0.5 * (ulo + uhi)
                    stack[sp, 0] = ulo
                    stack[sp, 1] = mid
                    stack[sp, 2] = g0
                    stack[sp, 3] = m01
                    stack[sp, 4] = ga
                    stack[sp, 5] = gm
                    sp += 1
                    stack[sp, 0] = mid
                    stack[sp, 1] = uhi
                    stack[sp, 2] = gm
                    stack[sp, 3] = gb
                    stack[sp, 4] = m23
                    stack[sp, 5] = g3
                    sp += 1
            # sort, dedup, convert to forward hits
            for a_i in range(1, nroots):
                key = froots[a_i]
                b_i = a_i - 1
                while b_i >= 0 and froots[b_i] > key:
                    froots[b_i + 1] = froots[b_i]
                    b_i -= 1
                froots[b_i + 1] = key
            # adjacent brackets re-find a shared root within ~2 * _ROOT_TOL;
            # genuine distinct crossings are never that close in parameter
            prev = -1.0
            for k in range(nroots):
                u = froots[k]
                if prev >= 0.0 and u - prev < 1e-11:
                    continue
                prev = u
                hx, hy = _cubic_point(row, u)
                t = (hx - px) * vx + (hy - py) * vy
                if t <= _RAY_T_MIN:
                    continue
                if nh >= _HIT_CAP:
                    return nh, NODE_LIMIT
                tx, ty = _cubic_velocity(row, u)
                out[nh, 0] = t
                out[nh, 1] = i
                out[nh, 2] = u
                out[nh, 3] = tx
                out[nh, 4] = ty
                nh += 1
    return nh, OK


def _piece_bbox_dist(kind, row, px, py):
    if kind == KIND_LINE:
        xmin = min(row[0], row[2])
        xmax = max(row[0], row[2])
        ymin = min(row[1], row[3])
        ymax = max(row[1], row[3])
    elif kind == KIND_ARC:
        alo = min(row[3], row[3] + row[4])
        ahi = max(row[3], row[3] + row[4])
        xmin, ymin, xmax, ymax = _arc_span_bbox(row[0], row[1], row[2], alo, ahi)
    else:
        xmin = min(min(row[0], row[2]), min(row[4], row[6]))
        xmax = max(max(row[0], row[2]), max(row[4], row[6]))
        ymin = min(min(row[1], row[3]), min(row[5], row[7]))
        ymax = max(max(row[1], row[3]), max(row[5], row[7]))
    return _bbox_dist(px, py, xmin, ymin, xmax, ymax)


def carrier_dist_point(kinds, data, samples, offsets, px, py, rel_tol):
    """Certified enclosure [lo, hi] of the distance from p to the carrier.

    Line and arc pieces are exact.  Cubic pieces refine control boxes until
    each surviving box is small relative to its distance; ``samples`` seeds
    the upper bound (de Casteljau node endpoints keep improving it since
    they lie on the curve).  Pieces whose bounding box cannot beat the
    running upper bound are skipped; every skipped candidate is >= the
    final minimum, so the returned enclosure is identical to a full scan.
    """

    n = kinds.shape[0]
    bd = np.empty(n)
    i0 = 0
    for i in range(n):
        bd[i] = _piece_bbox_dist(kinds[i], data[i], px, py)
        if bd[i] < bd[i0]:
            i0 = i
    best_hi = math.inf
    lo_acc = math.inf
    for k in range(n + 1):
        # nearest bbox first, then index order, so the skip test bites early
        if k == 0:
            i = i0
        elif k - 1 == i0:
            continue
        else:
            i = k - 1
            if bd[i] >= best_hi:
                continue
        kind = kinds[i]
        row = data[i]
        if kind == KIND_LINE:
            d = _seg_point_dist(px, py, row[0], row[1], row[2], row[3])
            if d < best_hi:
                best_hi = d
            if d < lo_acc:
                lo_acc = d
        elif kind == KIND_ARC:
            d = _arc_point_dist(px, py, row[0], row[1], row[2], row[3], row[4])
            if d < best_hi:
                best_hi = d
            if d < lo_acc:
                lo_acc = d
        elif offsets[i + 1] > offsets[i]:
            # numpy's hypot and math.hypot agree to an ulp, so only samples
            # next to the numpy minimum can hold the math.hypot minimum
            seg = samples[offsets[i] : offsets[i + 1]]
            dn = np.hypot(px - seg[:, 0], py - seg[:, 1])
            for s in np.flatnonzero(dn <= dn.min() * (1.0 + 1e-12)):
                d = math.hypot(px - seg[s, 0], py - seg[s, 1])
                if d < best_hi:
                    best_hi = d
    for i in range(kinds.shape[0]):
        if kinds[i] != KIND_CUBIC:
            continue
        if bd[i] >= best_hi:
            continue
        # plain floats and a list stack: numpy scalars are slow one by one
        stack = [tuple(data[i, :8].tolist())]
        while stack:
            x0, y0, x1, y1, x2, y2, x3, y3 = stack.pop()
            # one sorted() per axis is cheaper than six nested min/max calls
            xs = sorted((x0, x1, x2, x3))
            ys = sorted((y0, y1, y2, y3))
            xmin, xmax, ymin, ymax = xs[0], xs[3], ys[0], ys[3]
            db = _bbox_dist(px, py, xmin, ymin, xmax, ymax)
            if db >= best_hi:
                continue
            diag = math.hypot(xmax - xmin, ymax - ymin)
            if diag <= rel_tol * db + 1e-15 or len(stack) + 2 > _STACK_CAP:
                if db < lo_acc:
                    lo_acc = db
                d0 = math.hypot(px - x0, py - y0)
                if d0 < best_hi:
                    best_hi = d0
                continue
            m01x, m01y = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            m12x, m12y = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
            m23x, m23y = 0.5 * (x2 + x3), 0.5 * (y2 + y3)
            ax, ay = 0.5 * (m01x + m12x), 0.5 * (m01y + m12y)
            bx, by = 0.5 * (m12x + m23x), 0.5 * (m12y + m23y)
            mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
            stack.append((x0, y0, m01x, m01y, ax, ay, mx, my))
            stack.append((mx, my, bx, by, m23x, m23y, x3, y3))
    lo = lo_acc if lo_acc < best_hi else best_hi
    if lo < 0.0:
        lo = 0.0
    return lo, best_hi



# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------


def winding_batch(kinds, data, pts):
    """Winding integrals for many points: returns (total, nodes, status).

    ``total`` is the complex contour integral of dz/(z - p) per point,
    ``nodes`` counts accepted chords for the float round-off budget, and
    ``status`` is OK, ON_CARRIER or NODE_LIMIT.
    """

    pts = np.ascontiguousarray(pts, dtype=float)
    m = pts.shape[0]
    z = pts[:, 0] + 1j * pts[:, 1]
    total = np.zeros(m, dtype=complex)
    nodes = np.zeros(m, dtype=np.int64)
    status = np.zeros(m, dtype=np.int64)
    for i in range(kinds.shape[0]):
        kind = kinds[i]
        row = data[i]
        if kind == KIND_LINE:
            w0 = (row[0] + 1j * row[1]) - z
            w1 = (row[2] + 1j * row[3]) - z
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.log(w1 / w0)
            bad = ~np.isfinite(term)
            status[bad] = ON_CARRIER
            term[bad] = 0.0
            total += term
            nodes += 1
        elif kind == KIND_ARC:
            cx, cy, r, a0, sweep = row[:5]
            c = cx + 1j * cy
            idx = np.arange(m)
            ulo = np.zeros(m)
            uhi = np.ones(m)
            for _level in range(80):
                if idx.size == 0:
                    break
                phi0 = a0 + sweep * ulo
                phi1 = a0 + sweep * uhi
                e0 = c + r * np.exp(1j * phi0)
                e1 = c + r * np.exp(1j * phi1)
                # chord bbox inflated by the sagitta bounds the sub-arc hull
                sag = r * (1.0 - np.cos(0.5 * np.abs(sweep) * (uhi - ulo)))
                xmin = np.minimum(e0.real, e1.real) - sag
                xmax = np.maximum(e0.real, e1.real) + sag
                ymin = np.minimum(e0.imag, e1.imag) - sag
                ymax = np.maximum(e0.imag, e1.imag) + sag
                zz = z[idx]
                dx = np.maximum(np.maximum(xmin - zz.real, zz.real - xmax), 0.0)
                dy = np.maximum(np.maximum(ymin - zz.imag, zz.imag - ymax), 0.0)
                outside = np.hypot(dx, dy) > 0.0
                acc = np.where(outside)[0]
                if acc.size:
                    term = np.log((e1[acc] - zz[acc]) / (e0[acc] - zz[acc]))
                    np.add.at(total, idx[acc], term)
                    np.add.at(nodes, idx[acc], 1)
                rest = np.where(~outside)[0]
                if rest.size == 0:
                    idx = idx[:0]
                    break
                narrow = (uhi[rest] - ulo[rest]) < 1e-13
                status[idx[rest[narrow]]] = ON_CARRIER
                rest = rest[~narrow]
                mid = 0.5 * (ulo[rest] + uhi[rest])
                idx = np.concatenate([idx[rest], idx[rest]])
                ulo = np.concatenate([ulo[rest], mid])
                uhi = np.concatenate([mid, uhi[rest]])
            else:
                status[idx] = NODE_LIMIT
        else:
            ctrl = row[:8].astype(complex)
            ctrl = ctrl[0::2] + 1j * ctrl[1::2]
            idx = np.arange(m)
            cps = np.broadcast_to(ctrl, (m, 4)).copy()
            widths = np.ones(m)
            for _level in range(80):
                if idx.size == 0:
                    break
                zz = z[idx]
                xmin = cps.real.min(axis=1)
                xmax = cps.real.max(axis=1)
                ymin = cps.imag.min(axis=1)
                ymax = cps.imag.max(axis=1)
                dx = np.maximum(np.maximum(xmin - zz.real, zz.real - xmax), 0.0)
                dy = np.maximum(np.maximum(ymin - zz.imag, zz.imag - ymax), 0.0)
                outside = np.hypot(dx, dy) > 0.0
                acc = np.where(outside)[0]
                if acc.size:
                    term = np.log(
                        (cps[acc, 3] - zz[acc]) / (cps[acc, 0] - zz[acc])
                    )
                    np.add.at(total, idx[acc], term)
                    np.add.at(nodes, idx[acc], 1)
                rest = np.where(~outside)[0]
                if rest.size == 0:
                    idx = idx[:0]
                    break
                narrow = widths[rest] < 1e-13
                status[idx[rest[narrow]]] = ON_CARRIER
                rest = rest[~narrow]
                p = cps[rest]
                m01 = 0.5 * (p[:, 0] + p[:, 1])
                m12 = 0.5 * (p[:, 1] + p[:, 2])
                m23 = 0.5 * (p[:, 2] + p[:, 3])
                pa = 0.5 * (m01 + m12)
                pb = 0.5 * (m12 + m23)
                pm = 0.5 * (pa + pb)
                left = np.stack([p[:, 0], m01, pa, pm], axis=1)
                right = np.stack([pm, pb, m23, p[:, 3]], axis=1)
                idx = np.concatenate([idx[rest], idx[rest]])
                cps = np.concatenate([left, right], axis=0)
                widths = np.concatenate(
                    [0.5 * widths[rest], 0.5 * widths[rest]]
                )
            else:
                status[idx] = NODE_LIMIT
    return total, nodes, status


def _refine_cubic(row, px, py, best_hi, lo_acc, rel_tol):
    """Tighten ``best_hi``/``lo_acc`` in place by one cubic's control boxes.

    ``ctl`` holds one control polygon per column, its rows laid out like a
    data row (x0, y0, ..., x3, y3), so every step is elementwise over rows.
    """

    m = px.shape[0]
    idx = np.arange(m)
    ctl = np.repeat(np.asarray(row[:8], dtype=float)[:, None], m, axis=1)
    for _level in range(80):
        if idx.size == 0:
            break
        x0, y0, x1, y1, x2, y2, x3, y3 = ctl
        xmin = np.minimum(np.minimum(x0, x1), np.minimum(x2, x3))
        xmax = np.maximum(np.maximum(x0, x1), np.maximum(x2, x3))
        ymin = np.minimum(np.minimum(y0, y1), np.minimum(y2, y3))
        ymax = np.maximum(np.maximum(y0, y1), np.maximum(y2, y3))
        qx = px[idx]
        qy = py[idx]
        dx = np.maximum(np.maximum(xmin - qx, qx - xmax), 0.0)
        dy = np.maximum(np.maximum(ymin - qy, qy - ymax), 0.0)
        db = np.hypot(dx, dy)
        live = db < best_hi[idx]
        if not live.all():
            idx = idx[live]
            ctl = ctl[:, live]
            db = db[live]
            xmin, xmax = xmin[live], xmax[live]
            ymin, ymax = ymin[live], ymax[live]
            if idx.size == 0:
                break
        diag = np.hypot(xmax - xmin, ymax - ymin)
        done = diag <= rel_tol * db + 1e-15
        if _level == 79:
            done = np.ones_like(done)
        if done.any():
            di = idx[done]
            np.minimum.at(lo_acc, di, db[done])
            d0 = np.hypot(px[di] - ctl[0, done], py[di] - ctl[1, done])
            np.minimum.at(best_hi, di, d0)
            keep = ~done
            idx = idx[keep]
            ctl = ctl[:, keep]
            if idx.size == 0:
                break
        # de Casteljau split at u = 1/2: left half in the first k columns
        k = idx.size
        x0, y0, x1, y1, x2, y2, x3, y3 = ctl
        split = np.empty((8, 2 * k))
        m01x, m01y = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        m12x, m12y = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        m23x, m23y = 0.5 * (x2 + x3), 0.5 * (y2 + y3)
        ax, ay = 0.5 * (m01x + m12x), 0.5 * (m01y + m12y)
        bx, by = 0.5 * (m12x + m23x), 0.5 * (m12y + m23y)
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        for r, (left, right) in enumerate(
            ((x0, mx), (y0, my), (m01x, bx), (m01y, by),
             (ax, m23x), (ay, m23y), (mx, x3), (my, y3))
        ):
            split[r, :k] = left
            split[r, k:] = right
        idx = np.concatenate([idx, idx])
        ctl = split


def _seed_from_samples(kinds, samples, offsets, px, py, best_hi):
    """Lower ``best_hi`` in place to the nearest cubic sample, exactly.

    Samples are grouped into runs of _SEED_RUN consecutive curve points.
    The first sample of every run gives an upper bound u on the nearest
    distance; a run whose bounding box lies farther than u cannot hold the
    nearest sample, so only the remaining runs are scanned point by point.
    The result equals the minimum over every sample.
    """

    cub = np.flatnonzero(kinds == KIND_CUBIC)
    first, last = offsets[cub], offsets[cub + 1] - 1
    nrun = (last - first + _SEED_RUN) // _SEED_RUN
    if nrun.sum() == 0:
        return
    # run r of piece i starts at first[i] + r * _SEED_RUN; a short last run
    # is padded with the piece's last sample, which leaves minima alone
    r = np.arange(nrun.sum()) - np.repeat(np.cumsum(nrun) - nrun, nrun)
    start = np.repeat(first, nrun) + r * _SEED_RUN
    cols = np.minimum(
        start[:, None] + np.arange(_SEED_RUN), np.repeat(last, nrun)[:, None]
    )
    rx = samples[cols, 0]
    ry = samples[cols, 1]
    xmin, xmax = rx.min(axis=1), rx.max(axis=1)
    ymin, ymax = ry.min(axis=1), ry.max(axis=1)
    m = px.shape[0]
    block = max(1, int(1e6) // cols.shape[0])
    for s in range(0, m, block):
        e = min(m, s + block)
        qx = px[s:e, None]
        qy = py[s:e, None]
        u = np.hypot(qx - rx[None, :, 0], qy - ry[None, :, 0]).min(axis=1)
        dx = np.maximum(np.maximum(xmin - qx, qx - xmax), 0.0)
        dy = np.maximum(np.maximum(ymin - qy, qy - ymax), 0.0)
        # the margin absorbs round-off in comparing box and sample distances
        qi, ri = np.nonzero(np.hypot(dx, dy) <= u[:, None] * (1.0 + 1e-9))
        d = np.hypot(px[s + qi, None] - rx[ri], py[s + qi, None] - ry[ri])
        np.minimum.at(best_hi, s + qi, d.min(axis=1))


def carrier_batch(kinds, data, samples, offsets, pts, rel_tol=1e-3):
    """Carrier-distance enclosures for many points: returns (lo, hi) arrays."""

    pts = np.ascontiguousarray(pts, dtype=float)
    px = pts[:, 0]
    py = pts[:, 1]
    m = pts.shape[0]
    best_hi = np.full(m, np.inf)
    lo_acc = np.full(m, np.inf)
    for i in range(kinds.shape[0]):
        kind = kinds[i]
        row = data[i]
        if kind == KIND_LINE:
            ex, ey = row[2] - row[0], row[3] - row[1]
            denom = ex * ex + ey * ey
            t = np.clip(((px - row[0]) * ex + (py - row[1]) * ey) / denom, 0, 1)
            d = np.hypot(px - (row[0] + t * ex), py - (row[1] + t * ey))
            np.minimum(best_hi, d, out=best_hi)
            np.minimum(lo_acc, d, out=lo_acc)
        elif kind == KIND_ARC:
            cx, cy, r, a0, sweep = row[:5]
            wx, wy = px - cx, py - cy
            rad = np.abs(np.hypot(wx, wy) - r)
            if abs(abs(sweep) - TWO_PI) <= 1e-12:
                d = rad
            else:
                theta = np.arctan2(wy, wx)
                if sweep > 0:
                    on = np.mod(theta - a0, TWO_PI) <= sweep + 1e-12
                else:
                    on = np.mod(a0 - theta, TWO_PI) <= -sweep + 1e-12
                a1 = a0 + sweep
                d0 = np.hypot(
                    px - (cx + r * math.cos(a0)), py - (cy + r * math.sin(a0))
                )
                d1 = np.hypot(
                    px - (cx + r * math.cos(a1)), py - (cy + r * math.sin(a1))
                )
                d = np.where(on, rad, np.minimum(d0, d1))
            np.minimum(best_hi, d, out=best_hi)
            np.minimum(lo_acc, d, out=lo_acc)
    _seed_from_samples(kinds, samples, offsets, px, py, best_hi)
    # points are independent; blocks keep the refinement arrays in cache
    for s in range(0, m, _REFINE_BLOCK):
        e = min(m, s + _REFINE_BLOCK)
        for i in range(kinds.shape[0]):
            if kinds[i] == KIND_CUBIC:
                _refine_cubic(
                    data[i], px[s:e], py[s:e], best_hi[s:e], lo_acc[s:e], rel_tol
                )
    lo = np.minimum(lo_acc, best_hi)
    np.maximum(lo, 0.0, out=lo)
    return lo, best_hi


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
    every level up to its cap, so the deltas are nondecreasing too.

    Branch and bound over blocks of _SCAN_BLOCK consecutive samples, the
    dual-tree pruning of Gray & Moore ("N-Body Problems in Statistical
    Learning", NIPS 2000).  Block pairs P <= Q are visited in order of
    increasing box distance, up to _SCAN_STEP pairs per vectorised step.
    The box distance is rounded down two ulps with ``np.nextafter``: the
    axis gaps round monotonically and hypot is faithful to an ulp, so the
    result never exceeds a chord computed between the two blocks.  A
    block pair is skipped when that distance is above both

    * the current ``min_gap`` (or the pair holds no pair separated by
      sep_floor or more), and
    * the current deltas[k] at the highest level k that the largest cap
      in the pair can reach (or it reaches none).

    A skipped pair can change neither a minimum nor a tie, so the outputs
    equal those of the full O(n^2) scan bit for bit.
    """

    xy = np.ascontiguousarray(xy, dtype=float)
    ts = np.ascontiguousarray(ts, dtype=float)
    eps_levels = np.ascontiguousarray(eps_levels, dtype=float)
    level_min = np.full(eps_levels.shape[0], np.inf)
    n = xy.shape[0]
    best = np.inf
    bi = bj = -1
    if n < 2:
        return best, bi, bj, level_min
    cols = _scan_blocks(n)
    P, Q, gx, gy = _box_gaps(xy, cols)
    lower = np.nextafter(np.nextafter(np.hypot(gx, gy), 0.0), 0.0)
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
    top = np.searchsorted(eps_levels, cap_max, side="right") - 1
    order = np.argsort(lower, kind="stable")
    P, Q, lower, j1_ok, top = (
        P[order], Q[order], lower[order], j1_ok[order], top[order]
    )
    m = P.shape[0]
    pos = 0
    while pos < m:
        # reach[k] is the J2 threshold of a pair whose top level is k; the
        # appended -inf is read by top == -1, a pair that reaches no level
        reach = np.append(np.minimum.accumulate(level_min[::-1])[::-1], -np.inf)
        if lower[pos] > max(best, reach.max()):
            break  # later pairs are no nearer
        end = min(m, pos + _SCAN_WINDOW)
        lw = lower[pos:end]
        need = ((lw <= best) & j1_ok[pos:end]) | (lw <= reach[top[pos:end]])
        hit = pos + np.flatnonzero(need)[:_SCAN_STEP]
        pos = end if hit.size < _SCAN_STEP else int(hit[-1]) + 1
        if not hit.size:
            continue
        # every sample pair of the chosen block pairs, computed exactly as
        # in a full scan: rows i against columns j, one slab per block pair
        I, J = cols[P[hit]], cols[Q[hit]]
        ti = ts[I][:, :, None]
        tj = ts[J][:, None, :]
        dt = tj - ti
        d = np.hypot(
            xy[J, 0][:, None, :] - xy[I, 0][:, :, None],
            xy[J, 1][:, None, :] - xy[I, 1][:, :, None],
        )
        upper = dt > 0
        ws = np.minimum(dt, period - dt)
        dm = np.where(upper & (ws >= sep_floor), d, np.inf)
        g = dm.min()
        if g <= best and g < np.inf:
            slab, r, c = np.nonzero(dm == g)
            ii, jj = I[slab, r], J[slab, c]
            w = np.lexsort((jj, ii))[0]
            tie = (int(ii[w]), int(jj[w]))
            if g < best or tie < (bi, bj):
                best = float(g)
                bi, bj = tie
        # a pair is binned by the largest level its cap reaches
        cap = np.minimum(dt, np.minimum(2.0 * (ti - a), 2.0 * (b - tj)))
        lvl = np.searchsorted(eps_levels, cap, side="right") - 1
        lvl[~upper] = -1
        for k in range(eps_levels.shape[0]):
            sel = lvl == k
            if sel.any():
                level_min[k] = min(level_min[k], float(d[sel].min()))
    deltas = np.minimum.accumulate(level_min[::-1])[::-1]
    return best, bi, bj, deltas


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
