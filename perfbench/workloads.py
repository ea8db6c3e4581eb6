"""The four workloads: certify, classify, field and cli.

Each workload is a closed loop with one caller.  A round is a fixed list
of operations whose inputs come from ``(seed, round)``; a run repeats
whole rounds, so every run attempts the same mix.  ``round_ops`` yields
operations one at a time and the runner times only ``op.fn()``; the
generator may read ``op.out`` of an operation it yielded earlier.  After
the timed phase ``check`` compares every output with the reference
computations in :mod:`reference` and sets ``op.problem`` on each wrong
answer or unexpected exception.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from curvewind import cli, connectivity, curves, errors, fixtures, index

import inputs
from reference import RefCurve, piece_points, scan_violations, unit_circle_violations

# certify resolutions: the CLI default for the fixtures, 1e-2 for the rest
FIXTURE_H = 1e-3
LOOP_H = 1e-2
# query workloads validate at a coarse h: it does not change the carrier
# index their queries use, only the set-up cost
QUERY_H = 0.05
CLI_H = 1e-2


@dataclass
class Op:
    kind: str
    fn: Callable[[], Any]
    data: dict = field(default_factory=dict)
    out: Any = None
    err: BaseException | None = None
    t0: float = 0.0
    lat: float = 0.0
    problem: str | None = None
    known: bool = False


class Workload:
    name = ""
    tail_pct = 50.0
    min_rounds = 1
    trace_rounds = 1
    speed_probe = True  # scale operation times by the speed probe (see run.py)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        """Program-side set-up the timed phase needs; timed as setup_s."""

    def prepare(self) -> None:
        """Benchmark-side references, built once and not timed."""

    def round_ops(self, r: int):
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        raise NotImplementedError

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


class Certify(Workload):
    """One operation is one validate_jordan call."""

    name = "certify"
    # 70 operations a round, one round a run.  p85 is the highest
    # percentile with ten beyond it, but it spread 0.11 over ten seeds
    # against 0.07 for p75, which still has 17 beyond it
    tail_pct = 75.0
    speed_probe = False

    def cases(self, r: int) -> list[dict]:
        rng = self.rng(r)
        cases = []
        for name in inputs.GOOD_FIXTURES:
            obj, iv = inputs.fixture_dict(name)
            cases.append(dict(label=name, obj=obj, interval=iv, h=FIXTURE_H, expect=None))
        for n in inputs.STAR_PIECES:
            cases.append(dict(label=f"star{n}", obj=inputs.star_loop(rng, n), interval=None,
                              h=LOOP_H, expect=None))
        fig8, _ = inputs.fixture_dict("figure-eight")
        cases += [
            dict(label="figure-eight", obj=fig8, interval=None, h=FIXTURE_H, expect="J1Failure"),
            dict(label="bow-tie", obj=inputs.bow_tie(), interval=None, h=LOOP_H, expect="J1Failure"),
            dict(label="cusp", obj=inputs.cusp_cubic(), interval=None, h=FIXTURE_H,
                 expect="NonSmoothPiece"),
            dict(label="open-arc", obj=inputs.half_circle(1.0), interval=None, h=FIXTURE_H,
                 expect="ClosureFailure"),
            # fails today: CLOSURE_TOL is an absolute 1e-9, so a 2e-10 gap passes
            dict(label="open-arc-1e-10", obj=inputs.half_circle(1e-10), interval=None,
                 h=FIXTURE_H, expect="ClosureFailure", known=True),
        ]
        for c in cases:
            spec = curves.curve_from_dict(c["obj"])
            if c["interval"] is not None:
                spec = curves.reparametrize(spec, c["interval"])
            c["spec"] = spec
        return cases

    def setup(self) -> None:
        self._round0 = self.cases(0)

    def round_ops(self, r: int):
        cases = self._round0 if r == 0 else self.cases(r)
        # a seeded order spreads each curve size over the whole round, so a
        # few slow seconds on the machine do not land on one size alone
        for k in self.rng(r).permutation(len(cases)):
            c = cases[k]
            spec, h = c["spec"], c["h"]
            yield Op("validate", lambda spec=spec, h=h: curves.validate_jordan(spec, h=h), c)

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            c = op.data
            op.known = c.get("known", False)
            if c["expect"] is not None:
                want = getattr(errors, c["expect"])
                if not isinstance(op.err, want):
                    got = "acceptance" if op.err is None else repr(op.err)
                    gap = RefCurve(c["obj"]).closure_gap()
                    op.problem = f"{c['label']}: want {c['expect']}, got {got} (closure gap {gap:.3e})"
                continue
            if op.err is not None:
                op.problem = f"{c['label']}: rejected a Jordan curve: {op.err!r}"
                continue
            jc = op.out
            ref = RefCurve(c["obj"], c["interval"])
            probs = scan_violations(ref, len(c["obj"]["pieces"]), c["h"], jc.j1.min_gap,
                                    jc.j2.entries, jc.j1.witness)
            if c["label"] == "circle":
                probs += unit_circle_violations(c["h"], jc.j1.min_gap, jc.j2.entries)
            if probs:
                op.problem = f"{c['label']}: " + "; ".join(probs)


# ---------------------------------------------------------------------------
# classify and field share their curves
# ---------------------------------------------------------------------------


class _QueryWorkload(Workload):
    def setup(self) -> None:
        self.objs = {name: inputs.fixture_dict(name)[0] for name in inputs.QUERY_CURVES}
        self.jcs = {name: curves.validate_jordan(curves.curve_from_dict(obj), h=QUERY_H)
                    for name, obj in self.objs.items()}

    def prepare(self) -> None:
        self.refs = {name: RefCurve(obj) for name, obj in self.objs.items()}

    def margin(self, name: str) -> float:
        return 1e-9 * self.refs[name].scale


def _verdict_problem(op: Op, side: int, clear: bool, lower: float) -> str | None:
    """Compare one Classification with the reference side of its point."""

    c = op.out
    v = c.verdict.value
    if op.data["group"] == "far" and v != "outside":
        return f"far-field point {op.data['point']} is {v}"
    if v == "near-carrier":
        band = op.data["band"]
        return None if lower <= band else f"near-carrier at distance >= {lower:.3e} > band {band:.3e}"
    if not clear:
        return None
    want = "inside" if side == 1 else "outside"
    if v != want or c.winding.rounded != side or c.crossing_parity != side:
        return (f"{op.data['point']}: verdict {v}, winding {c.winding.rounded}, parity "
                f"{c.crossing_parity}; reference says {want}")
    return None


class Classify(_QueryWorkload):
    """One operation is one classify(jc, p) call."""

    name = "classify"
    tail_pct = 99.0
    min_rounds = 8  # 126 operations a round, so at least 1008 a run
    trace_rounds = 4

    # points per unit of curve weight: uniform, near-carrier shell, far field
    GROUPS = (("uniform", 8), ("shell", 4), ("far", 2))

    def round_points(self, r: int):
        rng = self.rng(r)
        for name in inputs.QUERY_CURVES:
            jc, ref, w = self.jcs[name], self.refs[name], inputs.QUERY_WEIGHT[name]
            band = jc.default_eps_band()
            for group, n in self.GROUPS:
                if group == "uniform":
                    pts = inputs.box_points(rng, n * w, inputs.padded_box(ref.bbox, 0.1))
                elif group == "shell":
                    pts = inputs.shell_points(rng, n * w, ref, band)
                else:
                    pts = inputs.far_points(rng, n * w, index.outer_radius(jc))
                for x, y in pts:
                    yield name, group, band, (float(x), float(y))

    def round_ops(self, r: int):
        for name, group, band, p in self.round_points(r):
            jc = self.jcs[name]
            yield Op("classify", lambda jc=jc, p=p: index.classify(jc, p),
                     dict(curve=name, group=group, band=band, point=p))

    def check(self, ops: list[Op]) -> None:
        for name in inputs.QUERY_CURVES:
            mine = [op for op in ops if op.data["curve"] == name]
            if not mine:
                continue
            ref = self.refs[name]
            pts = np.array([op.data["point"] for op in mine])
            side, clear = ref.sides(pts, self.margin(name))
            lower, _ = ref.distance_bounds(pts, 2.0 * mine[0].data["band"])
            for k, op in enumerate(mine):
                if op.err is not None:
                    op.problem = f"{name} {op.data['point']}: {op.err!r}"
                else:
                    op.problem = _verdict_problem(op, int(side[k]), bool(clear[k]), float(lower[k]))


class Field(_QueryWorkload):
    """Grid builds, region grids, joins on the built grid, and witnesses."""

    name = "field"
    tail_pct = 95.0
    min_rounds = 4  # 57 operations a round, so at least 228 a run
    trace_rounds = 2

    CLEARANCE = 1 / 100  # of the diameter
    CELL = 1 / 24
    REGION_CELL = 1 / 32
    JOIN_TYPES = ((1, 1), (0, 0), (1, 0), (0, 1))  # (start side, end side), per weight

    def round_ops(self, r: int):
        rng = self.rng(r)
        for name in inputs.QUERY_CURVES:
            jc, ref, w = self.jcs[name], self.refs[name], inputs.QUERY_WEIGHT[name]
            diam = jc.diameter()
            clr, cell = self.CLEARANCE * diam, self.CELL * diam
            build = Op("grid", lambda jc=jc, clr=clr, cell=cell:
                       connectivity.ClearanceGrid.build(jc, clr, cell),
                       dict(curve=name, clearance=clr, cell=cell))
            yield build
            yield Op("region", lambda jc=jc, res=self.REGION_CELL * diam: index.region_grid(jc, res),
                     dict(curve=name))
            grid = build.out
            pools = None if grid is None else self._pools(grid, ref, clr + 2.0 * cell)
            for start, end in self.JOIN_TYPES * w:
                if pools is None:
                    yield Op("join", _raiser(RuntimeError("grid build failed")),
                             dict(curve=name, same=start == end))
                    continue
                p1, p2 = (tuple(map(float, pools[s][rng.integers(pools[s].shape[0])]))
                          for s in (start, end))
                yield Op("join", lambda jc=jc, p1=p1, p2=p2, clr=clr, cell=cell, grid=grid:
                         connectivity.polygonal_join(jc, p1, p2, clr, cell, grid=grid),
                         dict(curve=name, p1=p1, p2=p2, same=start == end, clearance=clr))
            a, b = jc.interval
            for t in a + (b - a) * inputs.stratified_unit(rng, w):
                yield Op("witness", lambda jc=jc, t=float(t): index.boundary_witnesses(jc, [t]),
                         dict(curve=name, t=float(t)))

    @staticmethod
    def _pools(grid, ref, need):
        """Centres of free cells at least ``need`` from the curve, by
        reference side: {0: outside, 1: inside}."""

        ii, jj = np.nonzero(grid.free)
        centers = np.column_stack([grid.origin[0] + (jj + 0.5) * grid.h,
                                   grid.origin[1] + (ii + 0.5) * grid.h])
        lower, _ = ref.distance_bounds(centers, need)
        side, _ = ref.sides(centers, 0.0)
        return {s: centers[(side == s) & (lower >= need)] for s in (0, 1)}

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            ref = self.refs[op.data["curve"]]
            margin = self.margin(op.data["curve"])
            if op.kind == "join" and not op.data["same"]:
                if not isinstance(op.err, errors.NoPathAtResolution):
                    got = "a join" if op.err is None else repr(op.err)
                    op.problem = f"opposite-region join gave {got}"
                continue
            if op.err is not None:
                op.problem = f"{op.kind} on {op.data['curve']}: {op.err!r}"
            elif op.kind == "grid":
                op.problem = grid_problem(op.out, ref, op.data["clearance"])
            elif op.kind == "region":
                g = op.out
                side, clear = ref.sides(g.centers, margin)
                bad = g.valid & clear & (g.winding != side)
                if bad.any():
                    op.problem = f"region_grid: {int(bad.sum())} cells disagree with the reference"
            elif op.kind == "join":
                op.problem = join_problem(ref, op.out.vertices, op.data["p1"], op.data["p2"],
                                          op.data["clearance"], op.out.gap)
            elif op.kind == "witness":
                op.problem = witness_problem(ref, op.out, op.data["t"], margin)


def _raiser(exc):
    def fn():
        raise exc
    return fn


def grid_problem(grid, ref: RefCurve, clearance: float) -> str | None:
    """Every point of a free cell keeps the clearance, so its centre keeps
    clearance + h * sqrt(2) / 2."""

    ii, jj = np.nonzero(grid.free)
    centers = np.column_stack([grid.origin[0] + (jj + 0.5) * grid.h,
                               grid.origin[1] + (ii + 0.5) * grid.h])
    need = clearance + grid.h * math.sqrt(0.5)
    _, upper = ref.distance_bounds(centers, need * 1.01)
    bad = upper < need * (1.0 - 1e-9)
    if bad.any():
        return f"{int(bad.sum())} free cells closer than {need:.4e} to the curve"
    return None


def join_problem(ref: RefCurve, vertices, p1, p2, clearance: float, gap: float) -> str | None:
    """Dense re-check of a join polyline against its clearance."""

    v = np.array([[q[0], q[1]] if isinstance(q, (list, tuple)) else [q.x, q.y] for q in vertices])
    if tuple(v[0]) != tuple(p1) or tuple(v[-1]) != tuple(p2):
        return f"join runs {tuple(v[0])} -> {tuple(v[-1])}, asked {p1} -> {p2}"
    spacing = clearance / 8.0
    chunks = []
    for a, b in zip(v[:-1], v[1:]):
        n = max(1, int(math.ceil(np.hypot(*(b - a)) / spacing)))
        t = np.linspace(0.0, 1.0, n + 1)[:, None]
        chunks.append(a + t * (b - a))
    lower, upper = ref.distance_bounds(np.concatenate(chunks), 1.5 * clearance)
    if lower.min() < clearance * (1.0 - 1e-9):
        return f"join passes {lower.min():.4e} from the curve, clearance {clearance:.4e}"
    if gap is not None and not (clearance * (1.0 - 1e-9) <= gap <= upper.min()):
        return f"join gap {gap:.4e} outside [{clearance:.4e}, {upper.min():.4e}]"
    return None


def witness_problem(ref: RefCurve, witnesses, t: float, margin: float) -> str | None:
    (w,) = witnesses
    on = ref.points(np.array([t]))[0]
    if np.hypot(*(on - np.array(w.on_curve))) > 1e-9 * ref.scale:
        return f"witness foot {w.on_curve} is not the curve point {tuple(on)}"
    side, clear = ref.sides(np.array([w.inside, w.outside]), margin)
    if clear[0] and side[0] != 1 or clear[1] and side[1] != 0:
        return f"witness at t={t}: inside {w.inside} / outside {w.outside} on the wrong sides"
    return None


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

_BOOT = "import sys; from curvewind.cli import main; sys.exit(main())"


def _num(v) -> str:
    return repr(float(v))


class Cli(Workload):
    """One operation is one curvewind command, as a process of its own."""

    name = "cli"
    # 80 operations a run; p87.5 (ten beyond) spread 0.10 over ten seeds,
    # p75 (twenty beyond) 0.04-0.08
    tail_pct = 75.0
    min_rounds = 2  # 40 operations a round

    SHADE = 24
    GRID = 12
    CLEARANCE = 1 / 100  # of the reference extent
    CELL = 1 / 24

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.in_process = False
        self.work = os.path.join(out_dir, f"cli-{os.getpid()}")

    def setup(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        self.files = {}
        for name in inputs.GOOD_FIXTURES:
            path = os.path.join(self.work, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(curves.curve_to_json(fixtures.fixture(name)) + "\n")
            self.files[name] = path

    def prepare(self) -> None:
        self.refs = {}
        for name, path in self.files.items():
            with open(path, encoding="utf-8") as fh:
                self.refs[name] = RefCurve(json.load(fh))

    def run_cli(self, argv: list[str]):
        if not self.in_process:
            p = subprocess.run([sys.executable, "-c", _BOOT, *argv],
                               capture_output=True, text=True, timeout=150)
            return p.returncode, p.stdout, p.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def round_ops(self, r: int):
        rng = self.rng(r)
        ops = []
        res = ["--resolution", repr(CLI_H)]
        for k, name in enumerate(inputs.GOOD_FIXTURES):
            f, ref = self.files[name], self.refs[name]
            box = inputs.padded_box(ref.bbox, 0.3)
            clr, cell = self.CLEARANCE * ref.scale, self.CELL * ref.scale
            pin = inputs.side_points(rng, ref, box, 1, 1, 0.05 * ref.scale)[0]
            pout = inputs.side_points(rng, ref, box, 0, 1, 0.05 * ref.scale)[0]
            pts = inputs.box_points(rng, 6, inputs.padded_box(ref.bbox, 0.1))
            same = (k + r) % 2
            j1, j2 = inputs.side_points(rng, ref, inputs.padded_box(ref.bbox, 0.15), same, 2,
                                        clr + 2.0 * cell)
            jin = inputs.side_points(rng, ref, box, 1, 1, clr + 2.0 * cell)[0]
            jout = inputs.side_points(rng, ref, box, 0, 1, clr + 2.0 * cell)[0]
            jargs = ["--clearance", _num(clr), "--cell", _num(cell), "--format", "json"] + res
            cmds = [
                ("validate", ["validate", f, "--format", "json"] + res, {}),
                ("winding", ["winding", f, "--point", *map(_num, pin), "--format", "json"] + res,
                 dict(side=1)),
                ("winding", ["winding", f, "--point", *map(_num, pout), "--format", "json"] + res,
                 dict(side=0)),
                ("grid", ["classify", f, "--grid", str(self.GRID), str(self.GRID),
                          "--format", "csv"] + res, {}),
                ("points", ["classify", f, *sum((["--point", _num(x), _num(y)] for x, y in pts), []),
                            "--format", "json"] + res, dict(points=pts.tolist())),
                ("join", ["join", f, "--start", *map(_num, j1), "--end", *map(_num, j2)] + jargs,
                 dict(same=True, p1=tuple(map(float, j1)), p2=tuple(map(float, j2)), clearance=clr)),
                ("join", ["join", f, "--start", *map(_num, jin), "--end", *map(_num, jout)] + jargs,
                 dict(same=False)),
                ("render", ["render", f, "--shade", str(self.SHADE), "-o", "-"] + res, {}),
            ]
            for kind, argv, data in cmds:
                data.update(curve=name, argv=argv)
                ops.append(Op(kind, lambda argv=argv: self.run_cli(argv), data))
        # a seeded order spreads each command over the whole round
        for k in rng.permutation(len(ops)):
            yield ops[k]

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.err is not None:
                op.problem = f"{op.data['argv'][:2]}: {op.err!r}"
                continue
            rc, out, err = op.out
            if rc != 0:
                op.problem = f"{op.data['argv'][:2]} exit {rc}: {err.strip()[:200]}"
                continue
            try:
                op.problem = self._check_output(op, out)
            except (ValueError, KeyError, IndexError, ET.ParseError) as exc:
                op.problem = f"{op.data['argv'][:2]}: unreadable output: {exc!r}"

    def _check_output(self, op: Op, out: str) -> str | None:
        name = op.data["curve"]
        ref = self.refs[name]
        margin = 1e-9 * ref.scale
        if op.kind == "validate":
            rep = json.loads(out)
            if not rep["ok"]:
                return f"validate rejected {name}: {rep}"
            probs = scan_violations(ref, len(ref.pieces), CLI_H, rep["min_gap"], rep["inverse_modulus"])
            return "; ".join(probs) or None
        if op.kind == "winding":
            rep = json.loads(out)
            return None if rep["winding"] == op.data["side"] else f"winding {rep['winding']}, want {op.data['side']}"
        if op.kind in ("grid", "points"):
            if op.kind == "grid":
                lines = out.strip().splitlines()
                if lines[0] != "x,y,verdict,winding" or len(lines) != 1 + self.GRID ** 2:
                    return f"classify csv has {len(lines)} lines"
                rows = [ln.split(",") for ln in lines[1:]]
                pts = np.array([[float(x), float(y)] for x, y, _, _ in rows])
                got = [(v, int(w) if w else None) for _, _, v, w in rows]
            else:
                rows = json.loads(out)
                pts = np.array([[row["x"], row["y"]] for row in rows])
                if pts.tolist() != op.data["points"]:
                    return "classify echoed other points than it was given"
                got = [(row["verdict"], row["winding"]) for row in rows]
            side, clear = ref.sides(pts, margin)
            bad = sum(1 for (v, w), s, c in zip(got, side, clear)
                      if c and (v != ("inside" if s else "outside") or w != s))
            return f"{bad} classify rows disagree with the reference" if bad else None
        if op.kind == "join":
            rep = json.loads(out)
            if not op.data["same"]:
                return "opposite-region join succeeded" if rep["joined"] else None
            if not rep["joined"]:
                return f"same-region join failed: {rep['reason']}"
            return join_problem(ref, rep["vertices"], op.data["p1"], op.data["p2"],
                                op.data["clearance"], rep["gap"])
        if op.kind == "render":
            return svg_problem(out, ref)
        return None


def svg_problem(text: str, ref: RefCurve) -> str | None:
    """Shaded cells of a render: each inside cell is inside the reference
    curve, and the inside cells cover the reference area up to the cells
    the boundary crosses."""

    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    path = root.find(f".//{ns}path")
    # piece end points in picture coordinates against the curve's own
    tokens = path.get("d").replace("Z", "").split()
    pic, k = [], 0
    while k < len(tokens):
        cmd = tokens[k]
        arity = {"M": 2, "L": 2, "A": 7, "C": 6}[cmd]
        vals = tokens[k + 1:k + 1 + arity]
        pic.append((float(vals[-2]), float(vals[-1])))
        k += 1 + arity
    ends = [piece_points(ref.pieces[0], np.zeros(1))]
    for piece in ref.pieces:
        # arcs wider than pi are drawn as several arc commands
        splits = 1
        if piece["type"] == "arc":
            splits = max(1, int(math.ceil(abs(piece["sweep"]) / math.pi - 1e-12)))
        ends.append(piece_points(piece, np.arange(1, splits + 1) / splits))
    pic, ends = np.array(pic), np.concatenate(ends)
    # the picture is the curve scaled by s, with y flipped, and shifted
    s = np.hypot(*np.diff(pic, axis=0).T).sum() / np.hypot(*np.diff(ends, axis=0).T).sum()
    sx, sy = s, -s
    tx, ty = np.mean(pic[:, 0] - sx * ends[:, 0]), np.mean(pic[:, 1] - sy * ends[:, 1])
    inside = []
    for rect in root.iter(f"{ns}rect"):
        if rect.get("fill") != "#cfe3f7":
            continue
        w = float(rect.get("width"))
        inside.append(((float(rect.get("x")) + w / 2 - tx) / sx,
                       (float(rect.get("y")) + w / 2 - ty) / sy))
    if not inside:
        return "render shaded no inside cell"
    side_len = w / abs(sx)
    pts = np.array(inside)
    side, clear = ref.sides(pts, 2e-4 / abs(sx) + 1e-9 * ref.scale)
    bad = int(np.count_nonzero(clear & (side != 1)))
    if bad:
        return f"render shaded {bad} cells that lie outside the curve"
    area = pts.shape[0] * side_len ** 2
    tol = 2.0 * ref.perimeter * side_len
    if abs(area - ref.area) > tol:
        return f"shaded area {area:.4f}, reference area {ref.area:.4f} +- {tol:.4f}"
    return None


WORKLOADS = {w.name: w for w in (Certify, Classify, Field, Cli)}


def self_test() -> list[str]:
    """Corrupt one min_gap and one verdict; the checks must catch both.

    Returns a message for each check that passed what it should not have,
    or failed what it should have passed.
    """

    msgs = []
    obj, iv = inputs.fixture_dict("circle")
    case = dict(label="circle", obj=obj, interval=iv, h=LOOP_H, expect=None)
    jc = curves.validate_jordan(curves.reparametrize(curves.curve_from_dict(obj), iv), h=LOOP_H)
    bad_j1 = dataclasses.replace(jc.j1, min_gap=jc.j1.min_gap * 1.01)
    for out, want in ((jc, False), (dataclasses.replace(jc, j1=bad_j1), True)):
        op = Op("validate", None, case, out=out)
        Certify(0, "").check([op])
        if (op.problem is not None) != want:
            msgs.append(f"certify check on a {'corrupted' if want else 'true'} min_gap: {op.problem}")

    wl = Classify(0, "")
    wl.objs = {"circle": obj}
    wl.prepare()
    jc = curves.validate_jordan(curves.curve_from_dict(obj), h=QUERY_H)
    p = (0.3, 0.1)
    c = index.classify(jc, p)
    flipped = dataclasses.replace(c, verdict=index.Verdict.OUTSIDE)
    for out, want in ((c, False), (flipped, True)):
        op = Op("classify", None, dict(curve="circle", group="uniform",
                                       band=jc.default_eps_band(), point=p), out=out)
        wl.check([op])
        if (op.problem is not None) != want:
            msgs.append(f"classify check on a {'flipped' if want else 'true'} verdict: {op.problem}")
    return msgs
