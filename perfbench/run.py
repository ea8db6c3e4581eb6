"""curvewind benchmark: four workloads from one command.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` there and nowhere else.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The line before it records the
environment.  Raw per-operation records and span dumps go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# Machine speed drifts by 20-30% within seconds on a shared host, more than
# a change worth measuring.  A fixed probe that uses no curvewind code runs
# between operations every PROBE_EVERY_S, and each operation's time is
# scaled by PROBE_REF_S / (median probe time within PROBE_WINDOW_S, plus
# twice the operation's own length, of it).  Figures then read as at the
# speed where the probe takes PROBE_REF_S.  Each set-up is scaled the same
# way; traced times use the run's median probe.  The run and the processes
# it starts keep to one CPU, so probe and operations share a core.  certify
# scales its set-up only: its scans stream large arrays, their speed does
# not follow the probe's, and scaling them widened the run-to-run spread.
PROBE_REF_S = 0.0075
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 0.5
_PROBE_DATA = np.linspace(0.0, 1.0, 512)


def probe_s() -> float:
    """Time of a fixed mix of small numpy calls and Python arithmetic,
    the same kind of work the library does per query."""

    t0 = time.perf_counter()
    s = 0.0
    for i in range(2000):
        j = i % 500
        s += float(np.hypot(_PROBE_DATA[j:j + 8], _PROBE_DATA[:8]).min())
        s += (i * i) % 7
    return time.perf_counter() - t0


def load_program():
    """Import curvewind from the checkout's src/, or stop."""

    sys.path.insert(0, str(SRC))
    # processes the run starts import the same copy
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    try:
        import curvewind
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import curvewind from {SRC}: {exc}")
    if not Path(curvewind.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"run.py: curvewind came from {curvewind.__file__}, not {SRC}")
    return curvewind


def environment(seed: int, cpus: list[int]) -> dict:
    import numpy
    import scipy

    import curvewind

    spec = importlib.util.find_spec("numba")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": spec is not None,
        "curvewind_USING_NUMBA": curvewind.USING_NUMBA,
        "nproc": len(cpus),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpus[0],
        "seed": seed,
    }


def child_import() -> None:
    """A fresh interpreter that imports curvewind: the user's import cost."""

    subprocess.run([sys.executable, "-c", "import curvewind"],
                   check=True, capture_output=True, timeout=120)


def run_pass(wl, probes: list, rounds: int | None = None, seconds: float = 0.0,
             min_rounds: int = 1):
    """Whole rounds: a fixed count, or until ``seconds`` have passed.

    A speed probe runs between operations every PROBE_EVERY_S, if the
    workload uses one.
    """

    ops = []
    start = last_probe = time.perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (
            r < min_rounds or time.perf_counter() - start < seconds):
        for op in wl.round_ops(r):
            t0 = time.perf_counter()
            try:
                op.out = op.fn()
            except Exception as exc:  # a failed operation is data, not a crash
                op.err = exc
            op.lat = time.perf_counter() - t0
            op.t0 = t0
            ops.append(op)
            if wl.speed_probe and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append((time.perf_counter(), probe_s()))
                last_probe = time.perf_counter()
        r += 1
    return ops


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def local_speed(ops, probes) -> np.ndarray:
    """PROBE_REF_S over the median probe time near each operation; 1
    everywhere when the workload runs no probe."""

    if not probes:
        return np.ones(len(ops))
    t = np.array([p[0] for p in probes])
    d = np.array([p[1] for p in probes])
    order = np.argsort(t)
    t, d = t[order], d[order]
    out = np.empty(len(ops))
    for k, op in enumerate(ops):
        # a long operation spans more drift, so it looks further out
        reach = PROBE_WINDOW_S + 2.0 * op.lat
        lo, hi = np.searchsorted(t, [op.t0 - reach, op.t0 + op.lat + reach])
        if hi == lo:
            lo = min(lo, len(t) - 1)
            hi = lo + 1
        out[k] = PROBE_REF_S / np.median(d[lo:hi])
    return out


def end_to_end(ops, probes, tail_pct: float, setup_s: float, rss: float) -> dict:
    """The five user-facing figures, at the probe's reference speed."""

    lat = np.array([op.lat for op in ops]) * local_speed(ops, probes)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / float(lat.sum()), "ops/s"),
        "op_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(lat, tail_pct)) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(tracer, overhead_s: float, startup_s: float, speed: float) -> dict:
    """The per-layer figures of a traced run; times are multiplied by ``speed``."""

    s = tracer.summary()

    def g(name, key):
        return float(s[name][key]) if name in s else 0.0

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m = {}

    def put(name, key, unit, value=None):
        # a metric name starts with a letter, so _kernels.x reports as kernels.x
        m[f"{name.lstrip('_')}.{key}"] = (g(name, key) if value is None else value, unit)

    k = "_kernels."
    put(k + "pair_scan", "s", "s")
    put(k + "pair_scan", "pairs", "count")
    put(k + "pair_scan", "pairs_per_s", "1/s",
        ratio(g(k + "pair_scan", "pairs"), g(k + "pair_scan", "s")))
    put("curves.validate_jordan", "self_s", "s")
    put("curves.CurveSpec.points", "s", "s")
    put("curves.CarrierIndex.build", "s", "s")
    put(k + "carrier_dist_point", "calls", "count")
    put(k + "carrier_dist_point", "s", "s")
    put("curves.CarrierIndex.distance", "calls", "count")
    for key, unit in (("calls", "count"), ("points", "count"), ("s", "s"),
                      ("nodes", "count"), ("node_limit", "count")):
        put(k + "winding_batch", key, unit)
    for key, unit in (("calls", "count"), ("s", "s"), ("hits", "count")):
        put(k + "ray_hits_point", key, unit)
    put("index.classify", "rays_tried", "count")
    put("index.classify", "ray_yield", "ratio",
        ratio(g("index.classify", "usable_rays"), g("index.classify", "rays_tried")))
    for key, unit in (("calls", "count"), ("self_s", "s"), ("inside", "count"),
                      ("outside", "count"), ("near", "count")):
        put("index.classify", key, unit)
    put("index.winding_number", "calls", "count")
    put("index.winding_number", "s", "s")
    for key, unit in (("calls", "count"), ("points", "count"), ("s", "s")):
        put(k + "carrier_batch", key, unit)
    put(k + "carrier_batch", "points_per_s", "1/s",
        ratio(g(k + "carrier_batch", "points"), g(k + "carrier_batch", "s")))
    put("curves.CarrierIndex.distance_batch", "points", "count")
    grid = "connectivity.ClearanceGrid.build"
    put(grid, "cells", "count")
    put(grid, "s", "s")
    put(grid, "free_share", "ratio", ratio(g(grid, "free_cells"), g(grid, "cells")))
    join = "connectivity.polygonal_join"
    put(join, "calls", "count")
    put(join, "self_s", "s")
    put(join, "certify_points", "count", tracer.under(k + "carrier_batch", join, "points"))
    for key, unit in (("calls", "count"), ("cells", "count"), ("s", "s")):
        put(k + "grid_path", key, unit)
    put("index.region_grid", "cells", "count")
    put("index.region_grid", "s", "s")
    put("svg.render_svg", "s", "s")
    put("index.boundary_witnesses", "s", "s")
    put("index.boundary_witnesses", "classify_calls", "count",
        tracer.under("index.classify", "index.boundary_witnesses"))
    put("cli.main", "self_s", "s")
    m["cli.startup_s"] = (startup_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    scale = {"s": speed, "1/s": 1.0 / speed}
    return {name: (v * scale.get(u, 1.0), u) for name, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "classify", "field", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one CPU for the run and every process it starts: the probe then
    # measures the core the operations run on
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    load_program()
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed, allowed)
    print(json.dumps({"environment": env}), flush=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    probes, setups = [], []
    for k in range(SETUP_REPEATS + 1):
        for _ in range(3):
            probes.append((time.perf_counter(), probe_s()))
        if k == SETUP_REPEATS:
            break
        t0 = time.perf_counter()
        child_import()
        wl.setup()
        setups.append(types.SimpleNamespace(t0=t0, lat=time.perf_counter() - t0))
    setup_s = statistics.median(local_speed(setups, probes) * [s.lat for s in setups])
    if not wl.speed_probe:
        probes = []
    wl.prepare()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        if not args.trace:
            ops = run_pass(wl, probes, seconds=args.seconds, min_rounds=wl.min_rounds)
            rss = peak_rss_mb(include_children=args.workload == "cli")
            metrics = end_to_end(ops, probes, wl.tail_pct, setup_s, rss)
        else:
            ops, startup_s = [], 0.0
            if args.workload == "cli":
                # process wall time first, then the same commands in process
                ops = run_pass(wl, probes, rounds=wl.trace_rounds)
                wl.in_process = True
            untraced = run_pass(wl, probes, rounds=wl.trace_rounds)
            tracer = Tracer().install()
            try:
                wl.setup()
                traced = run_pass(wl, probes, rounds=wl.trace_rounds)
            finally:
                tracer.uninstall()
            untraced_s = sum(op.lat for op in untraced)
            if ops:
                startup_s = sum(op.lat for op in ops) - untraced_s
            ops += untraced + traced
            overhead = sum(op.lat for op in traced) - untraced_s
            speed = PROBE_REF_S / statistics.median(p for _, p in probes) if probes else 1.0
            metrics = per_layer(tracer, overhead, startup_s, speed)
            tracer.dump(OUT / f"spans-{tag}.json")
        wl.check(ops)
        selftest = workloads.self_test()
    finally:
        if args.workload == "cli":
            shutil.rmtree(wl.work, ignore_errors=True)

    failed = [op for op in ops if op.problem is not None]
    unexpected = [op for op in failed if not op.known]
    for op in failed[:20]:
        print(("known fault: " if op.known else "FAILED: ") + op.problem, file=sys.stderr)
    for msg in selftest:
        print("SELF-TEST: " + msg, file=sys.stderr)
    result = {
        "correct": not unexpected and not selftest,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "setups_s": [s.lat for s in setups],
                   "probes_s": probes,
                   "ops": [[op.kind, op.data.get("label", op.data.get("curve")), op.t0, op.lat,
                            op.problem] for op in ops]}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
