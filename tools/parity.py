"""Write the benchmark's seeded outputs of one checkout, one record a line.

    python3 tools/parity.py ROOT OUT

ROOT is a source checkout (for instance a ``git archive`` unpacked in a
directory); its ``src/`` and ``perfbench/workloads.py`` are imported and
nothing in it is written.  OUT receives, in this order:

* the 280 ``certify`` outcomes of seeds 1-2, rounds 0-1: J1 and J2 as
  ``float.hex``, or the exception's type and message;
* the 2016 ``classify`` results of seeds 1-2, rounds 0-3, each point at
  the default band and at band 0: the ``Classification`` repr, or the
  exception's type and message;
* the 228 ``field`` outputs of seeds 1-2, rounds 0-1: arrays as sha256
  prefixes, join vertices and gaps and witnesses as ``float.hex``.

Two checkouts keep their outputs when ``cmp`` finds the two files equal.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2)


def _hex(*xs) -> str:
    return " ".join(float(x).hex() for x in xs)


def _digest(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _outcome(fn, show) -> str:
    try:
        return show(fn())
    except Exception as exc:  # an exception is an outcome to compare
        return f"{type(exc).__name__}: {exc}"


def _run(wl, rounds, show):
    """Run the workload's operations in order, as the benchmark does (a
    generator may read an earlier operation's ``out``); yield a line each."""

    for r in rounds:
        for op in wl.round_ops(r):
            try:
                op.out = op.fn()
            except Exception as exc:
                op.err = exc
            yield f"{wl.name} {wl.seed} {r} {op.kind} {show(op)}"


def _certify(op) -> str:
    label = op.data["label"]
    if op.err is not None:
        return f"{label} {type(op.err).__name__}: {op.err}"
    j1 = op.out.j1
    j2 = " ".join(_hex(e, d) for e, d in op.out.j2.entries)
    return (f"{label} J1 {_hex(j1.resolution, j1.separation, j1.min_gap, *j1.witness, j1.threshold)}"
            f" J2 {j2}")


def _field(op) -> str:
    name = op.data["curve"]
    if op.err is not None:
        return f"{name} {type(op.err).__name__}: {op.err}"
    out = op.out
    if op.kind == "grid":
        return f"{name} {_hex(*out.origin, out.h)} {out.free.shape} {_digest(out.free)}"
    if op.kind == "region":
        return f"{name} {out.shape} {_digest(out.winding)} {_digest(out.valid)}"
    if op.kind == "join":
        verts = " ".join(_hex(v.x, v.y) for v in out.vertices)
        return f"{name} gap {_hex(out.gap)} vertices {verts}"
    return f"{name} " + " ".join(
        _hex(w.t, *w.on_curve, *w.inside, *w.outside, w.delta) for w in out
    )


def records(root: Path):
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from curvewind import index

    with tempfile.TemporaryDirectory() as tmp:

        def workload(cls, seed):
            wl = cls(seed, tmp)
            wl.setup()
            wl.prepare()
            return wl

        for seed in SEEDS:
            yield from _run(workload(workloads.Certify, seed), (0, 1), _certify)
        for seed in SEEDS:
            wl = workload(workloads.Classify, seed)
            for r in range(4):
                for name, _, _, p in wl.round_points(r):
                    jc = wl.jcs[name]
                    for band in (None, 0.0):
                        got = _outcome(lambda: index.classify(jc, p, band), repr)
                        yield f"classify {seed} {r} {name} {band} {got}"
        for seed in SEEDS:
            yield from _run(workload(workloads.Field, seed), (0, 1), _field)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root, out = Path(argv[1]).resolve(), Path(argv[2])
    with out.open("w", encoding="utf-8") as fh:
        for line in records(root):
            fh.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
