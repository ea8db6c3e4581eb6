"""Spans around the calls into each curvewind layer, recorded from outside.

:class:`Tracer` replaces module and class attributes with timing wrappers
where callers look them up: ``index``, ``curves`` and ``connectivity`` call
``_kernels.x`` through the module, methods are looked up on their class,
and ``cli`` imports its helpers by value, so those names are replaced in
``cli`` too.  Spans (name, start, end, parent) stay in memory until
:meth:`Tracer.dump`; self time is a span's time minus its child spans.
Counts are taken at the same boundary from the arguments and results.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np
from curvewind import _kernels, cli, connectivity, curves, index, svg


def _pair_scan(args, kw, out):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


def _winding_batch(args, kw, out):
    _, nodes, status = out
    return {"points": len(args[2]), "nodes": int(np.sum(nodes)),
            "node_limit": int(np.count_nonzero(status == _kernels.NODE_LIMIT))}


def _points_arg(pos):
    return lambda args, kw, out: {"points": len(args[pos])}


def _ray_hits(args, kw, out):
    return {"hits": int(out[0])}


def _classify(args, kw, out):
    return {"rays_tried": out.rays_tried, "usable_rays": int(out.ray_direction is not None),
            out.verdict.name.lower().replace("near_carrier", "near"): 1}


def _grid_build(args, kw, out):
    return {"cells": int(out.free.size), "free_cells": int(np.count_nonzero(out.free))}


def _grid_path(args, kw, out):
    return {"cells": int(args[0].size)}


def _region_grid(args, kw, out):
    return {"cells": int(out.centers.shape[0])}


COUNTERS = {
    "_kernels.pair_scan": _pair_scan,
    "_kernels.carrier_batch": _points_arg(4),
    "_kernels.winding_batch": _winding_batch,
    "_kernels.ray_hits_point": _ray_hits,
    "_kernels.grid_path": _grid_path,
    "curves.CarrierIndex.distance_batch": _points_arg(1),
    "index.classify": _classify,
    "index.region_grid": _region_grid,
    "connectivity.ClearanceGrid.build": _grid_build,
}


def targets():
    """(span name, owner, attribute) for every wrapped callable."""

    out = [(f"_kernels.{n}", _kernels, n) for n in (
        "pair_scan", "carrier_dist_point", "carrier_batch", "winding_batch",
        "ray_hits_point", "grid_path")]
    out += [
        ("curves.validate_jordan", curves, "validate_jordan"),
        ("curves.CurveSpec.points", curves.CurveSpec, "points"),
        ("curves.CarrierIndex.build", curves.CarrierIndex, "build"),
        ("curves.CarrierIndex.distance", curves.CarrierIndex, "distance"),
        ("curves.CarrierIndex.distance_batch", curves.CarrierIndex, "distance_batch"),
        ("connectivity.ClearanceGrid.build", connectivity.ClearanceGrid, "build"),
        ("connectivity.polygonal_join", connectivity, "polygonal_join"),
        ("svg.render_svg", svg, "render_svg"),
        ("cli.main", cli, "main"),
    ]
    out += [(f"index.{n}", index, n) for n in (
        "classify", "winding_number", "region_grid", "boundary_witnesses")]
    out += [(f"cli.{n}", cli, n) for n in sorted(vars(cli)) if n.startswith("cmd_")]
    # cli imported these by value, so its own references are replaced too
    out += [(f"index.{n}", cli, n) for n in ("classify", "region_grid", "winding_number")]
    out += [("curves.validate_jordan", cli, "validate_jordan"),
            ("connectivity.polygonal_join", cli, "polygonal_join"),
            ("svg.render_svg", cli, "render_svg")]
    return out


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kw):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kw)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                spans[idx][4] = counter(args, kw, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, owner, attr in targets():
            raw = owner.__dict__[attr]
            counter = COUNTERS.get(name)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, counter)))
            else:
                setattr(owner, attr, self._wrap(name, raw, counter))
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)

    # -- per-layer figures ------------------------------------------------

    def summary(self) -> dict:
        """Totals by span name: calls, s, self_s and every count."""

        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            for k, v in (counts or {}).items():
                row[k] += v
        return out

    def under(self, name: str, ancestor: str, key: str | None = None) -> float:
        """Sum of ``key`` (or the call count) over spans of ``name`` that
        run inside a span of ``ancestor``."""

        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                total += 1 if key is None else (span[4] or {}).get(key, 0)
        return total
