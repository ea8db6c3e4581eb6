"""The benchmark tracer finds every library name it wraps and still counts.

``perfbench/tracing.py`` replaces each traced callable through its owner's
namespace and reads its counts from fixed arguments and results, so a
renamed or deleted library name, or a kernel whose signature moved, would
otherwise only surface in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from curvewind import connectivity, curves, index
from curvewind.fixtures import fixture


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_exist():
    tracing = _load_tracing()
    missing = [
        name for name, owner, attr in tracing.targets() if attr not in owner.__dict__
    ]
    assert missing == []


def test_tracer_counts_every_counted_layer():
    tracing = _load_tracing()
    tracer = tracing.Tracer().install()
    try:
        jc = curves.validate_jordan(fixture("circle"), h=1e-2)
        index.classify(jc, (0.2, 0.1))
        index.region_grid(jc, 0.1)
        connectivity.ClearanceGrid.build(jc, 0.05, 0.05)
        connectivity.polygonal_join(jc, (0.2, 0.1), (-0.3, -0.2), clearance=0.05, h=0.05)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for name in tracing.COUNTERS:
        counts = {k: v for k, v in summary[name].items() if k not in ("calls", "s", "self_s")}
        assert counts, name
        # node_limit counts refinements that ran out of nodes: none should
        assert {k: v for k, v in counts.items() if k != "node_limit" and v <= 0} == {}, name
        assert counts.get("node_limit", 0) == 0, name


def test_traced_grid_build_counts_one_point_per_cell():
    tracing = _load_tracing()
    tracer = tracing.Tracer().install()
    try:
        jc = curves.validate_jordan(fixture("kidney"), h=1e-2)
        grid = connectivity.ClearanceGrid.build(jc, 0.02, 0.02)
    finally:
        tracer.uninstall()
    points = tracer.under(
        "_kernels.carrier_batch", "connectivity.ClearanceGrid.build", "points"
    )
    assert points == grid.free.size


def test_traced_classify_counts_its_winding():
    # classify winds through winding_batch on the chords of its clearance
    # query, so the tracer's winding span sits under the classify span
    tracing = _load_tracing()
    tracer = tracing.Tracer().install()
    try:
        jc = curves.validate_jordan(fixture("kidney"), h=1e-2)
        c = index.classify(jc, (0.2, 0.1))
    finally:
        tracer.uninstall()
    assert c.verdict is index.Verdict.INSIDE
    assert tracer.under("_kernels.winding_batch", "index.classify") == 1
    assert tracer.under("_kernels.winding_batch", "index.classify", "points") == 1
    # its clearance query goes through the carrier index
    assert tracer.under("curves.CarrierIndex.distance", "index.classify") == 1
