import os
import subprocess
import sys
from pathlib import Path

import curvewind


def test_current_lane_reported():
    assert curvewind.USING_NUMBA is False


def test_runtime_needs_numpy_alone(tmp_path):
    # scipy and hypothesis are test extras: the library and its command
    # line must import and run with both of them unavailable
    code = (
        "import sys\n"
        "for name in ('scipy', 'hypothesis'):\n"
        "    sys.modules[name] = None\n"
        "import curvewind, curvewind.cli\n"
        "main = curvewind.cli.main\n"
        "assert main(['fixture', 'kidney', '-o', 'kidney.json']) == 0\n"
        "assert main(['winding', 'kidney.json', '--point', '0.2', '0.1']) == 0\n"
    )
    src = str(Path(curvewind.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


# the package's public names at the last change before each module's
# __all__ became the one list of them
_PUBLIC = """
    Affine ArcPiece BudgetNotMet CarrierIndex Classification ClearanceGrid
    ClosureFailure CrossingRecord CubicPiece CurveError CurveSpec DegenerateRay
    FIXTURES J1Certificate J1Failure J2Certificate JordanCurve LinePiece
    NoPathAtResolution NonSmoothPiece OracleDisagreement ParseError Point
    PointTooClose PolygonalJoin RegionEmpty USING_NUMBA ValidationFailure
    Verdict WindingResult Witness WitnessNotFound __version__
    boundary_witnesses classify constant_index_radius curve_from_dict
    curve_from_json curve_to_dict curve_to_json fixture lin outer_radius
    path_carrier_gap path_sum polygonal_join ray_crossing_index
    region_distance region_grid render_svg reparametrize segment_integral
    transform_curve unit_circular_path validate_jordan winding_number
""".split()


def test_public_names_resolve_once():
    names = curvewind.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(curvewind, n)] == []
    # RegionGrid, the type region_grid returns, is the one name added;
    # RegionEmpty, which nothing raises since region_distance stopped
    # sampling a grid, and DegenerateRay, which nothing raises since rays
    # count side changes and are never retried, are the names removed
    gone = {"RegionEmpty", "DegenerateRay"}
    assert sorted(names) == sorted(set(_PUBLIC) - gone | {"RegionGrid"})
    assert curvewind.RegionGrid is curvewind.index.RegionGrid
