"""Piecewise curves in the plane, Jordan validation, and point location.

Curves are chains of line, circular-arc, and cubic pieces.  After
validation, points are classified inside/outside by two independent
oracles (winding number and ray-crossing parity) that must agree; clear
polygonal joins certify same-region connectivity.
"""

from .connectivity import ClearanceGrid, PolygonalJoin, path_carrier_gap, polygonal_join
from .curves import (
    Affine,
    CarrierIndex,
    CurveSpec,
    J1Certificate,
    J2Certificate,
    JordanCurve,
    carrier_distance,
    curve_from_dict,
    curve_from_json,
    curve_to_dict,
    curve_to_json,
    lin,
    path_sum,
    reparametrize,
    transform_curve,
    unit_circular_path,
    validate_jordan,
)
from .errors import (
    BudgetNotMet,
    ClosureFailure,
    CurveError,
    DegenerateRay,
    J1Failure,
    NonSmoothPiece,
    NoPathAtResolution,
    OracleDisagreement,
    ParseError,
    PointTooClose,
    RegionEmpty,
    ValidationFailure,
    WitnessNotFound,
)
from .fixtures import FIXTURES, fixture
from .geometry import Point
from .index import (
    Classification,
    CrossingRecord,
    Verdict,
    Witness,
    WindingResult,
    boundary_witnesses,
    classify,
    constant_index_radius,
    outer_radius,
    ray_crossing_index,
    region_distance,
    region_grid,
    segment_integral,
    winding_number,
)
from .pieces import ArcPiece, CubicPiece, LinePiece
from .svg import render_svg

__version__ = "0.1.0"

# perfbench records this flag; the kernels have no numba lane, so it is always False
USING_NUMBA = False

__all__ = [
    "USING_NUMBA",
    "__version__",
    "Point",
    "LinePiece",
    "ArcPiece",
    "CubicPiece",
    "CurveSpec",
    "JordanCurve",
    "CarrierIndex",
    "J1Certificate",
    "J2Certificate",
    "Affine",
    "lin",
    "path_sum",
    "reparametrize",
    "unit_circular_path",
    "validate_jordan",
    "carrier_distance",
    "transform_curve",
    "curve_to_dict",
    "curve_from_dict",
    "curve_to_json",
    "curve_from_json",
    "FIXTURES",
    "fixture",
    "Verdict",
    "WindingResult",
    "CrossingRecord",
    "Classification",
    "Witness",
    "winding_number",
    "ray_crossing_index",
    "classify",
    "outer_radius",
    "constant_index_radius",
    "region_grid",
    "region_distance",
    "boundary_witnesses",
    "segment_integral",
    "ClearanceGrid",
    "PolygonalJoin",
    "polygonal_join",
    "path_carrier_gap",
    "render_svg",
    "CurveError",
    "ParseError",
    "ValidationFailure",
    "ClosureFailure",
    "J1Failure",
    "NonSmoothPiece",
    "PointTooClose",
    "BudgetNotMet",
    "DegenerateRay",
    "OracleDisagreement",
    "WitnessNotFound",
    "RegionEmpty",
    "NoPathAtResolution",
]
