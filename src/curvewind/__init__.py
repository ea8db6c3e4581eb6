"""Piecewise curves in the plane, Jordan validation, and point location.

Curves are chains of line, circular-arc, and cubic pieces.  After
validation, points are classified inside/outside by two independent
oracles (winding number and signed ray-crossing count) that must agree; clear
polygonal joins certify same-region connectivity.

Each module's ``__all__`` lists its public names once; the package
re-exports them all, and a subset of ``pieces`` and ``fixtures``.
"""

from . import connectivity, curves, errors, geometry, index, svg
from .connectivity import *  # noqa: F403
from .curves import *  # noqa: F403
from .errors import *  # noqa: F403
from .fixtures import FIXTURES, fixture
from .geometry import *  # noqa: F403
from .index import *  # noqa: F403
from .pieces import ArcPiece, CubicPiece, LinePiece
from .svg import *  # noqa: F403

__version__ = "0.1.0"

# perfbench records this flag; the kernels have no numba lane, so it is always False
USING_NUMBA = False

__all__ = [
    "USING_NUMBA", "__version__", "LinePiece", "ArcPiece", "CubicPiece", "FIXTURES",
    "fixture", *geometry.__all__, *curves.__all__, *index.__all__,
    *connectivity.__all__, *svg.__all__, *errors.__all__,
]
