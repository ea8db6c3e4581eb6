"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CurveError",
    "ParseError",
    "ValidationFailure",
    "ClosureFailure",
    "J1Failure",
    "NonSmoothPiece",
    "PointTooClose",
    "BudgetNotMet",
    "OracleDisagreement",
    "WitnessNotFound",
    "NoPathAtResolution",
]


class CurveError(Exception):
    """Base class for curve-domain failures."""


class ParseError(CurveError):
    """A curve description could not be parsed.

    ``where`` locates the offending piece/field, e.g. ``pieces[3].radius``.
    """

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


class ValidationFailure(CurveError):
    """Base class for failed Jordan-curve validation."""


class ClosureFailure(ValidationFailure):
    """The path's endpoints do not coincide within tolerance."""

    def __init__(self, start, end, gap: float, tol: float):
        self.start = start
        self.end = end
        self.gap = gap
        super().__init__(
            f"path is not closed: endpoint gap {gap:.3e} exceeds {tol:.3e}"
        )


class J1Failure(ValidationFailure):
    """Injectivity failed at sample scale: a witness pair nearly collides."""

    def __init__(self, t1: float, t2: float, chord: float, threshold: float):
        self.t1 = t1
        self.t2 = t2
        self.chord = chord
        self.threshold = threshold
        super().__init__(
            f"parameters {t1:.6g} and {t2:.6g} map to points only "
            f"{chord:.3e} apart (threshold {threshold:.3e})"
        )


class NonSmoothPiece(ValidationFailure):
    """A piece's derivative lower bound collapsed to zero."""

    def __init__(self, piece_index: int):
        self.piece_index = piece_index
        super().__init__(f"piece {piece_index} has derivative lower bound 0")


class PointTooClose(CurveError):
    """The query point's carrier-distance lower bound is not positive."""


class BudgetNotMet(CurveError):
    """A winding integral is not certified: its distance to the nearest
    integer plus its round-off budget reaches the residual limit."""


class OracleDisagreement(CurveError):
    """Winding number and signed ray-crossing count disagree, or are not
    0 or +-1.  Never suppressed."""

    def __init__(self, point, winding, crossing_index: int):
        self.point = point
        self.winding = winding
        self.crossing_index = crossing_index
        super().__init__(
            f"winding rounded to {winding.rounded} but the signed crossing "
            f"count is {crossing_index} at point ({point[0]!r}, {point[1]!r})"
        )


class WitnessNotFound(CurveError):
    """Both-side boundary witnesses could not be classified at any scale."""


class NoPathAtResolution(CurveError):
    """BFS found no clear polygonal join at the given cell size.

    Not a proof of separation: a finer grid may still find a path.  Callers
    should compare the endpoint indexes to disambiguate.
    """

    def __init__(self, message: str, h: float):
        self.h = h
        super().__init__(message)
