import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvewind.geometry import Point, as_point

from conftest import Segment, dist_point_segment

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def test_point_basics():
    p = Point(1.0, 2.0)
    q = Point(-0.5, 1.0)
    assert (p + q).as_tuple() == (0.5, 3.0)
    assert (p - q).as_tuple() == (1.5, 1.0)
    assert p.scaled(2.0).as_tuple() == (2.0, 4.0)
    assert p.dot(q) == pytest.approx(1.5)
    assert p.cross(q) == pytest.approx(2.0)
    assert p.dist(q) == pytest.approx(math.hypot(1.5, 1.0))
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_as_point_accepts_pairs_and_complex():
    assert as_point((1.0, 2.0)) == Point(1.0, 2.0)
    assert as_point(1.0 + 2.0j) == Point(1.0, 2.0)
    assert as_point(Point(3.0, 4.0)) == Point(3.0, 4.0)


def test_segment_rejects_degenerate():
    with pytest.raises(ValueError):
        Segment(Point(1.0, 1.0), Point(1.0, 1.0))


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=150, deadline=None)
def test_dist_point_segment_matches_dense_sampling(px, py, ax, ay, bx, by):
    if math.hypot(bx - ax, by - ay) < 1e-9:
        return
    d = dist_point_segment(Point(px, py), Segment(Point(ax, ay), Point(bx, by)))
    t = np.linspace(0.0, 1.0, 2001)
    xs = ax + t * (bx - ax)
    ys = ay + t * (by - ay)
    dense = np.hypot(xs - px, ys - py).min()
    # dense sampling overestimates by at most half a step of the segment
    step = math.hypot(bx - ax, by - ay) / 2000.0
    assert d <= dense + 1e-12
    assert d >= dense - step
