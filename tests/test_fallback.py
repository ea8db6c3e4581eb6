import curvewind


def test_current_lane_reported():
    assert curvewind.USING_NUMBA is False
