import pytest

from curvewind import Affine, CurveSpec, render_svg
from curvewind.fixtures import fixture

from conftest import GOOD_FIXTURES


@pytest.mark.parametrize("name", GOOD_FIXTURES)
@pytest.mark.parametrize("scale", [2.0**-40, 2.0**40], ids=["2^-40", "2^40"])
def test_render_is_the_same_at_any_scale(name, scale):
    # a power-of-two scaling is exact, and so is the frame that undoes it
    spec = fixture(name)
    m = Affine.scaling(scale).coeffs
    scaled = CurveSpec(tuple(p.transformed(m) for p in spec.pieces))
    assert render_svg(scaled) == render_svg(spec)
