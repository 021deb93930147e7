import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec, make_image


class TestMakeImage:
    def test_constant_fill(self):
        img = make_image(3, 3, 0.5)
        assert img.shape == (3, 3)
        assert np.all(img == 0.5)

    def test_single_pixel(self):
        img = make_image(1, 1, 0.0)
        assert img.shape == (1, 1)
        assert img[0, 0] == 0.0

    def test_shape_and_length(self):
        img = make_image(2, 3, 1.0)
        assert img.shape == (3, 2)
        assert img.size == 6
        assert np.all(img == 1.0)

    @pytest.mark.parametrize("width,height", [(0, 3), (3, 0), (-1, 2)])
    def test_bad_dimensions(self, width, height):
        with pytest.raises(ValueError):
            make_image(width, height)

    def test_nonfinite_fill(self):
        with pytest.raises(ValueError):
            make_image(2, 2, float("nan"))


class TestWindowSpec:
    def test_side(self):
        assert WindowSpec(3).side == 7

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            WindowSpec(-1)

    def test_periodic_fit(self):
        WindowSpec(3, Boundary.PERIODIC).check_fits((7, 9))
        with pytest.raises(ValueError):
            WindowSpec(3, Boundary.PERIODIC).check_fits((6, 9))

