import sys

import numpy as np
import pytest

import gfkit.core
from gfkit.cgf import cgf, cgf_roll
from gfkit.core import (
    _INTEGER_PARAMS,
    _PARAM_RULES,
    Boundary,
    WindowSpec,
    as_images,
    require_params,
)
from gfkit.gf import gf, gf_coeffs, gf_roll
from gfkit.rfnf import rfnf_gen
from gfkit.tvgf import tvgf


class TestWindowSpec:
    def test_side(self):
        assert WindowSpec(3).side == 7

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="window radius must be >= 0"):
            WindowSpec(-1)

    @pytest.mark.parametrize("radius", [2.5, np.float64(2.0), "2", True])
    def test_non_integer_radius(self, radius):
        # refused here, not by a range() or a slice inside the first box pass
        with pytest.raises(ValueError, match="window radius must be an integer"):
            WindowSpec(radius)

    def test_numpy_integer_radius(self):
        assert WindowSpec(np.int64(3)).side == 7

    @pytest.mark.parametrize("radius", [np.int64(2**62), np.int32(2**30)])
    def test_numpy_radius_is_held_as_a_python_int(self, radius):
        # a numpy radius wrapped in side (2 * 2**62 + 1 read -9223372036854775807),
        # so a periodic window far wider than the image passed check_fits
        w = WindowSpec(radius, Boundary.PERIODIC)
        assert type(w.radius) is int
        assert w.side == 2 * int(radius) + 1
        with pytest.raises(ValueError, match=f"^periodic window of side {w.side} does not fit "
                                             "image 30x20$"):
            w.check_fits((20, 30))

    def test_periodic_fit(self):
        WindowSpec(3, Boundary.PERIODIC).check_fits((7, 9))
        with pytest.raises(ValueError):
            WindowSpec(3, Boundary.PERIODIC).check_fits((6, 9))

    def test_boundary_by_name(self):
        assert WindowSpec(3, "periodic").boundary is Boundary.PERIODIC
        assert WindowSpec(3, "truncate").boundary is Boundary.TRUNCATE

    @pytest.mark.parametrize("boundary", ["wrap", "Periodic", "", None])
    def test_unknown_boundary_refused_at_the_spec(self, boundary):
        with pytest.raises(ValueError, match="is not a valid Boundary"):
            WindowSpec(3, boundary)

    def test_boundary_by_name_filters_periodic(self):
        # the name once passed every `is Boundary.PERIODIC` test as truncate
        rng = np.random.default_rng(4)
        p, g = rng.random((12, 10)), rng.random((12, 10))
        by_name = gf(p, g, WindowSpec(3, "periodic"), 0.05)
        assert np.array_equal(by_name, gf(p, g, WindowSpec(3, Boundary.PERIODIC), 0.05))
        assert not np.array_equal(by_name, gf(p, g, WindowSpec(3), 0.05))

    def test_tvgf_takes_a_periodic_window_by_name(self):
        rng = np.random.default_rng(5)
        p = rng.random((12, 10))
        got = tvgf(p, p, WindowSpec(2, "periodic"), 0.05, 3.0)
        assert np.array_equal(got, tvgf(p, p, WindowSpec(2, Boundary.PERIODIC), 0.05, 3.0))



class TestIterationCounts:
    X = np.random.default_rng(0).random((12, 12))

    @pytest.mark.parametrize("iters", [2.5, np.float64(2.0), "2"])
    def test_non_integer_iters_fails_at_the_call(self, iters):
        with pytest.raises(ValueError, match="iters must be an integer"):
            require_params(iters=iters)
        with pytest.raises(ValueError, match="iters must be an integer"):
            gf_roll(self.X, self.X, WindowSpec(2), 0.1, iters)

    def test_flash_scheme_refuses_non_integer_iters_before_its_moments(self, count_box_passes):
        def call():
            with pytest.raises(ValueError, match="iters must be an integer"):
                rfnf_gen(self.X, self.X, WindowSpec(2), 0.1, 1.0, 1.0, 2.5)

        assert count_box_passes(call) == 0

    def test_out_of_range_integer_keeps_its_message(self):
        with pytest.raises(ValueError, match="iters must be >= 1, got 0"):
            require_params(iters=0)

    def test_numpy_integer_iters(self):
        assert len(gf_roll(self.X, self.X, WindowSpec(np.int32(2)), 0.1, np.int64(2))) == 2


class TestParameterKinds:
    X = np.random.default_rng(1).random((8, 8))

    @pytest.mark.parametrize("value", ["0.1", None, True, np.bool_(True), 0.1j, [0.1]])
    @pytest.mark.parametrize("key", sorted(set(_PARAM_RULES) - _INTEGER_PARAMS))
    def test_non_number_is_refused_by_name(self, key, value):
        name = _PARAM_RULES[key][0]
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            require_params(**{key: value})

    @pytest.mark.parametrize("value", ["2", None, True, np.bool_(True), 2.0, np.float64(2.0)])
    @pytest.mark.parametrize("key", sorted(_INTEGER_PARAMS - {"iters"}))  # iters: above
    def test_non_integer_count_is_refused_by_name(self, key, value):
        name = _PARAM_RULES[key][0]
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            require_params(**{key: value})

    @pytest.mark.parametrize("key, low", [("radius", 0), ("width", 1), ("height", 1),
                                          ("repeat", 1)])
    def test_size_rules(self, key, low):
        require_params(**{key: low})
        require_params(**{key: np.int64(low)})
        name = _PARAM_RULES[key][0]
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
            require_params(**{key: low - 1})

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.int64(2), 2])
    def test_numpy_and_python_numbers_pass(self, value):
        require_params(eps=value, lam=value, tol=value, fit_eps=value)

    def test_string_eps_at_the_filter(self):
        with pytest.raises(ValueError, match="eps must be a real number, got '0.1'"):
            gf(self.X, self.X, WindowSpec(1), "0.1")
        with pytest.raises(ValueError, match="eps must be a real number, got '0.1'"):
            gf_coeffs(self.X, self.X, WindowSpec(1), "0.1")

    def test_string_tol_at_the_roll(self):
        with pytest.raises(ValueError, match="tol must be a real number, got '1e-3'"):
            cgf_roll(self.X, self.X, self.X, WindowSpec(1), 0.1, 1.0, 4, tol="1e-3")

    def test_fit_eps_keeps_zero_and_its_message(self):
        gf_coeffs(self.X, self.X, WindowSpec(1), 0.0)
        with pytest.raises(ValueError, match=r"^eps must be finite and >= 0, got -0.1$"):
            gf_coeffs(self.X, self.X, WindowSpec(1), -0.1)


class TestAsImages:
    X = np.random.default_rng(2).random((8, 6))

    def test_a_shared_input_stays_one_object(self):
        x32, y32 = self.X.astype(np.float32), self.X.astype(np.float32)
        p, guide, g = as_images(x32, y32, x32)
        assert p is g and p is not guide
        assert p.dtype == guide.dtype == np.float64
        assert all(out is self.X for out in as_images(self.X, self.X))

    def test_an_equal_copy_stays_distinct_and_takes_the_general_route(self, count_box_passes):
        copy = self.X.copy()
        p, guide = as_images(self.X, copy)
        assert p is self.X and guide is copy
        fits = []
        for guide, passes in ((self.X, 2), (copy, 4)):
            fit = lambda: fits.append(gf_coeffs(self.X, guide, WindowSpec(1), 0.1))  # noqa: E731
            assert count_box_passes(fit) == passes
        assert np.array_equal(fits[0].a, fits[1].a)
        assert np.array_equal(fits[0].b, fits[1].b)

    @pytest.mark.parametrize("images,message", [
        ((np.zeros((2, 3)), np.zeros((3, 2))), r"^shape mismatch: \[\(2, 3\), \(3, 2\)\]$"),
        ((np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 4))),
         r"^shape mismatch: \[\(2, 3\), \(2, 4\)\]$"),
        ((np.zeros((2, 3)), np.zeros((2, 3), dtype=np.complex64)),
         r"^expected a real image, got dtype complex64$"),
        ((np.zeros((2, 3)), np.zeros((1, 2, 3))), r"^expected a 2-D image, got ndim=3$"),
        ((np.zeros((0, 3)),), r"^empty image$"),
    ])
    def test_messages_are_those_of_as_image_and_its_shape_check(self, images, message):
        with pytest.raises(ValueError, match=message):
            as_images(*images)

    def test_a_float32_cgf_converts_its_one_image_once(self, monkeypatch, count_box_passes):
        # p, guide and anchor are one object: one float64 copy serves all
        # three, and the fit sees that it is self-guided (it once converted
        # the input three times and took the 6-pass general route)
        original, copies = gfkit.core.as_image, []

        def counting(x):
            out = original(x)
            if out is not x:
                copies.append(x)
            return out

        for name, module in list(sys.modules.items()):
            if name.startswith("gfkit.") and getattr(module, "as_image", None) is original:
                monkeypatch.setattr(module, "as_image", counting)
        x = self.X.astype(np.float32)
        out = []
        assert count_box_passes(lambda: out.append(cgf(x, x, x, WindowSpec(1), 0.01, 0.1))) == 4
        assert len(copies) == 1
        q = out[0]
        y = x.astype(np.float64)
        assert np.array_equal(q, cgf(y, y, y, WindowSpec(1), 0.01, 0.1))
