import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec
from gfkit.gf import GfCoeffs, gf
from gfkit.tvgf import (
    energy_tvgf,
    tv_denominator,
    tv_squared,
    tvgf,
    tvgf_roll,
    tvgf_solve_q,
)

WP = WindowSpec(2, Boundary.PERIODIC)


class TestDenominator:
    def test_dc_value(self):
        d = tv_denominator(8, 7, WindowSpec(3, Boundary.PERIODIC), lam=45.0)
        assert d[0, 0] == pytest.approx(49.0)

    def test_nyquist_value(self):
        # at (0, W/2) the horizontal difference term is 2 - 2cos(pi) = 4
        d = tv_denominator(8, 6, WindowSpec(1, Boundary.PERIODIC), lam=2.0)
        assert d[0, 4] == pytest.approx(9.0 + 2.0 * 4.0)
        assert d[3, 0] == pytest.approx(9.0 + 2.0 * 4.0)
        assert d[3, 4] == pytest.approx(9.0 + 2.0 * 8.0)

    def test_lambda_zero_is_constant(self):
        d = tv_denominator(5, 7, WindowSpec(2, Boundary.PERIODIC), lam=0.0)
        np.testing.assert_allclose(d, 25.0)

    def test_positive_everywhere(self):
        d = tv_denominator(9, 9, WindowSpec(1, Boundary.PERIODIC), lam=100.0)
        assert np.all(d >= 9.0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            tv_denominator(0, 5, WP, 1.0)

    def test_truncating_window_refused(self):
        # |w| is not one constant under truncation, so no diagonal solve exists
        with pytest.raises(ValueError, match="periodic window"):
            tv_denominator(3, 3, WindowSpec(1), 1.0)

    def test_window_larger_than_the_grid_refused(self):
        # a periodic window of side 3 would overlap itself on a 2x2 grid
        with pytest.raises(ValueError, match="does not fit"):
            tv_denominator(2, 2, WindowSpec(1, Boundary.PERIODIC), 1.0)


class TestSolve:
    def test_constant_input_scales_by_window_size(self):
        out = tvgf_solve_q(np.full((8, 8), 2.5), WP, lam=45.0)
        np.testing.assert_allclose(out, 2.5 / 25.0, atol=1e-12)

    def test_lambda_zero_divides_by_window_size(self):
        rng = np.random.default_rng(0)
        f = rng.random((10, 12))
        out = tvgf_solve_q(f, WP, lam=0.0)
        np.testing.assert_allclose(out, f / 25.0, atol=1e-12)

    def test_single_mode_cosine_attenuation(self):
        h, wd = 16, 24
        u0, v0 = 3, 5
        yy, xx = np.mgrid[0:h, 0:wd].astype(np.float64)
        f = 0.8 * np.cos(2 * np.pi * (u0 * yy / h + v0 * xx / wd))
        w = WindowSpec(1, Boundary.PERIODIC)
        lam = 45.0
        d = (2 - 2 * np.cos(2 * np.pi * u0 / h)) + (2 - 2 * np.cos(2 * np.pi * v0 / wd))
        want = f / (9.0 + lam * d)
        np.testing.assert_allclose(tvgf_solve_q(f, w, lam), want, atol=1e-10)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        f = rng.random((20, 24))
        lam = 45.0
        q = tvgf_solve_q(f, WP, lam)
        lap = 4 * q - np.roll(q, 1, 0) - np.roll(q, -1, 0) - np.roll(q, 1, 1) - np.roll(q, -1, 1)
        residual = 25.0 * q + lam * lap - f
        assert np.max(np.abs(residual)) <= 1e-8

    def test_mean_preservation(self):
        rng = np.random.default_rng(2)
        f = rng.random((14, 18))
        out = tvgf_solve_q(f, WP, lam=7.0)
        assert np.mean(out) == pytest.approx(np.mean(f) / 25.0, abs=1e-10)

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            tvgf_solve_q(np.ones((8, 8)), WindowSpec(2, Boundary.TRUNCATE), 1.0)


class TestTvgf:
    def test_lambda_zero_reduces_to_periodic_gf(self):
        rng = np.random.default_rng(3)
        p, guide = rng.random((16, 16)), rng.random((16, 16))
        got = tvgf(p, guide, WP, eps=0.1, lam=0.0)
        want = gf(p, guide, WP, eps=0.1)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_constant_input_preserved(self):
        rng = np.random.default_rng(4)
        guide = rng.random((12, 12))
        out = tvgf(np.full((12, 12), 0.45), guide, WP, eps=0.1, lam=45.0)
        np.testing.assert_allclose(out, 0.45, atol=1e-10)

    def test_rejects_truncate_window(self):
        with pytest.raises(ValueError):
            tvgf(np.ones((8, 8)), np.ones((8, 8)), WindowSpec(2), eps=0.1, lam=1.0)

    def test_output_finite_nonsquare_non_pow2(self):
        rng = np.random.default_rng(5)
        p, guide = rng.random((13, 17)), rng.random((13, 17))
        out = tvgf(p, guide, WindowSpec(1, Boundary.PERIODIC), eps=0.01, lam=45.0)
        assert np.all(np.isfinite(out))


class TestRollAndEnergy:
    def test_single_iteration(self):
        rng = np.random.default_rng(6)
        p, guide = rng.random((10, 10)), rng.random((10, 10))
        np.testing.assert_array_equal(
            tvgf_roll(p, guide, WP, 0.1, 45.0, 1)[0], tvgf(p, guide, WP, 0.1, 45.0)
        )

    def test_constants_stay_constant(self):
        guide = np.random.default_rng(7).random((10, 10))
        for q in tvgf_roll(np.full((10, 10), 0.2), guide, WP, 0.1, 45.0, 3):
            np.testing.assert_allclose(q, 0.2, atol=1e-9)

    def test_energy_constant_state_has_zero_tv(self):
        guide = np.random.default_rng(9).random((8, 8))
        q = np.full((8, 8), 0.3)
        coeffs = GfCoeffs(a=np.zeros((8, 8)), b=np.full((8, 8), 0.3))
        report = energy_tvgf(q, coeffs, guide, WP, 0.1, 45.0)
        assert report.terms["tv"] == 0.0
        assert report.total == pytest.approx(0.0)

    def test_energy_all_zero(self):
        z = np.zeros((8, 8))
        report = energy_tvgf(z, GfCoeffs(z, z), z, WP, 0.1, 45.0)
        assert report.total == 0.0

    def test_energy_matches_independent_summation(self):
        rng = np.random.default_rng(10)
        q, guide = rng.random((8, 8)), rng.random((8, 8))
        a, b = rng.random((8, 8)), rng.random((8, 8))
        w = WindowSpec(1, Boundary.PERIODIC)
        got = energy_tvgf(q, GfCoeffs(a, b), guide, w, 0.1, 7.0)
        # independent: brute TV via explicit wrap indexing plus reordered data sum
        from oracles import energy_gf_reordered

        tv = 0.0
        for y in range(8):
            for x in range(8):
                tv += (q[y, (x + 1) % 8] - q[y, x]) ** 2 + (q[(y + 1) % 8, x] - q[y, x]) ** 2
        want = energy_gf_reordered(q, a, b, guide, w, 0.1) + 7.0 * tv
        assert got.total == pytest.approx(want, rel=1e-12)

    def test_tv_squared_constant_zero(self):
        np.testing.assert_array_equal(tv_squared(np.full((6, 6), 1.3)), 0.0)


class TestTransformContract:
    """The solve leans on the 2-D FFT; pin the properties it assumes."""

    def test_forward_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.random((13, 19))
        back = np.fft.ifft2(np.fft.fft2(x))
        assert np.max(np.abs(back.real - x)) <= 1e-10
        assert np.max(np.abs(back.imag)) <= 1e-10

    def test_real_input_conjugate_symmetry(self):
        rng = np.random.default_rng(12)
        x = rng.random((10, 14))
        spec = np.fft.fft2(x)
        h, wd = x.shape
        for u in range(h):
            for v in range(wd):
                assert spec[u, v] == pytest.approx(np.conj(spec[-u % h, -v % wd]), abs=1e-9)
