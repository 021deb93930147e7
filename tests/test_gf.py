import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec
from gfkit.boxops import box_mean
from gfkit.cgf import energy_cgf
from gfkit.gf import energy_gf, gf, gf_apply, gf_coeffs, gf_roll, guide_fit, GfCoeffs
from gfkit.rmsf import MutualState, energy_mutual
from gfkit.tvgf import energy_tvgf

from oracles import (
    energy_gf_reordered,
    naive_gf,
    naive_gf_aggregate,
    naive_gf_per_window,
    window_values,
)

BOTH = (Boundary.TRUNCATE, Boundary.PERIODIC)


class TestCoeffs:
    def test_constant_input_zero_slope(self):
        rng = np.random.default_rng(0)
        guide = rng.random((8, 8))
        c = gf_coeffs(np.full((8, 8), 0.6), guide, WindowSpec(2), eps=0.1)
        np.testing.assert_allclose(c.a, 0.0, atol=1e-12)
        np.testing.assert_allclose(c.b, 0.6, atol=1e-12)

    def test_self_guidance_eps0_identity(self):
        rng = np.random.default_rng(1)
        p = rng.random((10, 10))
        c = gf_coeffs(p, p, WindowSpec(2), eps=0.0)
        np.testing.assert_allclose(c.a, 1.0, atol=1e-9)
        np.testing.assert_allclose(c.b, 0.0, atol=1e-9)

    def test_matches_per_window_normal_equations(self):
        rng = np.random.default_rng(2)
        p, guide = rng.random((8, 8)), rng.random((8, 8))
        w = WindowSpec(2)
        c = gf_coeffs(p, guide, w, eps=0.1)
        for ky in range(8):
            for kx in range(8):
                gw = window_values(guide, ky, kx, w)
                pw = window_values(p, ky, kx, w)
                n = gw.size
                m = np.array([[np.sum(gw * gw) + n * 0.1, np.sum(gw)], [np.sum(gw), n]])
                ak, bk = np.linalg.solve(m, np.array([np.sum(gw * pw), np.sum(pw)]))
                assert c.a[ky, kx] == pytest.approx(ak, abs=1e-10)
                assert c.b[ky, kx] == pytest.approx(bk, abs=1e-10)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            gf_coeffs(np.ones((4, 4)), np.ones((4, 4)), WindowSpec(1), eps=-0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf_coeffs(np.ones((4, 4)), np.ones((4, 5)), WindowSpec(1), eps=0.1)


def window_variance(x, w):
    """The clamped window variance of the guide moments: var + eps at eps = 0.

    The self-guided fit made with them divides 0 by 0 in a flat window.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return guide_fit(x, x, w, 0.0, True)[0].var_eps


class TestGuideVariance:
    def test_constant_is_zero(self):
        out = window_variance(np.full((7, 7), 0.42), WindowSpec(2, Boundary.TRUNCATE))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_checkerboard_periodic_matches_naive_formula(self):
        yy, xx = np.mgrid[0:3, 0:3]
        x = ((yy + xx) % 2).astype(np.float64)
        w = WindowSpec(1, Boundary.PERIODIC)
        got = window_variance(x, w)
        # naive per-pixel: wrap indices, E(x^2) - E(x)^2
        want = np.empty_like(x)
        for cy in range(3):
            for cx in range(3):
                vals = window_values(x, cy, cx, w)
                want[cy, cx] = np.mean(vals**2) - np.mean(vals) ** 2
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_r0_is_zero(self):
        rng = np.random.default_rng(5)
        out = window_variance(rng.random((6, 6)), WindowSpec(0, Boundary.TRUNCATE))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            out = window_variance(rng.random((10, 10)), WindowSpec(3, Boundary.TRUNCATE))
            assert np.all(out >= 0.0)


class TestApply:
    def test_zero_slope_returns_offset(self):
        guide = np.random.default_rng(3).random((6, 6))
        coeffs = GfCoeffs(a=np.zeros((6, 6)), b=np.full((6, 6), 0.4))
        np.testing.assert_allclose(gf_apply(coeffs, guide, WindowSpec(2)), 0.4, atol=1e-13)

    def test_unit_slope_is_identity(self):
        guide = np.random.default_rng(4).random((6, 6))
        coeffs = GfCoeffs(a=np.ones((6, 6)), b=np.zeros((6, 6)))
        np.testing.assert_allclose(gf_apply(coeffs, guide, WindowSpec(2)), guide, atol=1e-13)

    def test_matches_naive_aggregation(self):
        rng = np.random.default_rng(5)
        a, b, guide = rng.random((9, 9)), rng.random((9, 9)), rng.random((9, 9))
        w = WindowSpec(2)
        got = gf_apply(GfCoeffs(a, b), guide, w)
        want = naive_gf_aggregate(a, b, guide, w)
        np.testing.assert_allclose(got, want, atol=1e-11)


class TestGf:
    def test_constants_are_fixed_points(self):
        rng = np.random.default_rng(6)
        guide = rng.random((8, 8))
        out = gf(np.full((8, 8), 0.3), guide, WindowSpec(2), eps=0.05)
        np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_huge_eps_is_double_box_blur(self):
        rng = np.random.default_rng(7)
        p, guide = rng.random((12, 12)), rng.random((12, 12))
        w = WindowSpec(3)
        out = gf(p, guide, w, eps=1e12)
        want = box_mean(box_mean(p, w), w)
        np.testing.assert_allclose(out, want, atol=1e-10)

    @pytest.mark.parametrize("boundary", BOTH)
    def test_matches_fully_naive_oracle(self, boundary):
        rng = np.random.default_rng(8)
        p, guide = rng.random((16, 16)), rng.random((16, 16))
        w = WindowSpec(3, boundary)
        got = gf(p, guide, w, eps=0.1)
        want = naive_gf(p, guide, w, eps=0.1)
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("shape,w", [
        ((16, 16), WindowSpec(3)), ((16, 16), WindowSpec(3, "periodic")),
        ((5, 9), WindowSpec(6)), ((1, 7), WindowSpec(2)), ((7, 9), WindowSpec(3, "periodic")),
    ], ids=["truncate", "periodic", "wider-than-image", "one-row", "periodic-7x9"])
    def test_batched_oracle_matches_the_per_window_loop(self, shape, w):
        # the batched oracle sums in another order: agreement to round-off
        rng = np.random.default_rng(9)
        p, guide = rng.random(shape), rng.random(shape)
        got = naive_gf(p, guide, w, eps=0.01)
        want = naive_gf_per_window(p, guide, w, eps=0.01)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            gf(np.ones((4, 4)), np.ones((4, 4)), WindowSpec(1), eps=0.0)

    def test_shift_equivariance_periodic(self):
        rng = np.random.default_rng(9)
        p, guide = rng.random((12, 12)), rng.random((12, 12))
        w = WindowSpec(2, Boundary.PERIODIC)
        base = gf(p, guide, w, eps=0.1)
        shifted = gf(np.roll(p, (3, 5), (0, 1)), np.roll(guide, (3, 5), (0, 1)), w, eps=0.1)
        np.testing.assert_allclose(shifted, np.roll(base, (3, 5), (0, 1)), atol=1e-12)

    def test_output_finite(self):
        rng = np.random.default_rng(10)
        out = gf(rng.random((8, 8)), rng.random((8, 8)), WindowSpec(2), eps=0.01)
        assert np.all(np.isfinite(out))


class TestRoll:
    def test_single_iteration_equals_gf(self):
        rng = np.random.default_rng(11)
        p, guide = rng.random((8, 8)), rng.random((8, 8))
        w = WindowSpec(2)
        np.testing.assert_array_equal(gf_roll(p, guide, w, 0.1, 1)[0], gf(p, guide, w, 0.1))

    def test_constants_stay_constant(self):
        guide = np.random.default_rng(12).random((8, 8))
        for q in gf_roll(np.full((8, 8), 0.5), guide, WindowSpec(2), 0.1, 4):
            np.testing.assert_allclose(q, 0.5, atol=1e-11)

    def test_bad_iters(self):
        with pytest.raises(ValueError):
            gf_roll(np.ones((4, 4)), np.ones((4, 4)), WindowSpec(1), 0.1, 0)


class TestEnergy:
    def test_exact_fit_zero(self):
        guide = np.random.default_rng(14).random((6, 6))
        q = np.full((6, 6), 0.7)
        coeffs = GfCoeffs(a=np.zeros((6, 6)), b=np.full((6, 6), 0.7))
        assert energy_gf(q, coeffs, guide, WindowSpec(1), 0.1).total == pytest.approx(0.0)

    def test_all_zero_state_is_zero(self):
        z = np.zeros((5, 5))
        coeffs = GfCoeffs(a=z.copy(), b=z.copy())
        report = energy_gf(z, coeffs, z, WindowSpec(1), 0.1)
        assert report.total == 0.0
        assert report.terms == {"data": 0.0, "ridge": 0.0}

    @pytest.mark.parametrize("boundary", BOTH)
    def test_matches_loop_reorder_oracle(self, boundary):
        rng = np.random.default_rng(15)
        q, guide = rng.random((8, 8)), rng.random((8, 8))
        a, b = rng.random((8, 8)), rng.random((8, 8))
        w = WindowSpec(1, boundary)
        got = energy_gf(q, GfCoeffs(a, b), guide, w, 0.1)
        want = energy_gf_reordered(q, a, b, guide, w, 0.1)
        assert got.total == pytest.approx(want, rel=1e-12)
        assert got.total == pytest.approx(got.terms["data"] + got.terms["ridge"])

    # each entry prices the objective with one weight out of range, and the
    # message it must raise; each once returned a value (energy_gf -457 at
    # eps = -1, energy_mutual -2409 at eps2 = -5)
    BAD_WEIGHTS = {
        "energy_gf-eps": (lambda q, c, g: energy_gf(q, c, g, WindowSpec(1), -1),
                          "eps must be finite and >= 0, got -1"),
        "energy_tvgf-eps": (lambda q, c, g: energy_tvgf(
            q, c, g, WindowSpec(1, Boundary.PERIODIC), -1, 1.0),
            "eps must be finite and >= 0, got -1"),
        "energy_mutual-eps2": (lambda q, c, g: energy_mutual(
            MutualState(q, g, 1), c, c, WindowSpec(1), 0.1, -5),
            "eps2 must be finite and >= 0, got -5"),
        "energy_cgf-lambda": (lambda q, c, g: energy_cgf(q, c, g, g, WindowSpec(1), 0.1, -1),
                              "lambda must be finite and >= 0, got -1"),
        "energy_cgf-lambda-nan": (lambda q, c, g: energy_cgf(
            q, c, g, g, WindowSpec(1), 0.1, float("nan")), "lambda must be finite and >= 0"),
    }

    @pytest.mark.parametrize("name", sorted(BAD_WEIGHTS))
    def test_out_of_range_weight_is_refused(self, name):
        rng = np.random.default_rng(16)
        q, guide = rng.random((8, 8)), rng.random((8, 8))
        energy, message = self.BAD_WEIGHTS[name]
        with pytest.raises(ValueError, match=f"^{message}"):
            energy(q, gf_coeffs(q, guide, WindowSpec(1), 0.1), guide)

    def test_eps_zero_prices_the_data_term_alone(self):
        rng = np.random.default_rng(17)
        q, guide = rng.random((8, 8)), rng.random((8, 8))
        report = energy_gf(q, gf_coeffs(q, guide, WindowSpec(1), 0.0), guide, WindowSpec(1), 0.0)
        assert report.terms["ridge"] == 0.0
        assert report.total == report.terms["data"] >= 0.0

    def test_eps2_zero_prices_the_inverse_data_term_alone(self):
        # eps2 has a rule of its own in an energy: like eps it keeps 0, and
        # below 0 it is refused by its own name (once by eps's)
        rng = np.random.default_rng(18)
        q, guide = rng.random((8, 8)), rng.random((8, 8))
        w = WindowSpec(1)
        ab, cd = gf_coeffs(q, guide, w, 0.1), gf_coeffs(guide, q, w, 0.0)
        report = energy_mutual(MutualState(q, guide, 1), ab, cd, w, 0.1, 0.0)
        assert report.terms["ridge_c"] == 0.0
        assert report.terms["data_g"] == energy_gf(guide, cd, q, w, 0.0).total >= 0.0
        with pytest.raises(ValueError, match=r"^eps2 must be finite and >= 0, got -5e-324$"):
            energy_mutual(MutualState(q, guide, 1), ab, cd, w, 0.1, -5e-324)
