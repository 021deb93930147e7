import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec
from gfkit.boxops import box_mean
from gfkit.gf import gf, gf_roll
from gfkit.cgf import cgf_roll
from gfkit.rfnf import detail_image, enhanced_flash, rfnf_gen, rfnf_seo

W = WindowSpec(3, Boundary.TRUNCATE)


class TestDetail:
    def test_constant_flash_has_no_detail(self):
        out = detail_image(np.full((10, 10), 0.6), W, eps=0.1)
        np.testing.assert_allclose(out, 0.0, atol=1e-11)

    def test_huge_eps_subtracts_double_blur(self):
        rng = np.random.default_rng(0)
        flash = rng.random((12, 12))
        out = detail_image(flash, W, eps=1e12)
        want = flash - box_mean(box_mean(flash, W), W)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_composition(self):
        rng = np.random.default_rng(1)
        flash = rng.random((16, 16))
        np.testing.assert_array_equal(
            detail_image(flash, W, 0.05), flash - gf(flash, flash, W, 0.05)
        )


class TestSeo:
    def test_lambda_zero_is_pure_roll(self):
        rng = np.random.default_rng(2)
        noflash, flash = rng.random((10, 10)), rng.random((10, 10))
        got = rfnf_seo(noflash, flash, W, 0.1, lam=0.0, iters=4)
        want = gf_roll(noflash, flash, W, 0.1, 4)[-1]
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_constant_pair_fixed_point(self):
        c = np.full((8, 8), 0.3)
        got = rfnf_seo(c, c, W, 0.1, lam=0.7, iters=5)
        np.testing.assert_allclose(got, 0.3, atol=1e-10)

    def test_single_step_expansion(self):
        rng = np.random.default_rng(3)
        noflash, flash = rng.random((10, 10)), rng.random((10, 10))
        got = rfnf_seo(noflash, flash, W, 0.1, lam=0.8, iters=1)
        want = gf(noflash, flash, W, 0.1) + 0.8 * detail_image(flash, W, 0.1)
        np.testing.assert_allclose(got, want, atol=1e-13)


class TestGen:
    def test_tau_one_anchors_to_flash(self):
        rng = np.random.default_rng(4)
        flash = rng.random((10, 10))
        np.testing.assert_allclose(enhanced_flash(flash, W, 0.1, tau=1.0), flash, atol=1e-12)

    def test_lambda_zero_matches_seo_lambda_zero(self):
        rng = np.random.default_rng(5)
        noflash, flash = rng.random((10, 10)), rng.random((10, 10))
        got = rfnf_gen(noflash, flash, W, 0.1, lam=0.0, tau=1.0, iters=3)
        want = rfnf_seo(noflash, flash, W, 0.1, lam=0.0, iters=3)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_is_anchored_roll_composition(self):
        rng = np.random.default_rng(6)
        noflash, flash = rng.random((12, 12)), rng.random((12, 12))
        eps, lam, tau = 0.1, 2.0, 3.0
        anchor = enhanced_flash(flash, W, eps, tau)
        want = cgf_roll(noflash, flash, anchor, W, eps, lam, 4)[-1]
        got = rfnf_gen(noflash, flash, W, eps, lam, tau, 4)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_constant_scene_fixed_point(self):
        c = np.full((8, 8), 0.52)
        got = rfnf_gen(c, c, W, 0.1, lam=1.0, tau=2.0, iters=5)
        np.testing.assert_allclose(got, 0.52, atol=1e-10)

    def test_small_alpha_step_discrepancy_linear(self):
        # per-step gap between the anchored and additive schemes shrinks
        # linearly in alpha when tau carries the additive weight
        rng = np.random.default_rng(7)
        noflash, flash = rng.random((24, 24)), rng.random((24, 24))
        w = WindowSpec(2, Boundary.PERIODIC)
        size = float(w.side**2)
        lam_seo = 0.9
        alphas = np.array([1e-2, 1e-3, 1e-4])
        gaps = []
        for alpha in alphas:
            lam = alpha * size / (1.0 - alpha)
            tau = lam_seo / alpha
            one_gen = rfnf_gen(noflash, flash, w, 0.1, lam, tau, 1)
            one_seo = rfnf_seo(noflash, flash, w, 0.1, lam_seo, 1)
            gaps.append(float(np.max(np.abs(one_gen - one_seo))))
        gaps = np.array(gaps)
        slope = float(np.sum(alphas * gaps) / np.sum(alphas * alphas))
        fitted = slope * alphas
        ss_res = float(np.sum((gaps - fitted) ** 2))
        ss_tot = float(np.sum(gaps**2))
        assert 1.0 - ss_res / ss_tot > 0.999
