import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec
from gfkit.gf import gf_coeffs
from gfkit.igf import DEGENERATE_EPS, icgf, igf, igf_update, inverse_update
from gfkit.boxops import box_mean, box_sum

from oracles import naive_igf_update, window_values

W = WindowSpec(2, Boundary.TRUNCATE)


class TestIgf:
    def test_self_inverse_identity_eps0(self):
        # igf requires eps > 0, so the eps = 0 identity is pinned on its update
        rng = np.random.default_rng(0)
        p = rng.random((12, 12))
        out = inverse_update(gf_coeffs(p, p, W, 0.0), p, None, W, 0.0, p)
        np.testing.assert_allclose(out, p, atol=1e-9)

    def test_constant_input_falls_back_to_guess(self):
        rng = np.random.default_rng(1)
        guess = rng.random((10, 10))
        out = igf(np.full((10, 10), 0.4), guess, W, eps=0.1)
        np.testing.assert_array_equal(out, guess)

    def test_update_matches_per_pixel_least_squares(self):
        rng = np.random.default_rng(2)
        p, guess = rng.random((8, 8)), rng.random((8, 8))
        coeffs = gf_coeffs(p, guess, W, eps=0.1)
        got = igf_update(coeffs, p, W, prior=guess)
        want = naive_igf_update(coeffs.a, coeffs.b, p, W, prior=guess)
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_local_optimality_probe(self):
        # perturbing any single pixel of the returned G must not decrease
        # the inverse-fit objective
        rng = np.random.default_rng(3)
        p, guess = rng.random((6, 6)), rng.random((6, 6))
        w = WindowSpec(1, Boundary.TRUNCATE)
        coeffs = gf_coeffs(p, guess, w, eps=0.1)
        G = igf_update(coeffs, p, w, prior=guess)

        def objective(field):
            total = 0.0
            for ky in range(6):
                for kx in range(6):
                    gwin = window_values(field, ky, kx, w)
                    pwin = window_values(p, ky, kx, w)
                    ak, bk = coeffs.a[ky, kx], coeffs.b[ky, kx]
                    total += float(np.sum((ak * gwin + bk - pwin) ** 2))
            return total

        base = objective(G)
        for y, x in ((0, 0), (2, 3), (5, 5)):
            for delta in (1e-4, -1e-4):
                bumped = G.copy()
                bumped[y, x] += delta
                assert objective(bumped) >= base - 1e-12

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            igf(np.ones((5, 5)), np.ones((5, 5)), W, eps=-0.1)

    def test_icgf_local_optimality_probe(self):
        # anchored variant: bumping a pixel must not decrease the anchored
        # inverse objective either
        rng = np.random.default_rng(11)
        p, guess, g = rng.random((6, 6)), rng.random((6, 6)), rng.random((6, 6))
        w = WindowSpec(1, Boundary.TRUNCATE)
        lam = 0.5
        coeffs = gf_coeffs(p, guess, w, eps=0.1)
        G = icgf(p, guess, g, w, eps=0.1, lam=lam)

        def objective(field):
            total = 0.0
            for ky in range(6):
                for kx in range(6):
                    gwin = window_values(field, ky, kx, w)
                    pwin = window_values(p, ky, kx, w)
                    ak, bk = coeffs.a[ky, kx], coeffs.b[ky, kx]
                    total += float(np.sum((ak * gwin + bk - pwin) ** 2))
                    total += lam * (field[ky, kx] - g[ky, kx]) ** 2
            return total

        base = objective(G)
        for y, x in ((0, 0), (3, 2), (5, 5)):
            for delta in (1e-4, -1e-4):
                bumped = G.copy()
                bumped[y, x] += delta
                assert objective(bumped) >= base - 1e-12


class TestIcgf:
    def test_huge_lambda_returns_anchor(self):
        rng = np.random.default_rng(4)
        p, guess, g = rng.random((9, 9)), rng.random((9, 9)), rng.random((9, 9))
        out = icgf(p, guess, g, W, eps=0.1, lam=1e12)
        assert np.max(np.abs(out - g)) <= 1e-9

    def test_lambda_zero_equals_igf_on_nondegenerate(self):
        rng = np.random.default_rng(5)
        p, guess = rng.random((10, 10)), rng.random((10, 10))
        coeffs = gf_coeffs(p, guess, W, eps=0.1)
        nondegenerate = box_mean(coeffs.a * coeffs.a, W) >= DEGENERATE_EPS
        assert np.all(nondegenerate)  # random data never lands in the flat region
        got = icgf(p, guess, guess, W, eps=0.1, lam=0.0)
        want = igf(p, guess, W, eps=0.1)
        assert np.max(np.abs(got - want)[nondegenerate]) <= 1e-12

    def test_constant_input_routes_to_anchor(self):
        rng = np.random.default_rng(6)
        guess, g = rng.random((8, 8)), rng.random((8, 8))
        out = icgf(np.full((8, 8), 0.7), guess, g, W, eps=0.1, lam=1.0)
        np.testing.assert_allclose(out, g, atol=1e-12)

    def test_denominator_bounded_below_by_lambda(self):
        rng = np.random.default_rng(7)
        p, guess = rng.random((8, 8)), rng.random((8, 8))
        coeffs = gf_coeffs(p, guess, W, eps=0.1)
        lam = 0.25
        denom = box_sum(coeffs.a * coeffs.a, W) + lam
        assert np.all(denom >= lam)

    def test_sums_vs_means_cancellation(self):
        # the mean-based and the sum-based updates differ only by the shared
        # window count, so they agree wherever neither degenerates
        rng = np.random.default_rng(8)
        p, guess = rng.random((9, 9)), rng.random((9, 9))
        got = icgf(p, guess, guess, W, eps=0.05, lam=0.0)
        want = igf(p, guess, W, eps=0.05)
        np.testing.assert_allclose(got, want, atol=1e-12)
