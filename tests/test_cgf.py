import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec
from gfkit.gf import GfCoeffs, gf, gf_coeffs, energy_gf
from gfkit.cgf import anchor_weight, cgf, cgf_iterates, cgf_roll, energy_cgf

from oracles import naive_box_sum

W = WindowSpec(2, Boundary.TRUNCATE)


class TestCgf:
    def test_lambda_zero_is_exactly_gf(self):
        rng = np.random.default_rng(0)
        p, guide, g = rng.random((10, 10)), rng.random((10, 10)), rng.random((10, 10))
        got = cgf(p, guide, g, W, eps=0.05, lam=0.0)
        np.testing.assert_array_equal(got, gf(p, guide, W, eps=0.05))

    def test_huge_lambda_returns_anchor(self):
        rng = np.random.default_rng(1)
        p, guide, g = rng.random((10, 10)), rng.random((10, 10)), rng.random((10, 10))
        got = cgf(p, guide, g, W, eps=0.05, lam=1e12)
        assert np.max(np.abs(got - g)) <= 1e-9

    def test_hand_composed_blend(self):
        # independent route: counts from the naive offset loops
        rng = np.random.default_rng(2)
        p, guide, g = rng.random((16, 16)), rng.random((16, 16)), rng.random((16, 16))
        w = WindowSpec(6, Boundary.TRUNCATE)
        eps, lam = 0.001, 0.01
        counts = naive_box_sum(np.ones((16, 16)), w)
        alpha = lam / (counts + lam)
        want = (1.0 - alpha) * gf(p, guide, w, eps) + alpha * g
        got = cgf(p, guide, g, w, eps, lam)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_output_between_gf_and_anchor(self):
        rng = np.random.default_rng(3)
        p, guide, g = rng.random((12, 12)), rng.random((12, 12)), rng.random((12, 12))
        base = gf(p, guide, W, 0.1)
        out = cgf(p, guide, g, W, 0.1, lam=3.0)
        lo = np.minimum(base, g) - 1e-12
        hi = np.maximum(base, g) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cgf(np.ones((4, 4)), np.ones((4, 4)), np.ones((4, 5)), W, 0.1, 1.0)


class TestAnchorWeight:
    def test_varies_near_borders_under_truncate(self):
        alpha = anchor_weight((8, 8), WindowSpec(2, Boundary.TRUNCATE), lam=2.0)
        assert alpha[0, 0] > alpha[4, 4]  # smaller window -> stronger anchor
        assert alpha[0, 0] == pytest.approx(2.0 / (9 + 2.0))
        assert alpha[4, 4] == pytest.approx(2.0 / (25 + 2.0))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            anchor_weight((8, 8), W, -1.0)

    @pytest.mark.parametrize("shape,size", [((2.5, 3), "height"), ((0, 3), "height"),
                                            ((-2, 3), "height"), ((3, 0), "width")])
    def test_malformed_shape_rejected(self, shape, size):
        # fractional counts, or an empty plane, were returned before
        with pytest.raises(ValueError, match=size):
            anchor_weight(shape, WindowSpec(1), 1.0)


class TestRoll:
    def test_anchor_and_input_constant(self):
        guide = np.random.default_rng(4).random((8, 8))
        c = np.full((8, 8), 0.6)
        for q in cgf_roll(c, guide, c, W, 0.1, 1.0, 4):
            np.testing.assert_allclose(q, 0.6, atol=1e-11)

    def test_single_iteration(self):
        rng = np.random.default_rng(5)
        p, guide, g = rng.random((8, 8)), rng.random((8, 8)), rng.random((8, 8))
        np.testing.assert_array_equal(
            cgf_roll(p, guide, g, W, 0.1, 1.0, 1)[0], cgf(p, guide, g, W, 0.1, 1.0)
        )

    def test_lambda_zero_roll_equals_gf_roll(self):
        from gfkit.gf import gf_roll

        rng = np.random.default_rng(6)
        p, guide = rng.random((10, 10)), rng.random((10, 10))
        got = cgf_roll(p, guide, p, W, 0.1, 0.0, 5)
        want = gf_roll(p, guide, W, 0.1, 5)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_converges_to_nontrivial_fixed_point(self):
        rng = np.random.default_rng(7)
        p = rng.random((16, 16))
        guide = p.copy()
        qs = cgf_roll(p, guide, p, WindowSpec(2), 0.1, 5.0, 120)
        deltas = [float(np.max(np.abs(b - a))) for a, b in zip(qs, qs[1:])]
        # eventually decreasing and small
        assert deltas[-1] < 1e-6
        assert all(d2 <= d1 * 1.5 for d1, d2 in zip(deltas[5:], deltas[6:]))
        assert np.std(qs[-1]) > 0.01 * np.std(p)

    def test_tolerance_mode_stops_early(self):
        rng = np.random.default_rng(8)
        p = rng.random((12, 12))
        qs = cgf_roll(p, p, p, WindowSpec(2), 0.1, 5.0, 500, tol=1e-6)
        assert len(qs) < 500

    def test_bad_iters(self):
        with pytest.raises(ValueError):
            cgf_roll(np.ones((4, 4)), np.ones((4, 4)), np.ones((4, 4)), W, 0.1, 1.0, 0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("-inf")])
    def test_bad_tol(self, tol):
        # such a tol never stops the roll, which then ran its whole budget
        ones = np.ones((4, 4))
        with pytest.raises(ValueError, match=f"tol must be > 0, got {tol}"):
            cgf_roll(ones, ones, ones, W, 0.1, 1.0, 8, tol=tol)

    def test_tol_checked_at_the_call(self, count_box_passes):
        # refused before the first fit, not at the tol test after the first pass
        ones = np.ones((4, 4))

        def call():
            with pytest.raises(ValueError, match="tol must be a real number, got '1e-3'"):
                cgf_iterates(ones, ones, ones, W, 0.1, 1.0, 8, tol="1e-3")

        assert count_box_passes(call) == 0


class TestEnergy:
    def test_perfect_anchor_zero(self):
        guide = np.random.default_rng(9).random((6, 6))
        c = np.full((6, 6), 0.8)
        coeffs = GfCoeffs(a=np.zeros((6, 6)), b=np.full((6, 6), 0.8))
        report = energy_cgf(c, coeffs, guide, c, W, 0.1, 2.0)
        assert report.total == pytest.approx(0.0)

    def test_lambda_zero_equals_energy_gf(self):
        rng = np.random.default_rng(10)
        q, guide, g = rng.random((7, 7)), rng.random((7, 7)), rng.random((7, 7))
        coeffs = gf_coeffs(q, guide, W, 0.1)
        got = energy_cgf(q, coeffs, guide, g, W, 0.1, 0.0)
        want = energy_gf(q, coeffs, guide, W, 0.1)
        assert got.total == pytest.approx(want.total, rel=1e-14)
        assert got.terms["anchor"] == 0.0

    def test_matches_independent_double_loop(self):
        rng = np.random.default_rng(11)
        q, guide, g = rng.random((8, 8)), rng.random((8, 8)), rng.random((8, 8))
        a, b = rng.random((8, 8)), rng.random((8, 8))
        lam = 1.7
        from oracles import energy_gf_reordered

        got = energy_cgf(q, GfCoeffs(a, b), guide, g, W, 0.1, lam)
        want = energy_gf_reordered(q, a, b, guide, W, 0.1) + lam * float(np.sum((q - g) ** 2))
        assert got.total == pytest.approx(want, rel=1e-12)
