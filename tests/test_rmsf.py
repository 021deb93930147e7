import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec
from gfkit.gf import GfCoeffs, gf, gf_coeffs
from gfkit.igf import igf
from gfkit.rmsf import (
    MutualState,
    alpha_weight,
    cgf_rmsf,
    energy_mutual,
    gf_rmsf,
    naive_roll37,
)
from gfkit import synth

W = WindowSpec(2, Boundary.TRUNCATE)


class TestAlphaWeight:
    @pytest.mark.parametrize("value,expected", [(0.0, 1.0), (1.0, 0.5), (3.0, 0.1)])
    def test_constants(self, value, expected):
        out = alpha_weight(np.full((6, 6), value), W)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        out = alpha_weight(rng.normal(size=(10, 10)) * 5, W)
        assert np.all(out > 0.0) and np.all(out <= 1.0)


class TestGfRmsf:
    def test_constants_preserved(self):
        c = np.full((8, 8), 0.5)
        state = gf_rmsf(c, c, 0.1, 0.1, W, 3)
        np.testing.assert_allclose(state.q, 0.5, atol=1e-10)
        np.testing.assert_allclose(state.G, 0.5, atol=1e-10)

    def test_first_q_is_hand_composed_blend(self):
        rng = np.random.default_rng(1)
        p, guide = rng.random((16, 16)), rng.random((16, 16))
        eps, eps2 = 0.1, 0.05
        state = gf_rmsf(p, guide, eps, eps2, W, 1)
        cd = gf_coeffs(guide, p, W, eps2)
        alpha = alpha_weight(cd.a, W)
        want = alpha * gf(p, guide, W, eps) + (1.0 - alpha) * igf(guide, p, W, eps2)
        np.testing.assert_allclose(state.q, want, atol=1e-12)

    def test_first_q_between_sub_filter_outputs(self):
        rng = np.random.default_rng(2)
        p, guide = rng.random((12, 12)), rng.random((12, 12))
        state = gf_rmsf(p, guide, 0.1, 0.1, W, 1)
        forward = gf(p, guide, W, 0.1)
        inverse = igf(guide, p, W, 0.1)
        lo = np.minimum(forward, inverse) - 1e-12
        hi = np.maximum(forward, inverse) + 1e-12
        assert np.all(state.q >= lo) and np.all(state.q <= hi)

    def test_energy_descent(self):
        rng = np.random.default_rng(3)
        p, guide = rng.random((16, 16)), rng.random((16, 16))
        snaps = []
        gf_rmsf(p, guide, 0.1, 0.05, W, 10, snapshots=snaps)
        energies = [
            energy_mutual(s.state, s.ab, s.cd, W, 0.1, 0.05).total for s in snaps
        ]
        assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(energies, energies[1:]))

    def test_non_identity_on_self_input(self):
        tex = synth.texture_scene(32, 32, seed=4)
        state = gf_rmsf(tex, tex, 0.01, 0.01, WindowSpec(3), 1)
        assert np.max(np.abs(state.q - tex)) > 1e-6

    def test_snapshot_bookkeeping(self):
        rng = np.random.default_rng(5)
        p, guide = rng.random((8, 8)), rng.random((8, 8))
        snaps = []
        state = gf_rmsf(p, guide, 0.1, 0.1, W, 4, snapshots=snaps)
        assert len(snaps) == 4
        assert snaps[-1].state.iteration == 4
        np.testing.assert_array_equal(snaps[-1].state.q, state.q)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gf_rmsf(np.ones((6, 6)), np.ones((6, 6)), 0.0, 0.1, W, 1)
        with pytest.raises(ValueError):
            gf_rmsf(np.ones((6, 6)), np.ones((6, 6)), 0.1, 0.1, W, 0)


class TestCgfRmsf:
    def test_zero_anchors_reduce_to_plain(self):
        rng = np.random.default_rng(6)
        p, guide = rng.random((16, 16)), rng.random((16, 16))
        plain = gf_rmsf(p, guide, 0.1, 0.05, W, 5)
        anchored = cgf_rmsf(p, guide, 0.1, 0.05, 0.0, 0.0, W, 5)
        assert np.max(np.abs(plain.q - anchored.q)) <= 1e-12
        assert np.max(np.abs(plain.G - anchored.G)) <= 1e-12

    def test_constants_preserved(self):
        c = np.full((8, 8), 0.25)
        state = cgf_rmsf(c, c, 0.1, 0.1, 0.01, 0.01, W, 3)
        np.testing.assert_allclose(state.q, 0.25, atol=1e-10)
        np.testing.assert_allclose(state.G, 0.25, atol=1e-10)

    def test_per_step_convexity_audit(self):
        # every iterate stays inside the envelope of the two sub-filter
        # outputs it blends, reconstructed from that iteration's coefficients
        from gfkit.gf import gf_apply
        from gfkit.igf import icgf_update
        from gfkit.cgf import anchor_weight

        rng = np.random.default_rng(7)
        p, guide = rng.random((16, 16)), rng.random((16, 16))
        lam = beta = 0.01
        snaps = []
        cgf_rmsf(p, guide, 0.1, 0.1, lam, beta, W, 5, snapshots=snaps)
        alpha_lam = anchor_weight(p.shape, W, lam)
        alpha_beta = anchor_weight(p.shape, W, beta)
        prev_q, prev_G = p, guide
        for snap in snaps:
            fwd = (1 - alpha_lam) * gf_apply(snap.ab, prev_G, W) + alpha_lam * p
            inv = icgf_update(snap.cd, prev_G, guide, W, beta, prior=prev_q)
            lo = np.minimum(fwd, inv) - 1e-12
            hi = np.maximum(fwd, inv) + 1e-12
            assert np.all(snap.state.q >= lo) and np.all(snap.state.q <= hi)
            fwd_g = (1 - alpha_beta) * gf_apply(snap.cd, snap.state.q, W) + alpha_beta * guide
            inv_g = icgf_update(snap.ab, snap.state.q, p, W, lam, prior=prev_G)
            lo = np.minimum(fwd_g, inv_g) - 1e-12
            hi = np.maximum(fwd_g, inv_g) + 1e-12
            assert np.all(snap.state.G >= lo) and np.all(snap.state.G <= hi)
            prev_q, prev_G = snap.state.q, snap.state.G


class TestNaiveRoll:
    def test_constants(self):
        c = np.full((8, 8), 0.9)
        state = naive_roll37(c, c, 0.1, W, 3)
        np.testing.assert_allclose(state.q, 0.9, atol=1e-11)

    def test_single_iteration_is_cross_pass(self):
        rng = np.random.default_rng(8)
        p, guide = rng.random((10, 10)), rng.random((10, 10))
        state = naive_roll37(p, guide, 0.1, W, 1)
        np.testing.assert_array_equal(state.q, gf(p, guide, W, 0.1))
        np.testing.assert_array_equal(state.G, gf(guide, p, W, 0.1))

    def test_wipes_out_detail_faster_than_rmsf(self):
        tex = synth.texture_scene(48, 48, seed=9)
        w = WindowSpec(4)
        mutual = gf_rmsf(tex, tex, 0.001, 0.001, w, 20)
        naive = naive_roll37(tex, tex, 0.001, w, 20)
        assert np.std(naive.q) < np.std(mutual.q)


class TestEnergyMutual:
    def test_all_zero_state(self):
        z = np.zeros((6, 6))
        state = MutualState(q=z, G=z, iteration=0)
        report = energy_mutual(state, GfCoeffs(z, z), GfCoeffs(z, z), W, 0.1, 0.1)
        assert report.total == 0.0

    def test_matched_constants_zero(self):
        c = np.full((6, 6), 0.4)
        z = np.zeros((6, 6))
        state = MutualState(q=c, G=c, iteration=0)
        coeffs = GfCoeffs(a=z, b=c.copy())
        report = energy_mutual(state, coeffs, coeffs, W, 0.1, 0.1)
        assert report.total == pytest.approx(0.0)

    def test_matches_loop_reorder_oracle(self):
        from oracles import energy_gf_reordered

        rng = np.random.default_rng(10)
        q, G = rng.random((8, 8)), rng.random((8, 8))
        a, b, c, d = (rng.random((8, 8)) for _ in range(4))
        eps, eps2 = 0.1, 0.05
        got = energy_mutual(
            MutualState(q, G, 0), GfCoeffs(a, b), GfCoeffs(c, d), W, eps, eps2
        )
        want = energy_gf_reordered(q, a, b, G, W, eps) + energy_gf_reordered(
            G, c, d, q, W, eps2
        )
        assert got.total == pytest.approx(want, rel=1e-12)
