"""The fixed-guide rolls compute the guide's window moments once per call.

Each roll must equal, bit for bit, its composition from single passes
(which recompute every moment), and must spend 2 box passes on the guide
plus 4 per iteration. The validation the single passes used to supply
must survive the hoisting.
"""

import sys

import numpy as np
import pytest

from gfkit.boxops import box_sum, window_counts
from gfkit.cgf import cgf, cgf_iterates, cgf_roll
from gfkit.core import Boundary, WindowSpec, as_image
from gfkit.gf import fit_coeffs, gf, gf_coeffs, gf_iterates, gf_roll, guide_fit, last_iterate
from gfkit.rfnf import (
    detail_image,
    enhanced_flash,
    rfnf_gen,
    rfnf_gen_iterates,
    rfnf_seo,
    rfnf_seo_iterates,
)
from gfkit.rmsf import (
    MutualState,
    cgf_rmsf,
    cgf_rmsf_iterates,
    gf_rmsf,
    gf_rmsf_iterates,
    naive_roll37,
    naive_roll37_iterates,
)
from gfkit.tvgf import tvgf, tvgf_iterates, tvgf_roll

TRUNC = WindowSpec(3, Boundary.TRUNCATE)
PERIODIC = WindowSpec(2, Boundary.PERIODIC)
WINDOWS = pytest.mark.parametrize("w", [TRUNC, PERIODIC], ids=["truncate", "periodic"])
ITERS = 4


def _images(seed):
    """Input, non-contiguous guide and anchor, 17x23."""
    rng = np.random.default_rng(seed)
    p = rng.random((17, 23))
    guide = rng.random((23, 17)).T  # transposed view: not C-contiguous
    g = rng.random((34, 23))[::2]  # strided view
    assert not guide.flags.c_contiguous and not g.flags.c_contiguous
    return p, guide, g


def _one_shot_coeffs(p, guide, w, eps):
    """The fit as a single function of p and the guide, in the same order."""
    counts = window_counts(p.shape, w)
    mean_g = box_sum(guide, w) / counts
    mean_p = box_sum(p, w) / counts
    a = box_sum(guide * p, w) / counts - mean_g * mean_p
    var = np.maximum(box_sum(guide * guide, w) / counts - mean_g * mean_g, 0.0) + eps
    a = a / var
    return a, mean_p - a * mean_g


def _assert_lists_equal(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        np.testing.assert_array_equal(x, y)


def _repeat(step, p, iters):
    out, q = [], p
    for _ in range(iters):
        q = step(q)
        out.append(q)
    return out


class TestBitIdentity:
    @WINDOWS
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_gf_coeffs_is_the_two_helper_composition(self, w, eps):
        p, guide, _ = _images(0)
        c = gf_coeffs(p, guide, w, eps)
        p, guide = as_image(p), as_image(guide)
        moments, _ = guide_fit(p, guide, w, eps, True)
        split = fit_coeffs(p, guide, moments, w)
        np.testing.assert_array_equal(c.a, split.a)
        np.testing.assert_array_equal(c.b, split.b)
        a, b = _one_shot_coeffs(p, guide, w, eps)
        np.testing.assert_array_equal(c.a, a)
        np.testing.assert_array_equal(c.b, b)

    @WINDOWS
    def test_gf_roll_equals_repeated_gf(self, w):
        p, guide, _ = _images(1)
        want = _repeat(lambda q: gf(q, guide, w, 0.05), p, ITERS)
        _assert_lists_equal(gf_roll(p, guide, w, 0.05, ITERS), want)

    @WINDOWS
    def test_cgf_roll_equals_repeated_cgf(self, w):
        p, guide, g = _images(2)
        want = _repeat(lambda q: cgf(q, guide, g, w, 0.05, 0.3), p, ITERS)
        _assert_lists_equal(cgf_roll(p, guide, g, w, 0.05, 0.3, ITERS), want)

    @WINDOWS
    def test_cgf_roll_tol_stop_equals_repeated_cgf(self, w):
        p, guide, g = _images(3)
        full = [p] + _repeat(lambda q: cgf(q, guide, g, w, 0.05, 0.3), p, 12)
        steps = [float(np.max(np.abs(b - a))) for a, b in zip(full, full[1:])]
        # just above the fourth step: the roll stops at the first step below it
        tol = np.nextafter(steps[3], np.inf)
        stop = next(n for n, s in enumerate(steps) if s < tol)
        got = cgf_roll(p, guide, g, w, 0.05, 0.3, 12, tol=tol)
        assert len(got) == stop + 1 < 12
        _assert_lists_equal(got, full[1 : stop + 2])

    def test_tvgf_roll_equals_repeated_tvgf(self):
        p, guide, _ = _images(4)
        want = _repeat(lambda q: tvgf(q, guide, PERIODIC, 0.05, 3.0), p, ITERS)
        _assert_lists_equal(tvgf_roll(p, guide, PERIODIC, 0.05, 3.0, ITERS), want)

    @WINDOWS
    def test_rfnf_seo_equals_gf_formula(self, w):
        noflash, flash, _ = _images(5)
        detail = 0.7 * (flash - gf(flash, flash, w, 0.05))
        want = _repeat(lambda q: gf(q, flash, w, 0.05) + detail, noflash, ITERS)[-1]
        np.testing.assert_array_equal(rfnf_seo(noflash, flash, w, 0.05, 0.7, ITERS), want)

    @WINDOWS
    def test_rfnf_gen_equals_gf_and_cgf_formulas(self, w):
        noflash, flash, _ = _images(6)
        base = gf(flash, flash, w, 0.05)
        anchor = base + 1.5 * (flash - base)
        want = _repeat(lambda q: cgf(q, flash, anchor, w, 0.05, 0.4), noflash, ITERS)[-1]
        got = rfnf_gen(noflash, flash, w, 0.05, 0.4, 1.5, ITERS)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(enhanced_flash(flash, w, 0.05, 1.5), anchor)
        np.testing.assert_array_equal(detail_image(flash, w, 0.05), flash - base)


class TestBoxPasses:
    @pytest.mark.parametrize("iters", [1, 3])
    def test_fixed_guide_rolls_spend_two_plus_four_per_pass(self, count_box_passes, iters):
        p, guide, g = _images(7)
        assert count_box_passes(lambda: gf_roll(p, guide, TRUNC, 0.05, iters)) == 2 + 4 * iters
        assert count_box_passes(
            lambda: cgf_roll(p, guide, g, TRUNC, 0.05, 0.3, iters)
        ) == 2 + 4 * iters
        assert count_box_passes(
            lambda: tvgf_roll(p, guide, PERIODIC, 0.05, 3.0, iters)
        ) == 2 + 4 * iters

    @pytest.mark.parametrize("iters", [1, 3])
    def test_flash_rolls_share_the_flash_moments(self, count_box_passes, iters):
        noflash, flash, _ = _images(8)
        # the base layer gf(flash, flash) is a self-guided fit: 2 + 2
        assert count_box_passes(
            lambda: rfnf_gen(noflash, flash, TRUNC, 0.05, 0.4, 1.5, iters)
        ) == 4 + 4 * iters
        assert count_box_passes(
            lambda: rfnf_seo(noflash, flash, TRUNC, 0.05, 0.7, iters)
        ) == 4 + 4 * iters

    def test_tol_stop_counts_only_the_passes_run(self, count_box_passes):
        p, guide, g = _images(9)
        out = []
        n = count_box_passes(
            lambda: out.extend(cgf_roll(p, guide, g, TRUNC, 0.05, 0.3, 50, tol=1e-3))
        )
        assert len(out) < 50
        assert n == 2 + 4 * len(out)

    def test_single_passes_are_unchanged(self, count_box_passes):
        p, guide, g = _images(10)
        assert count_box_passes(lambda: gf(p, guide, TRUNC, 0.05)) == 6
        assert count_box_passes(lambda: tvgf(p, guide, PERIODIC, 0.05, 3.0)) == 6
        assert count_box_passes(lambda: cgf(p, guide, g, TRUNC, 0.05, 0.3)) == 6

    def test_bindings_are_restored(self, count_box_passes):
        def bindings():
            return {
                (name, attr): value
                for name, module in list(sys.modules.items())
                if name == "gfkit" or name.startswith("gfkit.")
                for attr, value in vars(module).items()
                if value is box_sum
            }

        before = bindings()
        assert ("gfkit.gf", "box_sum") in before and ("gfkit", "box_sum") in before
        assert count_box_passes(lambda: gf(*_images(11)[:2], TRUNC, 0.05)) == 6
        assert bindings() == before


ROLLS = {
    "gf_roll": lambda p, guide, g, eps, lam, n: gf_roll(p, guide, TRUNC, eps, n),
    "cgf_roll": lambda p, guide, g, eps, lam, n: cgf_roll(p, guide, g, TRUNC, eps, lam, n),
    "tvgf_roll": lambda p, guide, g, eps, lam, n: tvgf_roll(p, guide, PERIODIC, eps, lam, n),
    "rfnf_seo": lambda p, guide, g, eps, lam, n: rfnf_seo(p, guide, TRUNC, eps, lam, n),
    "rfnf_gen": lambda p, guide, g, eps, lam, n: rfnf_gen(p, guide, TRUNC, eps, lam, 1.0, n),
}
# lam weights an anchor or TV term in these; rfnf_seo's lam only scales the
# re-injected detail, and no sign is required of it
NONNEGATIVE_LAMBDA = ["cgf_roll", "tvgf_roll", "rfnf_gen"]


class TestValidation:
    @pytest.mark.parametrize("name", list(ROLLS))
    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_rejects_nonpositive_eps(self, name, eps):
        with pytest.raises(ValueError, match="eps"):
            ROLLS[name](*_images(12), eps, 0.3, 2)

    @pytest.mark.parametrize("name", NONNEGATIVE_LAMBDA)
    def test_rejects_negative_lambda(self, name):
        with pytest.raises(ValueError, match="lambda"):
            ROLLS[name](*_images(13), 0.05, -0.1, 2)

    @pytest.mark.parametrize("name", list(ROLLS))
    def test_rejects_zero_iters(self, name):
        with pytest.raises(ValueError, match="iters"):
            ROLLS[name](*_images(14), 0.05, 0.3, 0)


def _calls(scheme):
    """The iterates of n calls of ``scheme`` with iters = 1 .. n."""
    return lambda p, guide, g, eps, n: [scheme(p, guide, g, eps, k) for k in range(1, n + 1)]


# scheme -> (its iterates generator, the same iterates from its roll or
# from n calls), each taking (p, guide, anchor, eps, n)
ITERATES = {
    "gf": (lambda p, guide, g, eps, n: gf_iterates(p, guide, TRUNC, eps, n),
           lambda p, guide, g, eps, n: gf_roll(p, guide, TRUNC, eps, n)),
    "tvgf": (lambda p, guide, g, eps, n: tvgf_iterates(p, guide, PERIODIC, eps, 3.0, n),
             lambda p, guide, g, eps, n: tvgf_roll(p, guide, PERIODIC, eps, 3.0, n)),
    "cgf": (lambda p, guide, g, eps, n: cgf_iterates(p, guide, g, TRUNC, eps, 0.3, n),
            lambda p, guide, g, eps, n: cgf_roll(p, guide, g, TRUNC, eps, 0.3, n)),
    "gf_rmsf": (lambda p, guide, g, eps, n: gf_rmsf_iterates(p, guide, eps, 0.02, TRUNC, n),
                _calls(lambda p, guide, g, eps, k: gf_rmsf(p, guide, eps, 0.02, TRUNC, k))),
    "cgf_rmsf": (
        lambda p, guide, g, eps, n: cgf_rmsf_iterates(p, guide, eps, 0.02, 0.3, 0.2, TRUNC, n),
        _calls(lambda p, guide, g, eps, k: cgf_rmsf(p, guide, eps, 0.02, 0.3, 0.2, TRUNC, k)),
    ),
    "roll37": (lambda p, guide, g, eps, n: naive_roll37_iterates(p, guide, eps, TRUNC, n),
               _calls(lambda p, guide, g, eps, k: naive_roll37(p, guide, eps, TRUNC, k))),
    "rfnf_seo": (lambda p, guide, g, eps, n: rfnf_seo_iterates(p, guide, TRUNC, eps, 0.7, n),
                 _calls(lambda p, guide, g, eps, k: rfnf_seo(p, guide, TRUNC, eps, 0.7, k))),
    "rfnf_gen": (
        lambda p, guide, g, eps, n: rfnf_gen_iterates(p, guide, TRUNC, eps, 0.4, 1.5, n),
        _calls(lambda p, guide, g, eps, k: rfnf_gen(p, guide, TRUNC, eps, 0.4, 1.5, k)),
    ),
}


def _planes(iterate):
    if isinstance(iterate, MutualState):
        return [iterate.q, iterate.G]
    return [iterate]


class TestIterates:
    @pytest.mark.parametrize("name", list(ITERATES))
    def test_iterates_equal_the_roll(self, name):
        iterates, roll = ITERATES[name]
        got = list(iterates(*_images(15), 0.05, ITERS))
        want = roll(*_images(15), 0.05, ITERS)
        assert len(got) == len(want) == ITERS
        for n, (x, y) in enumerate(zip(got, want), start=1):
            if isinstance(x, MutualState):
                assert x.iteration == y.iteration == n
            for a, b in zip(_planes(x), _planes(y), strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", list(ITERATES))
    @pytest.mark.parametrize("eps,iters,match", [(0.0, 2, "eps"), (0.05, 0, "iters")])
    def test_bad_parameter_raises_at_the_call(self, name, eps, iters, match):
        # the call itself raises: no next() is needed to reach the check
        with pytest.raises(ValueError, match=match):
            ITERATES[name][0](*_images(16), eps, iters)

    @WINDOWS
    def test_last_iterate_ends_at_a_tol_stop(self, w):
        # the roll stops after 34 of 50 iterates; the last of those is the
        # scheme's result, with each iterate seen once on the way
        x = np.random.default_rng(40).random((40, 40))
        want = cgf_roll(x, x, x, w, 0.01, 0.5, 50, tol=1e-3)
        assert len(want) < 50
        seen = []
        got = last_iterate(cgf_iterates(x, x, x, w, 0.01, 0.5, 50, tol=1e-3), seen.append)
        assert np.array_equal(got, want[-1])
        assert len(seen) == len(want)
