"""Self-guided fits take the guide's own moments.

When p is the guide object itself, the fit needs no box pass of its own:
mean(p) is the guide's window mean and cov(guide, p) its unclamped window
variance. Every self-guided call must give the same bits as the general
route, which an equal copy of the input takes, while spending 2 fewer box
passes per fit and no more memory.
"""

import tracemalloc

import numpy as np
import pytest

from gfkit.cgf import cgf, cgf_roll
from gfkit.cli import main
from gfkit.core import Boundary, WindowSpec, as_image
from gfkit.gf import (
    GfCoeffs,
    anchored_update,
    fit_coeffs,
    gf,
    gf_apply,
    gf_coeffs,
    gf_roll,
    guide_moments,
    self_fit,
    window_sum_estimate,
)
from gfkit.igf import icgf, igf
from gfkit.imgio import write_pnm_file
from gfkit.rfnf import detail_image, enhanced_flash, rfnf_gen, rfnf_seo
from gfkit.rmsf import MutualState, cgf_rmsf, gf_rmsf
from gfkit.tvgf import tvgf, tvgf_roll, tvgf_solve_q

TRUNC = WindowSpec(3, Boundary.TRUNCATE)
PERIODIC = WindowSpec(2, Boundary.PERIODIC)
WINDOWS = pytest.mark.parametrize("w", [TRUNC, PERIODIC], ids=["truncate", "periodic"])
ITERS = 3

# each entry is f(x, y, w) with y in the guide's place; tvgf-family only on
# periodic windows
CALLS = {
    "gf_coeffs": lambda x, y, w: gf_coeffs(x, y, w, 0.05),
    "gf_coeffs_eps0": lambda x, y, w: gf_coeffs(x, y, w, 0.0),
    "gf": lambda x, y, w: gf(x, y, w, 0.05),
    "cgf": lambda x, y, w: cgf(x, y, x, w, 0.05, 0.3),
    "igf": lambda x, y, w: igf(x, y, w, 0.05),
    "icgf": lambda x, y, w: icgf(x, y, x, w, 0.05, 0.3),
    "gf_roll": lambda x, y, w: gf_roll(x, y, w, 0.05, ITERS),
    "cgf_roll": lambda x, y, w: cgf_roll(x, y, x, w, 0.05, 0.3, ITERS),
    "gf_rmsf": lambda x, y, w: gf_rmsf(x, y, 0.05, 0.05, w, ITERS),
    "cgf_rmsf": lambda x, y, w: cgf_rmsf(x, y, 0.05, 0.05, 0.3, 0.3, w, ITERS),
    "rfnf_seo": lambda x, y, w: rfnf_seo(x, y, w, 0.05, 0.7, ITERS),
    "rfnf_gen": lambda x, y, w: rfnf_gen(x, y, w, 0.05, 0.4, 1.5, ITERS),
    "tvgf": lambda x, y, w: tvgf(x, y, w, 0.05, 3.0),
    "tvgf_roll": lambda x, y, w: tvgf_roll(x, y, w, 0.05, 3.0, ITERS),
}
PERIODIC_ONLY = {"tvgf", "tvgf_roll"}
CASES = [(name, w) for name in CALLS for w in (TRUNC, PERIODIC)
         if w is PERIODIC or name not in PERIODIC_ONLY]


def _image(layout):
    """A 17x23 image: C-contiguous, a transposed or a strided view, or float32."""
    rng = np.random.default_rng(len(layout))
    x = {
        "contiguous": lambda: rng.random((17, 23)),
        "transposed": lambda: rng.random((23, 17)).T,
        "strided": lambda: rng.random((34, 46))[::2, ::2],
        "float32": lambda: rng.random((17, 23)).astype(np.float32),
    }[layout]()
    assert x.flags.c_contiguous == (layout in ("contiguous", "float32"))
    return x


def _arrays(result):
    """The arrays a call returned, in order."""
    if isinstance(result, GfCoeffs):
        return [result.a, result.b]
    if isinstance(result, MutualState):
        return [result.q, result.G]
    if isinstance(result, list):
        return result
    return [result]


def _assert_same_bits(got, want):
    got, want = _arrays(got), _arrays(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestSameBitsAsTheGeneralRoute:
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided", "float32"])
    @pytest.mark.parametrize(
        "name,w", CASES, ids=[f"{n}-{w.boundary.value}" for n, w in CASES]
    )
    def test_self_guided_equals_a_copy_as_guide(self, name, w, layout):
        x = _image(layout)
        _assert_same_bits(CALLS[name](x, x, w), CALLS[name](x, x.copy(), w))

    @WINDOWS
    def test_cgf_roll_tol_stop(self, w):
        x = _image("transposed")
        got = cgf_roll(x, x, x, w, 0.05, 0.3, 50, tol=1e-3)
        want = cgf_roll(x, x.copy(), x, w, 0.05, 0.3, 50, tol=1e-3)
        assert 1 < len(got) < 50
        _assert_same_bits(got, want)

    @WINDOWS
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_self_fit_is_guide_moments_then_fit_coeffs(self, w, eps):
        x = as_image(_image("strided"))
        moments, coeffs = self_fit(x, w, eps)
        general = guide_moments(x, w, eps)
        for field in ("mean", "var_eps"):
            assert np.array_equal(getattr(moments, field), getattr(general, field))
        for factor in ("rows", "cols"):
            assert np.array_equal(getattr(moments.counts, factor), getattr(general.counts, factor))
        _assert_same_bits(coeffs, fit_coeffs(x, x, general, w))

    @WINDOWS
    def test_self_fit_where_the_variance_rounds_below_zero(self, w):
        # a large offset and a tiny spread: the unclamped variance is the
        # numerator and the clamped one the denominator
        x = 100.0 + 1e-7 * np.random.default_rng(3).random((17, 23))
        unclamped = gf_coeffs(x, x.copy(), w, 0.05)
        assert np.any(unclamped.a < 0)
        _assert_same_bits(gf_coeffs(x, x, w, 0.05), unclamped)

    @WINDOWS
    def test_flash_base_layer_equals_the_general_fit(self, w):
        noflash, flash = _image("contiguous"), _image("strided")
        base = gf(flash, flash.copy(), w, 0.05)
        assert np.array_equal(detail_image(flash, w, 0.05), flash - base)
        anchor = base + 1.5 * (flash - base)
        assert np.array_equal(enhanced_flash(flash, w, 0.05, 1.5), anchor)
        q = noflash
        for _ in range(ITERS):
            q = cgf(q, flash, anchor, w, 0.05, 0.4)
        assert np.array_equal(rfnf_gen(noflash, flash, w, 0.05, 0.4, 1.5, ITERS), q)
        detail = 0.7 * (flash - base)
        q = noflash
        for _ in range(ITERS):
            q = gf(q, flash, w, 0.05) + detail
        assert np.array_equal(rfnf_seo(noflash, flash, w, 0.05, 0.7, ITERS), q)


class TestBoxPasses:
    def test_single_passes(self, count_box_passes):
        x = _image("contiguous")
        y = x.copy()
        for guide, saved in ((x, 2), (y, 0)):
            assert count_box_passes(lambda: gf_coeffs(x, guide, TRUNC, 0.05)) == 4 - saved
            assert count_box_passes(lambda: gf(x, guide, TRUNC, 0.05)) == 6 - saved
            assert count_box_passes(lambda: cgf(x, guide, x, TRUNC, 0.05, 0.3)) == 6 - saved
            assert count_box_passes(lambda: tvgf(x, guide, PERIODIC, 0.05, 3.0)) == 6 - saved
            assert count_box_passes(lambda: igf(x, guide, TRUNC, 0.05)) == 7 - saved
            assert count_box_passes(lambda: icgf(x, guide, x, TRUNC, 0.05, 0.3)) == 7 - saved

    @pytest.mark.parametrize("iters", [1, 3])
    def test_rolls_spend_four_per_pass(self, count_box_passes, iters):
        x = _image("transposed")
        assert count_box_passes(lambda: gf_roll(x, x, TRUNC, 0.05, iters)) == 4 * iters
        assert count_box_passes(lambda: cgf_roll(x, x, x, TRUNC, 0.05, 0.3, iters)) == 4 * iters
        assert count_box_passes(
            lambda: tvgf_roll(x, x, PERIODIC, 0.05, 3.0, iters)
        ) == 4 * iters

    def test_tol_stop_counts_only_the_passes_run(self, count_box_passes):
        x = _image("contiguous")
        out = []
        n = count_box_passes(
            lambda: out.extend(cgf_roll(x, x, x, TRUNC, 0.05, 0.3, 50, tol=1e-3))
        )
        assert 1 < len(out) < 50
        assert n == 4 * len(out)

    def test_oneshot_request(self, count_box_passes):
        # gf, cgf, tvgf, igf and icgf once each, every one self-guided
        x = _image("contiguous")

        def request():
            gf(x, x, WindowSpec(10), 0.1)
            cgf(x, x, x, WindowSpec(6), 0.001, 0.01)
            tvgf(x, x, WindowSpec(5, Boundary.PERIODIC), 0.01, 45.0)
            igf(x, x, WindowSpec(6), 0.01)
            icgf(x, x, x, WindowSpec(6), 0.01, 0.01)

        assert count_box_passes(request) == 4 + 4 + 4 + 5 + 5

    @pytest.mark.parametrize("guided,per_channel", [(False, 12), (True, 14)])
    def test_cli_cgf_three_iterations(self, count_box_passes, tmp_path, monkeypatch,
                                      capsys, guided, per_channel):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(9)
        write_pnm_file("in.ppm", [rng.random((20, 24)) for _ in range(3)], 255)
        write_pnm_file("guide.pgm", [rng.random((20, 24))], 255)
        argv = ["cgf", "--input", "in.ppm", "--output", "out.ppm", "--iters", "3"]
        if guided:
            argv += ["--guidance", "guide.pgm"]
        assert count_box_passes(lambda: main(argv)) == 3 * per_channel
        assert capsys.readouterr().err == ""


def _peak_bytes(call) -> int:
    call()  # warm-up: one-time allocations do not count
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_self_guided_fit_peaks_no_higher_than_the_general_fit(self):
        x = np.random.default_rng(1).random((256, 256))
        y = x.copy()
        assert _peak_bytes(lambda: gf_coeffs(x, x, TRUNC, 0.05)) <= _peak_bytes(
            lambda: gf_coeffs(x, y, TRUNC, 0.05)
        )

    def test_single_passes_hold_no_guide_moments(self):
        # one pass needs no refit, so only the window counts may outlive the
        # fit: the references build the fit, then the window sums, then solve.
        # Holding the guide's mean and variance there adds about a plane to
        # the peak; tvgf also holds its half-spectrum denominator, built
        # before the fit.
        x = np.random.default_rng(3).random((256, 256))
        y = x.copy()
        slack = x.nbytes // 2
        denominator = x.shape[0] * (x.shape[1] // 2 + 1) * x.itemsize
        assert _peak_bytes(lambda: gf(x, y, TRUNC, 0.05)) < _peak_bytes(
            lambda: gf_apply(gf_coeffs(x, y, TRUNC, 0.05), y, TRUNC)
        ) + slack
        assert _peak_bytes(lambda: tvgf(x, y, PERIODIC, 0.05, 3.0)) < _peak_bytes(
            lambda: tvgf_solve_q(
                window_sum_estimate(gf_coeffs(x, y, PERIODIC, 0.05), y, PERIODIC), PERIODIC, 3.0
            )
        ) + denominator + slack

    @pytest.mark.parametrize("iters", [1, 3])
    def test_rolls_hold_only_the_guide_moments(self, iters):
        # the references hold the guide moments and the iterates and nothing
        # else; a first fit held through the roll would add its two planes
        x = np.random.default_rng(2).random((256, 256))
        slack = x.nbytes // 2

        def reference(w, update):
            moments = guide_moments(x, w, 0.05)
            out = []
            for _ in range(iters):
                coeffs = fit_coeffs(out[-1] if out else x, x, moments, w)
                f = window_sum_estimate(coeffs, x, w)
                del coeffs
                out.append(update(f, moments.counts))
                del f

        assert _peak_bytes(lambda: gf_roll(x, x, TRUNC, 0.05, iters)) < (
            _peak_bytes(lambda: reference(TRUNC, anchored_update)) + slack
        )
        assert _peak_bytes(lambda: cgf_roll(x, x, x, TRUNC, 0.05, 0.3, iters)) < _peak_bytes(
            lambda: reference(TRUNC, lambda f, counts: anchored_update(f, counts, x, 0.3))
        ) + slack
        assert _peak_bytes(lambda: tvgf_roll(x, x, PERIODIC, 0.05, 3.0, iters)) < _peak_bytes(
            lambda: reference(PERIODIC, lambda f, counts: tvgf_solve_q(f, PERIODIC, 3.0))
        ) + slack
