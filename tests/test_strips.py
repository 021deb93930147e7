"""The pointwise steps after each box pass run over row strips, bit for bit.

Every filter, roll, rmsf track and flash scheme must give exactly the
arrays of the whole-plane arithmetic frozen in ``oracles.py``, for inputs
that are C-contiguous, transposed or strided, with a constant (degenerate)
block, on both boundaries and with anchors zero and nonzero. The strips
are run at the default byte budget (a quarter of these small planes) and
at one row each, so that every strip edge and remainder is crossed.

tracemalloc then pins what the strips are for: an rmsf run at 256x256
holds at most 10 float planes (15 before), no fixed-guide roll holds a
plane of window counts, and a self-guided igf or icgf frees its fit's b
early.
"""

import tracemalloc

import numpy as np
import pytest

import gfkit.boxops
from gfkit.boxops import WindowCounts, box_mean
from gfkit.cgf import cgf, cgf_roll
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import (
    anchored_update,
    gf,
    gf_apply,
    gf_coeffs,
    gf_roll,
    guide_moments,
    roll,
    self_fit,
)
from gfkit.igf import icgf, icgf_update, igf, igf_update
from gfkit.rfnf import detail_image, enhanced_flash, rfnf_gen, rfnf_seo
from gfkit.rmsf import alpha_weight, cgf_rmsf, gf_rmsf
from gfkit.tvgf import tvgf, tvgf_roll
from oracles import (
    frozen_alpha_weight,
    frozen_anchored_update,
    frozen_box_mean,
    frozen_cgf_roll,
    frozen_enhanced_flash,
    frozen_flash_base,
    frozen_gf_coeffs,
    frozen_gf_roll,
    frozen_guide_moments,
    frozen_icgf,
    frozen_inverse_update,
    frozen_rfnf,
    frozen_rmsf,
    frozen_self_fit,
    frozen_tvgf_roll,
    frozen_window_sums,
)

TRUNC = WindowSpec(2, Boundary.TRUNCATE)
PERIODIC = WindowSpec(2, Boundary.PERIODIC)
WINDOWS = pytest.mark.parametrize("w", [TRUNC, PERIODIC], ids=["truncate", "periodic"])
ANCHORS = pytest.mark.parametrize("lam,beta", [(0.0, 0.0), (0.3, 0.05)], ids=["plain", "anchored"])
LAYOUTS = ("contiguous", "transposed", "strided")


@pytest.fixture(params=["default", "one-row"])
def strips(request, monkeypatch):
    if request.param == "one-row":
        monkeypatch.setattr(gfkit.boxops, "STRIP_BYTES", 1)


def _image(layout, seed, shape=(17, 23)):
    """A [0, 1] image with a constant block, so that some windows are flat."""
    rng = np.random.default_rng(seed)
    h, w = shape
    x = {
        "contiguous": lambda: rng.random((h, w)),
        "transposed": lambda: rng.random((w, h)).T,
        "strided": lambda: rng.random((2 * h, w))[::2],
    }[layout]()
    x[: h // 2, : w // 2] = 0.4
    return x


@pytest.fixture(params=LAYOUTS)
def images(request):
    """(p, guide, g): p in the given layout, the others in the other two."""
    others = [layout for layout in LAYOUTS if layout != request.param]
    return _image(request.param, 1), _image(others[0], 2), _image(others[1], 3)


def _same(got, want):
    # at eps = 0 a flat window's slope is 0 / 0 on both sides
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.array_equal(x, y, equal_nan=True)


@WINDOWS
@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_fits(strips, images, w, eps):
    p, guide, _ = images
    fit = gf_coeffs(p, guide, w, eps)
    _same([fit.a, fit.b], frozen_gf_coeffs(p, guide, w, eps))
    moments = guide_moments(guide, w, eps)
    counts = np.outer(moments.counts.rows, moments.counts.cols)
    _same([counts, moments.mean, moments.var_eps], frozen_guide_moments(guide, w, eps))
    moments, fit = self_fit(guide, w, eps)
    (_, mean, var_eps), (a, b) = frozen_self_fit(guide, w, eps)
    _same([moments.mean, moments.var_eps, fit.a, fit.b], [mean, var_eps, a, b])


@WINDOWS
@ANCHORS
def test_single_passes(strips, images, w, lam, beta):
    p, guide, g = images
    _same([gf(p, guide, w, 0.05)], frozen_gf_roll(p, guide, w, 0.05, 1))
    _same([gf(p, p, w, 0.05)], frozen_gf_roll(p, p, w, 0.05, 1))
    _same([cgf(p, guide, g, w, 0.05, lam)], frozen_cgf_roll(p, guide, g, w, 0.05, lam, 1))
    _same([tvgf(p, guide, PERIODIC, 0.05, lam)], frozen_tvgf_roll(p, guide, PERIODIC, 0.05, lam, 1))
    _same([icgf(p, guide, g, w, 0.05, lam)], [frozen_icgf(p, guide, g, w, 0.05, lam)])
    _same([igf(p, guide, w, 0.05)], [frozen_icgf(p, guide, None, w, 0.05, 0.0)])
    _same([igf(p, p, w, 0.05)], [frozen_icgf(p, p, None, w, 0.05, 0.0)])


@WINDOWS
@ANCHORS
def test_updates(strips, images, w, lam, beta):
    p, guide, g = images
    fit = gf_coeffs(p, guide, w, 0.05)
    a, b = frozen_gf_coeffs(p, guide, w, 0.05)
    counts = WindowCounts.of(p.shape, w)
    plane = np.outer(counts.rows, counts.cols)
    _same([gf_apply(fit, guide, w)],
          [frozen_anchored_update(frozen_window_sums(a, b, guide, w), plane)])
    _same([anchored_update(frozen_window_sums(a, b, guide, w), counts, g, lam)],
          [frozen_anchored_update(frozen_window_sums(a, b, guide, w), plane, g, lam)])
    _same([icgf_update(fit, p, g, w, lam, guide)],
          [frozen_inverse_update(a, b, p, g, w, lam, guide)])
    _same([igf_update(fit, p, w, guide)], [frozen_inverse_update(a, b, p, g, w, 0.0, guide)])
    _same([box_mean(p, w), alpha_weight(p, w)],
          [frozen_box_mean(p, w), frozen_alpha_weight(p, w)])


@WINDOWS
@ANCHORS
def test_rolls(strips, images, w, lam, beta):
    p, guide, g = images
    _same(gf_roll(p, guide, w, 0.05, 3), frozen_gf_roll(p, guide, w, 0.05, 3))
    _same(gf_roll(p, p, w, 0.05, 3), frozen_gf_roll(p, p, w, 0.05, 3))
    _same(cgf_roll(p, guide, g, w, 0.05, lam, 3), frozen_cgf_roll(p, guide, g, w, 0.05, lam, 3))
    _same(cgf_roll(p, guide, g, w, 0.05, lam, 40, tol=1e-3),
          frozen_cgf_roll(p, guide, g, w, 0.05, lam, 40, tol=1e-3))
    _same(tvgf_roll(p, guide, PERIODIC, 0.05, lam, 3),
          frozen_tvgf_roll(p, guide, PERIODIC, 0.05, lam, 3))


@WINDOWS
@ANCHORS
def test_flash_schemes(strips, images, w, lam, beta):
    noflash, flash, _ = images
    _same([rfnf_gen(noflash, flash, w, 0.1, lam, 1.5, 3)],
          [frozen_rfnf(noflash, flash, w, 0.1, lam, 1.5, 3)])
    _same([rfnf_seo(noflash, flash, w, 0.1, lam, 3)],
          [frozen_rfnf(noflash, flash, w, 0.1, lam, None, 3)])
    _same([detail_image(flash, w, 0.1)], [flash - frozen_flash_base(flash, w, 0.1)[1]])
    _same([enhanced_flash(flash, w, 0.1, 1.7)], [frozen_enhanced_flash(flash, w, 0.1, 1.7)])


@WINDOWS
@ANCHORS
@pytest.mark.parametrize("guided", [True, False], ids=["guided", "self"])
def test_rmsf_tracks_and_fits(strips, images, w, lam, beta, guided):
    p, guide, _ = images
    guide = guide if guided else p
    want = frozen_rmsf(p, guide, 0.05, 0.02, lam, beta, w, 3)
    snaps = []
    state = cgf_rmsf(p, guide, 0.05, 0.02, lam, beta, w, 3, snapshots=snaps)
    for snap, frozen in zip(snaps, want, strict=True):
        _same([snap.state.q, snap.state.G, snap.ab.a, snap.ab.b, snap.cd.a, snap.cd.b], frozen)
    _same([state.q, state.G], want[-1][:2])
    if not lam:
        state = gf_rmsf(p, guide, 0.05, 0.02, w, 3)
        _same([state.q, state.G], want[-1][:2])


# --- memory ------------------------------------------------------------------

SIZE = 256
PLANE = SIZE * SIZE * 8


def _peak_planes(call) -> float:
    call()  # warm-up: one-time allocations do not count
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / PLANE
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(4)
    return rng.random((SIZE, SIZE)), rng.random((SIZE, SIZE))


@pytest.mark.parametrize("scheme", ["gf_rmsf", "cgf_rmsf"])
def test_rmsf_holds_at_most_ten_planes(pair, scheme):
    # the two tracks, the four fit planes and the three transient planes of
    # a fit or an inverse update, plus the strip blocks; the whole-plane
    # loop held 15
    p, guide = pair
    call = {
        "gf_rmsf": lambda: gf_rmsf(p, guide, 0.01, 0.01, WindowSpec(3), 3),
        "cgf_rmsf": lambda: cgf_rmsf(p, guide, 0.01, 0.01, 0.1, 0.1, WindowSpec(3), 3),
    }[scheme]
    assert _peak_planes(call) <= 10


@pytest.mark.parametrize("iters", [1, 3])
def test_rolls_hold_no_count_plane(pair, iters):
    # a pass holds the iterates before it, the guide's mean and var + eps
    # and the three planes of a refit (the window sums hold fewer); a plane
    # of window counts would add one more. tvgf also holds its half-spectrum
    # denominator; rfnf_gen holds its anchor, and only its latest iterate.
    p, guide = pair
    budget = iters - 1 + 5 + 0.5
    w = WindowSpec(3)
    assert _peak_planes(lambda: gf_roll(p, guide, w, 0.05, iters)) < budget
    assert _peak_planes(lambda: cgf_roll(p, guide, p, w, 0.05, 0.3, iters)) < budget
    assert _peak_planes(lambda: tvgf_roll(p, guide, WindowSpec(3, Boundary.PERIODIC), 0.05, 3.0,
                                          iters)) < budget + 0.5
    assert _peak_planes(lambda: rfnf_gen(p, guide, w, 0.05, 0.3, 1.5, 5)) < 1 + 1 + 5 + 0.5


def test_self_guided_inverse_lets_the_fit_go(pair):
    # the fit's a and b, then the numerator, the a * b product and its box
    # sum: b dies once a * b exists, so four planes and the strip blocks
    # are alive at the peak (five before)
    p, g = pair
    assert _peak_planes(lambda: igf(p, p, WindowSpec(3), 0.05)) < 5
    assert _peak_planes(lambda: icgf(p, p, g, WindowSpec(3), 0.05, 0.3)) < 5


def test_roll_updates_receive_the_count_factors(pair):
    p, guide = pair
    seen = []

    def update(f, counts):
        seen.append(counts)
        return f

    fit = (guide_moments(guide, TRUNC, 0.05), None)
    list(roll(p, guide, fit, TRUNC, update, 2))
    assert len(seen) == 2
    for counts in seen:
        assert isinstance(counts, WindowCounts)
        assert counts.rows.shape == (SIZE,) and counts.cols.shape == (SIZE,)
