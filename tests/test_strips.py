"""The pointwise steps after each box pass run over row strips, bit for bit.

Every filter, roll, rmsf track and flash scheme must give exactly the
arrays of the whole-plane arithmetic frozen in ``oracles.py``, for inputs
that are C-contiguous, transposed or strided, with a constant (degenerate)
block, on both boundaries and with anchors zero and nonzero. The strips
are run at the default byte budget (a quarter of these small planes) and
at one row each, so that every strip edge and remainder is crossed.

tracemalloc then pins what the strips are for, and the planes each pass
holds: a strip's count block is filled with no temporary, a product's
window sums hold one plane, an rmsf run at 256x256 holds at most 9 float
planes (15 with whole-plane steps),
no fixed-guide roll holds a plane of window counts or a fit plane past its
window sum, a roll with a tol holds no iterate but the one it tests, a
self-guided igf or icgf frees its fit early, one pass of
every filter command keeps to its row of ``ONE_PASS_BUDGETS``, and the
flash layers hold no flash moments.
"""

import numpy as np
import pytest

import gfkit.boxops
from gfkit.boxops import box_mean, box_sum, each_strip, window_counts
from gfkit.cgf import cgf, cgf_iterates, cgf_roll
from gfkit.cli import FILTER_COMMANDS
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import (
    PixelTerm,
    anchored_update,
    gf,
    gf_apply,
    gf_coeffs,
    gf_roll,
    guide_fit,
    last_iterate,
    roll,
)
from gfkit.igf import icgf, icgf_update, igf, igf_update
from gfkit.rfnf import detail_image, enhanced_flash, rfnf_gen, rfnf_seo
from gfkit.rmsf import alpha_weight, cgf_rmsf, gf_rmsf, naive_roll37
from gfkit.tvgf import tvgf, tvgf_roll
from conftest import peak_bytes, peak_planes
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
    moments, _ = guide_fit(p, guide, w, eps, True)
    _same([window_counts(p.shape, w), moments.mean, moments.var_eps],
          frozen_guide_moments(guide, w, eps))
    moments, fit = guide_fit(guide, guide, w, eps, True)
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
    plane = window_counts(p.shape, w)
    _same([gf_apply(fit, guide, w)],
          [frozen_anchored_update(frozen_window_sums(a, b, guide, w), plane)])
    _same([anchored_update(frozen_window_sums(a, b, guide, w), w, g, lam)],
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


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(4)
    return rng.random((SIZE, SIZE)), rng.random((SIZE, SIZE))


@pytest.fixture
def narrow_strips(monkeypatch):
    # strips of 8 rows: at the default byte budget a strip block is a quarter
    # of one of these planes, and a strip loop holds three of them
    monkeypatch.setattr(gfkit.boxops, "STRIP_BYTES", 8 * PLANE // SIZE)


@pytest.mark.parametrize("scheme", ["gf_rmsf", "cgf_rmsf"])
def test_rmsf_holds_at_most_nine_planes(pair, scheme):
    # the two tracks, the four fit planes and the two transient planes of a
    # fit or an inverse update, each product summed over its own plane, plus
    # the strip blocks (8.56 measured); the whole-plane loop held 15, and
    # with a product plane beside its window sums 10 (9.08 measured)
    p, guide = pair
    call = {
        "gf_rmsf": lambda: gf_rmsf(p, guide, 0.01, 0.01, WindowSpec(3), 3),
        "cgf_rmsf": lambda: cgf_rmsf(p, guide, 0.01, 0.01, 0.1, 0.1, WindowSpec(3), 3),
    }[scheme]
    assert peak_planes(call, p.shape) <= 9


@pytest.mark.parametrize("iters", [1, 3])
def test_rolls_hold_no_count_plane(pair, narrow_strips, iters):
    # a pass holds the iterates before it, the guide's mean and var + eps
    # and the two planes of a refit (guide * p is summed over its own plane,
    # and each fit plane dies once its own window sum exists); a plane of
    # window counts would add one more. tvgf also holds its half-spectrum
    # denominator, and its Fourier solve no more than a refit: f, which it
    # overwrites with q, and the half spectrum; rfnf_gen holds its anchor,
    # and only its latest iterate.
    p, guide = pair
    budget = iters - 1 + 4 + 0.5
    w = WindowSpec(3)
    assert peak_planes(lambda: gf_roll(p, guide, w, 0.05, iters), p.shape) < budget
    assert peak_planes(lambda: cgf_roll(p, guide, p, w, 0.05, 0.3, iters), p.shape) < budget
    assert peak_planes(lambda: tvgf_roll(p, guide, WindowSpec(3, Boundary.PERIODIC), 0.05, 3.0,
                                         iters), p.shape) < budget + 0.5
    assert peak_planes(lambda: rfnf_gen(p, guide, w, 0.05, 0.3, 1.5, 5), p.shape) < 1 + 1 + 4 + 0.5


def test_tol_roll_lets_the_iterate_before_go(pair):
    # the tol test keeps the iterate a pass starts from; once it has run,
    # the iterate before is let go, so a refit holds the guide's mean and
    # var + eps, the iterate, and the window-sum step's three planes (6.08
    # measured; 7.09 with the iterate before kept to the next test)
    p, _ = pair
    roll = lambda: last_iterate(cgf_iterates(p, p, p, WindowSpec(3), 0.05, 0.3, 6, tol=1e-12))
    assert peak_planes(roll, p.shape) < 6.5


def test_self_guided_inverse_lets_the_fit_go(pair):
    # the fit keeps no guide moments, and of its a and b, b dies once
    # sum(a * b) exists and a once sum(a^2) does, each product summed over
    # its own plane: three planes and a strip block are alive at the peak
    # (3.26 measured; 3.55 with a kept to the solve; four before, five
    # before that)
    p, g = pair
    assert peak_planes(lambda: igf(p, p, WindowSpec(3), 0.05), p.shape) < 3.4
    assert peak_planes(lambda: icgf(p, p, g, WindowSpec(3), 0.05, 0.3), p.shape) < 3.4


W3, WP3 = WindowSpec(3), WindowSpec(3, Boundary.PERIODIC)
# filter command -> [(case, one pass of it on (p, g), float planes it may hold)].
# Self-guided (the CLI's default): the guide's window sum and its square,
# summed over itself; then the fit's a and b, written over those sums; then
# one fit plane, its window sum and f. A distinct guide adds its mean and
# var + eps to the fit's two planes. Each budget is that count plus half a
# plane for the strip blocks and Python's own allocations.
ONE_PASS_BUDGETS = {
    "gf": [("self", lambda p, g: gf(p, p, W3, 0.05), 3.5),
           ("guided", lambda p, g: gf(p, g, W3, 0.05), 4.5)],
    "cgf": [("self", lambda p, g: cgf(p, p, p, W3, 0.05, 0.3), 3.5)],
    # the self fit's 3 planes and the half-plane denominator; the solve then
    # holds f, which it overwrites with q, and the half spectrum
    "tvgf": [("self", lambda p, g: tvgf(p, p, WP3, 0.05, 3.0), 4)],
    # the inverse update boxes a * b, then a, then a^2, each product summed
    # over its own plane and each fit plane gone once its last sum exists
    "igf": [("self", lambda p, g: igf(p, p, W3, 0.05), 3.5)],
    "icgf": [("self", lambda p, g: icgf(p, p, g, W3, 0.05, 0.3), 3.5)],
    # the new q, the four fit planes, the G track's inverse term and the two
    # window sums of its forward term (8.08 measured, as with a product plane
    # beside its window sums: one iteration peaks where no product is summed)
    "rmsf-gf": [("pair", lambda p, g: gf_rmsf(p, g, 0.01, 0.01, W3, 1), 8.5)],
    "rmsf-cgf": [("pair", lambda p, g: cgf_rmsf(p, g, 0.01, 0.01, 0.1, 0.1, W3, 1), 8.5)],
    # q, then a guided pass of G
    "roll37": [("pair", lambda p, g: naive_roll37(p, g, 0.01, W3, 1), 5.5)],
    # the flash moments, and the base layer's fit handed to its window sums
    "rfnf-seo": [("pair", lambda p, g: rfnf_seo(p, g, W3, 0.05, 0.3, 1), 5.5)],
    "rfnf-gen": [("pair", lambda p, g: rfnf_gen(p, g, W3, 0.05, 0.3, 1.5, 1), 5.5)],
}


@pytest.mark.parametrize("call,budget", [
    pytest.param(call, budget, id=f"{command}-{case}")
    for command, rows in ONE_PASS_BUDGETS.items() for case, call, budget in rows
])
def test_one_pass_keeps_to_its_plane_budget(pair, narrow_strips, call, budget):
    p, g = pair
    assert peak_planes(lambda: call(p, g), p.shape) < budget


@pytest.mark.parametrize("call", [
    lambda p: detail_image(p, W3, 0.05),
    lambda p: enhanced_flash(p, W3, 0.05, 1.5),
], ids=["detail_image", "enhanced_flash"])
def test_flash_layers_keep_to_a_self_guided_pass(pair, narrow_strips, call):
    # the base layer is gf(flash, flash): the self fit's 3 planes, then the
    # layer beside the base or written over it; no flash moments (5.08
    # measured when the base came with them)
    p, _ = pair
    assert peak_planes(lambda: call(p), p.shape) < 3.5


@pytest.mark.parametrize("side, w", [
    (SIZE, W3), (SIZE, WP3), (SIZE, WindowSpec(8)),
    # a first window of 201 rows, of the whole image, and of 401 rows and
    # 400 wrapped (1.79, 2.00 and 1.50 planes when it was one block)
    (SIZE, WindowSpec(200)), (SIZE, WindowSpec(999)), (801, WindowSpec(400, Boundary.PERIODIC)),
], ids=["truncate", "periodic", "r8", "r200", "r999", "periodic-r400"])
def test_sums_of_a_product_hold_one_plane(narrow_strips, side, w):
    # the product's rows are formed as the pass reads them, those a strip
    # loses in its scratch block and the first window's in blocks of a
    # strip's bytes: as much as a plain pass holds, with r + 1 = 9 rows past
    # a strip's 8 too (1.07 measured; 2.00 before)
    p, g = np.random.default_rng(4).random((2, side, side))
    assert peak_planes(lambda: box_sum(p, w, times=g), p.shape) < 1.1


@pytest.mark.parametrize("command", sorted(FILTER_COMMANDS))
def test_every_filter_command_has_a_one_pass_budget(command):
    # a new filter command joins the one-pass budget table
    assert ONE_PASS_BUDGETS.get(command)


def test_count_blocks_are_filled_without_a_temporary():
    # a broadcast multiply into the count block buffers a block-sized
    # temporary; a strip loop holds no more than its own blocks
    shape = (SIZE, SIZE)
    peak = peak_bytes(lambda: each_strip(shape, lambda rows, n: None, 0, TRUNC))
    block = 8 * SIZE * (SIZE // 4)  # one strip: a quarter of the rows
    assert peak < 1.1 * block


def test_roll_updates_receive_the_window(pair):
    # an update fills its count blocks from the window: no count plane reaches it
    p, guide = pair
    seen = []

    def update(f, w):
        seen.append(w)
        return f

    fit = guide_fit(p, guide, TRUNC, 0.05, True)
    list(roll(p, guide, fit, TRUNC, PixelTerm("probe", update, None), 2))
    assert seen == [TRUNC, TRUNC]
