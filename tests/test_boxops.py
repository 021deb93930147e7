import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gfkit.boxops
from gfkit.core import Boundary, WindowSpec
from gfkit.boxops import box_mean, box_sum, window_counts
from gfkit.gf import gf

from oracles import naive_box_sum

BOTH = (Boundary.TRUNCATE, Boundary.PERIODIC)


def test_box_sum_hand_count_truncate():
    # all-ones 4x4, r=1: corners see 4 pixels, edges 6, interior 9
    s = box_sum(np.ones((4, 4)), WindowSpec(1, Boundary.TRUNCATE))
    assert s[0, 0] == 4 and s[0, 3] == 4 and s[3, 0] == 4 and s[3, 3] == 4
    assert s[0, 1] == 6 and s[1, 0] == 6
    assert s[1, 1] == 9 and s[2, 2] == 9


@pytest.mark.parametrize("boundary", BOTH)
def test_box_sum_r0_identity(boundary):
    rng = np.random.default_rng(3)
    x = rng.random((5, 6))
    np.testing.assert_array_equal(box_sum(x, WindowSpec(0, boundary)), x)


def test_box_sum_periodic_impulse_covers_image():
    x = np.zeros((3, 3))
    x[1, 1] = 9.0
    out = box_sum(x, WindowSpec(1, Boundary.PERIODIC))
    np.testing.assert_allclose(out, 9.0)


@pytest.mark.parametrize("boundary", BOTH)
@pytest.mark.parametrize("r", [0, 1, 3, 7])
def test_box_sum_matches_naive(boundary, r):
    rng = np.random.default_rng(100 * r + (boundary is Boundary.PERIODIC))
    for trial in range(25):
        x = rng.random((16, 16))
        w = WindowSpec(r, boundary)
        got = box_sum(x, w)
        want = naive_box_sum(x, w)
        assert np.max(np.abs(got - want)) <= 1e-10


def _base_shape(shape, layout: str):
    """Shape of the array whose _layout view has the given shape."""
    h, width = shape
    return {"c": (h, width), "transposed": (width, h), "strided": (2 * h, 3 * width)}[layout]


def _layout(base: np.ndarray, layout: str) -> np.ndarray:
    """A view of base in the given memory layout (no copy)."""
    return {"c": base, "transposed": base.T, "strided": base[::2, ::3]}[layout]


@st.composite
def box_cases(draw):
    """(image, window): any shape and memory layout, both boundaries, data
    in [-1, 1] optionally offset by +100, radius up to the periodic fit.

    Values lie on a 2^-10 grid, so the oracle's sums are exact in float64
    and the tolerance bounds the fast path's round-off alone.
    """
    h = draw(st.integers(1, 20))
    width = draw(st.integers(1, 20))
    boundary = draw(st.sampled_from(BOTH))
    r_max = (min(h, width) - 1) // 2 if boundary is Boundary.PERIODIC else 6
    r = draw(st.integers(0, r_max))
    layout = draw(st.sampled_from(["c", "transposed", "strided"]))
    base_shape = _base_shape((h, width), layout)
    base = draw(arrays(np.int64, base_shape, elements=st.integers(-1024, 1024))) / 1024.0
    base += draw(st.sampled_from([0.0, 100.0]))
    return _layout(base, layout), WindowSpec(r, boundary)


def _example(shape, r, boundary, layout="c", offset=0.0):
    base_shape = _base_shape(shape, layout)
    base = np.random.default_rng(sum(shape) + r).integers(-1024, 1025, base_shape) / 1024.0 + offset
    return _layout(base, layout), WindowSpec(r, boundary)


@settings(max_examples=300, deadline=None)
@given(box_cases())
@example(_example((1, 11), 3, Boundary.TRUNCATE))
@example(_example((9, 1), 2, Boundary.TRUNCATE, "transposed"))
@example(_example((1, 7), 0, Boundary.PERIODIC))
@example(_example((5, 8), 2, Boundary.PERIODIC, "strided", 100.0))
@example(_example((9, 7), 3, Boundary.PERIODIC, "transposed", 100.0))
@example(_example((6, 4), 0, Boundary.TRUNCATE, "strided"))
def test_box_sum_matches_naive_property(case):
    x, w = case
    assert np.max(np.abs(box_sum(x, w) - naive_box_sum(x, w))) <= 1e-10


@pytest.mark.parametrize("layout", ["c", "transposed", "strided"])
@pytest.mark.parametrize("boundary", BOTH)
@pytest.mark.parametrize("r", [1, 20])
def test_box_sum_matches_naive_at_scale(r, boundary, layout):
    # the row recurrence accumulates down all 257 rows of each column
    x, w = _example((257, 311), r, boundary, layout, 100.0)
    assert np.max(np.abs(box_sum(x, w) - naive_box_sum(x, w))) <= 1e-10


@st.composite
def strip_cases(draw):
    """(image, window, strip rows): both boundaries, any radius from 0 to a
    window taller than the image (truncated) or of side 2r + 1 equal to the
    smaller side (periodic), with strips of 1 row, of r rows or the
    default, so that strip edges fall inside the bands of differences and
    band edges inside the strips. Values lie on a 2^-10 grid, as in
    ``box_cases``."""
    boundary = draw(st.sampled_from(BOTH))
    h, width = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    r_max = (min(h, width) - 1) // 2 if boundary is Boundary.PERIODIC else h + 2
    r = draw(st.integers(0, r_max))
    x = draw(arrays(np.int64, (h, width), elements=st.integers(-1024, 1024))) / 1024.0
    return x, WindowSpec(r, boundary), draw(st.sampled_from([1, r, None]))


def _strip_example(shape, r, boundary, strip_rows=None):
    x, _ = _example(shape, r, boundary)
    return x, WindowSpec(r, boundary), strip_rows


@settings(max_examples=300, deadline=None)
@given(strip_cases())
@example(_strip_example((17, 5), 0, Boundary.TRUNCATE, 1))  # r = 0
@example(_strip_example((5, 9), 40, Boundary.TRUNCATE, 1))  # taller than the image
@example(_strip_example((9, 9), 4, Boundary.PERIODIC, 1))  # 2r + 1 = the smaller side
@example(_strip_example((37, 7), 3, Boundary.PERIODIC, 3))  # strips of r rows
@example(_strip_example((40, 12), 9, Boundary.TRUNCATE))  # the default strips
def test_box_sum_matches_naive_over_strips(case):
    x, w, strip_rows = case
    budget = gfkit.boxops.STRIP_BYTES if strip_rows is None else 8 * x.shape[1] * strip_rows
    with mock.patch.object(gfkit.boxops, "STRIP_BYTES", budget):
        got = box_sum(x, w)
    assert np.max(np.abs(got - naive_box_sum(x, w))) <= 1e-10


def test_box_sum_truncate_window_taller_than_image():
    # every window covers the whole image: each sum is the image total
    x, w = _example((5, 9), 40, Boundary.TRUNCATE)
    got = box_sum(x, w)
    assert np.max(np.abs(got - naive_box_sum(x, w))) <= 1e-10
    assert np.max(np.abs(got - x.sum())) <= 1e-10


@pytest.mark.parametrize("r", [30, 10**6, 10**12, 2**62, 10**20])
def test_truncated_window_wider_than_the_image_sums_it_whole(r):
    # from r = max(h, w) - 1 on, a truncated window covers the whole image
    # at every pixel, so every radius past it gives that radius's sums and
    # counts bit for bit; the row pass once took a line buffer of the
    # window's side (out of memory at 10**12) and the counts overflowed at
    # 10**20; the naive oracle pads by r, so it cannot take these radii
    x = np.random.default_rng(9).random((20, 30))
    whole, w = WindowSpec(29), WindowSpec(r)
    assert np.array_equal(box_sum(x, w), box_sum(x, whole))
    assert np.array_equal(window_counts(x.shape, w), window_counts(x.shape, whole))
    assert np.array_equal(gf(x, x, w, 0.05), gf(x, x, whole, 0.05))


@pytest.mark.parametrize("boundary", BOTH)
@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 5), (6, 8), (6, 0)])
def test_box_sum_rejects_non_finite(where, bad, r, boundary):
    x = np.random.default_rng(11).random((7, 9))
    x[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(ValueError, match="NaN or Inf in the input of a box sum"):
            box_sum(x, WindowSpec(r, boundary))


def test_box_sum_rejects_cancelling_infinities():
    # +Inf and -Inf in one window cancel to NaN, which must not pass either
    x = np.zeros((6, 6))
    x[1, 2], x[2, 2] = np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN or Inf"):
            box_sum(x, WindowSpec(2, Boundary.TRUNCATE))


# --- the window sums of a product: box_sum(x, w, times=y) ---------------------

@st.composite
def product_cases(draw):
    """(x, y, window, strip rows): both boundaries, values with signed
    zeros, and half the cases at least 4r + 1 rows tall (1 <= r), with
    strips of r + 1 or the default rows, so that each band of differences
    spans several strips; the others any radius from 0 to a window taller
    than the image (truncated) or of side 2r + 1 equal to the smaller side
    (periodic), with strips of r rows, fewer than a window holds, or the
    default."""
    boundary = draw(st.sampled_from(BOTH))
    periodic = boundary is Boundary.PERIODIC
    if draw(st.booleans()):
        r = draw(st.integers(1, 5))
        h = draw(st.integers(4 * r + 1, 40))
        width = draw(st.integers(2 * r + 1 if periodic else 1, 12))
        strips = draw(st.sampled_from([r + 1, None]))
    else:
        h, width = draw(st.integers(1, 40)), draw(st.integers(1, 12))
        r = draw(st.integers(0, (min(h, width) - 1) // 2 if periodic else h + 2))
        strips = draw(st.sampled_from([r, None]))
    signed = st.sampled_from([0.0, -0.0]) | st.floats(-100.0, 100.0)
    x, y = (draw(arrays(np.float64, (h, width), elements=signed)) for _ in range(2))
    return x, y, WindowSpec(r, boundary), strips


def _product_example(shape, r, boundary, strip_rows=None, zeros=False):
    rng = np.random.default_rng(sum(shape) + r)
    x, y = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
    if zeros:  # signed zeros in both, so that products of either sign are zero
        x[rng.random(shape) < 0.3] = -0.0
        y[rng.random(shape) < 0.3] = 0.0
    return x, y, WindowSpec(r, boundary), strip_rows


@settings(max_examples=300, deadline=None)
@given(product_cases())
@example(_product_example((17, 5), 0, Boundary.TRUNCATE))  # r = 0
@example(_product_example((5, 9), 40, Boundary.TRUNCATE))  # taller than the image
@example(_product_example((9, 9), 4, Boundary.PERIODIC))  # 2r + 1 = the smaller side
@example(_product_example((21, 5), 2, Boundary.PERIODIC, None, True))  # signed zeros
@example(_product_example((40, 12), 9, Boundary.TRUNCATE, None, True))  # r + 1 = a strip's rows
@example(_product_example((40, 12), 1, Boundary.TRUNCATE, 2))  # strips of r + 1 rows
def test_sums_of_a_product_are_those_of_box_sum(case):
    x, y, w, strip_rows = case
    budget = gfkit.boxops.STRIP_BYTES if strip_rows is None else 8 * x.shape[1] * strip_rows
    with mock.patch.object(gfkit.boxops, "STRIP_BYTES", budget):
        got, want = box_sum(x, w, times=y), box_sum(x * y, w)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("boundary", BOTH)
@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("where", [(0, 0), (6, 8), (13, 0)])
def test_sums_of_a_product_reject_what_box_sum_rejects(where, bad, r, boundary):
    # 1e200 in x and y overflows their product to Inf
    rng = np.random.default_rng(12)
    x, y = rng.uniform(0.5, 1.0, (14, 9)), rng.uniform(0.5, 1.0, (14, 9))
    x[where] = bad
    if bad == 1e200:
        y[where] = bad
    w = WindowSpec(r, boundary)
    messages = []
    for call in (lambda: box_sum(x, w, times=y), lambda: box_sum(x * y, w)):
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(ValueError) as err:
                call()
        messages.append(str(err.value))
    assert messages == ["NaN or Inf in the input of a box sum"] * 2


def test_sums_of_a_product_check_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        box_sum(np.ones((4, 5)), WindowSpec(1), times=np.ones((5, 4)))


@pytest.mark.parametrize("boundary", BOTH)
def test_box_sum_linearity(boundary):
    rng = np.random.default_rng(8)
    x, y = rng.random((12, 9)), rng.random((12, 9))
    w = WindowSpec(2, boundary)
    lhs = box_sum(1.7 * x + 0.3 * y, w)
    rhs = 1.7 * box_sum(x, w) + 0.3 * box_sum(y, w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_periodic_window_too_large():
    with pytest.raises(ValueError):
        box_sum(np.ones((4, 4)), WindowSpec(2, Boundary.PERIODIC))


def test_box_mean_constant():
    for boundary in BOTH:
        out = box_mean(np.full((8, 8), 5.0), WindowSpec(2, boundary))
        np.testing.assert_allclose(out, 5.0)


def test_box_mean_impulse_truncate():
    x = np.zeros((3, 3))
    x[1, 1] = 9.0
    out = box_mean(x, WindowSpec(1, Boundary.TRUNCATE))
    assert out[0, 0] == pytest.approx(9.0 / 4.0)
    assert out[1, 1] == pytest.approx(1.0)


def test_box_mean_impulse_periodic():
    x = np.zeros((3, 3))
    x[1, 1] = 9.0
    np.testing.assert_allclose(box_mean(x, WindowSpec(1, Boundary.PERIODIC)), 1.0)


def test_window_counts():
    w = WindowSpec(1, Boundary.TRUNCATE)
    counts = window_counts((4, 4), w)
    assert counts[0, 0] == 4 and counts[0, 1] == 6 and counts[1, 1] == 9
    counts_p = window_counts((4, 4), WindowSpec(1, Boundary.PERIODIC))
    np.testing.assert_array_equal(counts_p, 9.0)
