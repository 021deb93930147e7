import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gfkit.core import Boundary, WindowSpec, make_image
from gfkit.boxops import (
    box_cov,
    box_mean,
    box_sum,
    box_var,
    naive_box_sum,
    window_counts,
)

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
        out = box_mean(make_image(8, 8, 5.0), WindowSpec(2, boundary))
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


def test_box_var_constant_is_zero():
    out = box_var(make_image(7, 7, 0.42), WindowSpec(2, Boundary.TRUNCATE))
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_box_var_checkerboard_periodic_matches_naive_formula():
    yy, xx = np.mgrid[0:3, 0:3]
    x = ((yy + xx) % 2).astype(np.float64)
    w = WindowSpec(1, Boundary.PERIODIC)
    got = box_var(x, w)
    # naive per-pixel: wrap indices, E(x^2) - E(x)^2
    want = np.empty_like(x)
    for cy in range(3):
        for cx in range(3):
            vals = [
                x[(cy + dy) % 3, (cx + dx) % 3]
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
            ]
            vals = np.array(vals)
            want[cy, cx] = np.mean(vals**2) - np.mean(vals) ** 2
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_box_var_r0_is_zero():
    rng = np.random.default_rng(5)
    out = box_var(rng.random((6, 6)), WindowSpec(0, Boundary.TRUNCATE))
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_box_var_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(10):
        out = box_var(rng.random((10, 10)), WindowSpec(3, Boundary.TRUNCATE))
        assert np.all(out >= 0.0)


def test_box_cov_self_is_var():
    rng = np.random.default_rng(7)
    x = rng.random((9, 9))
    w = WindowSpec(2, Boundary.TRUNCATE)
    # pre-clamp they agree; clamp only matters at negative round-off
    np.testing.assert_allclose(box_cov(x, x, w), box_var(x, w), atol=1e-13)


def test_box_cov_constant_partner_is_zero():
    rng = np.random.default_rng(9)
    x = rng.random((8, 8))
    out = box_cov(x, make_image(8, 8, 3.3), WindowSpec(2, Boundary.TRUNCATE))
    np.testing.assert_allclose(out, 0.0, atol=1e-13)


def test_box_cov_matches_naive_double_loop():
    rng = np.random.default_rng(10)
    x, y = rng.random((8, 8)), rng.random((8, 8))
    w = WindowSpec(2, Boundary.TRUNCATE)
    got = box_cov(x, y, w)
    want = np.empty_like(x)
    for cy in range(8):
        for cx in range(8):
            sl = (slice(max(0, cy - 2), min(8, cy + 3)), slice(max(0, cx - 2), min(8, cx + 3)))
            xs, ys = x[sl], y[sl]
            want[cy, cx] = np.mean(xs * ys) - np.mean(xs) * np.mean(ys)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_box_cov_shape_mismatch():
    with pytest.raises(ValueError):
        box_cov(np.ones((3, 3)), np.ones((3, 4)), WindowSpec(1))


def test_window_counts():
    w = WindowSpec(1, Boundary.TRUNCATE)
    counts = window_counts((4, 4), w)
    assert counts[0, 0] == 4 and counts[0, 1] == 6 and counts[1, 1] == 9
    counts_p = window_counts((4, 4), WindowSpec(1, Boundary.PERIODIC))
    np.testing.assert_array_equal(counts_p, 9.0)
