"""O(1)-per-pixel sliding-window sums, means, variances and covariances.

These are the windowed-average primitives every filter in the package is
assembled from. The fast path is scipy's C running sum
(``scipy.ndimage.uniform_filter1d``), one pass per axis with cost
independent of the radius: zero extension gives the truncated window,
wrap extension the periodic one. ``naive_box_sum`` re-derives the same
quantity by direct per-offset summation and serves as the test oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter1d

from .core import Boundary, Image, WindowSpec, as_image, require_same_shape


def _validate(x: Image, w: WindowSpec) -> Image:
    x = as_image(x)
    w.check_fits(x.shape)
    return x


def box_sum(x: Image, w: WindowSpec) -> Image:
    """Sum of x over the window around each pixel."""
    x = _validate(x, w)
    if w.radius == 0:
        return x.copy()
    mode = "wrap" if w.boundary is Boundary.PERIODIC else "constant"
    # scipy would zero-fill an output it allocates; every element is overwritten
    out = np.empty_like(x, order="C")
    uniform_filter1d(x, w.side, axis=1, output=out, mode=mode)
    uniform_filter1d(out, w.side, axis=0, output=out, mode=mode)
    out *= w.side * w.side
    return out


def _counts_1d(n: int, w: WindowSpec) -> np.ndarray:
    if w.boundary is Boundary.PERIODIC:
        return np.full(n, w.side, dtype=np.float64)
    i = np.arange(n)
    return (np.minimum(i + w.radius, n - 1) - np.maximum(i - w.radius, 0) + 1).astype(np.float64)


def window_counts(shape, w: WindowSpec) -> Image:
    """Per-pixel window size |w_i| (constant under the periodic boundary)."""
    h, width = shape
    w.check_fits(shape)
    return np.outer(_counts_1d(h, w), _counts_1d(width, w))


def box_mean(x: Image, w: WindowSpec) -> Image:
    """Windowed average of x, normalized by the actual per-pixel window size."""
    x = _validate(x, w)
    out = box_sum(x, w)
    out /= window_counts(x.shape, w)
    return out


def box_var(x: Image, w: WindowSpec) -> Image:
    """Windowed variance E(x^2) - E(x)^2, clamped at 0 against round-off."""
    x = _validate(x, w)
    m = box_mean(x, w)
    v = box_mean(x * x, w) - m * m
    return np.maximum(v, 0.0)


def box_cov(x: Image, y: Image, w: WindowSpec) -> Image:
    """Windowed covariance E(xy) - E(x)E(y) (not clamped)."""
    x = as_image(x)
    y = as_image(y)
    require_same_shape(x, y)
    w.check_fits(x.shape)
    return box_mean(x * y, w) - box_mean(x, w) * box_mean(y, w)


def naive_box_sum(x: Image, w: WindowSpec) -> Image:
    """Same contract as box_sum, by direct summation over every window offset.

    O(|w|) work per pixel; no running sums anywhere, so it is an independent
    oracle for the running-sum fast path.
    """
    x = _validate(x, w)
    h, width = x.shape
    r = w.radius
    out = np.zeros_like(x)
    if w.boundary is Boundary.PERIODIC:
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                out += np.roll(x, (-dy, -dx), axis=(0, 1))
    else:
        padded = np.zeros((h + 2 * r, width + 2 * r), dtype=np.float64)
        padded[r : r + h, r : r + width] = x
        for dy in range(2 * r + 1):
            for dx in range(2 * r + 1):
                out += padded[dy : dy + h, dx : dx + width]
    return out


def window_values(x: Image, ky: int, kx: int, w: WindowSpec) -> np.ndarray:
    """Pixels of the window centered at (ky, kx), clipped or wrapped."""
    h, width = x.shape
    r = w.radius
    if w.boundary is Boundary.PERIODIC:
        ys = np.arange(ky - r, ky + r + 1) % h
        xs = np.arange(kx - r, kx + r + 1) % width
        return x[np.ix_(ys, xs)]
    return x[max(0, ky - r) : min(h, ky + r + 1), max(0, kx - r) : min(width, kx + r + 1)]
