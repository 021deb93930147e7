"""O(1)-per-pixel sliding-window sums, means, variances and covariances.

These are the windowed-average primitives every filter in the package is
assembled from. ``box_sum`` makes one pass per axis, each at a cost
independent of the radius. Down the columns it keeps a running sum one
row at a time: row 0 holds the first window's rows, every later row the
window's change (the row that enters minus the row that leaves), and one
contiguous ``np.add`` per row accumulates them. Along the rows it runs
scipy's C running mean (``scipy.ndimage.uniform_filter1d``) in place on
that plane: zero extension gives the truncated window, wrap extension
the periodic one. A NaN or Inf in the input survives to the last row of
its column, so one row test rejects it. ``naive_box_sum`` re-derives
the same quantity by direct per-offset summation and serves as the test
oracle.

Every filter step that follows a box pass is pointwise: each output pixel
is a few arithmetic operations on the window sums, the inputs and the
pixel's window count |w_i|. Those steps run in place over row strips of
a fixed byte budget (``row_strips``, ``WindowCounts.strips``), so their
temporaries are a few cache-sized blocks and never a whole plane. The
window count is the product of two 1-D factors (``WindowCounts``); each
strip multiplies its block out afresh, which gives the same exact
integers as the full count plane ``window_counts`` and never holds one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter1d

from .core import STRIP_BYTES, Boundary, Image, WindowSpec, as_image, require_same_shape

_NON_FINITE = "NaN or Inf in the input of a box sum"


def _validate(x: Image, w: WindowSpec) -> Image:
    x = as_image(x)
    w.check_fits(x.shape)
    return x


def _row_differences(x: Image, out: Image, r: int, periodic: bool) -> None:
    """out[i] = (window sum of rows around i) - (same around i - 1), i >= 1.

    Row i's window gains row i + r and loses row i - r - 1; under the
    periodic boundary both indices wrap, under truncation a row outside the
    image contributes nothing.
    """
    h = x.shape[0]
    if periodic:  # 2r + 1 <= h, so the three bands below are in order
        np.subtract(x[r + 1 : 2 * r + 1], x[h - r :], out=out[1 : r + 1])
        np.subtract(x[2 * r + 1 :], x[: h - 2 * r - 1], out=out[r + 1 : h - r])
        np.subtract(x[:r], x[h - 2 * r - 1 : h - r - 1], out=out[h - r :])
        return
    lo, hi = min(r + 1, h), max(h - r, 1)  # rows [1, hi) gain, rows [lo, h) lose
    if lo < hi:  # gain only, both, lose only
        out[1:lo] = x[r + 1 : 2 * r + 1]
        np.subtract(x[2 * r + 1 :], x[: h - 2 * r - 1], out=out[lo:hi])
        np.negative(x[h - 2 * r - 1 : h - r - 1], out=out[hi:])
    else:  # the window is taller than the image: gain only, neither, lose only
        out[1:hi] = x[r + 1 :]
        out[hi:lo] = 0.0
        np.negative(x[: h - lo], out=out[lo:])


def box_sum(x: Image, w: WindowSpec) -> Image:
    """Sum of x over the window around each pixel.

    Raises ValueError if x holds a NaN or an Inf.
    """
    x = _validate(x, w)
    r = w.radius
    if r == 0:
        if not np.isfinite(x).all():
            raise ValueError(_NON_FINITE)
        return x.copy()
    periodic = w.boundary is Boundary.PERIODIC
    h = x.shape[0]
    out = np.empty_like(x, order="C")
    with np.errstate(invalid="ignore"):
        np.sum(x[: min(r + 1, h)], axis=0, out=out[0])
        if periodic:
            out[0] += x[h - r :].sum(axis=0)
        _row_differences(x, out, r, periodic)
        rows = list(out)  # row views made once: on small planes the loop is call-bound
        for prev, row in zip(rows, rows[1:]):
            np.add(prev, row, out=row)
    # a NaN or Inf is carried down its column and never cancels
    if not np.isfinite(out[-1]).all():
        raise ValueError(_NON_FINITE)
    uniform_filter1d(out, w.side, axis=1, output=out, mode="wrap" if periodic else "constant")
    out *= w.side
    return out


def _counts_1d(n: int, w: WindowSpec) -> np.ndarray:
    if w.boundary is Boundary.PERIODIC:
        return np.full(n, w.side, dtype=np.float64)
    i = np.arange(n)
    return (np.minimum(i + w.radius, n - 1) - np.maximum(i - w.radius, 0) + 1).astype(np.float64)


def row_strips(shape, scratch: int = 1) -> Iterator[tuple]:
    """Yield (rows, *tmp) for the row strips of a (height, width) grid.

    ``rows`` is the strip's slice of rows, ``tmp`` ``scratch`` blocks of
    the strip's shape, shared by every strip and so overwritten by the next.
    A strip spans at most a quarter of the rows, so that on a small plane
    the scratch blocks stay a small share of the memory a filter holds.
    """
    h, width = shape
    step = max(1, min(-(-h // 4), STRIP_BYTES // (8 * width)))
    buf = np.empty((scratch, step, width))
    for top in range(0, h, step):
        stop = min(top + step, h)
        yield (slice(top, stop), *buf[:, : stop - top])


@dataclass(frozen=True, eq=False)
class WindowCounts:
    """Per-pixel window size |w_i| as its two 1-D factors: the count at
    (y, x) is rows[y] * cols[x], a product of small integers and so exact."""

    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def of(cls, shape, w: WindowSpec) -> WindowCounts:
        w.check_fits(shape)
        h, width = shape
        return cls(_counts_1d(h, w), _counts_1d(width, w))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def strips(self, scratch: int = 1) -> Iterator[tuple]:
        """``row_strips`` with the strip's window counts first: yields
        (rows, n, *tmp), n a fresh block the caller may overwrite."""
        for rows, n, *tmp in row_strips(self.shape, scratch + 1):
            np.multiply(self.rows[rows, None], self.cols, out=n)
            yield (rows, n, *tmp)


def window_counts(shape, w: WindowSpec) -> Image:
    """Per-pixel window size |w_i| (constant under the periodic boundary)."""
    counts = WindowCounts.of(shape, w)
    return np.outer(counts.rows, counts.cols)


def box_mean(x: Image, w: WindowSpec) -> Image:
    """Windowed average of x, normalized by the actual per-pixel window size."""
    x = _validate(x, w)
    out = box_sum(x, w)
    for rows, n in WindowCounts.of(x.shape, w).strips(0):
        out[rows] /= n
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
