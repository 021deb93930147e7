"""Image quality indices: MSE, PSNR and SSIM.

All three take [0, 1] data: PSNR and SSIM use a peak of 1.0.
SSIM follows the common convention: 11x11 Gaussian window with sigma 1.5,
K1 = 0.01, K2 = 0.03, local map averaged over fully interior positions.

``ssim`` streams the image through the row strips of ``boxops.each_strip``
over its interior grid, each block padded with the window's 2r halo rows,
so its working set stays in the L2 cache and its peak memory is one
interior plane plus a few strip blocks. Each strip runs the separable
Gaussian over valid rows only, then valid columns only, with the same tap
order as the symmetric-kernel path of ``scipy.ndimage.correlate1d``: the
centre tap first, then each mirrored pair from the outermost in. The
whole-plane formula (two zero-padded ``correlate1d`` passes per local
mean, cropped to the interior) lets no padded value reach the interior,
so the streamed result is the same float as that formula, bit for bit.

``each_strip`` schedules the strips on the worker pool. Each interior
value depends only on its own strip's rows, so ``np.mean(interior)``,
taken on the caller, keeps its bits at any worker count. A NaN or Inf in
a strip raises as the strip copies it in.
"""

from __future__ import annotations

import math

import numpy as np

from .boxops import each_strip
from .core import Image, as_images, require_finite

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def mse(x: Image, y: Image) -> float:
    """Mean squared difference over all pixels; NaN or Inf raises ValueError."""
    x, y = as_images(x, y)
    require_finite(x, "x")
    require_finite(y, "y")
    return float(np.mean((x - y) ** 2))


def psnr_from_mse(err: float) -> float:
    """10 log10(1 / err), +inf for err = 0."""
    if err == 0.0:
        return math.inf
    # numpy's log10, not math.log10: the two differ in the last bit for
    # about one argument in ten, and the CLI's psnr_db is pinned to numpy's
    return 10.0 * float(np.log10(1.0 / err))


def psnr(x: Image, y: Image) -> float:
    """10 log10(1 / mse), +inf for identical images; NaN or Inf raises
    ValueError."""
    return psnr_from_mse(mse(x, y))


def _gaussian_window(n: int, sigma: float) -> np.ndarray:
    t = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    g = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return g / g.sum()


def _window_pass(src: np.ndarray, step: int, kernel: np.ndarray, out: np.ndarray,
                 tmp: np.ndarray) -> None:
    """out[i] = sum_t kernel[t] * src[i + t * step] for a symmetric kernel.

    Taps are summed in correlate1d's symmetric order: the centre tap, then
    (left + right) * weight for each pair from the outermost in.
    """
    n = out.shape[0]
    r = len(kernel) // 2
    np.multiply(src[r * step : r * step + n], kernel[r], out=out)
    for t in range(r):
        lo, hi = t * step, (2 * r - t) * step
        np.add(src[lo : lo + n], src[hi : hi + n], out=tmp)
        tmp *= kernel[t]
        out += tmp


def ssim(x: Image, y: Image) -> float:
    """Mean structural similarity between two images.

    NaN or Inf raises ValueError: each strip is checked as it is copied in,
    before any arithmetic, so the check makes no pass of its own over the
    images.
    """
    x, y = as_images(x, y)
    if min(x.shape) < SSIM_WINDOW:
        raise ValueError(
            f"image too small for SSIM: needs min dimension >= {SSIM_WINDOW}, got {x.shape}"
        )
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    kernel = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    r = SSIM_WINDOW // 2
    height, width = x.shape
    interior = np.empty((height - 2 * r, width - 2 * r))

    def strip(rows, *blocks):
        # 7 blocks of the strip's rows and 2r halo rows, seen flat: a row-wise
        # pass is a contiguous pass with step `width`, a column-wise pass one
        # with step 1 whose outputs that straddle two rows fall in the border
        # columns and are never read
        h = rows.stop - rows.start
        n = h * width
        blocks[0][...] = x[rows.start : rows.stop + 2 * r]
        blocks[1][...] = y[rows.start : rows.stop + 2 * r]
        *fields, column_pass, tmp = (block.reshape(-1) for block in blocks)  # x, y, x^2, y^2, xy
        for name, field in zip("xy", fields):  # inline: a worker calls no public gfkit function
            if not np.isfinite(field).all():
                raise ValueError(f"NaN or Inf in {name}")
        np.multiply(fields[0], fields[0], out=fields[2])
        np.multiply(fields[1], fields[1], out=fields[3])
        np.multiply(fields[0], fields[1], out=fields[4])
        # each field's local mean over the field, which its column pass has
        # read: mu_x, mu_y, E[x^2], E[y^2], E[xy]
        for field in fields:
            _window_pass(field, width, kernel, column_pass[:n], tmp[:n])
            _window_pass(column_pass[:n], 1, kernel, field[r : n - r], tmp[: n - 2 * r])
        mu_x, mu_y, var_x, var_y, cov = (field[r : n - r] for field in fields)
        # num = (2 mu_x mu_y + c1)(2 cov + c2) and
        # den = (mu_x^2 + mu_y^2 + c1)(var_x + var_y + c2), each in that
        # operation order, in the freed column_pass and tmp
        den, num = column_pass[r : n - r], tmp[r : n - r]
        np.multiply(mu_x, mu_x, out=den)
        var_x -= den
        np.multiply(mu_y, mu_y, out=num)
        var_y -= num
        den += num
        den += c1
        np.multiply(mu_x, mu_y, out=num)
        cov -= num
        np.multiply(mu_x, 2.0, out=num)
        num *= mu_y
        num += c1
        cov *= 2.0
        cov += c2
        num *= cov
        var_x += var_y
        var_x += c2
        den *= var_x
        # only their interior columns are quotients of the formula
        np.divide(blocks[6][:h, r : width - r], blocks[5][:h, r : width - r], out=interior[rows])

    each_strip((len(interior), width), strip, 7, halo=2 * r)
    return float(np.mean(interior))
