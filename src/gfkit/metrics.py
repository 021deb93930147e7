"""Image quality indices: MSE, PSNR and SSIM.

All three take [0, 1] data: PSNR and SSIM use a peak of 1.0.
SSIM follows the common convention: 11x11 Gaussian window with sigma 1.5,
K1 = 0.01, K2 = 0.03, local map averaged over fully interior positions.

``ssim`` streams the image through strips of rows sized to a fixed byte
budget, so its working set stays in the L2 cache and its peak memory is
one interior plane plus a few strip buffers. Each strip runs the separable
Gaussian over valid rows only, then valid columns only, with the same tap
order as the symmetric-kernel path of ``scipy.ndimage.correlate1d``: the
centre tap first, then each mirrored pair from the outermost in. The
whole-plane formula (two zero-padded ``correlate1d`` passes per local
mean, cropped to the interior) lets no padded value reach the interior,
so the streamed result is the same float as that formula, bit for bit.

The strips go to the worker pool of ``boxops`` in contiguous runs, each
run with its own set of strip buffers, and at most one strip in
``STRIPS_PER_RUN`` runs at once, so that the buffers stay a bounded share
of the plane however many CPUs there are. Each interior value depends only
on its own strip's rows, not on how the strips are split, so
``np.mean(interior)``, taken on the caller, keeps its bits. A NaN or Inf
in a strip raises in the worker that copies it in; the caller re-raises
the first such error in strip order once every worker has stopped.
"""

from __future__ import annotations

import math

import numpy as np

from .boxops import STRIPS_PER_RUN, in_parallel, work_blocks
from .core import STRIP_BYTES, Image, as_images, require_finite

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
    rows = min(max(1, STRIP_BYTES // (8 * width)), len(interior))
    tops = range(0, len(interior), rows)
    runs = work_blocks(len(tops), x.size, len(tops) // STRIPS_PER_RUN)
    # one set of flat strip buffers per run of strips: a row-wise pass is a
    # contiguous pass with step `width`, a column-wise pass one with step 1
    # whose outputs that straddle two rows fall in the border columns and
    # are never read
    fields = np.empty((len(runs), 5, (rows + 2 * r) * width))  # x, y, x^2, y^2, xy
    means = np.empty((len(runs), 5, rows * width))  # mu_x, mu_y, E[x^2], E[y^2], E[xy]
    squares = np.empty((len(runs), 3, rows * width))
    column_pass = np.empty((len(runs), rows * width))
    tmp = np.empty((len(runs), rows * width))

    def run(strips, fields, means, squares, column_pass, tmp):
        for top in tops[strips]:
            h = min(rows, len(interior) - top)
            n = h * width
            f = fields[:, : (h + 2 * r) * width]
            f[0].reshape(h + 2 * r, width)[...] = x[top : top + h + 2 * r]
            f[1].reshape(h + 2 * r, width)[...] = y[top : top + h + 2 * r]
            for name, field in zip("xy", f):  # inline: a worker calls no public gfkit function
                if not np.isfinite(field).all():
                    raise ValueError(f"NaN or Inf in {name}")
            np.multiply(f[0], f[0], out=f[2])
            np.multiply(f[1], f[1], out=f[3])
            np.multiply(f[0], f[1], out=f[4])
            m = means[:, r : n - r]
            for src, dst in zip(f, m):
                _window_pass(src, width, kernel, column_pass[:n], tmp[:n])
                _window_pass(column_pass[:n], 1, kernel, dst, tmp[: n - 2 * r])
            # num = (2 mu_x mu_y + c1)(2 cov + c2) and
            # den = (mu_x^2 + mu_y^2 + c1)(var_x + var_y + c2), in that
            # operation order
            mu_x, mu_y, var_x, var_y, cov = m
            sq = squares[:, r : n - r]
            np.multiply(m[:2], m[:2], out=sq[:2])
            np.multiply(mu_x, mu_y, out=sq[2])
            m[2:] -= sq  # var_x, var_y, cov
            num = column_pass[r : n - r]
            np.multiply(mu_x, 2.0, out=num)
            num *= mu_y
            num += c1
            cov *= 2.0
            cov += c2
            num *= cov
            den = sq[0]
            den += sq[1]
            den += c1
            var_x += var_y
            var_x += c2
            den *= var_x
            # num and den sit in column_pass and squares[0]; only their interior
            # columns are quotients of the formula
            np.divide(
                column_pass[:n].reshape(h, width)[:, r : width - r],
                squares[0, :n].reshape(h, width)[:, r : width - r],
                out=interior[top : top + h],
            )

    in_parallel(run, runs, fields, means, squares, column_pass, tmp)
    return float(np.mean(interior))
