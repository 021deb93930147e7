"""Image quality indices: MSE, PSNR and SSIM.

All three assume [0, 1] data (peak 1.0) unless a different peak is passed.
SSIM follows the common convention: 11x11 Gaussian window with sigma 1.5,
K1 = 0.01, K2 = 0.03, local map averaged over fully interior positions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import correlate1d

from .core import Image, as_image, require_same_shape

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def mse(x: Image, y: Image) -> float:
    """Mean squared difference over all pixels."""
    x = as_image(x)
    y = as_image(y)
    require_same_shape(x, y)
    return float(np.mean((x - y) ** 2))


def psnr(x: Image, y: Image, peak: float = 1.0) -> float:
    """10 log10(peak^2 / mse), +inf for identical images."""
    err = mse(x, y)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)


def _gaussian_window(n: int, sigma: float) -> np.ndarray:
    t = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    g = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return g / g.sum()


def _local_mean(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    r = len(kernel) // 2
    out = correlate1d(x, kernel, axis=0, mode="constant")
    correlate1d(out, kernel, axis=1, output=out, mode="constant")
    return out[r:-r, r:-r]


def ssim(x: Image, y: Image, peak: float = 1.0) -> float:
    """Mean structural similarity between two images."""
    x = as_image(x)
    y = as_image(y)
    require_same_shape(x, y)
    if min(x.shape) < SSIM_WINDOW:
        raise ValueError(
            f"image too small for SSIM: needs min dimension >= {SSIM_WINDOW}, got {x.shape}"
        )
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    kernel = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    mu_x = _local_mean(x, kernel)
    mu_y = _local_mean(y, kernel)
    # num = (2 mu_x mu_y + c1)(2 cov + c2) and
    # den = (mu_x^2 + mu_y^2 + c1)(var_x + var_y + c2), in that operation
    # order; the in-place steps write only into arrays allocated here
    product = x * x
    var_x = _local_mean(product, kernel)
    var_x -= mu_x * mu_x
    np.multiply(y, y, out=product)
    var_y = _local_mean(product, kernel)
    var_y -= mu_y * mu_y
    np.multiply(x, y, out=product)
    cov = _local_mean(product, kernel)
    del product
    cov -= mu_x * mu_y
    num = 2.0 * mu_x
    num *= mu_y
    num += c1
    cov *= 2.0
    cov += c2
    num *= cov
    den = np.multiply(mu_x, mu_x, out=mu_x)
    den += np.multiply(mu_y, mu_y, out=mu_y)
    den += c1
    var_x += var_y
    var_x += c2
    den *= var_x
    num /= den
    return float(np.mean(num))
