"""Deterministic synthetic test scenes.

The quality experiments need known ground truth, so every generator is a
pure function of its seed. Scenes keep their levels inside [0.15, 0.85]
and their shapes away from the border: additive noise then survives the
[0, 1] clamp at write-time, and periodic wrap-around sees background on
all four edges.
"""

from __future__ import annotations

import numpy as np

from .core import Boundary, Image, WindowSpec, require_params
from .boxops import box_mean


def piecewise(width: int, height: int, seed: int) -> Image:
    """Piecewise-constant scene: background, rectangles, a disk and thin bars.

    The thin bars matter: they give oversmoothing something to destroy, so
    quality metrics can separate edge-preserving filters from blurrers.
    """
    require_params(width=width, height=height, seed=seed)
    rng = np.random.default_rng(seed)
    img = np.full((height, width), 0.35, dtype=np.float64)
    margin_y = max(2, height // 8)
    margin_x = max(2, width // 8)
    levels = rng.permutation(np.linspace(0.15, 0.85, 6))
    n_rects = 3 if min(width, height) >= 32 else 2
    for i in range(n_rects):
        y0 = rng.integers(margin_y, max(margin_y + 1, height - margin_y - 2))
        x0 = rng.integers(margin_x, max(margin_x + 1, width - margin_x - 2))
        hgt = rng.integers(max(2, height // 6), max(3, height // 2))
        wid = rng.integers(max(2, width // 6), max(3, width // 2))
        y1 = min(height - margin_y, y0 + hgt)
        x1 = min(width - margin_x, x0 + wid)
        img[y0:y1, x0:x1] = levels[i]
    yy, xx = np.mgrid[0:height, 0:width]
    # the upper bounds equal 2n // 3 from n = 2 up and keep n = 1 drawable
    cy = rng.integers(height // 3, max(height // 3 + 1, 2 * height // 3))
    cx = rng.integers(width // 3, max(width // 3 + 1, 2 * width // 3))
    rad = min(width, height) // 5
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad] = levels[n_rects]
    if min(width, height) >= 32:
        thickness = max(2, min(width, height) // 128)
        bar_levels = rng.uniform(0.15, 0.85, size=6)
        for i in range(6):
            if i % 2 == 0:
                y = rng.integers(margin_y, height - margin_y - thickness)
                x0, x1 = np.sort(rng.integers(margin_x, width - margin_x, 2))
                img[y : y + thickness, x0:x1] = bar_levels[i]
            else:
                x = rng.integers(margin_x, width - margin_x - thickness)
                y0, y1 = np.sort(rng.integers(margin_y, height - margin_y, 2))
                img[y0:y1, x : x + thickness] = bar_levels[i]
    return img


def noise_pair(width: int, height: int, seed: int, sigma: float = 0.05):
    """(clean, noisy) piecewise scene with additive Gaussian noise."""
    require_params(sigma=sigma)
    clean = piecewise(width, height, seed)
    rng = np.random.default_rng(seed + 1)
    noisy = clean + sigma * rng.standard_normal(clean.shape)
    return clean, noisy


def texture_scene(width: int, height: int, seed: int) -> Image:
    """Large-scale structure overlaid with an oriented sinusoidal texture."""
    structure = piecewise(width, height, seed)
    rng = np.random.default_rng(seed + 2)
    theta = rng.uniform(0.0, np.pi)
    wavelength = rng.uniform(4.0, 8.0)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    phase = 2.0 * np.pi * (np.cos(theta) * xx + np.sin(theta) * yy) / wavelength
    return structure + 0.08 * np.sin(phase)


def flash_pair(width: int, height: int, seed: int, sigma: float = 0.03):
    """(flash, noflash): sharp tone-shifted scene vs blurred noisy scene."""
    require_params(sigma=sigma)
    scene = texture_scene(width, height, seed)
    # flash look: compressed midtones, detail intact
    lo, hi = scene.min(), scene.max()
    unit = (scene - lo) / max(hi - lo, 1e-12)
    flash = 0.15 + 0.7 * unit**1.4
    # no-flash look: correct tones but blurred and noisy
    blur = WindowSpec(radius=2, boundary=Boundary.TRUNCATE)
    rng = np.random.default_rng(seed + 3)
    noflash = box_mean(scene, blur) + sigma * rng.standard_normal(scene.shape)
    return flash, noflash


def random_image(width: int, height: int, seed: int) -> Image:
    """Uniform [0, 1] noise; the workhorse of the differential tests."""
    require_params(width=width, height=height, seed=seed)
    rng = np.random.default_rng(seed)
    return rng.random((height, width))
