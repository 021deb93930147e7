"""Inverse guided filters: recover a guidance-like image from a smooth one.

Where the forward filter predicts the input from the guidance, these run
the local linear model the other way: fit (a, b) regressing the smoothed
observation p on the current guess G, then solve each pixel of G from the
overlapping window models. The per-pixel minimizer is one anchored update,
G_i = (sum(a) * p_i - sum(a*b) + lam * g_i) / (sum(a^2) + lam), with one
degenerate rule; the plain inverse is its lam = 0 case, bit for bit.
Standalone output is rarely meaningful; the inverse filters exist to be
paired with their forward counterparts inside the mutual-structure rolling
scheme, where they act as the structure-restoring half.
"""

from __future__ import annotations

import numpy as np

from .core import Image, WindowSpec, as_image, require_finite, require_params, require_same_shape
from .gf import GfCoeffs, as_input_and_guide, gf_coeffs
from .boxops import WindowCounts, box_sum

# Below this mean of sum(a^2) + lam over the pixel's windows, the quadratic
# in G_i is flat and any value minimizes it; we keep the prior pixel instead
# of dividing by ~0.
DEGENERATE_EPS = 1e-12


def inverse_update(
    coeffs: GfCoeffs, p: Image, g: Image, w: WindowSpec, lam: float, prior: Image
) -> Image:
    """``icgf_update`` without its scans of ``p``, ``g`` and ``prior``, for a
    caller whose inputs already went through a box pass or a scan (the
    one-shot inverse filters and the rmsf loop's tracks)."""
    p = as_image(p)
    prior = as_image(prior)
    require_same_shape(p, prior, coeffs.a, coeffs.b)
    if lam:
        g = as_image(g)
        require_same_shape(p, g)
    a, b = coeffs.a, coeffs.b
    # each window sum is folded in as soon as it exists; a caller that
    # hands over its only reference to the fit lets b die once a * b exists
    del coeffs
    num = box_sum(a, w)
    num *= p
    ab = a * b
    del b
    num -= box_sum(ab, w)
    del ab
    den = box_sum(a * a, w)
    for rows, n, t in WindowCounts.of(p.shape, w).strips():
        num_r, den_r = num[rows], den[rows]
        if lam:
            num_r += np.multiply(g[rows], lam, out=t)
            den_r += lam
        n *= DEGENERATE_EPS
        degenerate = den_r < n
        np.copyto(den_r, 1.0, where=degenerate)
        num_r /= den_r
        np.copyto(num_r, prior[rows], where=degenerate)
    return num


def icgf_update(
    coeffs: GfCoeffs, p: Image, g: Image, w: WindowSpec, lam: float, prior: Image
) -> Image:
    """Anchored per-pixel solve of the inverted window models.

    G_i = (sum(a) * p_i - sum(a*b) + lam * g_i) / (sum(a^2) + lam), falling
    back to the prior pixel wherever sum(a^2) + lam < n_i * DEGENERATE_EPS,
    n_i the pixel's window count. At lam = 0 the anchor drops out and g is
    not read. ``p``, ``g`` and ``prior`` are never box-summed here, so a
    NaN or Inf in any of them (in g only at lam > 0) raises ValueError
    naming it instead of reaching the output.
    """
    p = as_image(p)
    require_finite(p, "p")
    if lam:
        g = as_image(g)
        require_finite(g, "the anchor g")
    prior = as_image(prior)
    require_finite(prior, "prior")
    return inverse_update(coeffs, p, g, w, lam, prior)


def igf_update(coeffs: GfCoeffs, p: Image, w: WindowSpec, prior: Image) -> Image:
    """The unanchored solve: ``icgf_update`` at lam = 0."""
    return icgf_update(coeffs, p, None, w, 0.0, prior)


def igf(p: Image, guess: Image, w: WindowSpec, eps: float) -> Image:
    """One inverse pass: estimate a guidance image from smoothed input p.

    guess is the initial guidance estimate the coefficients are fit against.
    """
    p, guess = as_input_and_guide(p, guess)
    # the fit box-sums p and guess, so neither needs a scan of its own
    return inverse_update(gf_coeffs(p, guess, w, eps), p, None, w, 0.0, prior=guess)


def icgf(p: Image, guess: Image, g: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """Inverse pass with a fidelity anchor g weighted by lam."""
    require_params(lam=lam)
    g = as_image(g)
    require_finite(g, "the anchor g")  # never box-summed, so box_sum cannot catch it
    p, guess = as_input_and_guide(p, guess)
    require_same_shape(p, g)  # checked even at lam = 0, where g is not read
    return inverse_update(gf_coeffs(p, guess, w, eps), p, g, w, lam, prior=guess)
