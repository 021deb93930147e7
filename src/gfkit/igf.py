"""Inverse guided filters: recover a guidance-like image from a smooth one.

Where the forward filter predicts the input from the guidance, these run
the local linear model the other way: fit (a, b) regressing the smoothed
observation p on the current guess G, then solve each pixel of G from the
overlapping window models. Standalone output is rarely meaningful; the
inverse filters exist to be paired with their forward counterparts inside
the mutual-structure rolling scheme, where they act as the
structure-restoring half.
"""

from __future__ import annotations

import numpy as np

from .core import Image, WindowSpec, as_image, require_same_shape
from .gf import GfCoeffs, gf_coeffs
from .boxops import box_mean, box_sum

# Below this, the quadratic in G_i is flat and any value minimizes it;
# we keep the prior pixel instead of dividing by ~0.
DEGENERATE_EPS = 1e-12


def _solve_or_keep(num: Image, denom: Image, prior: Image) -> Image:
    """num / denom, or the prior pixel where denom < DEGENERATE_EPS.

    Overwrites num and denom, which must be arrays the caller allocated.
    """
    degenerate = denom < DEGENERATE_EPS
    np.copyto(denom, 1.0, where=degenerate)
    num /= denom
    np.copyto(num, prior, where=degenerate)
    return num


def igf_update(coeffs: GfCoeffs, p: Image, w: WindowSpec, prior: Image) -> Image:
    """Per-pixel solve of the inverted window models.

    G_i = (mean(a) * p_i - mean(a*b)) / mean(a^2), falling back to the prior
    wherever mean(a^2) < DEGENERATE_EPS.
    """
    p = as_image(p)
    prior = as_image(prior)
    require_same_shape(p, prior, coeffs.a, coeffs.b)
    out = box_mean(coeffs.a, w)
    out *= p
    out -= box_mean(coeffs.a * coeffs.b, w)
    mean_aa = box_mean(coeffs.a * coeffs.a, w)
    return _solve_or_keep(out, mean_aa, prior)


def igf(p: Image, guess: Image, w: WindowSpec, eps: float) -> Image:
    """One inverse pass: estimate a guidance image from smoothed input p.

    guess is the initial guidance estimate the coefficients are fit against.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    coeffs = gf_coeffs(p, guess, w, eps)
    return igf_update(coeffs, p, w, prior=guess)


def icgf_update(
    coeffs: GfCoeffs, p: Image, g: Image, w: WindowSpec, lam: float, prior: Image
) -> Image:
    """Anchored per-pixel solve using window sums.

    G_i = (sum(a) * p_i - sum(a*b) + lam * g_i) / (sum(a^2) + lam). With
    lam > 0 the denominator is bounded below by lam; at lam = 0 the same
    keep-prior fallback as the plain inverse applies.
    """
    p = as_image(p)
    g = as_image(g)
    prior = as_image(prior)
    require_same_shape(p, g, prior, coeffs.a, coeffs.b)
    out = box_sum(coeffs.a, w)
    out *= p
    out -= box_sum(coeffs.a * coeffs.b, w)
    out += lam * g
    denom = box_sum(coeffs.a * coeffs.a, w)
    denom += lam
    return _solve_or_keep(out, denom, prior)


def icgf(p: Image, guess: Image, g: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """Inverse pass with a fidelity anchor g weighted by lam."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    coeffs = gf_coeffs(p, guess, w, eps)
    return icgf_update(coeffs, p, g, w, lam, prior=guess)
