"""The baseline guided filter as an alternating least-squares pass.

One filtering pass fits per-window linear coefficients (a, b) of the
guidance by ridge regression, then replaces each pixel by the average of
its overlapping window estimates. Feeding the output back in (``gf_roll``)
continues the same block-coordinate minimization, so the exact objective
value (``energy_gf``) must never increase between passes.

The guide is a constant of that objective, so its window counts, mean and
variance are constants of every pass. ``gf_coeffs`` is the composition of
``guide_moments`` (2 box passes) and ``fit_coeffs`` (2 box passes against
those moments); a roll computes the guide moments once and then spends 4
box passes per iteration (fit and aggregation), 2 + 4n in all instead of 6n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnergyReport, Image, WindowSpec, as_image, require_same_shape
from .boxops import box_sum, window_counts, window_values


@dataclass
class GfCoeffs:
    """Per-window linear coefficients, indexed by window center."""

    a: Image
    b: Image


@dataclass
class GuideMoments:
    """Window statistics of a fixed guide, shared by every fit against it.

    ``var_eps`` is the clamped window variance plus the ridge weight eps,
    the denominator of every slope fit.
    """

    counts: Image
    mean: Image
    var_eps: Image


def guide_moments(guide: Image, w: WindowSpec, eps: float) -> GuideMoments:
    """Window counts, mean and var + eps of the guidance: 2 box passes."""
    guide = as_image(guide)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    # the in-place steps below only touch arrays box_sum just allocated
    counts = window_counts(guide.shape, w)
    mean = box_sum(guide, w)
    mean /= counts
    var = box_sum(guide * guide, w)
    var /= counts
    var -= mean * mean
    np.maximum(var, 0.0, out=var)
    var += eps
    return GuideMoments(counts=counts, mean=mean, var_eps=var)


def fit_coeffs(p: Image, guide: Image, moments: GuideMoments, w: WindowSpec) -> GfCoeffs:
    """Ridge fit of p against a guide whose moments are given: 2 box passes.

    p and guide must already be float images of the moments' shape.
    """
    mean_p = box_sum(p, w)
    mean_p /= moments.counts
    a = box_sum(guide * p, w)  # cov(guide, p), then a
    a /= moments.counts
    a -= moments.mean * mean_p
    a /= moments.var_eps
    b = mean_p  # mean(p) - a * mean(guide)
    b -= a * moments.mean
    return GfCoeffs(a=a, b=b)


def gf_coeffs(p: Image, guide: Image, w: WindowSpec, eps: float) -> GfCoeffs:
    """Ridge fit of p against the guidance in every window.

    a = cov(guide, p) / (var(guide) + eps), b = mean(p) - a * mean(guide).
    eps = 0 is tolerated here for identity checks; the public filters
    require eps > 0.
    """
    p = as_image(p)
    guide = as_image(guide)
    require_same_shape(p, guide)
    return fit_coeffs(p, guide, guide_moments(guide, w, eps), w)


def _aggregate(coeffs: GfCoeffs, guide: Image, w: WindowSpec, counts: Image) -> Image:
    out = box_sum(coeffs.a, w)
    out /= counts
    out *= guide
    mean_b = box_sum(coeffs.b, w)
    mean_b /= counts
    out += mean_b
    return out


def gf_apply(coeffs: GfCoeffs, guide: Image, w: WindowSpec) -> Image:
    """Aggregate the per-window estimates: mean(a) * guide + mean(b)."""
    guide = as_image(guide)
    require_same_shape(coeffs.a, coeffs.b, guide)
    return _aggregate(coeffs, guide, w, window_counts(guide.shape, w))


def gf_pass(q: Image, guide: Image, moments: GuideMoments, w: WindowSpec) -> Image:
    """gf(q, guide) against precomputed guide moments: 4 box passes."""
    return _aggregate(fit_coeffs(q, guide, moments, w), guide, w, moments.counts)


def gf(p: Image, guide: Image, w: WindowSpec, eps: float) -> Image:
    """One guided-filter pass of p steered by the guidance image."""
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return gf_apply(gf_coeffs(p, guide, w, eps), guide, w)


def gf_roll(p: Image, guide: Image, w: WindowSpec, eps: float, iters: int) -> list[Image]:
    """Iterates [q1 .. qN] of q <- gf(q, guide), starting from q0 = p.

    Coefficients are re-fit from the current iterate on every pass; the
    guide's moments are computed once, so each pass costs 4 box passes.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    q = as_image(p)
    guide = as_image(guide)
    require_same_shape(q, guide)
    moments = guide_moments(guide, w, eps)
    out = []
    for _ in range(iters):
        q = gf_pass(q, guide, moments, w)
        out.append(q)
    return out


def energy_gf(q: Image, coeffs: GfCoeffs, guide: Image, w: WindowSpec, eps: float) -> EnergyReport:
    """Exact value of the window-wise least-squares objective at (q, a, b).

    Slow explicit per-window summation on purpose: this is the oracle the
    descent tests rely on, so it must not share the box-filter fast path.
    """
    q = as_image(q)
    guide = as_image(guide)
    require_same_shape(q, guide, coeffs.a, coeffs.b)
    w.check_fits(q.shape)
    h, width = q.shape
    data = 0.0
    ridge = 0.0
    for ky in range(h):
        for kx in range(width):
            gwin = window_values(guide, ky, kx, w)
            qwin = window_values(q, ky, kx, w)
            ak = coeffs.a[ky, kx]
            bk = coeffs.b[ky, kx]
            data += float(np.sum((ak * gwin + bk - qwin) ** 2))
            ridge += gwin.size * eps * ak * ak
    return EnergyReport(total=data + ridge, terms={"data": data, "ridge": ridge})
