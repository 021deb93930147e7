"""The baseline guided filter as an alternating least-squares pass.

One filtering pass fits per-window linear coefficients (a, b) of the
guidance by ridge regression, then replaces each pixel by the average of
its overlapping window estimates. Feeding the output back in (``gf_roll``)
continues the same block-coordinate minimization, so the exact objective
value (``energy_gf``) must never increase between passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnergyReport, Image, WindowSpec, as_image, require_same_shape
from .boxops import box_mean, box_sum, window_counts, window_values


@dataclass
class GfCoeffs:
    """Per-window linear coefficients, indexed by window center."""

    a: Image
    b: Image


def gf_coeffs(p: Image, guide: Image, w: WindowSpec, eps: float) -> GfCoeffs:
    """Ridge fit of p against the guidance in every window.

    a = cov(guide, p) / (var(guide) + eps), b = mean(p) - a * mean(guide).
    eps = 0 is tolerated here for identity checks; the public filters
    require eps > 0.
    """
    p = as_image(p)
    guide = as_image(guide)
    require_same_shape(p, guide)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    # shares the window means between cov and var; value-identical to
    # box_cov(guide, p) / (box_var(guide) + eps). The in-place steps below
    # only touch arrays box_sum just allocated; the returned fields are fresh.
    counts = window_counts(p.shape, w)
    mean_g = box_sum(guide, w)
    mean_g /= counts
    mean_p = box_sum(p, w)
    mean_p /= counts
    a = box_sum(guide * p, w)  # cov(guide, p), then a
    a /= counts
    a -= mean_g * mean_p
    var = box_sum(guide * guide, w)
    var /= counts
    var -= mean_g * mean_g
    np.maximum(var, 0.0, out=var)
    var += eps
    a /= var
    b = mean_p  # mean(p) - a * mean(guide)
    b -= a * mean_g
    return GfCoeffs(a=a, b=b)


def gf_apply(coeffs: GfCoeffs, guide: Image, w: WindowSpec) -> Image:
    """Aggregate the per-window estimates: mean(a) * guide + mean(b)."""
    guide = as_image(guide)
    require_same_shape(coeffs.a, coeffs.b, guide)
    out = box_mean(coeffs.a, w)
    out *= guide
    out += box_mean(coeffs.b, w)
    return out


def gf(p: Image, guide: Image, w: WindowSpec, eps: float) -> Image:
    """One guided-filter pass of p steered by the guidance image."""
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return gf_apply(gf_coeffs(p, guide, w, eps), guide, w)


def gf_roll(p: Image, guide: Image, w: WindowSpec, eps: float, iters: int) -> list[Image]:
    """Iterates [q1 .. qN] of q <- gf(q, guide), starting from q0 = p.

    Coefficients are re-fit from the current iterate on every pass.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    out = []
    q = as_image(p)
    for _ in range(iters):
        q = gf(q, guide, w, eps)
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
