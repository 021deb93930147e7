"""Conservative guided filter: a fidelity anchor keeps rolling nontrivial.

Repeated plain guided filtering drains an image toward a constant because
its objective is minimized by zero coefficients. Adding lam * (q - g)^2
per pixel pins the solution to an anchor image g, so the rolled filter
converges to a nontrivial fixed point. The pixel update stays closed-form:
a pointwise convex blend of the plain filter output and the anchor, with
per-pixel weight alpha = lam / (|w_i| + lam).

The guide is fixed across a roll, so ``cgf_roll`` computes its window
moments once and each pass costs 4 box passes: 2 + 4n for n passes, where
n separate ``cgf`` calls cost 6n.
"""

from __future__ import annotations

import numpy as np

from .core import EnergyReport, Image, WindowSpec, as_image, require_finite, require_same_shape
from .gf import GfCoeffs, GuideMoments, energy_gf, gf_pass, guide_moments
from .boxops import window_counts


def anchor_weight(shape, w: WindowSpec, lam: float) -> Image:
    """Per-pixel blend weight lam / (|w_i| + lam); |w_i| varies near borders."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    counts = window_counts(shape, w)
    return lam / (counts + lam)


def cgf(p: Image, guide: Image, g: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """One conservative pass: (1 - alpha) * gf(p, guide) + alpha * g."""
    return cgf_roll(p, guide, g, w, eps, lam, 1)[0]


def cgf_roll(
    p: Image,
    guide: Image,
    g: Image,
    w: WindowSpec,
    eps: float,
    lam: float,
    iters: int,
    tol: float | None = None,
) -> list[Image]:
    """Iterates of q <- cgf(q, guide, g) from q0 = p.

    Runs a fixed number of passes; if tol is given, stops early once
    max |q_{n+1} - q_n| < tol.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    p = as_image(p)
    guide = as_image(guide)
    g = as_image(g)
    require_same_shape(p, guide, g)
    require_finite(g, "the anchor g")  # never box-summed, so box_sum cannot catch it
    return cgf_roll_moments(p, guide, g, guide_moments(guide, w, eps), w, lam, iters, tol)


def cgf_roll_moments(
    p: Image,
    guide: Image,
    g: Image,
    moments: GuideMoments,
    w: WindowSpec,
    lam: float,
    iters: int,
    tol: float | None = None,
) -> list[Image]:
    """``cgf_roll`` against precomputed guide moments: 4 box passes per pass.

    Only the guide moments are held across passes; the anchor weight is
    rebuilt from their window counts each pass.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    out = []
    q = p
    for _ in range(iters):
        alpha = lam / (moments.counts + lam)  # anchor_weight, from the held counts
        q_next = gf_pass(q, guide, moments, w)
        q_next *= 1.0 - alpha
        q_next += alpha * g
        out.append(q_next)
        if tol is not None and float(np.max(np.abs(q_next - q))) < tol:
            return out
        q = q_next
    return out


def energy_cgf(
    q: Image,
    coeffs: GfCoeffs,
    guide: Image,
    g: Image,
    w: WindowSpec,
    eps: float,
    lam: float,
) -> EnergyReport:
    """Exact objective value: window least squares plus lam * sum((q - g)^2)."""
    g = as_image(g)
    require_same_shape(q, g)
    base = energy_gf(q, coeffs, guide, w, eps)
    anchor = lam * float(np.sum((as_image(q) - g) ** 2))
    terms = dict(base.terms)
    terms["anchor"] = anchor
    return EnergyReport(total=base.total + anchor, terms=terms)
