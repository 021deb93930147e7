"""Conservative guided filter: a fidelity anchor keeps rolling nontrivial.

Repeated plain guided filtering drains an image toward a constant because
its objective is minimized by zero coefficients. Adding lam * (q - g)^2
per pixel pins the solution to an anchor image g, so the rolled filter
converges to a nontrivial fixed point. The pixel update stays closed-form:
a pointwise convex blend of the plain filter output and the anchor, with
per-pixel weight alpha = lam / (|w_i| + lam).
"""

from __future__ import annotations

import numpy as np

from .core import EnergyReport, Image, WindowSpec, as_image, require_same_shape
from .gf import GfCoeffs, gf, energy_gf
from .boxops import window_counts


def anchor_weight(shape, w: WindowSpec, lam: float) -> Image:
    """Per-pixel blend weight lam / (|w_i| + lam); |w_i| varies near borders."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    counts = window_counts(shape, w)
    return lam / (counts + lam)


def cgf(p: Image, guide: Image, g: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """One conservative pass: (1 - alpha) * gf(p, guide) + alpha * g."""
    p = as_image(p)
    guide = as_image(guide)
    g = as_image(g)
    require_same_shape(p, guide, g)
    alpha = anchor_weight(p.shape, w, lam)
    out = gf(p, guide, w, eps)
    out *= 1.0 - alpha
    out += alpha * g
    return out


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
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    out = []
    q = as_image(p)
    for _ in range(iters):
        q_next = cgf(q, guide, g, w, eps, lam)
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
