"""Conservative guided filter: a fidelity anchor keeps rolling nontrivial.

Repeated plain guided filtering drains an image toward a constant because
its objective is minimized by zero coefficients. Adding lam * (q - g)^2
per pixel pins the solution to an anchor image g, so the rolled filter
converges to a nontrivial fixed point. The pixel update stays closed-form:
the exact minimizer (f + lam * g) / (n + lam), with f the window-sum
estimate the plain filter divides by the window count n. It equals the
convex blend (1 - alpha) * gf + alpha * g with per-pixel weight
alpha = lam / (n + lam) (``anchor_weight``), and lam = 0 is ``gf`` bit for bit.

``cgf_roll`` runs the fixed-guide roll of ``gf.roll`` with that update: the
guide's window moments are computed once and each pass costs 4 box passes,
2 + 4n for n passes, where n separate ``cgf`` calls cost 6n. When the input
is the guide itself (the same object, as in the CLI's self-guided run), the
first fit comes from the guide's own moments and the roll costs 4n: 4 for
one ``cgf`` call.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial

import numpy as np

from .core import (
    EnergyReport,
    Image,
    WindowSpec,
    as_image,
    require_finite,
    require_params,
    require_same_shape,
)
from .gf import GfCoeffs, anchored_update, as_input_and_guide, energy_gf, guide_fit, roll
from .boxops import window_counts


def anchor_weight(shape, w: WindowSpec, lam: float) -> Image:
    """Per-pixel blend weight lam / (|w_i| + lam); |w_i| varies near borders."""
    require_params(lam=lam)
    counts = window_counts(shape, w)
    return lam / (counts + lam)


def cgf(p: Image, guide: Image, g: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """One conservative pass: (gf's window sums + lam * g) / (n + lam)."""
    return cgf_roll(p, guide, g, w, eps, lam, 1)[0]


def cgf_iterates(
    p: Image,
    guide: Image,
    g: Image,
    w: WindowSpec,
    eps: float,
    lam: float,
    iters: int,
    tol: float | None = None,
) -> Iterator[Image]:
    """The iterates of ``cgf_roll``, each yielded as soon as it exists.

    Parameters and the anchor are checked and the first fit is made at the
    call.
    """
    require_params(eps=eps, lam=lam, iters=iters)
    p, guide = as_input_and_guide(p, guide)
    g = as_image(g)
    require_same_shape(p, guide, g)
    require_finite(g, "the anchor g")  # never box-summed, so box_sum cannot catch it
    update = partial(anchored_update, g=g, lam=lam)
    return roll(p, guide, guide_fit(p, guide, w, eps), w, update, iters, tol)


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
    return list(cgf_iterates(p, guide, g, w, eps, lam, iters, tol))


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
