"""Rolling mutual-structure filtering.

Two tracks evolve together: q (the filtered input) and G (the filtered
guidance). Each iteration fits forward coefficients (a, b) of q against G
and inverse coefficients (c, d) of G against q, then updates q and G as
pointwise convex blends of a smoothing term and a structure-restoring
inverse term. The blend weight alpha(x) = 1 / (1 + mean(x^2)) comes out of
the exact per-pixel minimization, so the mutual objective value cannot
increase across an iteration.

The G update consumes the freshly computed q (Gauss-Seidel ordering) while
reusing the coefficients fit at the top of the iteration; every substep is
then an exact block minimization of the shared objective.

``naive_roll37`` is the cross-guided baseline without the inverse terms,
kept as the documented failure mode: it wipes out detail on both tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnergyReport, Image, WindowSpec, as_image, require_same_shape
from .gf import GfCoeffs, gf, gf_apply, gf_coeffs
from .igf import icgf_update, igf_update
from .cgf import anchor_weight
from .boxops import box_mean, window_values


@dataclass
class MutualState:
    """The (q, G) track pair after some number of iterations."""

    q: Image
    G: Image
    iteration: int


@dataclass
class MutualSnapshot:
    """One full iteration's state and the coefficients that produced it."""

    state: MutualState
    ab: GfCoeffs  # forward fit: q regressed on G
    cd: GfCoeffs  # inverse fit: G regressed on q


def alpha_weight(x: Image, w: WindowSpec) -> Image:
    """Blend weight 1 / (1 + mean(x^2)); always in (0, 1]."""
    x = as_image(x)
    out = box_mean(x * x, w)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _blend(alpha: Image, x: Image, y: Image) -> Image:
    """alpha * x + (1 - alpha) * y, computed in place.

    Overwrites all three arguments, which must be arrays the caller
    allocated and no longer needs; the result is written into x.
    """
    x *= alpha
    y *= np.subtract(1.0, alpha, out=alpha)
    x += y
    return x


def gf_rmsf(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    w: WindowSpec,
    iters: int,
    snapshots: list | None = None,
) -> MutualState:
    """Mutual-structure rolling built on the plain filter pair.

    eps regularizes the forward fit (q on G), eps2 the inverse fit (G on q).
    Pass a list as ``snapshots`` to capture every iteration's state and
    coefficients (debug/testing; costs memory).
    """
    if not (eps > 0 and eps2 > 0):
        raise ValueError(f"eps and eps2 must be > 0, got {eps}, {eps2}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    q = as_image(p)
    G = as_image(guide)
    require_same_shape(q, G)
    for n in range(iters):
        ab = gf_coeffs(q, G, w, eps)
        cd = gf_coeffs(G, q, w, eps2)
        alpha_q = alpha_weight(cd.a, w)
        alpha_g = alpha_weight(ab.a, w)
        q_new = _blend(alpha_q, gf_apply(ab, G, w), igf_update(cd, G, w, prior=q))
        G_new = _blend(alpha_g, gf_apply(cd, q_new, w), igf_update(ab, q_new, w, prior=G))
        q, G = q_new, G_new
        if snapshots is not None:
            snapshots.append(MutualSnapshot(MutualState(q, G, n + 1), ab, cd))
    return MutualState(q=q, G=G, iteration=iters)


def cgf_rmsf(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    lam: float,
    beta: float,
    w: WindowSpec,
    iters: int,
    snapshots: list | None = None,
) -> MutualState:
    """Mutual-structure rolling built on the anchored (conservative) pair.

    The q track is anchored to the original input p with weight lam, the G
    track to the original guidance with weight beta. lam = beta = 0 falls
    back to the plain scheme.
    """
    if not (eps > 0 and eps2 > 0):
        raise ValueError(f"eps and eps2 must be > 0, got {eps}, {eps2}")
    if lam < 0 or beta < 0:
        raise ValueError(f"lambda and beta must be >= 0, got {lam}, {beta}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    p = as_image(p)
    guide = as_image(guide)
    require_same_shape(p, guide)
    alpha_lam = anchor_weight(p.shape, w, lam)
    alpha_beta = anchor_weight(p.shape, w, beta)
    keep_lam = 1.0 - alpha_lam
    keep_beta = 1.0 - alpha_beta
    q, G = p, guide
    for n in range(iters):
        ab = gf_coeffs(q, G, w, eps)
        cd = gf_coeffs(G, q, w, eps2)
        alpha_q = alpha_weight(cd.a, w)
        alpha_g = alpha_weight(ab.a, w)
        cgf_q = gf_apply(ab, G, w)
        cgf_q *= keep_lam
        cgf_q += alpha_lam * p
        icgf_q = icgf_update(cd, G, guide, w, beta, prior=q)
        q_new = _blend(alpha_q, cgf_q, icgf_q)
        cgf_g = gf_apply(cd, q_new, w)
        cgf_g *= keep_beta
        cgf_g += alpha_beta * guide
        icgf_g = icgf_update(ab, q_new, p, w, lam, prior=G)
        G_new = _blend(alpha_g, cgf_g, icgf_g)
        q, G = q_new, G_new
        if snapshots is not None:
            snapshots.append(MutualSnapshot(MutualState(q, G, n + 1), ab, cd))
    return MutualState(q=q, G=G, iteration=iters)


def naive_roll37(
    p: Image, guide: Image, eps: float, w: WindowSpec, iters: int
) -> MutualState:
    """Cross-guided rolling without the inverse terms (both updates read
    the previous state). Smooths both tracks toward constants."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    q = as_image(p)
    G = as_image(guide)
    require_same_shape(q, G)
    for _ in range(iters):
        q, G = gf(q, G, w, eps), gf(G, q, w, eps)
    return MutualState(q=q, G=G, iteration=iters)


def energy_mutual(
    state: MutualState,
    coeffs_ab: GfCoeffs,
    coeffs_cd: GfCoeffs,
    w: WindowSpec,
    eps: float,
    eps2: float,
) -> EnergyReport:
    """Exact value of the two-track objective at (q, G, a, b, c, d).

    Explicit per-window summation; the forward half is ridge-weighted by
    eps, the inverse half by eps2.
    """
    q = as_image(state.q)
    G = as_image(state.G)
    require_same_shape(q, G, coeffs_ab.a, coeffs_cd.a)
    w.check_fits(q.shape)
    h, width = q.shape
    data_q = ridge_a = data_g = ridge_c = 0.0
    for ky in range(h):
        for kx in range(width):
            qwin = window_values(q, ky, kx, w)
            gwin = window_values(G, ky, kx, w)
            ak = coeffs_ab.a[ky, kx]
            bk = coeffs_ab.b[ky, kx]
            ck = coeffs_cd.a[ky, kx]
            dk = coeffs_cd.b[ky, kx]
            data_q += float(np.sum((ak * gwin + bk - qwin) ** 2))
            ridge_a += qwin.size * eps * ak * ak
            data_g += float(np.sum((ck * qwin + dk - gwin) ** 2))
            ridge_c += qwin.size * eps2 * ck * ck
    total = data_q + ridge_a + data_g + ridge_c
    return EnergyReport(
        total=total,
        terms={"data_q": data_q, "ridge_a": ridge_a, "data_g": data_g, "ridge_c": ridge_c},
    )
