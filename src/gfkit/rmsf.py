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

Both schemes run one loop. Its smoothing term is the forward anchored
update (f + lam * anchor) / (n + lam) of ``gf.anchored_update`` and its
inverse term ``igf.inverse_update`` (``icgf_update`` without its input
scans: here every input is a box-summed track or an input the first fit
box-sums); the q track anchors to p with lam, the G track to the guide
with beta. ``gf_rmsf`` is that loop at lam = beta = 0, so it equals
``cgf_rmsf(lam=0, beta=0)`` bit for bit. The descent guarantee above is
for the plain pair; the anchored pair has no exact energy evaluator yet.

Plane budget: besides p and the guide, an iteration holds at most 9 float
planes, the two tracks, the four fit planes a, b, c and d and the three
transient planes of a fit or an inverse update, plus a few row-strip
blocks. Each track's inverse term runs before its forward term, so its
prior, the old track, dies before the forward window sums exist, and
every window sum is folded into its term as soon as it exists.

An iteration runs 20 box passes, 7 of which repeat a window sum taken
earlier in the same iteration: sum(G), sum(q) and sum(qG) in the second
fit, sum(c^2) and sum(a^2) in the alpha weights after the inverse
updates, and sum(a) and sum(c), each in one track's forward update and
the other track's inverse update. Sharing them gives the same bits from
13 passes; the repeats are kept because the benchmark's self-tests pin
20 passes per iteration.

``naive_roll37`` is the cross-guided baseline without the inverse terms,
kept as the documented failure mode: it wipes out detail on both tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import EnergyReport, Image, WindowSpec, as_image, require_params, require_same_shape
from .gf import GfCoeffs, anchored_update, gf, gf_coeffs, window_sum_estimate
from .igf import inverse_update
from .boxops import WindowCounts, box_sum, row_strips, window_values


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


class SnapshotSink(Protocol):
    """What ``snapshots`` takes: a list, or any object with ``append``."""

    def append(self, snapshot: MutualSnapshot) -> None: ...


def alpha_weight(x: Image, w: WindowSpec) -> Image:
    """Blend weight 1 / (1 + mean(x^2)); always in (0, 1]."""
    x = as_image(x)
    out = box_sum(x * x, w)
    for rows, n in WindowCounts.of(x.shape, w).strips(0):
        o = out[rows]
        o /= n
        o += 1.0
        np.divide(1.0, o, out=o)
    return out


def _blend(alpha: Image, x: Image, y: Image) -> Image:
    """alpha * x + (1 - alpha) * y, written into x."""
    for rows, t in row_strips(x.shape):
        xr = x[rows]
        xr *= alpha[rows]
        np.subtract(1.0, alpha[rows], out=t)
        t *= y[rows]
        xr += t
    return x


def _mutual_roll(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    lam: float,
    beta: float,
    w: WindowSpec,
    iters: int,
    snapshots: SnapshotSink | None,
) -> MutualState:
    """The anchored mutual loop; lam = beta = 0 is the plain pair.

    Each track blends its forward anchored update with the inverse update
    of the other track's fit, anchored to the other track's origin: 20 box
    passes per iteration (two fits 8, two inverse updates 6, two window-sum
    estimates 4, two alpha weights 2). Each track's inverse term comes
    first, so that the old track, its prior, dies before the forward term's
    window sums exist, and each fit is dropped once its last window sum is
    taken (unless ``snapshots`` keeps the fits to the end of the iteration).
    """
    p = as_image(p)
    guide = as_image(guide)
    require_same_shape(p, guide)
    counts = WindowCounts.of(p.shape, w)
    keep = snapshots is not None
    q, G = p, guide
    for n in range(iters):
        ab = gf_coeffs(q, G, w, eps)
        cd = gf_coeffs(G, q, w, eps2)
        # a name still bound to a dead plane would keep it alive through
        # the next call, so each is unbound as its role ends
        inv = inverse_update(cd, G, guide, w, beta, prior=q)
        q = None
        fwd = anchored_update(window_sum_estimate(ab, G, w), counts, p, lam)
        q = _blend(alpha_weight(cd.a, w), fwd, inv)
        inv = None
        inv = inverse_update(ab, q, p, w, lam, prior=G)
        G = None
        fwd = anchored_update(window_sum_estimate(cd, q, w), counts, guide, beta)
        if not keep:
            cd = None
        G = _blend(alpha_weight(ab.a, w), fwd, inv)
        fwd = inv = None
        if keep:
            snapshots.append(MutualSnapshot(MutualState(q, G, n + 1), ab, cd))
        ab = cd = None
    return MutualState(q=q, G=G, iteration=iters)


def gf_rmsf(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    w: WindowSpec,
    iters: int,
    snapshots: SnapshotSink | None = None,
) -> MutualState:
    """Mutual-structure rolling built on the plain filter pair.

    eps regularizes the forward fit (q on G), eps2 the inverse fit (G on q).
    Pass ``snapshots`` (a list, or any object with ``append``) to receive
    every iteration's MutualSnapshot: its state and the coefficients that
    produced it. A list keeps them all (debug/testing; costs memory); a
    sink that keeps only part of each snapshot frees the rest.
    """
    require_params(eps=eps, eps2=eps2, iters=iters)
    return _mutual_roll(p, guide, eps, eps2, 0.0, 0.0, w, iters, snapshots)


def cgf_rmsf(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    lam: float,
    beta: float,
    w: WindowSpec,
    iters: int,
    snapshots: SnapshotSink | None = None,
) -> MutualState:
    """Mutual-structure rolling built on the anchored (conservative) pair.

    The q track is anchored to the original input p with weight lam, the G
    track to the original guidance with weight beta. lam = beta = 0 is the
    plain scheme, bit for bit. ``snapshots`` works as in ``gf_rmsf``.
    """
    require_params(eps=eps, eps2=eps2, lam=lam, beta=beta, iters=iters)
    return _mutual_roll(p, guide, eps, eps2, lam, beta, w, iters, snapshots)


def naive_roll37(
    p: Image, guide: Image, eps: float, w: WindowSpec, iters: int
) -> MutualState:
    """Cross-guided rolling without the inverse terms (both updates read
    the previous state). Smooths both tracks toward constants."""
    require_params(iters=iters)
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
