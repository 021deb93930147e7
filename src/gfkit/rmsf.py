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
inverse term ``igf.icgf_update``, which scans none of its planes: here
every one is a box-summed track or an input the first fit box-sums. The
q track anchors to p with lam, the G track to the guide with beta.
``gf_rmsf`` is that loop at lam = beta = 0, so it equals
``cgf_rmsf(lam=0, beta=0)`` bit for bit. The descent guarantee above is
for the plain pair; the anchored pair has no exact energy evaluator yet.

Plane budget: besides p and the guide, an iteration holds at most 8 float
planes, the two tracks, the four fit planes a, b, c and d and the two
transient planes of a fit or an inverse update, plus a few row-strip
blocks. Every product (a fit's guide squared and guide times input, and
a * b, a^2, c * d and c^2 in the inverse updates and alpha weights) is
summed over its own plane, ``box_sum``'s ``times``, so no product plane
sits beside its window sums. Each track's inverse term runs before its forward term, so its
prior, the old track, dies before the forward window sums exist, and
every window sum is folded into its term as soon as it exists. Both fits
live to the end of the iteration, with or without ``snapshots`` (which
only keeps them past it): each track's update peaks with all four fit
planes alive, so releasing a fit after its last window sum lowers no peak,
the one-pass filters' hand-over of a fit (``gf.window_sum_estimate``,
``igf.icgf_update``) frees nothing here, and the peak stays at 8.

An iteration runs 20 box passes, 7 of which repeat a window sum taken
earlier in the same iteration: sum(G), sum(q) and sum(qG) in the second
fit, sum(c^2) and sum(a^2) in the alpha weights after the inverse
updates, and sum(a) and sum(c), each in one track's forward update and
the other track's inverse update. Sharing them gives the same bits from
13 passes; the repeats are kept because the benchmark's self-tests pin
20 passes per iteration.

``naive_roll37`` is the cross-guided baseline without the inverse terms,
kept as the documented failure mode: it wipes out detail on both tracks.

Each scheme's ``*_iterates`` generator yields its MutualState after every
iteration and returns the last; the scheme itself is that last state.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .core import EnergyReport, Image, WindowSpec, as_image, as_images, require_params
from .gf import (
    GfCoeffs,
    anchored_update,
    energy_gf,
    gf,
    gf_coeffs,
    last_iterate,
    window_sum_estimate,
)
from .igf import icgf_update
from .boxops import box_sum, each_strip


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
    out = box_sum(x, w, times=x)

    def strip(rows, n):
        o = out[rows]
        o /= n
        o += 1.0
        np.divide(1.0, o, out=o)

    each_strip(x.shape, strip, 0, w)
    return out


def _blend(alpha: Image, x: Image, y: Image) -> Image:
    """alpha * x + (1 - alpha) * y, written into x."""
    def strip(rows, t):
        xr = x[rows]
        xr *= alpha[rows]
        np.subtract(1.0, alpha[rows], out=t)
        t *= y[rows]
        xr += t

    each_strip(x.shape, strip)
    return x


def _mutual_iterates(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    lam: float,
    beta: float,
    w: WindowSpec,
    iters: int,
    snapshots: list[MutualSnapshot] | None,
) -> Generator[MutualState, None, MutualState]:
    """The anchored mutual loop; lam = beta = 0 is the plain pair.

    Each track blends its forward anchored update with the inverse update
    of the other track's fit, anchored to the other track's origin: 20 box
    passes per iteration (two fits 8, two inverse updates 6, two window-sum
    estimates 4, two alpha weights 2). Each track's inverse term comes
    first, so that the old track, its prior, dies before the forward term's
    window sums exist. Both fits live to the end of the iteration, where
    ``snapshots``, if given, keeps them with the state; the loop's memory
    does not otherwise depend on it.
    Every state is yielded as soon as it exists, and the last is returned.
    """
    q, G = p, guide
    for n in range(iters):
        state = None  # else it would hold the old tracks through this iteration
        ab = gf_coeffs(q, G, w, eps)
        cd = gf_coeffs(G, q, w, eps2)
        # a name still bound to a dead plane would keep it alive through
        # the next call, so each is unbound as its role ends
        inv = icgf_update(cd, G, guide, w, beta, prior=q)
        q = None
        fwd = anchored_update(window_sum_estimate(ab, G, w), w, p, lam)
        q = _blend(alpha_weight(cd.a, w), fwd, inv)
        inv = None
        inv = icgf_update(ab, q, p, w, lam, prior=G)
        G = None
        fwd = anchored_update(window_sum_estimate(cd, q, w), w, guide, beta)
        G = _blend(alpha_weight(ab.a, w), fwd, inv)
        fwd = inv = None
        state = MutualState(q, G, n + 1)
        if snapshots is not None:
            snapshots.append(MutualSnapshot(state, ab, cd))
        ab = cd = None
        yield state
    return state


def gf_rmsf_iterates(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    w: WindowSpec,
    iters: int,
    snapshots: list[MutualSnapshot] | None = None,
) -> Generator[MutualState, None, MutualState]:
    """The states of ``gf_rmsf``: ``cgf_rmsf_iterates`` at lam = beta = 0."""
    return cgf_rmsf_iterates(p, guide, eps, eps2, 0.0, 0.0, w, iters, snapshots)


def gf_rmsf(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    w: WindowSpec,
    iters: int,
    snapshots: list[MutualSnapshot] | None = None,
) -> MutualState:
    """Mutual-structure rolling built on the plain filter pair.

    eps regularizes the forward fit (q on G), eps2 the inverse fit (G on q).
    Pass a list as ``snapshots`` to receive every iteration's
    MutualSnapshot: its state and the coefficients that produced it. The
    list keeps them all (debug/testing; costs memory). A caller that needs
    only the states reads them from ``gf_rmsf_iterates``.
    """
    return last_iterate(gf_rmsf_iterates(p, guide, eps, eps2, w, iters, snapshots))


def cgf_rmsf_iterates(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    lam: float,
    beta: float,
    w: WindowSpec,
    iters: int,
    snapshots: list[MutualSnapshot] | None = None,
) -> Generator[MutualState, None, MutualState]:
    """The states of ``cgf_rmsf``, each yielded as soon as it exists.

    Parameters and shapes are checked at the call.
    """
    require_params(eps=eps, eps2=eps2, lam=lam, beta=beta, iters=iters)
    p, guide = as_images(p, guide)
    return _mutual_iterates(p, guide, eps, eps2, lam, beta, w, iters, snapshots)


def cgf_rmsf(
    p: Image,
    guide: Image,
    eps: float,
    eps2: float,
    lam: float,
    beta: float,
    w: WindowSpec,
    iters: int,
    snapshots: list[MutualSnapshot] | None = None,
) -> MutualState:
    """Mutual-structure rolling built on the anchored (conservative) pair.

    The q track is anchored to the original input p with weight lam, the G
    track to the original guidance with weight beta. lam = beta = 0 is the
    plain scheme, bit for bit. ``snapshots`` takes a list, as in
    ``gf_rmsf``.
    """
    return last_iterate(cgf_rmsf_iterates(p, guide, eps, eps2, lam, beta, w, iters, snapshots))


def _naive_iterates(
    q: Image, G: Image, eps: float, w: WindowSpec, iters: int
) -> Generator[MutualState, None, MutualState]:
    for n in range(iters):
        q, G = gf(q, G, w, eps), gf(G, q, w, eps)
        state = MutualState(q, G, n + 1)
        yield state
    return state


def naive_roll37_iterates(
    p: Image, guide: Image, eps: float, w: WindowSpec, iters: int
) -> Generator[MutualState, None, MutualState]:
    """The states of ``naive_roll37``, each yielded as soon as it exists.

    Parameters and shapes are checked at the call.
    """
    require_params(eps=eps, iters=iters)
    q, G = as_images(p, guide)
    return _naive_iterates(q, G, eps, w, iters)


def naive_roll37(
    p: Image, guide: Image, eps: float, w: WindowSpec, iters: int
) -> MutualState:
    """Cross-guided rolling without the inverse terms (both updates read
    the previous state). Smooths both tracks toward constants."""
    return last_iterate(naive_roll37_iterates(p, guide, eps, w, iters))


def energy_mutual(
    state: MutualState,
    coeffs_ab: GfCoeffs,
    coeffs_cd: GfCoeffs,
    w: WindowSpec,
    eps: float,
    eps2: float,
) -> EnergyReport:
    """Exact value of the two-track objective at (q, G, a, b, c, d): the
    ``energy_gf`` of q on G at eps plus that of G on q at eps2. A NaN or
    Inf in the inverse fit raises ValueError naming its c or d."""
    require_params(fit_eps2=eps2)  # energy_gf would blame it on eps
    forward = energy_gf(state.q, coeffs_ab, state.G, w, eps).terms
    inverse = energy_gf(state.G, coeffs_cd, state.q, w, eps2, names=("c", "d")).terms
    terms = {"data_q": forward["data"], "ridge_a": forward["ridge"],
             "data_g": inverse["data"], "ridge_c": inverse["ridge"]}
    return EnergyReport(total=sum(terms.values()), terms=terms)
