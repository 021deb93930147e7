"""The baseline guided filter, and the one roll every fixed-guide filter runs.

One filtering pass fits per-window linear coefficients (a, b) of the
guidance by ridge regression, then solves each pixel from its overlapping
window estimates. Every fixed-guide scheme shares that pixel step's
numerator, the window-sum estimate f = sum_k (a_k * guide + b_k), and maps
it to the exact per-pixel minimizer of its own objective:

- ``gf``: f / n, n the pixel's window count;
- ``cgf``: (f + lam * g) / (n + lam), anchored to g;
- ``tvgf``: the Fourier solve of (n + lam * L) q = f;
- ``rfnf_seo``: f / n plus a fixed detail layer.

``anchored_update`` is the first two, and ``roll`` runs the loop for all of
them. Feeding the output back in continues the same block-coordinate
minimization, so the exact objective value (``energy_gf``) must never
increase between passes; ``gf`` is the one-pass case of ``gf_roll``.

The guide is a constant of that objective, so its window counts, mean and
variance are constants of every pass. ``gf_coeffs`` is the composition of
``guide_moments`` (2 box passes) and ``fit_coeffs`` (2 box passes against
those moments); a roll computes the guide moments once and then spends 4
box passes per iteration (fit and window sums), 2 + 4n in all instead of 6n.
The pointwise arithmetic after each box pass runs over row strips against
the window counts' 1-D factors (see ``boxops``), so a roll holds the
guide's mean and variance but no plane of counts.

When the input is the guide itself (p is guide, the edge-preserving
smoothing case), the fit needs only the guide's own moments: mean(p) is
the guide mean and cov(guide, p) its unclamped window variance, so
``self_fit`` returns the moments and the fit from the same 2 box passes,
bit for bit the same as the general route. A self-guided ``gf``, ``cgf``
or ``tvgf`` then costs 4 box passes instead of 6, and a self-guided roll
4n instead of 2 + 4n. The test is object identity, made before any
conversion; an equal copy takes the general route to the same bits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .core import EnergyReport, Image, WindowSpec, as_image, require_params, require_same_shape
from .boxops import WindowCounts, box_sum, window_values


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

    counts: WindowCounts
    mean: Image
    var_eps: Image


def as_input_and_guide(p, guide) -> tuple[Image, Image]:
    """p and the guide as float images of one shape.

    p passed as the guide object itself comes back as that object, so the
    fit can see that it is self-guided even when the conversion copies.
    """
    guide = as_image(guide)
    p = guide if p is guide else as_image(p)
    require_same_shape(p, guide)
    return p, guide


def _check_eps(eps: float) -> None:
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps}")


def _moments(
    guide: Image, w: WindowSpec, eps: float, fit: bool
) -> tuple[GuideMoments, GfCoeffs | None]:
    """The guide's window moments from 2 box passes and, with ``fit``, the
    fit of the guide against itself from the same passes.

    With p = guide, cov(guide, p) is the guide's unclamped window variance,
    so a = var / var_eps and b = mean - a * mean need no box pass of their
    own; both routes share every operation up to that variance.
    """
    _check_eps(eps)
    counts = WindowCounts.of(guide.shape, w)
    mean = box_sum(guide, w)
    var = box_sum(guide * guide, w)  # window sums of guide^2, then the variance
    var_eps = np.empty_like(var) if fit else var
    b = np.empty_like(var) if fit else None
    for rows, n, t in counts.strips():
        m, v, ve = mean[rows], var[rows], var_eps[rows]
        m /= n
        v /= n
        v -= np.multiply(m, m, out=t)
        np.maximum(v, 0.0, out=ve)
        ve += eps
        if fit:  # a = var / var_eps in the variance's buffer
            v /= ve
            np.subtract(m, np.multiply(v, m, out=b[rows]), out=b[rows])
    moments = GuideMoments(counts=counts, mean=mean, var_eps=var_eps)
    return moments, GfCoeffs(a=var, b=b) if fit else None


def guide_moments(guide: Image, w: WindowSpec, eps: float) -> GuideMoments:
    """Window counts, mean and var + eps of the guidance: 2 box passes."""
    return _moments(as_image(guide), w, eps, fit=False)[0]


def self_fit(guide: Image, w: WindowSpec, eps: float) -> tuple[GuideMoments, GfCoeffs]:
    """The guide's moments and the fit of the guide against itself: 2 box passes.

    The operation order is that of ``guide_moments`` followed by
    ``fit_coeffs``, so both results are bit-identical to that route's.
    """
    return _moments(as_image(guide), w, eps, fit=True)


def fit_coeffs(p: Image, guide: Image, moments: GuideMoments, w: WindowSpec) -> GfCoeffs:
    """Ridge fit of p against a guide whose moments are given: 2 box passes.

    p and guide must already be float images of the moments' shape.
    """
    mean_p = box_sum(p, w)  # then b
    a = box_sum(guide * p, w)  # window sums of guide * p, then cov(guide, p), then a
    for rows, n, t in moments.counts.strips():
        mp, ar, mg = mean_p[rows], a[rows], moments.mean[rows]
        mp /= n
        ar /= n
        ar -= np.multiply(mg, mp, out=t)
        ar /= moments.var_eps[rows]
        mp -= np.multiply(ar, mg, out=t)  # mean(p) - a * mean(guide)
    return GfCoeffs(a=a, b=mean_p)


def guide_fit(p: Image, guide: Image, w: WindowSpec, eps: float) -> tuple[GuideMoments, GfCoeffs]:
    """The guide's moments and the fit of p against them.

    p and guide must already be float images of one shape. If p is the
    guide itself, both come from its 2 box passes (``self_fit``);
    otherwise the fit of p adds 2.
    """
    if p is guide:
        return self_fit(guide, w, eps)
    moments = guide_moments(guide, w, eps)
    return moments, fit_coeffs(p, guide, moments, w)


def gf_coeffs(p: Image, guide: Image, w: WindowSpec, eps: float) -> GfCoeffs:
    """Ridge fit of p against the guidance in every window.

    a = cov(guide, p) / (var(guide) + eps), b = mean(p) - a * mean(guide).
    eps = 0 is tolerated here for identity checks; the public filters
    require eps > 0. p passed as the guide object itself costs 2 box
    passes instead of 4.
    """
    p, guide = as_input_and_guide(p, guide)
    return guide_fit(p, guide, w, eps)[1]


def window_sum_estimate(coeffs: GfCoeffs, guide: Image, w: WindowSpec) -> Image:
    """f = sum(a) * guide + sum(b): every window's estimate of each pixel,
    summed, the numerator of every forward pixel update. 2 box passes."""
    f = box_sum(coeffs.a, w)
    f *= guide
    f += box_sum(coeffs.b, w)
    return f


def anchored_update(
    f: Image, counts: WindowCounts, g: Image | None = None, lam: float = 0.0
) -> Image:
    """The exact pixel minimizer (f + lam * g) / (n + lam), written into f.

    n is the pixel's window count. At lam = 0 the anchor drops out (g is
    not read) and this is the plain guided filter's f / n.
    """
    for rows, n, t in counts.strips():
        if lam:
            f[rows] += np.multiply(g[rows], lam, out=t)
            n += lam
        f[rows] /= n
    return f


def gf_apply(coeffs: GfCoeffs, guide: Image, w: WindowSpec) -> Image:
    """Aggregate the per-window estimates: the lam = 0 update f / n."""
    guide = as_image(guide)
    require_same_shape(coeffs.a, coeffs.b, guide)
    counts = WindowCounts.of(guide.shape, w)
    return anchored_update(window_sum_estimate(coeffs, guide, w), counts)


def roll(
    p: Image,
    guide: Image,
    fit: tuple[GuideMoments, GfCoeffs],
    w: WindowSpec,
    update: Callable[[Image, WindowCounts], Image],
    iters: int,
    tol: float | None = None,
) -> Iterator[Image]:
    """Yield the iterates q1 .. qN of a fixed-guide roll from q0 = p.

    ``fit`` is the guide's moments and the fit of p against them (from
    ``guide_fit``, or against moments the caller holds); every later pass
    refits the current iterate against those moments. Each fit is dropped
    once its window-sum estimate f is built (on the last pass the moments
    too, all but the counts), and ``update(f, counts)`` maps f to the next
    iterate: 4 box passes a pass after the first fit. Without tol the roll
    lets go of each iterate once it is fit, so a consumer that drops the
    iterates it was given holds one at a time.
    If tol is given, the roll stops after the first iterate with
    max |q_{n+1} - q_n| < tol.
    """
    moments, coeffs = fit
    del fit
    counts = moments.counts
    q = p
    for n in range(iters):
        if coeffs is None:
            coeffs = fit_coeffs(q, guide, moments, w)
        if tol is None:
            q = None  # after its fit only the tol test reads an iterate
        if n == iters - 1:
            moments = None  # no refit follows, so only the counts are needed
        f = window_sum_estimate(coeffs, guide, w)
        coeffs = None  # the fit is dropped before the update
        prev, q = q, update(f, counts)
        del f  # an update that allocates its result frees f before the yield
        yield q
        if prev is not None and float(np.max(np.abs(q - prev))) < tol:
            return
        prev = None


def last_iterate(
    iterates: Iterator[Image], iters: int, each: Callable[[Image], None] | None = None
) -> Image:
    """The last of a roll's ``iters`` iterates (a roll without tol).

    Each earlier iterate is let go of before the roll computes the next,
    so that one is held at a time; ``each``, if given, sees every iterate
    as the roll yields it.
    """
    for n in range(iters):
        q = next(iterates)
        if each is not None:
            each(q)
        if n < iters - 1:
            del q
    return q


def gf(p: Image, guide: Image, w: WindowSpec, eps: float) -> Image:
    """One guided-filter pass of p steered by the guidance image."""
    return gf_roll(p, guide, w, eps, 1)[0]


def gf_iterates(p: Image, guide: Image, w: WindowSpec, eps: float, iters: int) -> Iterator[Image]:
    """The iterates of ``gf_roll``, each yielded as soon as it exists.

    Parameters are checked and the first fit is made at the call.
    """
    require_params(eps=eps, iters=iters)
    p, guide = as_input_and_guide(p, guide)
    return roll(p, guide, guide_fit(p, guide, w, eps), w, anchored_update, iters)


def gf_roll(p: Image, guide: Image, w: WindowSpec, eps: float, iters: int) -> list[Image]:
    """Iterates [q1 .. qN] of q <- gf(q, guide), starting from q0 = p.

    Coefficients are re-fit from the current iterate on every pass; the
    guide's moments are computed once, so each pass after the first costs
    4 box passes.
    """
    return list(gf_iterates(p, guide, w, eps, iters))


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
