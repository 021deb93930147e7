"""The baseline guided filter, and the one roll every fixed-guide filter runs.

One filtering pass fits per-window linear coefficients (a, b) of the
guidance by ridge regression, then solves each pixel from its overlapping
window estimates. Every fixed-guide scheme adds one ``PixelTerm`` to that
objective (``energy_gf``); the term maps the window sums
f = sum_k (a_k * guide + b_k) to the exact pixel minimizer, n the pixel's
window count:

- ``anchor_term`` (``gf`` at lam = 0, ``cgf``, ``rfnf_gen``): lam * ||q - g||^2,
  minimized by (f + lam * g) / (n + lam);
- ``tvgf.tv_term``: lam * sum(TV^2), the Fourier solve of (n + lam * L) q = f;
- ``rfnf.detail_term``: -2 * sum(n * gain * q), minimized by f / n + gain.

``roll`` runs the loop for all of them. Each pass continues the same
block-coordinate minimization, so ``energy_gf`` with the scheme's term
never increases between passes; ``gf`` is the one-pass case of ``gf_roll``.
``energy_gf`` prices the objective from the same box sums as the fit (5
box passes, in closed form), so the descent can be checked at any size.

The guide is a constant of that objective, so its mean and variance are
constants of every pass, and the window counts depend only on the window
and the image size. Every fit starts at ``guide_fit``:
the guide's moments (2 box passes), then ``fit_coeffs`` against them (2
box passes); ``gf_coeffs`` is that first fit, and a roll keeps the
moments and spends 4 box passes per iteration (fit and window sums), 2 +
4n in all instead of 6n.
The pointwise arithmetic after each box pass runs over row strips, each
filling its count block from the window (see ``boxops``), so a roll
holds the guide's mean and variance but no plane of counts. Each plane
lives only until its last read: every product is box-summed over its
own plane (``box_sum``'s ``times``), and the roll hands each fit to
``window_sum_estimate``, which lets a go once sum(a) exists, so that
sum(b) is taken beside b alone. A refit then holds two float planes
besides the moments and its input, and a window-sum step three.

When the input is the guide itself (p is guide, the edge-preserving
smoothing case), the fit needs only the guide's own moments: mean(p) is
the guide mean and cov(guide, p) its unclamped window variance, so
``guide_fit`` returns the moments and the fit from the same 2 box passes,
bit for bit the same as the general route. A self-guided ``gf``, ``cgf``
or ``tvgf`` then costs 4 box passes instead of 6, and a self-guided roll
4n instead of 2 + 4n. The test is object identity, which the schemes'
image gate ``core.as_images`` keeps through any conversion; an equal
copy takes the general route to the same bits. When no refit follows
(one pass, or ``gf_coeffs``) the moments are read only by that fit, so
it writes b over the window mean, forms var + eps per strip and returns
no moments: the self-guided fit holds 2 float planes (the guide's window
sum, and its square, summed over itself), and one self-guided pass peaks
at 3 in its window sums (one fit plane, its window sum and f); a pass
against a distinct guide at 4 (the guide's mean and var + eps, and two
planes of the fit).
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass
from functools import partial
from typing import TypeVar

import numpy as np

from .core import (
    EnergyReport,
    Image,
    WindowSpec,
    as_images,
    require_finite,
    require_params,
)
from .boxops import box_sum, each_strip

T = TypeVar("T")  # one iterate: an image, or a rolling pair's MutualState


@dataclass
class GfCoeffs:
    """Per-window linear coefficients, indexed by window center."""

    a: Image
    b: Image


@dataclass
class GuideMoments:
    """Window statistics of a fixed guide, shared by every fit against it.

    ``var_eps`` is the clamped window variance plus the ridge weight eps,
    the denominator of every slope fit. The window counts are not among
    them: every strip loop fills them from the window.
    """

    mean: Image
    var_eps: Image


def fit_coeffs(p: Image, guide: Image, moments: GuideMoments, w: WindowSpec) -> GfCoeffs:
    """Ridge fit of p against a guide whose moments are given: 2 box passes.

    p and guide must already be float images of the moments' shape. The
    window sums of guide * p are written over the product itself, so the
    fit holds no plane besides its own two.
    """
    a = box_sum(guide, w, times=p)  # window sums of guide * p, then cov(guide, p), then a
    mean_p = box_sum(p, w)  # then b

    def strip(rows, n, t):
        mp, ar, mg = mean_p[rows], a[rows], moments.mean[rows]
        mp /= n
        ar /= n
        ar -= np.multiply(mg, mp, out=t)
        ar /= moments.var_eps[rows]
        mp -= np.multiply(ar, mg, out=t)  # mean(p) - a * mean(guide)

    each_strip(a.shape, strip, window=w)
    return GfCoeffs(a=a, b=mean_p)


def guide_fit(
    p: Image, guide: Image, w: WindowSpec, eps: float, refit: bool
) -> tuple[GuideMoments | None, GfCoeffs]:
    """The guide's window moments and the fit of p against them: the first
    fit of a roll, ``refit`` telling whether a later fit reads the moments.

    p and guide must already be float images of one shape. The moments
    take 2 box passes and the fit of p 2 more (``fit_coeffs``), unless p is
    the guide itself: cov(guide, p) is then the guide's unclamped window
    variance, so a = var / var_eps and b = mean - a * mean need no box pass
    of their own, and both routes share every operation up to that
    variance. A self-guided fit that no refit reads after writes b over the
    mean and holds var + eps only per strip, so it keeps no plane but the
    fit's two, and returns None for the moments.
    """
    require_params(fit_eps=eps)
    fit = p is guide
    mean = box_sum(guide, w)
    var = box_sum(guide, w, times=guide)  # window sums of guide^2, then the variance
    var_eps, b = var, None  # the moments alone: var + eps in the variance's buffer
    if fit:  # a takes the variance's buffer, b the mean's if no refit follows
        var_eps = np.empty_like(var) if refit else None
        b = np.empty_like(var) if refit else mean

    def strip(rows, n, t):
        m, v = mean[rows], var[rows]
        m /= n
        v /= n
        v -= np.multiply(m, m, out=t)
        ve = n if var_eps is None else var_eps[rows]  # n is free once both means exist
        np.maximum(v, 0.0, out=ve)
        ve += eps
        if fit:  # a = var / var_eps in the variance's buffer
            v /= ve
            np.subtract(m, np.multiply(v, m, out=t), out=b[rows])

    each_strip(guide.shape, strip, window=w)
    if fit:
        return GuideMoments(mean, var_eps) if refit else None, GfCoeffs(a=var, b=b)
    moments = GuideMoments(mean, var_eps)
    return moments, fit_coeffs(p, guide, moments, w)


def gf_coeffs(p: Image, guide: Image, w: WindowSpec, eps: float) -> GfCoeffs:
    """Ridge fit of p against the guidance in every window.

    a = cov(guide, p) / (var(guide) + eps), b = mean(p) - a * mean(guide).
    eps = 0 is tolerated here for identity checks; the public filters
    require eps > 0. p passed as the guide object itself costs 2 box
    passes instead of 4 and holds no plane of guide moments.
    """
    p, guide = as_images(p, guide)
    return guide_fit(p, guide, w, eps, False)[1]


def window_sum_estimate(coeffs: GfCoeffs, guide: Image, w: WindowSpec) -> Image:
    """f = sum(a) * guide + sum(b): every window's estimate of each pixel,
    summed, the numerator of every forward pixel update. 2 box passes.

    A caller that hands over its only reference to the fit lets a die once
    sum(a) exists, so sum(b) is taken beside one fit plane, not two. b
    lives to the return: only a strip loop with no scratch runs after
    sum(b), so letting it go there would lower no peak.
    """
    a, b = coeffs.a, coeffs.b
    del coeffs
    f = box_sum(a, w)
    del a
    sum_b = box_sum(b, w)

    def strip(rows):
        fr = f[rows]
        fr *= guide[rows]
        fr += sum_b[rows]

    each_strip(f.shape, strip, 0)
    return f


def anchored_update(f: Image, w: WindowSpec, g: Image | None = None, lam: float = 0.0) -> Image:
    """The exact pixel minimizer (f + lam * g) / (n + lam), written into f.

    n is the pixel's window count under w. At lam = 0 the anchor drops out
    (g is not read) and this is the plain guided filter's f / n.
    """
    def strip(rows, n, t):
        if lam:
            f[rows] += np.multiply(g[rows], lam, out=t)
            n += lam
        f[rows] /= n

    each_strip(f.shape, strip, window=w)
    return f


@dataclass(frozen=True)
class PixelTerm:
    """A per-pixel term of a scheme's objective: ``value(q)``, and ``update(f,
    w)``, the exact pixel minimizer of ``energy_gf`` plus the term given the
    window sums f (which it may overwrite) over the window w."""

    name: str
    update: Callable[[Image, WindowSpec], Image]
    value: Callable[[Image], float]


def anchor_term(g: Image | None = None, lam: float = 0.0) -> PixelTerm:
    """lam * ||q - g||^2, minimized by ``anchored_update`` (f / n at lam = 0)."""
    return PixelTerm("anchor", partial(anchored_update, g=g, lam=lam),
                     lambda q: lam * float(np.sum((q - g) ** 2)) if lam else 0.0)


def gf_apply(coeffs: GfCoeffs, guide: Image, w: WindowSpec) -> Image:
    """Aggregate the per-window estimates: the lam = 0 update f / n."""
    guide, a, b = as_images(guide, coeffs.a, coeffs.b)
    require_finite(guide, "the guide")  # never box-summed, so box_sum cannot catch it
    return anchored_update(window_sum_estimate(GfCoeffs(a, b), guide, w), w)


def roll(
    p: Image,
    guide: Image,
    fit: tuple[GuideMoments | None, GfCoeffs],
    w: WindowSpec,
    term: PixelTerm,
    iters: int,
    tol: float | None = None,
) -> Generator[Image, None, Image]:
    """Yield the iterates q1 .. qN of a fixed-guide roll from q0 = p.

    ``fit`` is the guide's moments and the fit of p against them (from
    ``guide_fit``, or against moments the caller holds; None for the
    moments if no refit follows); every later pass refits the current
    iterate against those moments. Each fit is handed to
    ``window_sum_estimate``, so a dies once sum(a) exists and b when f is
    returned (on the last pass the moments die before), and ``term.update(f,
    w)`` maps the window sums f to the next iterate: 4 box passes a pass
    after the first fit. Without tol the roll lets go of each iterate once
    it is fit, so a consumer that drops the iterates it was given holds one
    at a time.
    If tol is given, the roll stops after the first iterate with
    max |q_{n+1} - q_n| < tol. Either way it returns its last iterate,
    the value of the ``StopIteration`` that ends it.
    """
    moments, coeffs = fit
    fits = [coeffs]  # the fit's one reference, popped to hand it over
    del fit, coeffs
    q = p
    for n in range(iters):
        if not fits:
            fits.append(fit_coeffs(q, guide, moments, w))
        if tol is None:
            q = None  # after its fit only the tol test reads an iterate
        if n == iters - 1:
            moments = None  # no refit follows
        f = window_sum_estimate(fits.pop(), guide, w)
        prev, q = q, term.update(f, w)
        del f  # an update that allocates its result frees f before the yield
        yield q
        if tol is not None and float(np.max(np.abs(q - prev))) < tol:
            return q
        prev = None
    return q


def last_iterate(iterates: Generator[T, None, T], each: Callable[[T], None] | None = None) -> T:
    """The iterate a rolling scheme's stream returns when it ends: its last,
    whether the scheme ran all its passes or stopped early (a roll's tol).

    Each iterate is let go of before the scheme computes the next, so that
    one is held at a time; ``each``, if given, sees every iterate as the
    scheme yields it.
    """
    while True:
        try:
            q = next(iterates)
        except StopIteration as stop:
            return stop.value
        if each is not None:
            each(q)
        del q


def gf(p: Image, guide: Image, w: WindowSpec, eps: float) -> Image:
    """One guided-filter pass of p steered by the guidance image."""
    return gf_roll(p, guide, w, eps, 1)[0]


def gf_iterates(
    p: Image, guide: Image, w: WindowSpec, eps: float, iters: int
) -> Generator[Image, None, Image]:
    """The iterates of ``gf_roll``, each yielded as soon as it exists.

    Parameters are checked and the first fit is made at the call.
    """
    require_params(eps=eps, iters=iters)
    p, guide = as_images(p, guide)
    return roll(p, guide, guide_fit(p, guide, w, eps, iters > 1), w, anchor_term(), iters)


def gf_roll(p: Image, guide: Image, w: WindowSpec, eps: float, iters: int) -> list[Image]:
    """Iterates [q1 .. qN] of q <- gf(q, guide), starting from q0 = p.

    Coefficients are re-fit from the current iterate on every pass; the
    guide's moments are computed once, so each pass after the first costs
    4 box passes.
    """
    return list(gf_iterates(p, guide, w, eps, iters))


def energy_gf(q: Image, coeffs: GfCoeffs, guide: Image, w: WindowSpec, eps: float,
              term: PixelTerm | None = None, *, names: tuple[str, str] = ("a", "b")
              ) -> EnergyReport:
    """Exact value of the window-wise least-squares objective at (q, a, b),
    plus the pixel term if given, reported under its name.

    With S_x the window sum box_sum(x) at window k and n its count, the
    data term of k is a^2 S_GG + 2ab S_G + n b^2 - 2a S_Gq - 2b S_q + S_qq,
    and its ridge eps * n * a^2: 5 box passes, each folded into the
    per-window data as soon as it exists, so an energy costs about as much
    as one guided-filter pass at any size. eps = 0 prices no ridge; eps < 0
    is refused. The independent check is the pixel-by-pixel sum in
    ``tests/oracles.py``. A NaN or Inf in the fit raises ValueError naming
    the plane by ``names``, the fit's (a, b) unless told otherwise.
    """
    require_params(fit_eps=eps)
    q, guide, a, b = as_images(q, guide, coeffs.a, coeffs.b)
    require_finite(a, f"the fit's {names[0]}")  # a and b are never box-summed
    require_finite(b, f"the fit's {names[1]}")
    w.check_fits(q.shape)
    # G - c, q - d and b + a c - d leave every residual as it is; at the means
    # c and d, the sums that cancel scale with the images' spread, not level
    c, d = float(np.mean(guide)), float(np.mean(q))
    g0, q0, b0 = np.empty(q.shape), np.empty(q.shape), np.empty(q.shape)

    def shift(rows):  # G - c, q - d and b + (a c - d)
        np.subtract(guide[rows], c, out=g0[rows])
        np.subtract(q[rows], d, out=q0[rows])
        br = np.multiply(a[rows], c, out=b0[rows])
        br -= d
        np.add(b[rows], br, out=br)

    each_strip(q.shape, shift, 0)
    data = box_sum(q0, w, times=q0)  # S_qq, then each window's data term

    def fold(window_sum, coeff):
        # data += coeff * window_sum, coeff written into the strip's block;
        # data - 2 b S is data + (-2 b) S, bit for bit
        def strip(rows, t):
            coeff(rows, t)
            t *= window_sum[rows]
            data[rows] += t

        each_strip(q.shape, strip)

    fold(box_sum(q0, w), lambda rows, t: np.multiply(b0[rows], -2.0, out=t))
    fold(box_sum(g0, w, times=q0), lambda rows, t: np.multiply(a[rows], -2.0, out=t))
    fold(box_sum(g0, w), lambda rows, t: np.multiply(np.multiply(a[rows], 2.0, out=t), b0[rows],
                                                     out=t))
    fold(box_sum(g0, w, times=g0), lambda rows, t: np.multiply(a[rows], a[rows], out=t))

    def ridge_strip(rows, n):
        data[rows] += n * b0[rows] ** 2
        return eps * float(np.sum(n * a[rows] ** 2))

    ridge = 0.0
    for value in each_strip(q.shape, ridge_strip, 0, w):
        ridge += value  # in strip order
    terms = {"data": float(np.sum(data)), "ridge": ridge}
    if term is not None:
        terms[term.name] = term.value(q)
    return EnergyReport(total=sum(terms.values()), terms=terms)
