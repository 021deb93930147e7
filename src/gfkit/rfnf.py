"""Rolling flash/no-flash fusion.

Both schemes roll a guided filter of the no-flash image steered by the
flash image, through ``gf.roll``; they differ only in the pixel term.
The additive variant re-injects a fixed detail layer of the flash image
each pass (f / n + detail, ``detail_term``); the anchored variant is a
conservative roll toward an enhanced flash image (``gf.anchor_term``) and
subsumes the additive one in the small-weight limit. At lam = 0 both are
the plain roll, bit for bit. The flash image's window moments, and the
detail and enhanced images built from them, depend only on the flash input
and are computed once per call. The base layer gf(flash, flash) is a
self-guided fit, so it comes from the flash moments' own 2 box passes plus
2 for its window sums, and every rolling pass shares those moments: n
passes cost 4 + 4n box passes. ``rfnf_seo_iterates`` and
``rfnf_gen_iterates`` yield the roll's iterates and return the last; each
scheme is that last iterate. ``detail_image`` and ``enhanced_flash`` read
no refit, so their base layer is ``gf(flash, flash)``, one self-guided
pass that keeps no flash moments.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from .core import Image, WindowSpec, as_image, as_images, require_params
from .boxops import each_strip, window_counts
from .gf import (
    PixelTerm,
    anchor_term,
    anchored_update,
    fit_coeffs,
    gf,
    guide_fit,
    last_iterate,
    roll,
    window_sum_estimate,
)


def _enhance(flash: Image, base: Image, tau: float) -> Image:
    """base + tau * (flash - base), written into base."""
    def strip(rows, t):
        np.subtract(flash[rows], base[rows], out=t)
        t *= tau
        base[rows] += t

    each_strip(base.shape, strip)
    return base


def _flash_inputs(noflash, flash, w: WindowSpec, eps: float, **params):
    """A flash scheme's checked images, the flash moments with the roll's first
    fit of noflash against them, and the base layer gf(flash, flash)."""
    require_params(eps=eps, **params)
    noflash, flash = as_images(noflash, flash)
    moments, *fit = guide_fit(flash, flash, w, eps, True)  # popped to hand the fit over
    base = anchored_update(window_sum_estimate(fit.pop(), flash, w), w)
    return noflash, flash, (moments, fit_coeffs(noflash, flash, moments, w)), base


def detail_term(gain: Image, w: WindowSpec) -> PixelTerm:
    """-2 * sum(n * gain * q), n the window counts: its update is f / n + gain."""
    return PixelTerm("detail", lambda f, _: np.add(anchored_update(f, w), gain, out=f),
                     lambda q: -2.0 * float(np.sum(window_counts(gain.shape, w) * gain * q)))


def detail_image(flash: Image, w: WindowSpec, eps: float) -> Image:
    """High-frequency layer of the flash image: flash - gf(flash, flash)."""
    flash = as_image(flash)
    return flash - gf(flash, flash, w, eps)


def rfnf_seo_iterates(
    noflash: Image, flash: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> Generator[Image, None, Image]:
    """The iterates of ``rfnf_seo``, each yielded as soon as it exists.

    Parameters are checked and the flash moments, the detail layer and the
    first fit are made at the call.
    """
    noflash, flash, fit, detail = _flash_inputs(noflash, flash, w, eps, gain=lam, iters=iters)
    np.subtract(flash, detail, out=detail)  # flash - base, in the base's buffer
    detail *= lam
    return roll(noflash, flash, fit, w, detail_term(detail, w), iters)


def rfnf_seo(
    noflash: Image, flash: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> Image:
    """Additive scheme: q <- gf(q, flash) + lam * detail, from q0 = noflash."""
    return last_iterate(rfnf_seo_iterates(noflash, flash, w, eps, lam, iters))


def enhanced_flash(flash: Image, w: WindowSpec, eps: float, tau: float) -> Image:
    """Base layer of the flash image with its detail re-amplified by tau."""
    require_params(tau=tau)
    flash = as_image(flash)
    return _enhance(flash, gf(flash, flash, w, eps), tau)


def rfnf_gen_iterates(
    noflash: Image,
    flash: Image,
    w: WindowSpec,
    eps: float,
    lam: float,
    tau: float,
    iters: int,
) -> Generator[Image, None, Image]:
    """The iterates of ``rfnf_gen``, each yielded as soon as it exists.

    Parameters are checked and the flash moments, the enhanced flash
    anchor and the first fit are made at the call.
    """
    noflash, flash, fit, anchor = _flash_inputs(
        noflash, flash, w, eps, lam=lam, tau=tau, iters=iters
    )
    _enhance(flash, anchor, tau)  # the base layer becomes the enhanced flash image
    return roll(noflash, flash, fit, w, anchor_term(anchor, lam), iters)


def rfnf_gen(
    noflash: Image,
    flash: Image,
    w: WindowSpec,
    eps: float,
    lam: float,
    tau: float,
    iters: int,
) -> Image:
    """Anchored scheme: conservative roll of the no-flash image, guided by
    the flash image and anchored to its enhanced version."""
    return last_iterate(rfnf_gen_iterates(noflash, flash, w, eps, lam, tau, iters))
