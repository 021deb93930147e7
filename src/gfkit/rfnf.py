"""Rolling flash/no-flash fusion.

Both schemes roll a guided filter of the no-flash image steered by the
flash image, through ``gf.roll``; they differ only in the pixel update.
The additive variant re-injects a fixed detail layer of the flash image
each pass (f / n + detail); the anchored variant is a conservative roll
toward an enhanced flash image ((f + lam * anchor) / (n + lam)) and
subsumes the additive one in the small-weight limit. At lam = 0 both are
the plain roll, bit for bit. The flash image's window moments, and the
detail and enhanced images built from them, depend only on the flash input
and are computed once per call. The base layer gf(flash, flash) is a
self-guided fit, so it comes from the flash moments' own 2 box passes plus
2 for its window sums, and every rolling pass shares those moments: n
passes cost 4 + 4n box passes.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np

from .core import Image, WindowSpec, as_image, require_params, require_same_shape
from .gf import GuideMoments, anchored_update, fit_coeffs, guide_fit, roll, window_sum_estimate


def _flash_base(flash: Image, w: WindowSpec, eps: float) -> tuple[GuideMoments, Image]:
    """The flash moments and the base layer gf(flash, flash): 4 box passes."""
    require_params(eps=eps)
    moments, coeffs = guide_fit(flash, flash, w, eps)
    return moments, anchored_update(window_sum_estimate(coeffs, flash, w), moments.counts)


def _enhance(flash: Image, base: Image, tau: float) -> Image:
    """base + tau * (flash - base), written into base."""
    base += tau * (flash - base)
    return base


def _last_iterate(noflash, flash, moments, w, update, iters) -> Image:
    """The last iterate of the roll of noflash against the held flash moments."""
    # the first fit goes straight to the roll, which drops it after one pass
    iterates = roll(
        noflash, flash, (moments, fit_coeffs(noflash, flash, moments, w)), w, update, iters
    )
    return deque(iterates, maxlen=1).pop()


def detail_image(flash: Image, w: WindowSpec, eps: float) -> Image:
    """High-frequency layer of the flash image: flash - gf(flash, flash)."""
    flash = as_image(flash)
    return flash - _flash_base(flash, w, eps)[1]


def rfnf_seo(
    noflash: Image, flash: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> Image:
    """Additive scheme: q <- gf(q, flash) + lam * detail, from q0 = noflash."""
    require_params(eps=eps, gain=lam, iters=iters)
    noflash = as_image(noflash)
    flash = as_image(flash)
    require_same_shape(noflash, flash)
    moments, detail = _flash_base(flash, w, eps)
    np.subtract(flash, detail, out=detail)  # flash - base, in the base's buffer
    detail *= lam

    def update(f: Image, counts: Image) -> Image:
        q = anchored_update(f, counts)
        q += detail
        return q

    return _last_iterate(noflash, flash, moments, w, update, iters)


def enhanced_flash(flash: Image, w: WindowSpec, eps: float, tau: float) -> Image:
    """Base layer of the flash image with its detail re-amplified by tau."""
    require_params(tau=tau)
    flash = as_image(flash)
    return _enhance(flash, _flash_base(flash, w, eps)[1], tau)


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
    require_params(eps=eps, lam=lam, tau=tau, iters=iters)
    noflash = as_image(noflash)
    flash = as_image(flash)
    require_same_shape(noflash, flash)
    moments, base = _flash_base(flash, w, eps)
    update = partial(anchored_update, g=_enhance(flash, base, tau), lam=lam)
    return _last_iterate(noflash, flash, moments, w, update, iters)
