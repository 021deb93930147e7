"""Rolling flash/no-flash fusion.

Both schemes roll a guided filter of the no-flash image steered by the
flash image. The additive variant re-injects a fixed detail layer of the
flash image each pass; the anchored variant is a conservative roll toward
an enhanced flash image and subsumes the additive one in the small-weight
limit. The flash image's window moments, and the detail and enhanced
images built from them, depend only on the flash input and are computed
once per call: the base layer and every rolling pass share one set of
moments, so n passes cost 6 + 4n box passes.
"""

from __future__ import annotations

from .core import Image, WindowSpec, as_image, require_same_shape
from .gf import GuideMoments, gf_pass, guide_moments
from .cgf import cgf_roll_moments


def _flash_moments(flash: Image, w: WindowSpec, eps: float) -> GuideMoments:
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return guide_moments(flash, w, eps)


def _enhance(flash: Image, moments: GuideMoments, w: WindowSpec, tau: float) -> Image:
    base = gf_pass(flash, flash, moments, w)
    return base + tau * (flash - base)


def detail_image(flash: Image, w: WindowSpec, eps: float) -> Image:
    """High-frequency layer of the flash image: flash - gf(flash, flash)."""
    flash = as_image(flash)
    return flash - gf_pass(flash, flash, _flash_moments(flash, w, eps), w)


def rfnf_seo(
    noflash: Image, flash: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> Image:
    """Additive scheme: q <- gf(q, flash) + lam * detail, from q0 = noflash."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    noflash = as_image(noflash)
    flash = as_image(flash)
    require_same_shape(noflash, flash)
    moments = _flash_moments(flash, w, eps)
    detail = lam * (flash - gf_pass(flash, flash, moments, w))
    q = noflash
    for _ in range(iters):
        q = gf_pass(q, flash, moments, w)
        q += detail
    return q


def enhanced_flash(flash: Image, w: WindowSpec, eps: float, tau: float) -> Image:
    """Base layer of the flash image with its detail re-amplified by tau."""
    flash = as_image(flash)
    return _enhance(flash, _flash_moments(flash, w, eps), w, tau)


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
    noflash = as_image(noflash)
    flash = as_image(flash)
    require_same_shape(noflash, flash)
    moments = _flash_moments(flash, w, eps)
    anchor = _enhance(flash, moments, w, tau)
    return cgf_roll_moments(noflash, flash, anchor, moments, w, lam, iters)[-1]
