"""Rolling flash/no-flash fusion.

Both schemes roll a guided filter of the no-flash image steered by the
flash image. The additive variant re-injects a fixed detail layer of the
flash image each pass; the anchored variant is a conservative roll toward
an enhanced flash image and subsumes the additive one in the small-weight
limit. The flash image's window moments, and the detail and enhanced
images built from them, depend only on the flash input and are computed
once per call. The base layer gf(flash, flash) is a self-guided fit, so
it comes from the flash moments' own 2 box passes plus 2 for its
aggregation, and every rolling pass shares those moments: n passes cost
4 + 4n box passes.
"""

from __future__ import annotations

import numpy as np

from .core import Image, WindowSpec, as_image, require_same_shape
from .gf import GuideMoments, first_pass, gf_pass
from .cgf import cgf_roll_moments


def _flash_base(flash: Image, w: WindowSpec, eps: float) -> tuple[GuideMoments, Image]:
    """The flash moments and the base layer gf(flash, flash): 4 box passes."""
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return first_pass(flash, flash, w, eps)


def _enhance(flash: Image, base: Image, tau: float) -> Image:
    """base + tau * (flash - base), written into base."""
    base += tau * (flash - base)
    return base


def detail_image(flash: Image, w: WindowSpec, eps: float) -> Image:
    """High-frequency layer of the flash image: flash - gf(flash, flash)."""
    flash = as_image(flash)
    return flash - _flash_base(flash, w, eps)[1]


def rfnf_seo(
    noflash: Image, flash: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> Image:
    """Additive scheme: q <- gf(q, flash) + lam * detail, from q0 = noflash."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    noflash = as_image(noflash)
    flash = as_image(flash)
    require_same_shape(noflash, flash)
    moments, detail = _flash_base(flash, w, eps)
    np.subtract(flash, detail, out=detail)  # flash - base, in the base's buffer
    detail *= lam
    q = noflash
    for _ in range(iters):
        q = gf_pass(q, flash, moments, w)
        q += detail
    return q


def enhanced_flash(flash: Image, w: WindowSpec, eps: float, tau: float) -> Image:
    """Base layer of the flash image with its detail re-amplified by tau."""
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
    noflash = as_image(noflash)
    flash = as_image(flash)
    require_same_shape(noflash, flash)
    moments, base = _flash_base(flash, w, eps)
    anchor = _enhance(flash, base, tau)
    return cgf_roll_moments(noflash, flash, anchor, moments, w, lam, iters)[-1]
