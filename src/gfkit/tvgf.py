"""Total-variation regularized guided filter.

The pixel update of the plain guided filter is replaced by a screened
linear solve: the aggregated window estimates are divided, in the Fourier
domain, by |w| + lambda * D where D is the transfer function of the
squared forward-difference gradient. Windows are forced periodic so that
|w| is the constant scalar this diagonal solve requires.
"""

from __future__ import annotations

import numpy as np

from .core import Boundary, EnergyReport, Image, WindowSpec, as_image, require_same_shape
from .gf import GfCoeffs, gf_coeffs, energy_gf
from .boxops import box_sum


def _require_periodic(w: WindowSpec) -> None:
    if w.boundary is not Boundary.PERIODIC:
        raise ValueError("the TV-regularized filter requires a periodic window")


def tv_denominator(width: int, height: int, w: WindowSpec, lam: float) -> Image:
    """Frequency-domain denominator |w| + lam * D on the (height, width) grid.

    D(u, v) = (2 - 2cos(2*pi*v/W)) + (2 - 2cos(2*pi*u/H)), the power spectrum
    of circular forward differences along each axis. D is 0 at DC, so the
    denominator is >= (2r+1)^2 everywhere.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    u = np.arange(height, dtype=np.float64)
    v = np.arange(width, dtype=np.float64)
    d = (2.0 - 2.0 * np.cos(2.0 * np.pi * u / height))[:, None] + (
        2.0 - 2.0 * np.cos(2.0 * np.pi * v / width)
    )[None, :]
    return float(w.side**2) + lam * d


def tvgf_solve_q(f: Image, w: WindowSpec, lam: float) -> Image:
    """Solve (|w| + lam * L) q = f for q, L the circular 5-point Laplacian."""
    f = as_image(f)
    _require_periodic(w)
    w.check_fits(f.shape)
    h, width = f.shape
    # f is real, so its spectrum is Hermitian: solve on the half spectrum
    spectrum = np.fft.rfft2(f)
    spectrum /= tv_denominator(width, h, w, lam)[:, : width // 2 + 1]
    return np.fft.irfft2(spectrum, s=f.shape)


def tvgf(p: Image, guide: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """One TV-regularized guided-filter pass (periodic windows)."""
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    p = as_image(p)
    guide = as_image(guide)
    require_same_shape(p, guide)
    _require_periodic(w)
    coeffs = gf_coeffs(p, guide, w, eps)
    f = box_sum(coeffs.a, w)
    f *= guide
    f += box_sum(coeffs.b, w)
    return tvgf_solve_q(f, w, lam)


def tvgf_roll(
    p: Image, guide: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> list[Image]:
    """Iterates [q1 .. qN] of q <- tvgf(q, guide), starting from q0 = p."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    out = []
    q = as_image(p)
    for _ in range(iters):
        q = tvgf(q, guide, w, eps, lam)
        out.append(q)
    return out


def tv_squared(q: Image) -> Image:
    """Per-pixel squared gradient magnitude, circular forward differences."""
    q = as_image(q)
    dx = np.roll(q, -1, axis=1) - q
    dy = np.roll(q, -1, axis=0) - q
    return dx * dx + dy * dy


def energy_tvgf(
    q: Image, coeffs: GfCoeffs, guide: Image, w: WindowSpec, eps: float, lam: float
) -> EnergyReport:
    """Exact objective value: window least squares plus lam * sum(TV^2).

    The TV stencil here is the same circular forward difference that builds
    ``tv_denominator``; the descent guarantee depends on the two matching.
    """
    _require_periodic(w)
    base = energy_gf(q, coeffs, guide, w, eps)
    tv = lam * float(np.sum(tv_squared(q)))
    terms = dict(base.terms)
    terms["tv"] = tv
    return EnergyReport(total=base.total + tv, terms=terms)
