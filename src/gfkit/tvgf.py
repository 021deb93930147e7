"""Total-variation regularized guided filter.

The pixel update of the plain guided filter is replaced by a screened
linear solve: the window-sum estimate f, the numerator every fixed-guide
update shares, is divided in the Fourier domain by |w| + lambda * D, where
D is the transfer function of the squared forward-difference gradient.
Windows are forced periodic so that |w| is the constant scalar this
diagonal solve requires. ``tvgf_roll`` is ``gf.roll`` with that solve as its
update and the half-spectrum denominator built once; ``tvgf`` is its
one-pass case.
"""

from __future__ import annotations

import numpy as np

from .core import Boundary, EnergyReport, Image, WindowSpec, as_image, require_params
from .gf import GfCoeffs, as_input_and_guide, energy_gf, guide_fit, roll


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
    require_params(lam=lam)
    u = np.arange(height, dtype=np.float64)
    v = np.arange(width, dtype=np.float64)
    d = (2.0 - 2.0 * np.cos(2.0 * np.pi * u / height))[:, None] + (
        2.0 - 2.0 * np.cos(2.0 * np.pi * v / width)
    )[None, :]
    return float(w.side**2) + lam * d


def _half_denominator(shape, w: WindowSpec, lam: float) -> Image:
    h, width = shape
    # a copy, so that a roll holds half the grid rather than all of it
    return tv_denominator(width, h, w, lam)[:, : width // 2 + 1].copy()


def _solve_half(f: Image, denominator: Image) -> Image:
    # f is real, so its spectrum is Hermitian: solve on the half spectrum
    spectrum = np.fft.rfft2(f)
    spectrum /= denominator
    return np.fft.irfft2(spectrum, s=f.shape)


def tvgf_solve_q(f: Image, w: WindowSpec, lam: float) -> Image:
    """Solve (|w| + lam * L) q = f for q, L the circular 5-point Laplacian."""
    f = as_image(f)
    _require_periodic(w)
    w.check_fits(f.shape)
    return _solve_half(f, _half_denominator(f.shape, w, lam))


def tvgf(p: Image, guide: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """One TV-regularized guided-filter pass (periodic windows)."""
    return tvgf_roll(p, guide, w, eps, lam, 1)[0]


def tvgf_roll(
    p: Image, guide: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> list[Image]:
    """Iterates [q1 .. qN] of q <- tvgf(q, guide), starting from q0 = p.

    The guide moments and the Fourier denominator are built once, so each
    pass costs 4 box passes and one half-spectrum solve, after 2 box
    passes for the guide moments unless p is the guide itself.
    """
    require_params(eps=eps, lam=lam, iters=iters)
    p, guide = as_input_and_guide(p, guide)
    _require_periodic(w)
    denominator = _half_denominator(p.shape, w, lam)
    return list(
        roll(p, guide, guide_fit(p, guide, w, eps), w,
             lambda f, counts: _solve_half(f, denominator), iters)
    )


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
