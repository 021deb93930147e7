"""Total-variation regularized guided filter.

The pixel update of the plain guided filter is replaced by a screened
linear solve: the aggregated window estimates are divided, in the Fourier
domain, by |w| + lambda * D where D is the transfer function of the
squared forward-difference gradient. Windows are forced periodic so that
|w| is the constant scalar this diagonal solve requires.
"""

from __future__ import annotations

import numpy as np

from .core import Boundary, EnergyReport, Image, WindowSpec, as_image
from .gf import GfCoeffs, as_input_and_guide, energy_gf, fit_coeffs, gf_coeffs, guide_fit
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


def _half_denominator(shape, w: WindowSpec, lam: float) -> Image:
    h, width = shape
    return tv_denominator(width, h, w, lam)[:, : width // 2 + 1]


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


def _window_sum_estimate(coeffs: GfCoeffs, guide: Image, w: WindowSpec) -> Image:
    """sum(a) * guide + sum(b): the right-hand side of the TV solve."""
    f = box_sum(coeffs.a, w)
    f *= guide
    f += box_sum(coeffs.b, w)
    return f


def tvgf(p: Image, guide: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """One TV-regularized guided-filter pass (periodic windows)."""
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    p, guide = as_input_and_guide(p, guide)
    _require_periodic(w)
    f = _window_sum_estimate(gf_coeffs(p, guide, w, eps), guide, w)
    return tvgf_solve_q(f, w, lam)  # the fit is released before the solve


def tvgf_roll(
    p: Image, guide: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> list[Image]:
    """Iterates [q1 .. qN] of q <- tvgf(q, guide), starting from q0 = p.

    The guide moments and the Fourier denominator are built once, so each
    pass costs 4 box passes and one half-spectrum solve, after 2 box
    passes for the guide moments unless p is the guide itself.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    p, guide = as_input_and_guide(p, guide)
    _require_periodic(w)
    denominator = _half_denominator(p.shape, w, lam)
    moments, coeffs = guide_fit(p, guide, w, eps)
    # each pass drops its fit before the solve and its estimate before the
    # next fit, so the roll holds only the guide moments and the iterates
    out = []
    for _ in range(iters):
        if out:
            coeffs = fit_coeffs(out[-1], guide, moments, w)
        f = _window_sum_estimate(coeffs, guide, w)
        del coeffs
        out.append(_solve_half(f, denominator))
        del f
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
