"""Total-variation regularized guided filter.

The pixel update of the plain guided filter is replaced by a screened
linear solve: the window-sum estimate f, the numerator every fixed-guide
update shares, is divided in the Fourier domain by |w| + lambda * D, where
D is the transfer function of the squared forward-difference gradient.
The window must be periodic and fit the grid, so that |w| is the
constant scalar this diagonal solve requires; ``tv_denominator`` refuses
any other, so every entry point does. ``tv_term`` is that solve with its
half-spectrum denominator built once, and the value lam * sum(TV^2) it
minimizes; ``tvgf_roll`` is ``gf.roll`` with it, and ``tvgf`` its
one-pass case.

The solve writes q over f, so beside f it holds only the half spectrum.
Each 1-D transform of ``rfft2`` and ``irfft2`` runs on its own row or
column, so the row transforms split by rows and the column transforms,
with the division between them, by columns over the worker pool of
``boxops``, each written in place with numpy 2's ``out=``. Every row and
column goes through the same transform as in ``rfft2``/``irfft2``, so q
is the same bits as theirs.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from .core import (
    Boundary,
    EnergyReport,
    Image,
    WindowSpec,
    as_image,
    as_images,
    require_finite,
    require_params,
)
from .boxops import in_parallel, work_blocks
from .gf import GfCoeffs, PixelTerm, energy_gf, guide_fit, roll


def tv_denominator(width: int, height: int, w: WindowSpec, lam: float) -> Image:
    """Frequency-domain denominator |w| + lam * D on the (height, width) grid.

    D(u, v) = (2 - 2cos(2*pi*v/W)) + (2 - 2cos(2*pi*u/H)), the power spectrum
    of circular forward differences along each axis. D is 0 at DC, so the
    denominator is >= (2r+1)^2 everywhere. |w| is that constant only for a
    periodic window that fits the grid, so any other window is refused.
    """
    if w.boundary is not Boundary.PERIODIC:
        raise ValueError("the TV-regularized filter requires a periodic window")
    require_params(width=width, height=height, lam=lam)
    w.check_fits((height, width))
    u = np.arange(height, dtype=np.float64)
    v = np.arange(width, dtype=np.float64)
    d = (2.0 - 2.0 * np.cos(2.0 * np.pi * u / height))[:, None] + (
        2.0 - 2.0 * np.cos(2.0 * np.pi * v / width)
    )[None, :]
    return float(w.side**2) + lam * d


def _solve_half(f: Image, denominator: Image) -> Image:
    """The solve of (|w| + lam * L) q = f on the half spectrum (f is real,
    so its spectrum is Hermitian), q written into f: the row transforms,
    then per column the complex transform, the division and its inverse."""
    h, width = f.shape
    spectrum = np.empty(denominator.shape, dtype=np.complex128)
    in_parallel(lambda rows: np.fft.rfft(f[rows], axis=1, out=spectrum[rows]),
                work_blocks(h, f.size))

    def columns(cols):
        block = spectrum[:, cols]
        np.fft.fft(block, axis=0, out=block)
        block /= denominator[:, cols]
        np.fft.ifft(block, axis=0, out=block)

    in_parallel(columns, work_blocks(spectrum.shape[1], f.size))
    in_parallel(lambda rows: np.fft.irfft(spectrum[rows], n=width, axis=1, out=f[rows]),
                work_blocks(h, f.size))
    return f


def tv_term(shape, w: WindowSpec, lam: float) -> PixelTerm:
    """lam * sum(TV^2), whose update solves (|w| + lam * L) q = f on the half
    spectrum, writing q over f; ``tv_squared`` has the stencil of
    ``tv_denominator``, which refuses a window the solve cannot take."""
    h, width = shape
    # a copy, so that a roll holds half the grid rather than all of it
    denominator = tv_denominator(width, h, w, lam)[:, : width // 2 + 1].copy()
    return PixelTerm("tv", lambda f, _: _solve_half(f, denominator),
                     lambda q: lam * float(np.sum(tv_squared(q))))


def tvgf_solve_q(f: Image, w: WindowSpec, lam: float) -> Image:
    """Solve (|w| + lam * L) q = f for q, L the circular 5-point Laplacian."""
    f = as_image(f)
    require_finite(f, "f")  # the Fourier solve would spread a NaN or Inf over the plane
    return tv_term(f.shape, w, lam).update(f.copy(), w)  # the update writes over f


def tvgf(p: Image, guide: Image, w: WindowSpec, eps: float, lam: float) -> Image:
    """One TV-regularized guided-filter pass (periodic windows)."""
    return tvgf_roll(p, guide, w, eps, lam, 1)[0]


def tvgf_iterates(
    p: Image, guide: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> Generator[Image, None, Image]:
    """The iterates of ``tvgf_roll``, each yielded as soon as it exists.

    Parameters are checked and the first fit is made at the call.
    """
    require_params(eps=eps, lam=lam, iters=iters)
    p, guide = as_images(p, guide)
    term = tv_term(p.shape, w, lam)  # before the fit, so that no fit plane is alive
    return roll(p, guide, guide_fit(p, guide, w, eps, iters > 1), w, term, iters)


def tvgf_roll(
    p: Image, guide: Image, w: WindowSpec, eps: float, lam: float, iters: int
) -> list[Image]:
    """Iterates [q1 .. qN] of q <- tvgf(q, guide), starting from q0 = p.

    The guide moments and the Fourier denominator are built once, so each
    pass costs 4 box passes and one half-spectrum solve, after 2 box
    passes for the guide moments unless p is the guide itself.
    """
    return list(tvgf_iterates(p, guide, w, eps, lam, iters))


def tv_squared(q: Image) -> Image:
    """Per-pixel squared gradient magnitude, circular forward differences."""
    q = as_image(q)
    dx = np.roll(q, -1, axis=1) - q
    dy = np.roll(q, -1, axis=0) - q
    return dx * dx + dy * dy


def energy_tvgf(
    q: Image, coeffs: GfCoeffs, guide: Image, w: WindowSpec, eps: float, lam: float
) -> EnergyReport:
    """Exact objective value: window least squares plus lam * sum(TV^2)."""
    return energy_gf(q, coeffs, guide, w, eps, tv_term(as_image(q).shape, w, lam))
