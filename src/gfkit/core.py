"""Shared image container conventions, window spec and parameter bundle.

An image is a plain 2-D float64 numpy array of shape (height, width),
row-major. Photographic data is normalized to [0, 1]; coefficient fields
produced by the filters are unrestricted reals. Multichannel inputs are
handled as ordered lists of same-shape single-channel images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

Image = np.ndarray


class Boundary(str, Enum):
    """How a window behaves at the image border."""

    TRUNCATE = "truncate"  # clip the window to the image
    PERIODIC = "periodic"  # wrap around


@dataclass(frozen=True)
class WindowSpec:
    """Square window of radius r: the (2r+1)x(2r+1) box centered on each pixel."""

    radius: int
    boundary: Boundary = Boundary.TRUNCATE

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"window radius must be >= 0, got {self.radius}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    def check_fits(self, shape) -> None:
        """Periodic windows must not self-overlap: 2r+1 <= min dimension."""
        if self.boundary is Boundary.PERIODIC and self.side > min(shape):
            raise ValueError(
                f"periodic window of side {self.side} does not fit image {shape[1]}x{shape[0]}"
            )


@dataclass(frozen=True)
class FilterParams:
    """Scalar knobs shared by the filter family.

    eps/eps2 are the ridge regularizers of the two coefficient fits and must
    stay positive (they guard the variance denominators); lam and beta weight
    the fidelity anchors; tau scales detail re-injection; iters is the rolling
    pass count.
    """

    eps: float = 0.1
    lam: float = 0.0
    beta: float = 0.0
    eps2: float = 0.1
    tau: float = 1.0
    iters: int = 1

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not self.eps2 > 0:
            raise ValueError(f"eps2 must be > 0, got {self.eps2}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")


@dataclass
class EnergyReport:
    """Scalar objective value plus its per-term breakdown."""

    total: float
    terms: dict = field(default_factory=dict)


def make_image(width: int, height: int, fill: float = 0.0) -> Image:
    """Constant image of the given shape."""
    if width < 1 or height < 1:
        raise ValueError(f"image dimensions must be >= 1, got {width}x{height}")
    if not np.isfinite(fill):
        raise ValueError(f"fill value must be finite, got {fill}")
    return np.full((height, width), fill, dtype=np.float64)


def as_image(x) -> Image:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError("empty image")
    return arr


def require_finite(x: Image, what: str) -> None:
    """Reject an image holding a NaN or an Inf, in one scan."""
    if not np.isfinite(x).all():
        raise ValueError(f"NaN or Inf in {what}")


def require_same_shape(*images: Image) -> None:
    shapes = {im.shape for im in images}
    if len(shapes) > 1:
        raise ValueError(f"shape mismatch: {sorted(shapes)}")


def zip_map(x: Image, y: Image, f) -> Image:
    """Pointwise f(x[i], y[i]); shapes must match."""
    x = as_image(x)
    y = as_image(y)
    require_same_shape(x, y)
    return f(x, y)
