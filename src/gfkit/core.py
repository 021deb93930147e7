"""Shared image container conventions, window spec and input checks.

An image is a plain 2-D float64 numpy array of shape (height, width),
row-major. Photographic data is normalized to [0, 1]; coefficient fields
produced by the filters are unrestricted reals. Multichannel inputs are
handled as ordered lists of same-shape single-channel images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

Image = np.ndarray

# bytes of one row strip of one plane, for code that streams planes through
# row strips (SSIM, and the pointwise steps after a box pass). A strip of
# each of a handful of planes then stays inside a 2 MB L2 cache; among
# budgets from 32 KiB to 1 MiB, 256 KiB ran fastest for both on 1 MP planes
# (SSIM: 256-384 KiB, also on 1080p)
STRIP_BYTES = 1 << 18


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


# keyword -> (name in the message, requirement, test); NaN fails every test
_PARAM_RULES = {
    "eps": ("eps", "> 0", lambda v: v > 0),
    "eps2": ("eps2", "> 0", lambda v: v > 0),
    "lam": ("lambda", "finite and >= 0", lambda v: 0 <= v < math.inf),
    "beta": ("beta", "finite and >= 0", lambda v: 0 <= v < math.inf),
    "tau": ("tau", "finite", math.isfinite),
    "gain": ("lambda", "finite", math.isfinite),  # rfnf_seo's detail gain, either sign
    "iters": ("iters", ">= 1", lambda v: v >= 1),
}


def require_params(**params) -> None:
    """Reject a filter parameter outside its range, naming it (see _PARAM_RULES)."""
    for key, value in params.items():
        name, rule, ok = _PARAM_RULES[key]
        if not ok(value):
            raise ValueError(f"{name} must be {rule}, got {value}")
