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
from numbers import Real

import numpy as np

Image = np.ndarray

def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        # a boundary given by name becomes the member every check compares to
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        require_params(radius=self.radius)
        # a numpy integer would wrap in side and in a box pass's row indices
        object.__setattr__(self, "radius", int(self.radius))

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


def as_image(x) -> Image:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr):  # the cast would drop the imaginary part
        raise ValueError(f"expected a real image, got dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError("empty image")
    return arr


def as_images(*images) -> tuple[Image, ...]:
    """Each image through ``as_image``, all of one shape: the one gate of an
    entry point's images, a fit's a and b planes among them.

    An object passed more than once comes back as one converted object, so
    a fit can see that its input is its guide (``gf.guide_fit``) whatever
    the input's dtype; an equal copy stays a distinct image.
    """
    unique = {id(x): x for x in images}  # an object passed twice is converted once
    converted = {key: as_image(x) for key, x in unique.items()}
    shapes = {x.shape for x in converted.values()}
    if len(shapes) > 1:
        raise ValueError(f"shape mismatch: {sorted(shapes)}")
    return tuple(converted[id(x)] for x in images)


def require_finite(x: Image, what: str) -> None:
    """Reject an image holding a NaN or an Inf, in one scan."""
    if not np.isfinite(x).all():
        raise ValueError(f"NaN or Inf in {what}")


# keyword -> (name in the message, requirement, test); NaN fails every test
_PARAM_RULES = {
    "eps": ("eps", "finite and > 0", lambda v: 0 < v < math.inf),
    # a fit's ridge; 0 for identity checks
    "fit_eps": ("eps", "finite and >= 0", lambda v: 0 <= v < math.inf),
    "eps2": ("eps2", "finite and > 0", lambda v: 0 < v < math.inf),
    # the inverse fit's ridge in an energy
    "fit_eps2": ("eps2", "finite and >= 0", lambda v: 0 <= v < math.inf),
    "lam": ("lambda", "finite and >= 0", lambda v: 0 <= v < math.inf),
    "beta": ("beta", "finite and >= 0", lambda v: 0 <= v < math.inf),
    "tau": ("tau", "finite", math.isfinite),
    "gain": ("lambda", "finite", math.isfinite),  # rfnf_seo's detail gain, either sign
    "iters": ("iters", ">= 1", lambda v: v >= 1),
    "tol": ("tol", "> 0", lambda v: v > 0),  # a roll's early-stop threshold
    "sigma": ("sigma", "finite and >= 0", lambda v: 0 <= v < math.inf),  # synth noise level
    "radius": ("window radius", ">= 0", lambda v: v >= 0),
    "width": ("width", ">= 1", lambda v: v >= 1),  # an image's or a grid's size
    "height": ("height", ">= 1", lambda v: v >= 1),
    "repeat": ("repeat", ">= 1", lambda v: v >= 1),  # gfkit bench's timed calls
    "seed": ("seed", ">= 0", lambda v: v >= 0),  # a synthetic scene's random seed
}
# the counts among them: refused unless an integer
_INTEGER_PARAMS = frozenset({"iters", "radius", "width", "height", "repeat", "seed"})


def require_params(**params) -> None:
    """Reject a filter parameter outside its range, naming it (see _PARAM_RULES).

    A value of the wrong kind is refused before its range: a count
    (``_INTEGER_PARAMS``) must be an integer, every other parameter a real
    number, and no bool is either.
    """
    for key, value in params.items():
        name, rule, ok = _PARAM_RULES[key]
        if key in _INTEGER_PARAMS and not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(value, Real) or isinstance(value, bool):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if not ok(value):
            raise ValueError(f"{name} must be {rule}, got {value}")
