"""Guided-filter family as least-squares coordinate-descent solvers.

Every filter here is one exact block-minimization pass of a windowed
least-squares objective, and every rolling scheme is the continuation of
that minimization, which makes the descent of the exact objective a
machine-checkable property (see the ``energy_*`` evaluators).
"""

from .core import Boundary, EnergyReport, Image, WindowSpec, make_image
from .boxops import box_cov, box_mean, box_sum, box_var, naive_box_sum, window_counts
from .gf import GfCoeffs, energy_gf, gf, gf_apply, gf_coeffs, gf_roll
from .tvgf import energy_tvgf, tv_denominator, tvgf, tvgf_roll, tvgf_solve_q
from .cgf import anchor_weight, cgf, cgf_roll, energy_cgf
from .igf import icgf, igf
from .rmsf import (
    MutualSnapshot,
    MutualState,
    alpha_weight,
    cgf_rmsf,
    energy_mutual,
    gf_rmsf,
    naive_roll37,
)
from .rfnf import detail_image, enhanced_flash, rfnf_gen, rfnf_seo
from .metrics import mse, psnr, ssim
from .imgio import PnmError, read_pnm, read_pnm_file, write_pnm, write_pnm_file

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "EnergyReport",
    "GfCoeffs",
    "Image",
    "MutualSnapshot",
    "MutualState",
    "PnmError",
    "WindowSpec",
    "alpha_weight",
    "anchor_weight",
    "box_cov",
    "box_mean",
    "box_sum",
    "box_var",
    "cgf",
    "cgf_rmsf",
    "cgf_roll",
    "detail_image",
    "energy_cgf",
    "energy_gf",
    "energy_mutual",
    "energy_tvgf",
    "enhanced_flash",
    "gf",
    "gf_apply",
    "gf_coeffs",
    "gf_rmsf",
    "gf_roll",
    "icgf",
    "igf",
    "make_image",
    "mse",
    "naive_box_sum",
    "naive_roll37",
    "psnr",
    "read_pnm",
    "read_pnm_file",
    "rfnf_gen",
    "rfnf_seo",
    "ssim",
    "tv_denominator",
    "tvgf",
    "tvgf_roll",
    "tvgf_solve_q",
    "window_counts",
    "write_pnm",
    "write_pnm_file",
]
