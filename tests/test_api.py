"""The package's public surface and the names the benchmark's tracer wraps.

A change to ``gfkit.__all__`` must show up as an edit of the literal below.
Input images are converted and shape-checked by ``core.as_images`` alone;
the one other shape check left is of a fit's a and b planes.
The tracer in ``perfbench/tracer.py`` looks every layer function up by name
when it starts, so a renamed or deleted one would otherwise surface only as
an ``AttributeError`` inside a benchmark run.
"""

import ast
import sys
from pathlib import Path

import pytest

import gfkit
import gfkit.cli  # noqa: F401  (the tracer's "cli" layer)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import LAYERS  # noqa: E402

EXPORTS = [
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
    "box_mean",
    "box_sum",
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
    "mse",
    "naive_roll37",
    "psnr",
    "quantize",
    "read_pnm",
    "read_pnm_file",
    "rfnf_gen",
    "rfnf_seo",
    "ssim",
    "tv_denominator",
    "tvgf",
    "tvgf_roll",
    "tvgf_solve_q",
    "write_pnm",
    "write_pnm_file",
]


def test_exports_are_pinned():
    assert len(EXPORTS) == 43
    assert gfkit.__all__ == EXPORTS
    assert all(hasattr(gfkit, name) for name in EXPORTS)


TRACED = [(module, name) for module, names in LAYERS.items() for name in names]


@pytest.mark.parametrize("module,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_layer_resolves(module, name):
    assert callable(getattr(sys.modules[f"gfkit.{module}"], name, None))


def _callers(name: str) -> list[str]:
    """module.function for every top-level function or method of src/gfkit
    outside core whose body calls ``name``."""
    found = []
    for path in sorted((Path(gfkit.__file__).parent).glob("*.py")):
        if path.stem == "core":
            continue
        tree = ast.parse(path.read_text())
        defs = [d for node in tree.body
                for d in (node.body if isinstance(node, ast.ClassDef) else [node])
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for d in defs:
            if any(isinstance(node, ast.Call)
                   and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
                   for node in ast.walk(d)):
                found.append(f"{path.stem}.{d.name}")
    return found


def test_only_the_fit_planes_are_shape_checked_outside_core():
    # a pair of input images goes through core.as_images, which converts
    # and shape-checks them together
    assert _callers("require_same_shape") == ["gf.gf_apply", "igf.inverse_update"]
