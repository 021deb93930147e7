"""The package's public surface and the names the benchmark's tracer wraps.

A change to ``gfkit.__all__`` must show up as an edit of the literal below.
Input images and a fit's a and b planes are converted and shape-checked by
``core.as_images`` alone, and no plane is made only to be box-summed.
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


def _functions() -> list[tuple[str, ast.AST]]:
    """(module.function, node) for every top-level function or method of
    src/gfkit."""
    found = []
    for path in sorted((Path(gfkit.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(f"{path.stem}.{d.name}", d) for node in tree.body
                  for d in (node.body if isinstance(node, ast.ClassDef) else [node])
                  if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return found


def test_the_fit_planes_go_through_as_images():
    # a fit's a and b planes are shape-checked by core.as_images together
    # with the images they are read with, as every input image is
    handed = sorted(name for name, d in _functions() if any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "as_images"
        and {"coeffs.a", "coeffs.b"} <= {ast.unparse(arg) for arg in node.args}
        for node in ast.walk(d)))
    assert handed == ["gf.energy_gf", "gf.gf_apply", "igf.inverse_update"]


def test_no_box_sum_takes_a_plane_made_for_it():
    # a plane made only to be window-summed, a product above all, goes to
    # box_sum as its times=, which sums it over its own plane; box_sum of a
    # call would hold that plane and its sums at once
    calls = [(name, node) for name, d in _functions() for node in ast.walk(d)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "box_sum"]
    assert len(calls) >= 8  # the walk sees the package's box passes
    assert [(name, ast.unparse(node)) for name, node in calls
            if node.args and isinstance(node.args[0], ast.Call)] == []


def test_core_has_one_shape_check():
    # as_images alone raises a shape mismatch; the other is write_pnm's, of
    # the integer samples of a PNM's channels, which as_images would cast
    checks = [name for name, d in _functions()
              if any(isinstance(node, ast.Constant) and "shape mismatch" in str(node.value)
                     for node in ast.walk(d))]
    assert checks == ["core.as_images", "imgio.write_pnm"]
    assert not hasattr(gfkit.core, "require_same_shape")


def test_window_counts_come_from_the_window():
    # a strip loop fills its count blocks from the window it is given: boxops
    # holds the counts in no object (it defines no class), and it alone
    # builds their 1-D factors
    assert not [v for v in vars(gfkit.boxops).values()
                if isinstance(v, type) and v.__module__ == "gfkit.boxops"]
    found = set()
    for path in sorted((Path(gfkit.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "_counts_1d" in (getattr(node, "id", None), getattr(node, "attr", None),
                                getattr(node, "name", None)):
                found.add(path.stem)
    assert found == {"boxops"}


def test_imgio_reads_header_fields_with_a_function():
    # width, height and maxval are read by one function of the stream and
    # an offset: imgio defines no class but its error
    path = Path(gfkit.__file__).parent / "imgio.py"
    classes = [node.name for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    assert classes == ["PnmError"]


def test_boxops_alone_schedules_strips():
    # each_strip is the one loop that cuts strips into runs: no other module
    # names STRIPS_PER_RUN or caps work_blocks with a third argument
    found = set()
    for path in sorted((Path(gfkit.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None))
            capped = (isinstance(node, ast.Call)
                      and "work_blocks" in (getattr(node.func, "id", None),
                                            getattr(node.func, "attr", None))
                      and len(node.args) + len(node.keywords) > 2)
            if "STRIPS_PER_RUN" in named or capped:
                found.add(path.stem)
    assert found == {"boxops"}
