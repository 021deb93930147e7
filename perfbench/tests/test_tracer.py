"""Self-tests of the benchmark's tracer and output checks.

Run from the repository root: python -m pytest -q perfbench/tests

The box-pass counts are the known cost of each filter: gf and tvgf fit
with 4 box passes and aggregate with 2; one rmsf iteration runs two fits
(8), two alpha weights (2), two aggregations (4) and two inverse updates
(6). A tracer that misses a binding under-counts and fails here. A change
that really removes box passes updates these counts together with the
benchmark's README.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gfkit  # noqa: E402
import gfkit.cli  # noqa: E402
import gfkit.synth  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

M = sys.modules


def lib(mod, name):
    return getattr(M[f"gfkit.{mod}"], name)


def window(r, periodic=False):
    core = M["gfkit.core"]
    return core.WindowSpec(r, core.Boundary.PERIODIC if periodic else core.Boundary.TRUNCATE)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(0)
    return rng.random((64, 64)), rng.random((64, 64))


def traced(call):
    with Tracer() as t:
        call()
    return t


def box_passes(call):
    return traced(call).summary([-1])["boxops.box_sum"]["calls"]


def test_gf_runs_six_box_passes(pair):
    p, g = pair
    assert box_passes(lambda: lib("gf", "gf")(p, g, window(3), 0.1)) == 6


def test_tvgf_runs_six_box_passes(pair):
    p, g = pair
    assert box_passes(lambda: lib("tvgf", "tvgf")(p, g, window(3, True), 0.1, 45.0)) == 6


@pytest.mark.parametrize("scheme", ["gf_rmsf", "cgf_rmsf"])
def test_one_rmsf_iteration_runs_twenty_box_passes(pair, scheme):
    p, g = pair
    if scheme == "gf_rmsf":
        call = lambda: lib("rmsf", "gf_rmsf")(p, g, 0.01, 0.01, window(3), 1)  # noqa: E731
    else:
        call = lambda: lib("rmsf", "cgf_rmsf")(p, g, 0.01, 0.01, 0.01, 0.01, window(3), 1)  # noqa: E731
    t = traced(call)
    assert t.summary([-1])["boxops.box_sum"]["calls"] == 20
    assert t.counters["rmsf.iterations"] == 1


def test_package_level_binding_is_traced(pair):
    p, g = pair
    t = traced(lambda: gfkit.gf(p, g, window(3), 0.1))
    assert t.summary([-1])["gf.gf"]["calls"] == 1


def test_every_binding_is_restored(pair):
    def bindings():
        return {
            (name, attr): id(value)
            for name, mod in list(M.items())
            if name == "gfkit" or name.startswith("gfkit.")
            for attr, value in vars(mod).items()
            if callable(value)
        }

    before = bindings()
    with Tracer():
        assert bindings() != before
    assert bindings() == before


def test_self_times_partition_the_top_level_span(pair):
    p, g = pair
    t = traced(lambda: lib("rmsf", "gf_rmsf")(p, g, 0.01, 0.01, window(3), 2))
    top = [i for i, parent in enumerate(t.parents) if parent < 0]
    assert [t.names[i] for i in top] == ["rmsf.gf_rmsf"]
    total = t.ends[top[0]] - t.starts[top[0]]
    assert sum(t.self_times()) == pytest.approx(total, rel=1e-9)
    assert min(t.self_times()) >= 0.0


def test_counts_pnm_bytes(tmp_path):
    img = np.random.default_rng(1).random((20, 30))
    path = tmp_path / "x.ppm"
    t = traced(lambda: lib("imgio", "write_pnm_file")(path, [img, img, img], 255))
    assert t.counters["imgio.bytes_written"] == path.stat().st_size
    assert checks.pnm_decodes(path, 30, 20, 255)
    t = traced(lambda: lib("imgio", "read_pnm_file")(path))
    assert t.counters["imgio.bytes_read"] == path.stat().st_size


def test_oracles_match_the_filters_and_catch_a_perturbation():
    _, x = lib("synth", "noise_pair")(48, 40, 5)
    rng = np.random.default_rng(2)
    pixels = checks.sample_pixels(rng, x.shape, 6, count=6)
    q = lib("gf", "gf")(x, x, window(4), 0.1)
    assert max(abs(q[y, i] - checks.oracle_gf(x, x, y, i, 4, 0.1)) for y, i in pixels) <= 1e-9
    q = lib("igf", "icgf")(x, x, x, window(3), 0.01, 0.01)
    assert max(
        abs(q[y, i] - checks.oracle_icgf(x, x, x, y, i, 3, 0.01, 0.01)) for y, i in pixels
    ) <= 1e-9
    q = lib("tvgf", "tvgf")(x, x, window(4, True), 0.01, 45.0)
    assert max(checks.tvgf_residual(q, x, x, y, i, 4, 0.01, 45.0) for y, i in pixels) <= 1e-9
    y, i = pixels[0]
    q[y, i] += 1e-7
    assert checks.tvgf_residual(q, x, x, y, i, 4, 0.01, 45.0) > 1e-9


def test_descent_spot_check_passes_on_the_library():
    assert checks.descent_spot_check(M, seed=0) == []
