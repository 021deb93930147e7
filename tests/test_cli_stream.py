"""The CLI streams colour images one channel at a time.

Each channel's outputs become integer samples as soon as its filter
returns, so the files and the report must be exactly what the library's
float iterates give through write_pnm, and the peak memory of an RGB run
must stay near that of a one-channel run. A fixed-guide roll's iterates
are dumped as the roll yields them, so a longer roll keeps no more float
iterates.
"""

import json
import os
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gfkit.cgf import cgf_roll
from gfkit.cli import FILTER_COMMANDS, main
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import gf_roll
from gfkit.igf import icgf, igf
from gfkit.imgio import read_pnm_file, write_pnm, write_pnm_file
from gfkit.metrics import mse, psnr_from_mse, ssim
from gfkit.rfnf import rfnf_gen, rfnf_seo
from gfkit.rmsf import cgf_rmsf, gf_rmsf, naive_roll37
from gfkit.tvgf import tvgf_roll
from oracles import frozen_cgf_roll, frozen_gf_roll, frozen_tvgf_roll

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)
R = 2
ITERS = 3
TRUNC = WindowSpec(R, Boundary.TRUNCATE)
PERIODIC = WindowSpec(R, Boundary.PERIODIC)


def _mutual(scheme, *args):
    snaps = []
    state = scheme(*args, snapshots=snaps)
    return [s.state.q for s in snaps], state.G


# the library calls each command makes on one channel x with guide g, at
# the command's default parameters: (every iterate, the G track or None)
LIBRARY = {
    "gf": lambda x, g: (gf_roll(x, g, TRUNC, 0.1, ITERS), None),
    "tvgf": lambda x, g: (tvgf_roll(x, g, PERIODIC, 0.01, 45.0, ITERS), None),
    "cgf": lambda x, g: (cgf_roll(x, g, x, TRUNC, 0.001, 0.01, ITERS), None),
    "igf": lambda x, g: ([igf(x, g, TRUNC, 0.01)], None),
    "icgf": lambda x, g: ([icgf(x, g, x, TRUNC, 0.01, 0.01)], None),
    "rmsf-gf": lambda x, g: _mutual(gf_rmsf, x, g, 0.01, 0.01, TRUNC, ITERS),
    "rmsf-cgf": lambda x, g: _mutual(cgf_rmsf, x, g, 0.001, 0.001, 0.01, 0.01, TRUNC, ITERS),
    "roll37": lambda x, g: ([naive_roll37(x, g, 0.01, TRUNC, ITERS).q], None),
    "rfnf-seo": lambda x, g: ([rfnf_seo(x, g, TRUNC, 0.1, 1.0, ITERS)], None),
    "rfnf-gen": lambda x, g: ([rfnf_gen(x, g, TRUNC, 0.1, 1.0, 1.0, ITERS)], None),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def info(path, channels, h=20, w=24):
    return {"path": path, "width": w, "height": h, "channels": channels}


def test_library_table_covers_every_command():
    assert set(LIBRARY) == set(FILTER_COMMANDS)


@pytest.mark.parametrize("guided", [False, True])
@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_files_and_report_match_the_library(workdir, capsys, name, guided):
    rng = np.random.default_rng(11)
    write_pnm_file("in.ppm", [rng.random((20, 24)) for _ in range(3)], 255)
    write_pnm_file("ref.ppm", [rng.random((20, 24)) for _ in range(3)], 255)
    write_pnm_file("guide.pgm", [rng.random((20, 24))], 65535)
    cmd = FILTER_COMMANDS[name]
    argv = [name, "--input", "in.ppm", "--output", "out.ppm", "--radius", str(R),
            "--dump-iterates", "--metrics-against", "ref.ppm"]
    if "iters" in cmd.params:
        argv += ["--iters", str(ITERS)]
    if guided:
        argv += ["--guidance", "guide.pgm"]
    if cmd.g_output:
        argv += ["--g-output", "g.ppm"]
    report = run_cli(capsys, argv)

    channels = read_pnm_file("in.ppm")
    guide = read_pnm_file("guide.pgm")[0] if guided else None
    runs = [LIBRARY[name](x, x if guide is None else guide) for x in channels]
    finals = [its[-1] for its, _ in runs]
    assert Path("out.ppm").read_bytes() == write_pnm(finals, 255)
    outputs = [info("out.ppm", 3)]
    if cmd.g_output:
        assert Path("g.ppm").read_bytes() == write_pnm([G for _, G in runs], 255)
        outputs.append(info("g.ppm", 3))
    count = len(runs[0][0])
    for n in range(1, count + 1 if count > 1 else 1):
        path = f"out_iter{n:03d}.ppm"
        assert Path(path).read_bytes() == write_pnm([its[n - 1] for its, _ in runs], 65535)
        outputs.append(info(path, 3))
    assert not os.path.exists(f"out_iter{count + 1:03d}.ppm")
    assert count == 1 or count == ITERS

    refs = read_pnm_file("ref.ppm")
    mean_mse = float(np.mean([mse(a, b) for a, b in zip(finals, refs)]))
    params = dict(cmd.params, radius=R, maxval=255,
                  boundary=(cmd.boundary or Boundary.TRUNCATE).value)
    if "iters" in params:
        params["iters"] = ITERS
    inputs = {"input": info("in.ppm", 3), "metrics_against": info("ref.ppm", 3)}
    if guided:
        inputs["guidance"] = info("guide.pgm", 1)
    jsonschema.validate(report, SCHEMA)
    report.pop("wall_time_s")
    assert report == {
        "command": name,
        "inputs": inputs,
        "outputs": outputs,
        "params": params,
        "metrics": {
            "mse": mean_mse,
            "psnr_db": psnr_from_mse(mean_mse),
            "ssim": float(np.mean([ssim(a, b) for a, b in zip(finals, refs)])),
        },
    }


SIZE = 96  # one float plane is 72 KiB, one 16-bit sample plane 18 KiB
PLANE = SIZE * SIZE * 8
SAMPLES = SIZE * SIZE * 2
SLACK = 16384  # file buffers, report and bookkeeping beyond the planes


def peak_of(argv):
    """tracemalloc peak of one CLI run, the report printed to a string."""
    main(argv)  # warm-up: lazy imports and caches stay out of the peak
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scored", [False, True])
def test_rgb_peak_is_the_gray_peak_plus_two_planes(workdir, capsys, scored):
    rng = np.random.default_rng(12)
    rgb = [rng.random((SIZE, SIZE)) for _ in range(3)]
    write_pnm_file("rgb.ppm", rgb, 255)
    write_pnm_file("gray.pgm", rgb[:1], 255)

    def argv(src):
        extra = ["--metrics-against", src] if scored else []
        return ["cgf", "--input", src, "--output", "o" + src[-4:], "--iters", str(ITERS),
                "--radius", str(R), "--dump-iterates", *extra]

    gray = peak_of(argv("gray.pgm"))
    color = peak_of(argv("rgb.ppm"))
    capsys.readouterr()
    # two more float planes: the other channels' inputs while the first is
    # filtered, or their outputs kept for scoring while the last is; then
    # every dumped iterate's samples and, when scored, the reference's
    # other two channels
    bound = gray + 2 * PLANE + 3 * ITERS * SAMPLES + SLACK + (2 * PLANE if scored else 0)
    assert color <= bound, (color, gray, bound)


def test_rmsf_dump_peak_grows_by_samples_per_iteration(workdir, capsys):
    rng = np.random.default_rng(13)
    write_pnm_file("p.pgm", [rng.random((SIZE, SIZE))], 255)
    write_pnm_file("g.pgm", [rng.random((SIZE, SIZE))], 255)

    def peak(iters):
        return peak_of(["rmsf-gf", "--input", "p.pgm", "--guidance", "g.pgm",
                        "--output", "o.pgm", "--radius", str(R), "--iters", str(iters),
                        "--dump-iterates", "--g-output", "gt.pgm"])

    short, long = peak(2), peak(8)
    capsys.readouterr()
    # six more iterations keep six more sample planes, not six snapshots
    assert long - short <= 6 * SAMPLES + SLACK, (short, long)


@pytest.mark.parametrize("dump", [False, True])
def test_fixed_guide_roll_keeps_one_float_iterate(workdir, capsys, dump):
    write_pnm_file("p.pgm", [np.random.default_rng(14).random((SIZE, SIZE))], 255)

    def peak(iters):
        extra = ["--dump-iterates"] if dump else []
        return peak_of(["cgf", "--input", "p.pgm", "--output", "o.pgm", "--radius", str(R),
                        "--iters", str(iters), *extra])

    short, long = peak(2), peak(8)
    capsys.readouterr()
    # six more passes keep no float iterate, and with dumps six sample planes
    assert long - short <= PLANE + (6 * SAMPLES if dump else 0), (short, long)


@pytest.mark.parametrize("name", ["gf", "tvgf", "cgf"])
def test_fixed_guide_roll_bytes_match_the_whole_plane_arithmetic(workdir, capsys, name):
    rng = np.random.default_rng(15)
    write_pnm_file("in.ppm", [rng.random((20, 24)) for _ in range(3)], 255)
    write_pnm_file("guide.pgm", [rng.random((20, 24))], 65535)
    run_cli(capsys, [name, "--input", "in.ppm", "--guidance", "guide.pgm", "--output", "out.ppm",
                     "--radius", str(R), "--iters", str(ITERS), "--dump-iterates"])
    guide = read_pnm_file("guide.pgm")[0]
    frozen = {
        "gf": lambda x: frozen_gf_roll(x, guide, TRUNC, 0.1, ITERS),
        "tvgf": lambda x: frozen_tvgf_roll(x, guide, PERIODIC, 0.01, 45.0, ITERS),
        "cgf": lambda x: frozen_cgf_roll(x, guide, x, TRUNC, 0.001, 0.01, ITERS),
    }[name]
    runs = [frozen(x) for x in read_pnm_file("in.ppm")]
    assert Path("out.ppm").read_bytes() == write_pnm([its[-1] for its in runs], 255)
    for n in range(1, ITERS + 1):
        assert Path(f"out_iter{n:03d}.ppm").read_bytes() == write_pnm(
            [its[n - 1] for its in runs], 65535)
