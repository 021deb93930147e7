"""The CLI streams colour images one channel at a time.

Each channel's outputs become integer samples as soon as its filter
returns, so the files and the report must be exactly what the library's
float iterates give through write_pnm, and the peak memory of an RGB run
must stay near that of a one-channel run. A rolling scheme's iterates
are dumped as the scheme yields them, so a longer roll keeps no more
float iterates.
"""

import argparse
import dataclasses
import inspect
import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gfkit import cli
from gfkit.cgf import cgf_roll
from gfkit.cli import FILTER_COMMANDS, PARAM_FLAGS, _dest, _flag_defaults, main
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import gf_roll
from gfkit.igf import icgf, igf
from gfkit.imgio import read_pnm_file, write_pnm, write_pnm_file
from gfkit.metrics import mse, psnr_from_mse, ssim
from gfkit.rfnf import rfnf_gen_iterates, rfnf_seo_iterates
from gfkit.rmsf import cgf_rmsf_iterates, gf_rmsf_iterates, naive_roll37_iterates
from gfkit.tvgf import tvgf_roll
from conftest import peak_bytes
from oracles import frozen_cgf_roll, frozen_gf_roll, frozen_tvgf_roll

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)
R = 2
ITERS = 3
TRUNC = WindowSpec(R, Boundary.TRUNCATE)
PERIODIC = WindowSpec(R, Boundary.PERIODIC)


# a value for every parameter flag, none of them a command's default and no
# two alike, so that a flag that reached another parameter than its own
# would change the files or the report
EPS, EPS2, LAM, GAIN, BETA, TAU = 0.02, 0.05, 0.3, 0.6, 0.7, 1.6
FLAG_VALUES = {"radius": R, "boundary": "periodic", "eps": EPS, "eps2": EPS2, "lam": LAM,
               "gain": GAIN, "beta": BETA, "tau": TAU, "iters": ITERS}

# the library calls each command makes on one channel x with guide g, at
# FLAG_VALUES, each parameter by name: every iterate, a MutualState (q and
# the G track) for a command with g_output
LIBRARY = {
    "gf": lambda x, g: gf_roll(x, g, w=PERIODIC, eps=EPS, iters=ITERS),
    "tvgf": lambda x, g: tvgf_roll(x, g, w=PERIODIC, eps=EPS, lam=LAM, iters=ITERS),
    "cgf": lambda x, g: cgf_roll(x, g, x, w=PERIODIC, eps=EPS, lam=LAM, iters=ITERS),
    "igf": lambda x, g: [igf(x, g, w=PERIODIC, eps=EPS)],
    "icgf": lambda x, g: [icgf(x, g, x, w=PERIODIC, eps=EPS, lam=LAM)],
    "rmsf-gf": lambda x, g: list(
        gf_rmsf_iterates(x, g, eps=EPS, eps2=EPS2, w=PERIODIC, iters=ITERS)),
    "rmsf-cgf": lambda x, g: list(cgf_rmsf_iterates(
        x, g, eps=EPS, eps2=EPS2, lam=LAM, beta=BETA, w=PERIODIC, iters=ITERS)),
    "roll37": lambda x, g: list(naive_roll37_iterates(x, g, eps=EPS, w=PERIODIC, iters=ITERS)),
    "rfnf-seo": lambda x, g: list(
        rfnf_seo_iterates(x, g, w=PERIODIC, eps=EPS, lam=GAIN, iters=ITERS)),
    "rfnf-gen": lambda x, g: list(
        rfnf_gen_iterates(x, g, w=PERIODIC, eps=EPS, lam=LAM, tau=TAU, iters=ITERS)),
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


@pytest.mark.parametrize("name", sorted(FILTER_COMMANDS))
def test_row_names_a_stream_that_takes_its_parameters(name):
    # a row is data: it names a stream of gfkit.cli, looked up when the row
    # runs, which takes every parameter of the row but the radius by its
    # flag's dest, and the anchor as g
    cmd = FILTER_COMMANDS[name]
    assert not [f.name for f in dataclasses.fields(cmd) if callable(getattr(cmd, f.name))]
    fn = vars(cli)[cmd.stream]
    assert inspect.isfunction(fn)
    x = np.zeros((20, 24))
    values = {_dest(key): value for key, value in cmd.params.items() if key != "radius"}
    if cmd.anchor:
        values["g"] = x
    inspect.signature(fn).bind(x, x, w=TRUNC, **values)


@pytest.mark.parametrize("guided", [False, True])
@pytest.mark.parametrize("name", sorted(FILTER_COMMANDS))
def test_every_stream_returns_its_last_iterate(name, guided):
    # the CLI and bench read a run's output from the value its stream
    # returns, not from a count of its iterates
    rng = np.random.default_rng(16)
    x, g = rng.random((20, 24)), rng.random((20, 24))
    cmd = FILTER_COMMANDS[name]
    args = argparse.Namespace(**{_dest(k): v for k, v in _flag_defaults(cmd).items()})
    args.radius = R
    if "iters" in cmd.params:
        args.iters = 2
    stream = cmd.run(x, g if guided else x, x, WindowSpec(R, cmd.boundary or args.boundary), args)
    seen = []
    while True:
        try:
            seen.append(next(stream))
        except StopIteration as stop:
            returned = stop.value
            break
    assert len(seen) == getattr(args, "iters", 1)
    assert returned is not None
    planes = (lambda it: [it.q, it.G]) if cmd.g_output else (lambda it: [it])
    for got, want in zip(planes(returned), planes(seen[-1]), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("guided", [False, True])
@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_files_and_report_match_the_library(workdir, capsys, name, guided):
    rng = np.random.default_rng(11)
    write_pnm_file("in.ppm", [rng.random((20, 24)) for _ in range(3)], 255)
    write_pnm_file("ref.ppm", [rng.random((20, 24)) for _ in range(3)], 255)
    write_pnm_file("guide.pgm", [rng.random((20, 24))], 65535)
    cmd = FILTER_COMMANDS[name]
    argv = [name, "--input", "in.ppm", "--output", "out.ppm", "--metrics-against", "ref.ppm"]
    for key, default in _flag_defaults(cmd).items():
        assert FLAG_VALUES[key] != default
        argv += [PARAM_FLAGS[key][0], str(FLAG_VALUES[key])]
    if "iters" in cmd.params:
        argv.append("--dump-iterates")
    if guided:
        argv += ["--guidance", "guide.pgm"]
    if cmd.g_output:
        argv += ["--g-output", "g.ppm"]
    report = run_cli(capsys, argv)

    channels = read_pnm_file("in.ppm")
    guide = read_pnm_file("guide.pgm")[0] if guided else None
    runs = [LIBRARY[name](x, x if guide is None else guide) for x in channels]
    outputs = [info("out.ppm", 3)]
    if cmd.g_output:
        assert Path("g.ppm").read_bytes() == write_pnm([its[-1].G for its in runs], 255)
        outputs.append(info("g.ppm", 3))
        runs = [[state.q for state in its] for its in runs]
    finals = [its[-1] for its in runs]
    assert Path("out.ppm").read_bytes() == write_pnm(finals, 255)
    count = len(runs[0])
    for n in range(1, count + 1 if count > 1 else 1):
        path = f"out_iter{n:03d}.ppm"
        assert Path(path).read_bytes() == write_pnm([its[n - 1] for its in runs], 65535)
        outputs.append(info(path, 3))
    assert not os.path.exists(f"out_iter{count + 1:03d}.ppm")
    assert count == 1 or count == ITERS

    refs = read_pnm_file("ref.ppm")
    mean_mse = float(np.mean([mse(a, b) for a, b in zip(finals, refs)]))
    # rfnf-seo's --lambda, a detail gain, is reported as lam
    params = {_dest(key): FLAG_VALUES[key] for key in cmd.params}
    params.update(maxval=255, boundary=PERIODIC.boundary.value)
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


def peak_of(argv, runs=3):
    """Least tracemalloc peak of ``runs`` CLI runs, the report printed to a
    string. ``peak_bytes`` collects garbage before each traced run, so 20
    identical runs in one process peak at most 4 KiB apart (a 96x96
    rmsf-gf run: 921.6 to 925.5 KiB; a cgf run 0.3 KiB apart). Without
    that, a collection fired inside some runs and not others, and they
    peaked up to 27 KiB apart, too wide for a bound a few sample planes
    wide."""
    def call():
        assert main(argv) == 0

    return peak_bytes(call, runs=runs)  # the warm-up keeps lazy imports out


@pytest.mark.parametrize("scored,anchored", [(False, False), (True, False), (True, True)],
                         ids=["False", "True", "anchored"])
def test_rgb_peak_is_the_gray_peak_plus_two_planes(workdir, capsys, scored, anchored):
    rng = np.random.default_rng(12)
    rgb = [rng.random((SIZE, SIZE)) for _ in range(3)]
    write_pnm_file("rgb.ppm", rgb, 255)
    write_pnm_file("gray.pgm", rgb[:1], 255)
    anchor = [rng.random((SIZE, SIZE)) for _ in range(3)]
    write_pnm_file("anchor.ppm", anchor, 255)
    write_pnm_file("anchor.pgm", anchor[:1], 255)

    def argv(src):
        extra = ["--metrics-against", src] if scored else []
        extra += ["--anchor", "anchor" + src[-4:]] if anchored else []
        return ["cgf", "--input", src, "--output", "o" + src[-4:], "--iters", str(ITERS),
                "--radius", str(R), "--dump-iterates", *extra]

    gray = peak_of(argv("gray.pgm"))
    color = peak_of(argv("rgb.ppm"))
    capsys.readouterr()
    # two more float planes: the other channels' inputs while the first is
    # filtered, or their outputs kept for scoring while the last is; then
    # every dumped iterate's samples and, when scored, the reference's
    # other two channels. An RGB anchor adds its other two channels while
    # the first is filtered, but each goes with its channel, so none is
    # left at the scoring (4.01 planes over the gray run measured, 6.85
    # with every anchor channel kept to the end)
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
@pytest.mark.parametrize("name", ["cgf", "rfnf-seo", "rfnf-gen", "roll37"])
def test_fixed_guide_roll_keeps_one_float_iterate(workdir, capsys, name, dump):
    write_pnm_file("p.pgm", [np.random.default_rng(14).random((SIZE, SIZE))], 255)

    def peak(iters):
        extra = ["--dump-iterates"] if dump else []
        return peak_of([name, "--input", "p.pgm", "--output", "o.pgm", "--radius", str(R),
                        "--iters", str(iters), *extra])

    short, long = peak(2), peak(8)
    capsys.readouterr()
    # six more passes keep no float iterate (roll37: no iterate pair), and
    # with dumps six sample planes
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
