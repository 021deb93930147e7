import argparse
import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gfkit.cli import build_parser, main
from gfkit.imgio import read_pnm_file, write_pnm_file
from gfkit.metrics import mse, ssim

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def make_inputs(workdir, size=32):
    rng = np.random.default_rng(0)
    write_pnm_file("in.pgm", [rng.random((size, size))], 65535)
    write_pnm_file("guide.pgm", [rng.random((size, size))], 65535)
    return workdir


class TestFilterCommands:
    def test_gf_runs_and_validates(self, workdir, capsys):
        make_inputs(workdir)
        code, report, _ = run_cli(
            capsys, "gf", "--input", "in.pgm", "--guidance", "guide.pgm",
            "--output", "out.pgm", "--radius", "3", "--eps", "0.1",
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        assert os.path.exists("out.pgm")
        assert report["params"]["radius"] == 3

    @pytest.mark.parametrize(
        "cmd,extra",
        [
            ("tvgf", ["--lambda", "45"]),
            ("cgf", ["--lambda", "0.5"]),
            ("igf", []),
            ("icgf", ["--lambda", "0.5"]),
            ("rmsf-gf", ["--iters", "2"]),
            ("rmsf-cgf", ["--iters", "2"]),
            ("roll37", ["--iters", "2"]),
            ("rfnf-seo", ["--iters", "2"]),
            ("rfnf-gen", ["--iters", "2"]),
        ],
    )
    def test_every_subcommand_reports_schema_valid(self, workdir, capsys, cmd, extra):
        make_inputs(workdir)
        code, report, _ = run_cli(
            capsys, cmd, "--input", "in.pgm", "--guidance", "guide.pgm",
            "--output", "out.pgm", "--radius", "2", *extra,
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        assert os.path.exists("out.pgm")

    def test_caption_defaults(self, workdir, capsys):
        make_inputs(workdir)
        code, report, _ = run_cli(
            capsys, "gf", "--input", "in.pgm", "--output", "out.pgm"
        )
        assert code == 0
        assert report["params"]["radius"] == 10
        assert report["params"]["eps"] == 0.1
        code, report, _ = run_cli(
            capsys, "tvgf", "--input", "in.pgm", "--output", "out.pgm"
        )
        assert report["params"]["radius"] == 10
        assert report["params"]["eps"] == 0.01
        assert report["params"]["lam"] == 45.0
        assert report["params"]["boundary"] == "periodic"
        code, report, _ = run_cli(
            capsys, "cgf", "--input", "in.pgm", "--output", "out.pgm"
        )
        assert report["params"]["radius"] == 6
        assert report["params"]["eps"] == 0.001
        assert report["params"]["lam"] == 0.01

    def test_determinism_identical_bytes(self, workdir, capsys):
        make_inputs(workdir)
        def argv(out):
            return ["gf", "--input", "in.pgm", "--guidance", "guide.pgm",
                    "--output", out, "--radius", "2"]

        code1, rep1, _ = run_cli(capsys, *argv("a.pgm"))
        first = Path("a.pgm").read_bytes()
        code2, rep2, _ = run_cli(capsys, *argv("b.pgm"))
        second = Path("b.pgm").read_bytes()
        assert first == second
        rep1.pop("wall_time_s"), rep2.pop("wall_time_s")
        rep1["outputs"][0].pop("path"), rep2["outputs"][0].pop("path")
        assert rep1 == rep2

    def test_dump_iterates_16bit(self, workdir, capsys):
        make_inputs(workdir)
        code, report, _ = run_cli(
            capsys, "gf", "--input", "in.pgm", "--output", "out.pgm",
            "--radius", "2", "--iters", "3", "--dump-iterates",
        )
        assert code == 0
        for n in (1, 2, 3):
            data = Path(f"out_iter{n:03d}.pgm").read_bytes()
            assert data.startswith(b"P5\n32 32\n65535\n")

    def test_dump_iterates_rmsf_track(self, workdir, capsys):
        make_inputs(workdir)
        code, report, _ = run_cli(
            capsys, "rmsf-gf", "--input", "in.pgm", "--guidance", "guide.pgm",
            "--output", "out.pgm", "--radius", "2", "--iters", "2",
            "--dump-iterates", "--g-output", "gtrack.pgm",
        )
        assert code == 0
        assert os.path.exists("out_iter001.pgm") and os.path.exists("out_iter002.pgm")
        assert os.path.exists("gtrack.pgm")
        # final iterate dump matches the main output content-wise
        final = read_pnm_file("out_iter002.pgm")[0]
        main_out = read_pnm_file("out.pgm")[0]
        assert np.max(np.abs(final - main_out)) <= 1.0 / 255

    def test_color_input_filters_per_channel(self, workdir, capsys):
        rng = np.random.default_rng(1)
        write_pnm_file("rgb.ppm", [rng.random((16, 16)) for _ in range(3)], 255)
        code, report, _ = run_cli(
            capsys, "gf", "--input", "rgb.ppm", "--output", "out.ppm", "--radius", "2"
        )
        assert code == 0
        assert report["outputs"][0]["channels"] == 3
        assert len(read_pnm_file("out.ppm")) == 3

    def test_metrics_against(self, workdir, capsys):
        make_inputs(workdir)
        code, report, _ = run_cli(
            capsys, "gf", "--input", "in.pgm", "--output", "out.pgm",
            "--radius", "2", "--metrics-against", "in.pgm",
        )
        assert code == 0
        assert set(report["metrics"]) == {"mse", "psnr_db", "ssim"}

    def test_thread_count_does_not_change_output(self, workdir, capsys):
        make_inputs(workdir)
        for threads, out in (("1", "t1.pgm"), ("8", "t8.pgm")):
            code, _, _ = run_cli(
                capsys, "gf", "--input", "in.pgm", "--output", out,
                "--radius", "3", "--threads", threads,
            )
            assert code == 0
        assert Path("t1.pgm").read_bytes() == Path("t8.pgm").read_bytes()

    def test_threads_is_deprecated(self, workdir, capsys):
        make_inputs(workdir)
        args = ["gf", "--input", "in.pgm", "--output", "out.pgm", "--radius", "3"]
        code, report, err = run_cli(capsys, *args, "--threads", "4", "--threads", "2")
        assert code == 0
        assert err.count("--threads is deprecated") == 1
        assert "threads" not in report["params"]
        code, report, err = run_cli(capsys, *args)
        assert code == 0
        assert err == ""
        assert "threads" not in report["params"]


class TestExitCodes:
    def test_success_zero(self, workdir, capsys):
        make_inputs(workdir)
        code, _, _ = run_cli(capsys, "metrics", "--input", "in.pgm",
                             "--metrics-against", "in.pgm")
        assert code == 0

    def test_unknown_flag_is_usage_error(self, workdir, capsys):
        make_inputs(workdir)
        with pytest.raises(SystemExit) as exc:
            main(["gf", "--input", "in.pgm", "--output", "o.pgm", "--lambda", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--lambda" in err

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["blur", "--input", "x"])
        assert exc.value.code == 2

    def test_missing_file_is_io_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "gf", "--input", "nope.pgm", "--output", "o.pgm")
        assert code == 3

    def test_corrupt_file_is_parse_error(self, workdir, capsys):
        Path("bad.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
        code, _, err = run_cli(capsys, "gf", "--input", "bad.pgm", "--output", "o.pgm")
        assert code == 3
        assert "byte" in err

    def test_sample_above_maxval_is_parse_error(self, workdir, capsys):
        Path("bad.pgm").write_bytes(b"P5\n2 2\n1023\n" + bytes([0, 1, 4, 0, 0, 2, 3, 255]))
        code, _, err = run_cli(capsys, "gf", "--input", "bad.pgm", "--output", "o.pgm")
        assert code == 3
        assert "sample 1024 exceeds maxval 1023 (at byte 14)" in err
        assert not os.path.exists("o.pgm")

    def test_any_input_maxval_is_read(self, workdir, capsys):
        rng = np.random.default_rng(3)
        write_pnm_file("in.pgm", [rng.random((16, 16))], 4095)
        code, report, _ = run_cli(capsys, "gf", "--input", "in.pgm", "--output", "o.pgm",
                                  "--radius", "2")
        assert code == 0
        assert Path("o.pgm").read_bytes().startswith(b"P5\n16 16\n255\n")

    @pytest.mark.parametrize(
        "cmd,flag,value",
        [
            ("gf", "--eps", "0"),
            ("cgf", "--lambda", "-1"),
            ("rmsf-cgf", "--eps2", "0"),
            ("rmsf-cgf", "--beta", "-0.5"),
            ("rfnf-gen", "--iters", "0"),
            ("cgf", "--lambda", "nan"),
            ("cgf", "--lambda", "inf"),
            ("rfnf-gen", "--tau", "nan"),
            ("rmsf-cgf", "--beta", "inf"),
        ],
    )
    def test_out_of_range_parameter_is_usage_error(self, workdir, capsys, cmd, flag, value):
        make_inputs(workdir)
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--input", "in.pgm", "--output", "o.pgm", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not os.path.exists("o.pgm")

    def test_shape_mismatch_is_usage_error(self, workdir, capsys):
        rng = np.random.default_rng(2)
        write_pnm_file("a.pgm", [rng.random((8, 8))], 255)
        write_pnm_file("b.pgm", [rng.random((9, 9))], 255)
        code, _, _ = run_cli(capsys, "gf", "--input", "a.pgm", "--guidance", "b.pgm",
                             "--output", "o.pgm", "--radius", "2")
        assert code == 2


# The filter subcommands' flags as the hand-written parser defined them:
# (flag, dest, default, choices, required), in --help order.
def _flag(flag, dest, default, choices=None, required=False):
    return (flag, dest, default, choices, required)


def _io(anchor=False):
    head = [_flag("--input", "input", None, required=True), _flag("--guidance", "guidance", None)]
    return head + [_flag("--anchor", "anchor", None)] * anchor + [
        _flag("--output", "output", None, required=True),
        _flag("--maxval", "maxval", 255, (255, 65535)),
        _flag("--dump-iterates", "dump_iterates", False),
        _flag("--metrics-against", "metrics_against", None),
        _flag("--threads", "threads", None),
    ]


BOUNDARY = _flag("--boundary", "boundary", "truncate", ("truncate", "periodic"))
G_OUTPUT = _flag("--g-output", "g_output", None)


def _r(v): return _flag("--radius", "radius", v)  # noqa: E704
def _eps(v): return _flag("--eps", "eps", v)  # noqa: E704
def _eps2(v): return _flag("--eps2", "eps2", v)  # noqa: E704
def _lam(v): return _flag("--lambda", "lam", v)  # noqa: E704
def _beta(v): return _flag("--beta", "beta", v)  # noqa: E704
def _tau(v): return _flag("--tau", "tau", v)  # noqa: E704
def _iters(v): return _flag("--iters", "iters", v)  # noqa: E704


FILTER_SURFACE = {
    "gf": _io() + [_r(10), _eps(0.1), BOUNDARY, _iters(1)],
    "tvgf": _io() + [_r(10), _eps(0.01), _lam(45.0), _iters(1)],
    "cgf": _io(anchor=True) + [_r(6), _eps(0.001), _lam(0.01), BOUNDARY, _iters(1)],
    "igf": _io() + [_r(6), _eps(0.01), BOUNDARY],
    "icgf": _io(anchor=True) + [_r(6), _eps(0.01), _lam(0.01), BOUNDARY],
    "rmsf-gf": _io() + [_r(6), _eps(0.01), _eps2(0.01), BOUNDARY, _iters(5), G_OUTPUT],
    "rmsf-cgf": _io() + [
        _r(6), _eps(0.001), _eps2(0.001), _lam(0.01), _beta(0.01), BOUNDARY, _iters(5), G_OUTPUT,
    ],
    "roll37": _io() + [_r(6), _eps(0.01), BOUNDARY, _iters(5)],
    "rfnf-seo": _io() + [_r(10), _eps(0.1), _lam(1.0), BOUNDARY, _iters(5)],
    "rfnf-gen": _io() + [_r(10), _eps(0.1), _lam(1.0), _tau(1.0), BOUNDARY, _iters(5)],
}


class TestParserSurface:
    @staticmethod
    def _subparsers():
        ap = build_parser()
        return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_subcommands(self):
        assert list(self._subparsers()) == [*FILTER_SURFACE, "metrics", "bench", "synth"]

    @pytest.mark.parametrize("cmd", list(FILTER_SURFACE))
    def test_filter_flags(self, cmd):
        got = [
            (a.option_strings[0], a.dest, a.default,
             tuple(a.choices) if a.choices else None, a.required)
            for a in self._subparsers()[cmd]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert got == FILTER_SURFACE[cmd]


class TestMetricsCommand:
    def test_identity_report(self, workdir, capsys):
        make_inputs(workdir)
        code, report, _ = run_cli(capsys, "metrics", "--input", "in.pgm",
                                  "--metrics-against", "in.pgm")
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        assert report["metrics"] == {"mse": 0.0, "psnr_db": "inf", "ssim": 1.0}

    def test_report_values_of_a_color_pair(self, workdir, capsys):
        # psnr_db comes from the channel-averaged MSE, through numpy's log10
        rng = np.random.default_rng(8)
        a = [rng.random((24, 20)) for _ in range(3)]
        b = [np.clip(c + 0.05 * rng.standard_normal(c.shape), 0.0, 1.0) for c in a]
        write_pnm_file("a.ppm", a, 65535)
        write_pnm_file("b.ppm", b, 65535)
        code, report, _ = run_cli(capsys, "metrics", "--input", "a.ppm",
                                  "--metrics-against", "b.ppm")
        assert code == 0
        a, b = read_pnm_file("a.ppm"), read_pnm_file("b.ppm")
        mean_mse = float(np.mean([mse(x, y) for x, y in zip(a, b)]))
        assert report["metrics"] == {
            "mse": mean_mse,
            "psnr_db": 10.0 * float(np.log10(1.0 / mean_mse)),
            "ssim": float(np.mean([ssim(x, y) for x, y in zip(a, b)])),
        }


class TestSynthCommand:
    def test_same_seed_same_bytes(self, workdir, capsys):
        for name in ("x", "y"):
            code, report, _ = run_cli(
                capsys, "synth", "--kind", "piecewise", "--seed", "5",
                "--width", "48", "--height", "40", "--output", f"{name}.pgm",
            )
            assert code == 0
            jsonschema.validate(report, SCHEMA)
        assert Path("x.pgm").read_bytes() == Path("y.pgm").read_bytes()

    def test_noise_kind_writes_pair(self, workdir, capsys):
        code, report, _ = run_cli(
            capsys, "synth", "--kind", "noise", "--seed", "1",
            "--width", "64", "--height", "64", "--output", "s.pgm",
        )
        assert code == 0
        assert os.path.exists("s_clean.pgm") and os.path.exists("s_noisy.pgm")

    def test_flash_pair_kind(self, workdir, capsys):
        code, report, _ = run_cli(
            capsys, "synth", "--kind", "flash-pair", "--seed", "1",
            "--width", "32", "--height", "32", "--output", "fp.pgm",
        )
        assert code == 0
        assert os.path.exists("fp_flash.pgm") and os.path.exists("fp_noflash.pgm")

    def test_unknown_kind_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "fractal", "--output", "x.pgm"])
        assert exc.value.code == 2


class TestBenchCommand:
    def test_smoke_report(self, workdir, capsys):
        code, report, _ = run_cli(
            capsys, "bench", "--width", "64", "--height", "64",
            "--filter", "gf", "--radius", "3", "--repeat", "2",
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        assert len(report["timings_s"]) == 2
        assert report["median_s"] > 0
        # one untimed 64x64 gf call: at least its output plane, at most 16 planes
        assert 64 * 64 * 8 <= report["peak_mb"] * 1e6 <= 16 * 64 * 64 * 8

    @pytest.mark.parametrize("kernel", ["box", "tvgf", "ssim", "rmsf-gf", "rmsf-cgf", "rfnf-gen"])
    def test_every_kernel_reports(self, workdir, capsys, kernel):
        code, report, _ = run_cli(
            capsys, "bench", "--width", "64", "--height", "48",
            "--filter", kernel, "--radius", "3", "--repeat", "2",
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        assert report["params"]["filter"] == kernel
        # the rolling schemes run a fixed number of iterations
        assert report["params"].get("iters") == (3 if kernel[:4] in ("rmsf", "rfnf") else None)
        assert len(report["timings_s"]) == 2
        assert report["median_s"] > 0
        assert report["peak_mb"] > 0

    def test_ssim_too_small_is_usage_error(self, workdir, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--width", "8", "--height", "64", "--filter", "ssim",
        )
        assert code == 2
        assert "too small for SSIM" in err
