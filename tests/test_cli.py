import argparse
import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import gfkit.cli
from gfkit.boxops import worker_count
from gfkit.cli import FILTER_COMMANDS, build_parser, main
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

    def test_dump_iterates_at_one_pass(self, workdir, capsys):
        # the one iterate of the default --iters 1 was quantized, then dropped
        make_inputs(workdir)
        code, report, _ = run_cli(
            capsys, "gf", "--input", "in.pgm", "--output", "out.pgm",
            "--radius", "2", "--dump-iterates",
        )
        assert code == 0
        assert [o["path"] for o in report["outputs"]] == ["out.pgm", "out_iter001.pgm"]
        assert not os.path.exists("out_iter002.pgm")
        dumped = read_pnm_file("out_iter001.pgm")[0]
        assert np.max(np.abs(dumped - read_pnm_file("out.pgm")[0])) <= 1.0 / 255

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

    @pytest.mark.parametrize("argv,exhausted,size", [
        (("cgf", "--input", "in.pgm", "--output", "o.pgm"), "cgf_iterates", " on a 40x24 input"),
        (("rmsf-gf", "--input", "in.pgm", "--output", "o.pgm"), "gf_rmsf_iterates",
         " on a 40x24 input"),
        (("metrics", "--input", "in.pgm", "--metrics-against", "in.pgm"), "mse",
         " on a 40x24 input"),
        (("gf", "--input", "in.pgm", "--output", "o.pgm"), "read_pnm_file", ""),
        (("bench", "--filter", "box", "--width", "8", "--height", "8"), "box_sum", ""),
    ])
    def test_out_of_memory_exits_4_naming_the_command(self, workdir, capsys, monkeypatch, argv,
                                                       exhausted, size):
        # a failed allocation once ended in a traceback and exit 1; the
        # message names the input's size once the command has read it
        write_pnm_file("in.pgm", [np.random.default_rng(1).random((24, 40))], 255)

        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(gfkit.cli, exhausted, fail)
        code, report, err = run_cli(capsys, *argv)
        assert (code, report) == (4, None)
        assert err == f"gfkit: error: out of memory in {argv[0]}{size}\n"
        assert not os.path.exists("o.pgm")

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

    def test_over_long_header_field_is_parse_error(self, workdir, capsys):
        # int() refuses a field of more than 4300 digits with a plain
        # ValueError, which exited 2 as a usage error
        Path("bad.pgm").write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n")
        code, _, err = run_cli(capsys, "gf", "--input", "bad.pgm", "--output", "o.pgm")
        assert code == 3
        assert "width has 5000 digits (at byte 3)" in err
        assert not os.path.exists("o.pgm")

    @pytest.mark.parametrize("radius", ["1000000000000", "99999999999999999999"])
    def test_truncated_window_wider_than_the_image_filters_it_whole(self, workdir, capsys,
                                                                    radius):
        # these exited 4 (out of memory) and 1 (an OverflowError's traceback)
        write_pnm_file("in.pgm", [np.random.default_rng(5).random((30, 40))], 255)
        for r, out in [(radius, "wide.pgm"), ("39", "whole.pgm")]:
            code, _, _ = run_cli(capsys, "gf", "--input", "in.pgm", "--output", out,
                                 "--radius", r)
            assert code == 0
        assert Path("wide.pgm").read_bytes() == Path("whole.pgm").read_bytes()

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
            ("gf", "--eps", "inf"),
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

    @pytest.mark.parametrize(
        "argv,flag,value,rule",
        [
            (["gf", "--input", "in.pgm", "--output", "o.pgm"], "--eps", "-1",
             "eps must be finite and > 0"),
            (["cgf", "--input", "in.pgm", "--output", "o.pgm"], "--lambda", "-1",
             "lambda must be finite and >= 0"),
            # rfnf-seo's --lambda is core's detail gain, of either sign
            (["rfnf-seo", "--input", "in.pgm", "--output", "o.pgm"], "--lambda", "inf",
             "lambda must be finite"),
            (["roll37", "--input", "in.pgm", "--output", "o.pgm"], "--iters", "-1",
             "iters must be >= 1"),
            (["synth", "--kind", "noise", "--output", "o.pgm"], "--sigma", "-1",
             "sigma must be finite and >= 0"),
            # the sizes and counts take their ranges from core too
            (["gf", "--input", "in.pgm", "--output", "o.pgm"], "--radius", "-1",
             "window radius must be >= 0"),
            (["bench"], "--radius", "-2", "window radius must be >= 0"),
            (["bench"], "--width", "0", "width must be >= 1"),
            (["bench"], "--repeat", "0", "repeat must be >= 1"),
            (["synth", "--kind", "noise", "--output", "o.pgm"], "--height", "-3",
             "height must be >= 1"),
            (["synth", "--kind", "piecewise", "--output", "o.pgm"], "--seed", "-1",
             "seed must be >= 0"),
            (["bench"], "--seed", "-1", "seed must be >= 0"),
        ],
    )
    def test_out_of_range_message_carries_the_core_rule(
        self, workdir, capsys, argv, flag, value, rule
    ):
        make_inputs(workdir)
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {rule}, got {value}" in capsys.readouterr().err
        assert not os.path.exists("o.pgm")

    def test_rfnf_seo_takes_a_negative_gain(self, workdir, capsys):
        make_inputs(workdir)
        code, report, _ = run_cli(capsys, "rfnf-seo", "--input", "in.pgm", "--output", "o.pgm",
                                  "--radius", "2", "--lambda", "-0.5")
        assert (code, report["params"]["lam"]) == (0, -0.5)

    def test_shape_mismatch_is_usage_error(self, workdir, capsys):
        rng = np.random.default_rng(2)
        write_pnm_file("a.pgm", [rng.random((8, 8))], 255)
        write_pnm_file("b.pgm", [rng.random((9, 9))], 255)
        code, _, _ = run_cli(capsys, "gf", "--input", "a.pgm", "--guidance", "b.pgm",
                             "--output", "o.pgm", "--radius", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "case,expected",
        [("missing reference", 3), ("reference shape", 2), ("too small for SSIM", 2)],
    )
    def test_bad_reference_writes_no_file(self, workdir, capsys, case, expected):
        # the reference is scored before the output, the G track or any
        # iterate is written, so a failed score leaves no file behind
        rng = np.random.default_rng(4)
        shape = (2, 3) if case == "too small for SSIM" else (16, 16)
        write_pnm_file("in.pgm", [rng.random(shape)], 255)
        if case != "missing reference":
            ref_shape = (16, 15) if case == "reference shape" else shape
            write_pnm_file("ref.pgm", [rng.random(ref_shape)], 255)
        Path("o.pgm").write_bytes(b"an earlier output")
        before = {name: Path(name).read_bytes() for name in os.listdir()}
        code, report, _ = run_cli(
            capsys, "rmsf-gf", "--input", "in.pgm", "--output", "o.pgm", "--radius", "2",
            "--iters", "2", "--dump-iterates", "--g-output", "g.pgm",
            "--metrics-against", "ref.pgm",
        )
        assert code == expected and report is None
        assert {name: Path(name).read_bytes() for name in os.listdir()} == before


# The filter subcommands' flags as the hand-written parser defined them:
# (flag, dest, default, choices, required), in --help order.
def _flag(flag, dest, default, choices=None, required=False):
    return (flag, dest, default, choices, required)


def _io(anchor=False, dump=False):
    head = [_flag("--input", "input", None, required=True), _flag("--guidance", "guidance", None)]
    return head + [_flag("--anchor", "anchor", None)] * anchor + [
        _flag("--output", "output", None, required=True),
        _flag("--maxval", "maxval", 255, (255, 65535)),
    ] + [_flag("--dump-iterates", "dump_iterates", False)] * dump + [
        _flag("--metrics-against", "metrics_against", None),
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
    "gf": _io(dump=True) + [_r(10), _eps(0.1), BOUNDARY, _iters(1)],
    "tvgf": _io(dump=True) + [_r(10), _eps(0.01), _lam(45.0), _iters(1)],
    "cgf": _io(anchor=True, dump=True) + [_r(6), _eps(0.001), _lam(0.01), BOUNDARY, _iters(1)],
    "igf": _io() + [_r(6), _eps(0.01), BOUNDARY],
    "icgf": _io(anchor=True) + [_r(6), _eps(0.01), _lam(0.01), BOUNDARY],
    "rmsf-gf": _io(dump=True) + [_r(6), _eps(0.01), _eps2(0.01), BOUNDARY, _iters(5), G_OUTPUT],
    "rmsf-cgf": _io(dump=True) + [
        _r(6), _eps(0.001), _eps2(0.001), _lam(0.01), _beta(0.01), BOUNDARY, _iters(5), G_OUTPUT,
    ],
    "roll37": _io(dump=True) + [_r(6), _eps(0.01), BOUNDARY, _iters(5), G_OUTPUT],
    "rfnf-seo": _io(dump=True) + [_r(10), _eps(0.1), _lam(1.0), BOUNDARY, _iters(5)],
    "rfnf-gen": _io(dump=True) + [_r(10), _eps(0.1), _lam(1.0), _tau(1.0), BOUNDARY, _iters(5)],
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

    @pytest.mark.parametrize(
        "cmd,flag",
        [(cmd, ["--threads", "2"]) for cmd in FILTER_SURFACE]
        + [(cmd, ["--dump-iterates"]) for cmd in ("igf", "icgf")],
    )
    def test_removed_flag_is_usage_error(self, workdir, capsys, cmd, flag):
        # --threads had no effect, and these two single passes have no iterate
        make_inputs(workdir)
        before = set(os.listdir())
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--input", "in.pgm", "--output", "o.pgm", "--radius", "2", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert set(os.listdir()) == before


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

    @pytest.mark.parametrize("width,height", [(1, 1), (1, 7), (7, 1)])
    @pytest.mark.parametrize("kind,suffixes", [
        ("piecewise", [""]), ("texture", [""]),
        ("noise", ["_clean", "_noisy"]), ("flash-pair", ["_flash", "_noflash"]),
    ])
    def test_thin_scenes(self, workdir, capsys, kind, suffixes, width, height):
        code, report, _ = run_cli(
            capsys, "synth", "--kind", kind, "--width", str(width), "--height", str(height),
            "--output", "t.pgm",
        )
        assert code == 0
        assert [o["path"] for o in report["outputs"]] == [f"t{s}.pgm" for s in suffixes]
        for s in suffixes:
            (plane,) = read_pnm_file(f"t{s}.pgm")
            assert plane.shape == (height, width)

    @pytest.mark.parametrize("kind, suffix, level", [
        ("noise", "_noisy", 0.05), ("flash-pair", "_noflash", 0.03),
    ])
    def test_sigma_sets_the_noise_level(self, workdir, capsys, kind, suffix, level):
        # flash-pair once ignored --sigma and reported the level it did not use
        def scene(name, *sigma):
            code, report, _ = run_cli(capsys, "synth", "--kind", kind, "--width", "64",
                                      "--height", "64", "--output", f"{name}.pgm", *sigma)
            assert code == 0
            return report["params"]["sigma"], Path(f"{name}{suffix}.pgm").read_bytes()

        default, zero, given = scene("d"), scene("z", "--sigma", "0"), scene("g", "--sigma", "0.2")
        assert (default[0], zero[0], given[0]) == (level, 0.0, 0.2)
        assert len({default[1], zero[1], given[1]}) == 3
        assert scene("l", "--sigma", str(level))[1] == default[1]

    @pytest.mark.parametrize("kind", ["piecewise", "texture"])
    def test_noiseless_kind_reports_no_sigma(self, workdir, capsys, kind):
        # a noise level the scene would not use is refused, as bench refuses
        # ssim's radius, and writes no file
        argv = ["synth", "--kind", kind, "--width", "16", "--height", "16", "--output", "s.pgm"]
        code, _, err = run_cli(capsys, *argv, "--sigma", "0.2")
        assert (code, os.path.exists("s.pgm")) == (2, False)
        assert f"--sigma does not apply to {kind}" in err
        code, report, _ = run_cli(capsys, *argv)
        assert (code, report["params"]["sigma"]) == (0, None)

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

    @pytest.mark.parametrize("kernel", ["box", "ssim", *FILTER_COMMANDS])
    def test_every_kernel_reports(self, workdir, capsys, kernel):
        radius = [] if kernel == "ssim" else ["--radius", "3"]  # SSIM's window is fixed
        code, report, _ = run_cli(
            capsys, "bench", "--width", "64", "--height", "48",
            "--filter", kernel, *radius, "--repeat", "2",
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        params = dict(report["params"])
        assert params.pop("filter") == kernel
        assert [params.pop(k) for k in ("width", "height", "repeat", "seed")] == [64, 48, 2, 0]
        assert params.pop("workers") == worker_count()
        if kernel in FILTER_COMMANDS:
            # a filter runs its subcommand's row, at the subcommand's defaults
            make_inputs(workdir)
            code, run, _ = run_cli(capsys, kernel, "--input", "in.pgm", "--output", "o.pgm",
                                   "--radius", "3")
            assert code == 0
            assert params == {k: v for k, v in run["params"].items() if k != "maxval"}
        else:
            assert params == ({"radius": 3} if kernel == "box" else {})
        assert len(report["timings_s"]) == 2
        assert report["median_s"] > 0
        assert report["peak_mb"] > 0

    @pytest.mark.parametrize("kernel, passes", [("gf", 4), ("tvgf", 4), ("cgf", 4), ("igf", 5)])
    def test_filter_runs_self_guided(self, workdir, capsys, count_box_passes, kernel, passes):
        # the subcommand without --guidance: the input is its own guide, so a
        # gf pass costs 4 box passes, not the 6 of a distinct guide
        argv = ["bench", "--width", "32", "--height", "32", "--filter", kernel, "--repeat", "1"]
        calls = 3  # warm-up, one timed call, one for the allocation peak
        assert count_box_passes(lambda: run_cli(capsys, *argv)) == passes * calls

    def test_filter_radius_defaults_to_its_row(self, workdir, capsys):
        for kernel, radius in (("box", 10), ("gf", 10), ("cgf", 6)):
            code, report, _ = run_cli(capsys, "bench", "--width", "32", "--height", "32",
                                      "--filter", kernel, "--repeat", "1")
            assert (code, report["params"]["radius"]) == (0, radius)

    @pytest.mark.parametrize("flag", [["--eps", "0.1"], ["--lambda", "1"]])
    def test_removed_flag_is_usage_error(self, workdir, capsys, flag):
        # every filter runs at its own row's parameters
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--width", "8", "--height", "8", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_ssim_too_small_is_usage_error(self, workdir, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--width", "8", "--height", "64", "--filter", "ssim",
        )
        assert code == 2
        assert "too small for SSIM" in err

    def test_ssim_radius_is_usage_error(self, workdir, capsys):
        # SSIM's window is fixed: a radius would be dropped from the report
        code, _, err = run_cli(
            capsys, "bench", "--width", "32", "--height", "32", "--filter", "ssim", "--radius", "3",
        )
        assert code == 2
        assert "--radius does not apply to ssim" in err
