"""Command-line front end: one subcommand per filter or rolling scheme,
plus metrics, a timing benchmark and synthetic scene generation.

Images move through binary PNM (P5/P6). Color inputs are filtered per
channel; a color guidance image collapses to its channel average. Every
run prints a JSON report to stdout. Exit codes: 0 success, 2 usage error,
3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from . import synth
from .core import Boundary, Image, WindowSpec
from .boxops import box_sum
from .gf import gf, gf_roll
from .tvgf import tvgf, tvgf_roll
from .cgf import cgf_roll
from .igf import icgf, igf
from .rmsf import cgf_rmsf, gf_rmsf, naive_roll37
from .rfnf import rfnf_gen, rfnf_seo
from .metrics import mse, psnr_from_mse, ssim
from .imgio import PnmError, read_pnm_file, write_pnm_file

ITERATE_MAXVAL = 65535  # dumped iterates keep 16 bits to limit requantization

FILTER_DEFAULTS = {
    # mirrors the documented recommended settings per filter
    "gf": {"radius": 10, "eps": 0.1},
    "tvgf": {"radius": 10, "eps": 0.01, "lam": 45.0},
    "cgf": {"radius": 6, "eps": 0.001, "lam": 0.01},
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_io_args(sp, guidance=True, anchor=False):
    sp.add_argument("--input", required=True, help="input image (PGM/PPM)")
    if guidance:
        sp.add_argument("--guidance", help="guidance image; defaults to the input")
    if anchor:
        sp.add_argument("--anchor", help="anchor image g; defaults to the input")
    sp.add_argument("--output", required=True, help="output image path")
    sp.add_argument("--maxval", type=int, choices=(255, 65535), default=255)
    sp.add_argument("--dump-iterates", action="store_true",
                    help="also write every rolling iterate (16-bit)")
    sp.add_argument("--metrics-against", help="reference image to score the output against")
    sp.add_argument("--threads", type=_positive_int,
                    help="deprecated; accepted but has no effect")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gfkit",
        description="Guided-filter family, rolling schemes, metrics and benchmarks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gf", help="guided filter")
    _add_io_args(sp)
    sp.add_argument("--radius", type=_nonneg_int, default=FILTER_DEFAULTS["gf"]["radius"])
    sp.add_argument("--eps", type=_positive_float, default=FILTER_DEFAULTS["gf"]["eps"])
    sp.add_argument("--boundary", choices=("truncate", "periodic"), default="truncate")
    sp.add_argument("--iters", type=_positive_int, default=1)

    sp = sub.add_parser("tvgf", help="TV-regularized guided filter (periodic windows)")
    _add_io_args(sp)
    sp.add_argument("--radius", type=_nonneg_int, default=FILTER_DEFAULTS["tvgf"]["radius"])
    sp.add_argument("--eps", type=_positive_float, default=FILTER_DEFAULTS["tvgf"]["eps"])
    sp.add_argument("--lambda", dest="lam", type=_nonneg_float,
                    default=FILTER_DEFAULTS["tvgf"]["lam"])
    sp.add_argument("--iters", type=_positive_int, default=1)

    sp = sub.add_parser("cgf", help="conservative guided filter (anchored)")
    _add_io_args(sp, anchor=True)
    sp.add_argument("--radius", type=_nonneg_int, default=FILTER_DEFAULTS["cgf"]["radius"])
    sp.add_argument("--eps", type=_positive_float, default=FILTER_DEFAULTS["cgf"]["eps"])
    sp.add_argument("--lambda", dest="lam", type=_nonneg_float,
                    default=FILTER_DEFAULTS["cgf"]["lam"])
    sp.add_argument("--boundary", choices=("truncate", "periodic"), default="truncate")
    sp.add_argument("--iters", type=_positive_int, default=1)

    for name, anchored in (("igf", False), ("icgf", True)):
        sp = sub.add_parser(
            name,
            help=f"inverse guided filter{' with anchor' if anchored else ''}",
            description="Estimates a guidance-like image from a smoothed input. "
            "Standalone output is rarely visually meaningful; these exist mainly "
            "as the structure-restoring half of the rmsf schemes.",
        )
        _add_io_args(sp, anchor=anchored)
        sp.add_argument("--radius", type=_nonneg_int, default=6)
        sp.add_argument("--eps", type=_positive_float, default=0.01)
        if anchored:
            sp.add_argument("--lambda", dest="lam", type=_nonneg_float, default=0.01)
        sp.add_argument("--boundary", choices=("truncate", "periodic"), default="truncate")

    sp = sub.add_parser("rmsf-gf", help="mutual-structure rolling (plain pair)")
    _add_io_args(sp)
    sp.add_argument("--radius", type=_nonneg_int, default=6)
    sp.add_argument("--eps", type=_positive_float, default=0.01)
    sp.add_argument("--eps2", type=_positive_float, default=0.01)
    sp.add_argument("--boundary", choices=("truncate", "periodic"), default="truncate")
    sp.add_argument("--iters", type=_positive_int, default=5)
    sp.add_argument("--g-output", help="also write the filtered guidance track")

    sp = sub.add_parser("rmsf-cgf", help="mutual-structure rolling (anchored pair)")
    _add_io_args(sp)
    sp.add_argument("--radius", type=_nonneg_int, default=6)
    sp.add_argument("--eps", type=_positive_float, default=0.001)
    sp.add_argument("--eps2", type=_positive_float, default=0.001)
    sp.add_argument("--lambda", dest="lam", type=_nonneg_float, default=0.01)
    sp.add_argument("--beta", type=_nonneg_float, default=0.01)
    sp.add_argument("--boundary", choices=("truncate", "periodic"), default="truncate")
    sp.add_argument("--iters", type=_positive_int, default=5)
    sp.add_argument("--g-output", help="also write the filtered guidance track")

    sp = sub.add_parser("roll37", help="cross-guided rolling without inverse terms "
                                       "(documented failure baseline: wipes out detail)")
    _add_io_args(sp)
    sp.add_argument("--radius", type=_nonneg_int, default=6)
    sp.add_argument("--eps", type=_positive_float, default=0.01)
    sp.add_argument("--boundary", choices=("truncate", "periodic"), default="truncate")
    sp.add_argument("--iters", type=_positive_int, default=5)

    sp = sub.add_parser("rfnf-seo", help="flash/no-flash rolling, additive detail")
    _add_io_args(sp)
    sp.add_argument("--radius", type=_nonneg_int, default=10)
    sp.add_argument("--eps", type=_positive_float, default=0.1)
    sp.add_argument("--lambda", dest="lam", type=_nonneg_float, default=1.0)
    sp.add_argument("--boundary", choices=("truncate", "periodic"), default="truncate")
    sp.add_argument("--iters", type=_positive_int, default=5)

    sp = sub.add_parser("rfnf-gen", help="flash/no-flash rolling, anchored")
    _add_io_args(sp)
    sp.add_argument("--radius", type=_nonneg_int, default=10)
    sp.add_argument("--eps", type=_positive_float, default=0.1)
    sp.add_argument("--lambda", dest="lam", type=_nonneg_float, default=1.0)
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--boundary", choices=("truncate", "periodic"), default="truncate")
    sp.add_argument("--iters", type=_positive_int, default=5)

    sp = sub.add_parser("metrics", help="MSE / PSNR / SSIM between two images")
    sp.add_argument("--input", required=True)
    sp.add_argument("--metrics-against", required=True)

    sp = sub.add_parser("bench", help="wall-time benchmark on a synthetic image")
    sp.add_argument("--width", type=_positive_int, default=1000)
    sp.add_argument("--height", type=_positive_int, default=1000)
    sp.add_argument("--filter", choices=("box", "gf", "tvgf", "ssim"), default="gf",
                    help="kernel to time; ssim scores the image against the guide")
    sp.add_argument("--radius", type=_nonneg_int, default=10)
    sp.add_argument("--eps", type=_positive_float, default=0.1)
    sp.add_argument("--lambda", dest="lam", type=_nonneg_float, default=45.0)
    sp.add_argument("--repeat", type=_positive_int, default=5)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("synth", help="write deterministic synthetic test scenes")
    sp.add_argument("--kind", required=True,
                    choices=("noise", "piecewise", "texture", "flash-pair"))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--width", type=_positive_int, default=256)
    sp.add_argument("--height", type=_positive_int, default=256)
    sp.add_argument("--sigma", type=_nonneg_float, default=0.05)
    sp.add_argument("--output", required=True, help="output path or stem for pairs")

    return ap


def _load_channels(path) -> list[Image]:
    return read_pnm_file(path)


def _to_scalar_guidance(channels: list[Image]) -> Image:
    """Color guidance collapses to the channel average; gray passes through."""
    if len(channels) == 1:
        return channels[0]
    return sum(channels) / len(channels)


def _channel_info(path, channels):
    h, w = channels[0].shape
    return {"path": str(path), "width": w, "height": h, "channels": len(channels)}


def _metrics_report(out_channels, ref_channels):
    if len(out_channels) != len(ref_channels) or out_channels[0].shape != ref_channels[0].shape:
        raise ValueError("metrics reference does not match the output shape")
    vals_mse = [mse(a, b) for a, b in zip(out_channels, ref_channels)]
    vals_ssim = [ssim(a, b) for a, b in zip(out_channels, ref_channels)]
    mean_mse = float(np.mean(vals_mse))
    p = psnr_from_mse(mean_mse)
    return {"mse": mean_mse, "psnr_db": "inf" if p == math.inf else p,
            "ssim": float(np.mean(vals_ssim))}


def _iterate_paths(output_path: str, count: int) -> list[str]:
    stem, ext = os.path.splitext(output_path)
    return [f"{stem}_iter{n:03d}{ext}" for n in range(1, count + 1)]


def _run_filter_command(args) -> dict:
    in_channels = _load_channels(args.input)
    report_inputs = {"input": _channel_info(args.input, in_channels)}

    guidance_path = getattr(args, "guidance", None)
    if guidance_path:
        g_channels = _load_channels(guidance_path)
        guide = _to_scalar_guidance(g_channels)
        if guide.shape != in_channels[0].shape:
            raise ValueError("guidance shape does not match the input")
        report_inputs["guidance"] = _channel_info(guidance_path, g_channels)
        per_channel_guide = None
    else:
        guide = None  # self-guidance, per channel
        per_channel_guide = True

    anchor_path = getattr(args, "anchor", None)
    anchor_channels = None
    if args.command in ("cgf", "icgf"):
        if anchor_path:
            anchor_channels = _load_channels(anchor_path)
            if len(anchor_channels) not in (1, len(in_channels)):
                raise ValueError("anchor channel count does not match the input")
            if anchor_channels[0].shape != in_channels[0].shape:
                raise ValueError("anchor shape does not match the input")
            report_inputs["anchor"] = _channel_info(anchor_path, anchor_channels)
        else:
            anchor_channels = in_channels  # g defaults to the input

    boundary = Boundary.PERIODIC if args.command == "tvgf" else Boundary(
        getattr(args, "boundary", "truncate")
    )
    w = WindowSpec(radius=args.radius, boundary=boundary)

    def anchor_for(idx):
        if anchor_channels is None:
            return None
        return anchor_channels[idx if len(anchor_channels) > 1 else 0]

    out_channels = []
    g_track: list[Image] = []
    iterate_sets: list[list[Image]] = []
    for idx, chan in enumerate(in_channels):
        g = chan if per_channel_guide else guide
        iterates: list[Image] = []
        if args.command == "gf":
            iterates = gf_roll(chan, g, w, args.eps, args.iters)
        elif args.command == "tvgf":
            iterates = tvgf_roll(chan, g, w, args.eps, args.lam, args.iters)
        elif args.command == "cgf":
            iterates = cgf_roll(chan, g, anchor_for(idx), w, args.eps, args.lam, args.iters)
        elif args.command == "igf":
            iterates = [igf(chan, g, w, args.eps)]
        elif args.command == "icgf":
            iterates = [icgf(chan, g, anchor_for(idx), w, args.eps, args.lam)]
        elif args.command == "roll37":
            state = naive_roll37(chan, g, args.eps, w, args.iters)
            iterates = [state.q]
        elif args.command == "rmsf-gf":
            snaps = [] if args.dump_iterates else None
            state = gf_rmsf(chan, g, args.eps, args.eps2, w, args.iters, snapshots=snaps)
            iterates = [s.state.q for s in snaps] if snaps else [state.q]
            g_track.append(state.G)
        elif args.command == "rmsf-cgf":
            snaps = [] if args.dump_iterates else None
            state = cgf_rmsf(
                chan, g, args.eps, args.eps2, args.lam, args.beta, w, args.iters,
                snapshots=snaps,
            )
            iterates = [s.state.q for s in snaps] if snaps else [state.q]
            g_track.append(state.G)
        elif args.command == "rfnf-seo":
            iterates = [rfnf_seo(chan, g, w, args.eps, args.lam, args.iters)]
        elif args.command == "rfnf-gen":
            iterates = [rfnf_gen(chan, g, w, args.eps, args.lam, args.tau, args.iters)]
        else:
            raise ValueError(f"unhandled command {args.command}")
        out_channels.append(iterates[-1])
        iterate_sets.append(iterates)

    outputs = []
    write_pnm_file(args.output, out_channels, args.maxval)
    outputs.append(_channel_info(args.output, out_channels))

    if getattr(args, "g_output", None) and g_track:
        write_pnm_file(args.g_output, g_track, args.maxval)
        outputs.append(_channel_info(args.g_output, g_track))

    if args.dump_iterates and len(iterate_sets[0]) > 1:
        for n, path in enumerate(_iterate_paths(args.output, len(iterate_sets[0]))):
            write_pnm_file(path, [its[n] for its in iterate_sets], ITERATE_MAXVAL)
            outputs.append({"path": path, "width": out_channels[0].shape[1],
                            "height": out_channels[0].shape[0],
                            "channels": len(out_channels)})

    metrics_obj = None
    if args.metrics_against:
        ref_channels = _load_channels(args.metrics_against)
        report_inputs["metrics_against"] = _channel_info(args.metrics_against, ref_channels)
        metrics_obj = _metrics_report(out_channels, ref_channels)

    params = {
        k: getattr(args, k)
        for k in ("radius", "eps", "eps2", "lam", "beta", "tau", "iters", "maxval")
        if hasattr(args, k)
    }
    params["boundary"] = boundary.value
    return {"inputs": report_inputs, "outputs": outputs, "params": params,
            "metrics": metrics_obj}


def _run_metrics(args) -> dict:
    a = _load_channels(args.input)
    b = _load_channels(args.metrics_against)
    report = _metrics_report(a, b)
    return {
        "inputs": {
            "input": _channel_info(args.input, a),
            "metrics_against": _channel_info(args.metrics_against, b),
        },
        "outputs": [],
        "params": {},
        "metrics": report,
    }


def _run_bench(args) -> dict:
    img = synth.random_image(args.width, args.height, args.seed)
    guide = synth.random_image(args.width, args.height, args.seed + 1)
    if args.filter == "box":
        w = WindowSpec(args.radius, Boundary.TRUNCATE)
        task = lambda: box_sum(img, w)
    elif args.filter == "gf":
        w = WindowSpec(args.radius, Boundary.TRUNCATE)
        task = lambda: gf(img, guide, w, args.eps)
    elif args.filter == "tvgf":
        w = WindowSpec(args.radius, Boundary.PERIODIC)
        task = lambda: tvgf(img, guide, w, args.eps, args.lam)
    else:
        task = lambda: ssim(img, guide)
    task()  # warm-up pass
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        task()
        times.append(time.perf_counter() - t0)
    return {
        "inputs": {},
        "outputs": [],
        "params": {
            "filter": args.filter, "width": args.width, "height": args.height,
            "radius": args.radius, "eps": args.eps, "lam": args.lam,
            "repeat": args.repeat, "seed": args.seed,
        },
        "metrics": None,
        "timings_s": times,
        "median_s": statistics.median(times),
    }


def _run_synth(args) -> dict:
    outputs = []

    def emit(path, channels):
        write_pnm_file(path, channels, ITERATE_MAXVAL)
        outputs.append(_channel_info(path, channels))

    stem, ext = os.path.splitext(args.output)
    ext = ext or ".pgm"
    if args.kind == "piecewise":
        emit(stem + ext, [synth.piecewise(args.width, args.height, args.seed)])
    elif args.kind == "texture":
        emit(stem + ext, [synth.texture_scene(args.width, args.height, args.seed)])
    elif args.kind == "noise":
        clean, noisy = synth.noise_pair(args.width, args.height, args.seed, args.sigma)
        emit(f"{stem}_clean{ext}", [clean])
        emit(f"{stem}_noisy{ext}", [noisy])
    else:  # flash-pair
        flash, noflash = synth.flash_pair(args.width, args.height, args.seed)
        emit(f"{stem}_flash{ext}", [flash])
        emit(f"{stem}_noflash{ext}", [noflash])
    return {
        "inputs": {},
        "outputs": outputs,
        "params": {"kind": args.kind, "seed": args.seed, "width": args.width,
                   "height": args.height, "sigma": args.sigma},
        "metrics": None,
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None) is not None:
        print("gfkit: warning: --threads is deprecated and has no effect", file=sys.stderr)
    t0 = time.perf_counter()
    try:
        if args.command == "metrics":
            report = _run_metrics(args)
        elif args.command == "bench":
            report = _run_bench(args)
        elif args.command == "synth":
            report = _run_synth(args)
        else:
            report = _run_filter_command(args)
    except (PnmError, OSError) as exc:
        print(f"gfkit: error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"gfkit: usage error: {exc}", file=sys.stderr)
        return 2
    report["command"] = args.command
    report["wall_time_s"] = time.perf_counter() - t0
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
