"""Command-line front end: one subcommand per filter or rolling scheme,
plus metrics, a timing benchmark and synthetic scene generation.

Images move through binary PNM (P5/P6). Color inputs are filtered per
channel, and the channels stream: as soon as a channel's filter returns,
its outputs and dumped iterates become integer samples and its input
plane is freed. A color guidance image collapses to its channel average.
Every run prints a JSON report to stdout. Exit codes: 0 success, 2 usage
error, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import synth
from .core import Boundary, Image, WindowSpec
from .boxops import box_sum
from .gf import gf, gf_iterates, last_iterate
from .tvgf import tvgf, tvgf_iterates
from .cgf import cgf_iterates
from .igf import icgf, igf
from .rmsf import cgf_rmsf, gf_rmsf, naive_roll37
from .rfnf import rfnf_gen, rfnf_seo
from .metrics import mse, psnr_from_mse, ssim
from .imgio import PnmError, quantize, read_pnm_file, write_pnm_file

ITERATE_MAXVAL = 65535  # dumped iterates keep 16 bits to limit requantization


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
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


# dest -> (flag, add_argument keywords); --help lists the flags in this order
PARAM_FLAGS = {
    "radius": ("--radius", {"type": _nonneg_int}),
    "eps": ("--eps", {"type": _positive_float}),
    "eps2": ("--eps2", {"type": _positive_float}),
    "lam": ("--lambda", {"dest": "lam", "type": _nonneg_float}),
    "beta": ("--beta", {"type": _nonneg_float}),
    "tau": ("--tau", {"type": _finite_float}),
    "boundary": ("--boundary", {"choices": ("truncate", "periodic")}),
    "iters": ("--iters", {"type": _positive_int}),
}


@dataclass(frozen=True)
class FilterCommand:
    """One filter subcommand. ``params`` maps each parameter flag's dest to
    its default; a fixed ``boundary`` replaces the --boundary flag.
    ``run(channel, guide, anchor, w, args, dump)`` returns the output, or
    with ``g_output`` the final MutualState (q and the guidance track G).
    A rolling run appends each iterate to ``dump`` unless it is None."""

    help: str
    params: dict
    run: Callable
    anchor: bool = False
    g_output: bool = False
    boundary: Boundary | None = None
    description: str | None = None


class _Dump:
    """--dump-iterates sink: ``append`` keeps an iterate only as its 16-bit
    samples, 2 bytes a sample instead of 8."""

    def __init__(self, name: str):
        self.name = name
        self.planes: list[np.ndarray] = []

    def append(self, image: Image) -> None:
        self.planes.append(quantize(image, ITERATE_MAXVAL, self.name))


def _last(iterates: Iterator[Image], iters: int, dump: _Dump | None) -> Image:
    """A roll's output; every iterate also goes to ``dump`` if given, as
    soon as the roll yields it, and one float iterate is held at a time."""
    return last_iterate(iterates, iters, None if dump is None else dump.append)


def _mutual(scheme, *args, dump: _Dump | None):
    """An rmsf run whose snapshots pass only their q on to ``dump``, so each
    snapshot's G and coefficient planes are freed at once."""
    sink = None if dump is None else SimpleNamespace(append=lambda snap: dump.append(snap.state.q))
    return scheme(*args, snapshots=sink)


_INVERSE = (
    "Estimates a guidance-like image from a smoothed input. "
    "Standalone output is rarely visually meaningful; these exist mainly "
    "as the structure-restoring half of the rmsf schemes."
)

# the defaults mirror the documented recommended settings per filter
FILTER_COMMANDS = {
    "gf": FilterCommand(
        "guided filter", {"radius": 10, "eps": 0.1, "iters": 1},
        lambda x, g, anchor, w, a, dump: _last(
            gf_iterates(x, g, w, a.eps, a.iters), a.iters, dump)),
    "tvgf": FilterCommand(
        "TV-regularized guided filter (periodic windows)",
        {"radius": 10, "eps": 0.01, "lam": 45.0, "iters": 1},
        lambda x, g, anchor, w, a, dump: _last(
            tvgf_iterates(x, g, w, a.eps, a.lam, a.iters), a.iters, dump),
        boundary=Boundary.PERIODIC),
    "cgf": FilterCommand(
        "conservative guided filter (anchored)",
        {"radius": 6, "eps": 0.001, "lam": 0.01, "iters": 1},
        lambda x, g, anchor, w, a, dump: _last(
            cgf_iterates(x, g, anchor, w, a.eps, a.lam, a.iters), a.iters, dump),
        anchor=True),
    "igf": FilterCommand(
        "inverse guided filter", {"radius": 6, "eps": 0.01},
        lambda x, g, anchor, w, a, dump: igf(x, g, w, a.eps), description=_INVERSE),
    "icgf": FilterCommand(
        "inverse guided filter with anchor", {"radius": 6, "eps": 0.01, "lam": 0.01},
        lambda x, g, anchor, w, a, dump: icgf(x, g, anchor, w, a.eps, a.lam),
        anchor=True, description=_INVERSE),
    "rmsf-gf": FilterCommand(
        "mutual-structure rolling (plain pair)",
        {"radius": 6, "eps": 0.01, "eps2": 0.01, "iters": 5},
        lambda x, g, anchor, w, a, dump: _mutual(
            gf_rmsf, x, g, a.eps, a.eps2, w, a.iters, dump=dump),
        g_output=True),
    "rmsf-cgf": FilterCommand(
        "mutual-structure rolling (anchored pair)",
        {"radius": 6, "eps": 0.001, "eps2": 0.001, "lam": 0.01, "beta": 0.01, "iters": 5},
        lambda x, g, anchor, w, a, dump: _mutual(
            cgf_rmsf, x, g, a.eps, a.eps2, a.lam, a.beta, w, a.iters, dump=dump),
        g_output=True),
    "roll37": FilterCommand(
        "cross-guided rolling without inverse terms "
        "(documented failure baseline: wipes out detail)",
        {"radius": 6, "eps": 0.01, "iters": 5},
        lambda x, g, anchor, w, a, dump: naive_roll37(x, g, a.eps, w, a.iters).q),
    "rfnf-seo": FilterCommand(
        "flash/no-flash rolling, additive detail",
        {"radius": 10, "eps": 0.1, "lam": 1.0, "iters": 5},
        lambda x, g, anchor, w, a, dump: rfnf_seo(x, g, w, a.eps, a.lam, a.iters)),
    "rfnf-gen": FilterCommand(
        "flash/no-flash rolling, anchored",
        {"radius": 10, "eps": 0.1, "lam": 1.0, "tau": 1.0, "iters": 5},
        lambda x, g, anchor, w, a, dump: rfnf_gen(x, g, w, a.eps, a.lam, a.tau, a.iters)),
}


def _add_filter_parser(sub, name: str, cmd: FilterCommand) -> None:
    sp = sub.add_parser(name, help=cmd.help, description=cmd.description)
    sp.add_argument("--input", required=True, help="input image (PGM/PPM)")
    sp.add_argument("--guidance", help="guidance image; defaults to the input")
    if cmd.anchor:
        sp.add_argument("--anchor", help="anchor image g; defaults to the input")
    sp.add_argument("--output", required=True, help="output image path")
    sp.add_argument("--maxval", type=int, choices=(255, 65535), default=255)
    sp.add_argument("--dump-iterates", action="store_true",
                    help="also write every rolling iterate (16-bit)")
    sp.add_argument("--metrics-against", help="reference image to score the output against")
    sp.add_argument("--threads", type=_positive_int,
                    help="deprecated; accepted but has no effect")
    params = dict(cmd.params)
    if cmd.boundary is None:
        params["boundary"] = "truncate"
    for dest, (flag, kwargs) in PARAM_FLAGS.items():
        if dest in params:
            sp.add_argument(flag, default=params[dest], **kwargs)
    if cmd.g_output:
        sp.add_argument("--g-output", help="also write the filtered guidance track")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gfkit",
        description="Guided-filter family, rolling schemes, metrics and benchmarks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in FILTER_COMMANDS.items():
        _add_filter_parser(sub, name, cmd)

    sp = sub.add_parser("metrics", help="MSE / PSNR / SSIM between two images")
    sp.add_argument("--input", required=True)
    sp.add_argument("--metrics-against", required=True)

    sp = sub.add_parser("bench", help="wall-time benchmark on a synthetic image")
    sp.add_argument("--width", type=_positive_int, default=1000)
    sp.add_argument("--height", type=_positive_int, default=1000)
    sp.add_argument("--filter", choices=("box", "gf", "tvgf", "ssim", *BENCH_ROLLING),
                    default="gf",
                    help="kernel to time; ssim scores the image against the guide, "
                         f"the rolling schemes run {BENCH_ITERS} iterations")
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


def _load_guidance(path) -> tuple[Image, dict]:
    """The scalar guide: a color guidance image collapses to its channel
    average, a gray one passes through."""
    channels = _load_channels(path)
    guide = channels[0] if len(channels) == 1 else sum(channels) / len(channels)
    return guide, _channel_info(path, channels)


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


@dataclass
class _Channel:
    """One filtered channel, held only as the outputs need it."""

    # the float output when --metrics-against scores it (write_pnm then
    # quantizes it), else its samples at --maxval
    out: np.ndarray
    g: np.ndarray | None  # guidance-track samples, for --g-output
    dumps: list[np.ndarray]  # every iterate's 16-bit samples, for --dump-iterates


def _take(planes: list, idx: int) -> Image:
    """planes[idx], dropping the list's hold on it so that the plane is
    freed as soon as its filter lets go of it."""
    plane, planes[idx] = planes[idx], None
    return plane


def _filter_channel(cmd, args, w, idx, chan, guide, anchors) -> _Channel:
    """Filters one channel and quantizes what it outputs at once; the float
    iterates die here, apart from the output when metrics score it.

    Quantizing that kept output too would add a small long-lived plane
    between the rolls' large ones; on a 1080p RGB ``cgf --iters 3`` run
    with dumps and metrics that fragmented the heap enough to raise peak
    RSS from 262 to 278 MB."""
    if anchors is None:
        anchor = chan  # g defaults to the input
    else:
        anchor = anchors[0] if len(anchors) == 1 else _take(anchors, idx)
    name = f"channel {idx}"
    dump = _Dump(name) if args.dump_iterates else None
    result = cmd.run(chan, chan if guide is None else guide, anchor, w, args, dump)
    final, G = (result.q, result.G) if cmd.g_output else (result, None)
    return _Channel(
        out=final if args.metrics_against else quantize(final, args.maxval, name),
        g=quantize(G, args.maxval, name) if G is not None and args.g_output else None,
        dumps=[] if dump is None else dump.planes,
    )


def _run_filter_command(args) -> dict:
    in_channels = _load_channels(args.input)
    report_inputs = {"input": _channel_info(args.input, in_channels)}
    shape = in_channels[0].shape

    guide = None  # self-guidance, per channel
    if args.guidance:
        guide, report_inputs["guidance"] = _load_guidance(args.guidance)
        if guide.shape != shape:
            raise ValueError("guidance shape does not match the input")

    cmd = FILTER_COMMANDS[args.command]
    anchors = None  # the anchor is the input itself, or unused
    if cmd.anchor and args.anchor:
        anchors = _load_channels(args.anchor)
        if len(anchors) not in (1, len(in_channels)):
            raise ValueError("anchor channel count does not match the input")
        if anchors[0].shape != shape:
            raise ValueError("anchor shape does not match the input")
        report_inputs["anchor"] = _channel_info(args.anchor, anchors)

    boundary = cmd.boundary or Boundary(args.boundary)
    w = WindowSpec(radius=args.radius, boundary=boundary)
    done = [
        _filter_channel(cmd, args, w, idx, _take(in_channels, idx), guide, anchors)
        for idx in range(len(in_channels))
    ]

    outputs = []

    def emit(path, planes, maxval):
        write_pnm_file(path, planes, maxval)
        outputs.append(_channel_info(path, planes))

    emit(args.output, [c.out for c in done], args.maxval)
    if cmd.g_output and args.g_output:
        emit(args.g_output, [c.g for c in done], args.maxval)
    dumped = len(done[0].dumps)
    if dumped > 1:
        for n, path in enumerate(_iterate_paths(args.output, dumped)):
            emit(path, [c.dumps[n] for c in done], ITERATE_MAXVAL)

    metrics_obj = None
    if args.metrics_against:
        ref_channels = _load_channels(args.metrics_against)
        report_inputs["metrics_against"] = _channel_info(args.metrics_against, ref_channels)
        metrics_obj = _metrics_report([c.out for c in done], ref_channels)

    params = {k: getattr(args, k) for k in cmd.params}
    params["maxval"] = args.maxval
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


# rolling schemes are timed at a fixed iteration count
BENCH_ITERS = 3
BENCH_ROLLING = ("rmsf-gf", "rmsf-cgf", "rfnf-gen")


def _bench_task(args) -> Callable[[], object]:
    """The call ``bench`` times. The rolling schemes take --eps for both
    fits, --lambda for both anchors and tau = 1."""
    img = synth.random_image(args.width, args.height, args.seed)
    guide = synth.random_image(args.width, args.height, args.seed + 1)
    trunc = WindowSpec(args.radius, Boundary.TRUNCATE)
    periodic = WindowSpec(args.radius, Boundary.PERIODIC)
    eps, lam = args.eps, args.lam
    return {
        "box": lambda: box_sum(img, trunc),
        "gf": lambda: gf(img, guide, trunc, eps),
        "tvgf": lambda: tvgf(img, guide, periodic, eps, lam),
        "ssim": lambda: ssim(img, guide),
        "rmsf-gf": lambda: gf_rmsf(img, guide, eps, eps, trunc, BENCH_ITERS),
        "rmsf-cgf": lambda: cgf_rmsf(img, guide, eps, eps, lam, lam, trunc, BENCH_ITERS),
        "rfnf-gen": lambda: rfnf_gen(img, guide, trunc, eps, lam, 1.0, BENCH_ITERS),
    }[args.filter]


def _run_bench(args) -> dict:
    task = _bench_task(args)
    task()  # warm-up pass
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        task()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()  # one more call, untimed, for its allocation peak
    try:
        task()
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "inputs": {},
        "outputs": [],
        "params": {
            "filter": args.filter, "width": args.width, "height": args.height,
            "radius": args.radius, "eps": args.eps, "lam": args.lam,
            "repeat": args.repeat, "seed": args.seed,
            **({"iters": BENCH_ITERS} if args.filter in BENCH_ROLLING else {}),
        },
        "metrics": None,
        "timings_s": times,
        "median_s": statistics.median(times),
        "peak_mb": peak_bytes / 1e6,
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
