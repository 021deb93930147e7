"""Command-line front end: one subcommand per filter or rolling scheme,
plus metrics, a timing benchmark and synthetic scene generation.

Images move through binary PNM (P5/P6). Color inputs are filtered per
channel, and the channels stream: as soon as a channel's filter returns,
its outputs and dumped iterates become integer samples and its input
plane is freed. A color guidance image collapses to its channel average.
Every run prints a JSON report to stdout. Exit codes: 0 success, 2 usage
error, 3 I/O or parse error, 4 out of memory.
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
from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from . import synth
from .core import Boundary, Image, WindowSpec, require_params
from .boxops import box_sum, worker_count
# the streams of the FILTER_COMMANDS rows, which call each by its name here
# when they run, so that a binding patched on this module takes effect
from .gf import gf_iterates, last_iterate
from .tvgf import tvgf_iterates
from .cgf import cgf_iterates
from .igf import icgf, igf
from .rmsf import cgf_rmsf_iterates, gf_rmsf_iterates, naive_roll37_iterates
from .rfnf import rfnf_gen_iterates, rfnf_seo_iterates
from .metrics import SSIM_WINDOW, mse, psnr_from_mse, ssim
from .imgio import PnmError, quantize, read_pnm_file, write_pnm_file

ITERATE_MAXVAL = 65535  # dumped iterates keep 16 bits to limit requantization


def _param(key: str, parse=float):
    """argparse type of a parameter flag: the text through ``parse``, then
    held to ``core.require_params``'s rule for ``key``, whose message the
    usage error carries."""
    def convert(text: str):
        value = parse(text)
        try:
            require_params(**{key: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = parse.__name__  # argparse: "invalid float value: 'x'"
    return convert


# parameter -> (flag, add_argument keywords); --help lists the flags in this order
PARAM_FLAGS = {
    "radius": ("--radius", {"type": _param("radius", int)}),
    "eps": ("--eps", {"type": _param("eps")}),
    "eps2": ("--eps2", {"type": _param("eps2")}),
    "lam": ("--lambda", {"dest": "lam", "type": _param("lam")}),
    "gain": ("--lambda", {"dest": "lam", "type": _param("gain")}),  # rfnf-seo: either sign
    "beta": ("--beta", {"type": _param("beta")}),
    "tau": ("--tau", {"type": _param("tau")}),
    "boundary": ("--boundary", {"choices": ("truncate", "periodic")}),
    "iters": ("--iters", {"type": _param("iters", int)}),
}


@dataclass(frozen=True)
class FilterCommand:
    """One filter subcommand. ``params`` maps each of its ``PARAM_FLAGS``
    keys to its default; a fixed ``boundary`` replaces the --boundary flag.
    ``stream`` names the library function the command runs, which takes
    each parameter but the radius by its flag's dest, and g, the anchor,
    with ``anchor``. With ``g_output`` every iterate is a MutualState (q
    and the guidance track G)."""

    help: str
    params: dict
    stream: str
    anchor: bool = False
    g_output: bool = False
    boundary: Boundary | None = None
    description: str | None = None

    def run(self, x: Image, guide: Image, anchor: Image, w: WindowSpec, args):
        """A stream of the filter's iterates that returns its output, the
        last of them: one per pass of a rolling scheme (a command with
        --iters, which alone takes --dump-iterates), else just the output."""
        values = {_dest(key): getattr(args, _dest(key)) for key in self.params if key != "radius"}
        if self.anchor:
            values["g"] = anchor
        result = globals()[self.stream](x, guide, w=w, **values)
        return result if "iters" in self.params else _one_pass(result)


_INVERSE = (
    "Estimates a guidance-like image from a smoothed input. "
    "Standalone output is rarely visually meaningful; these exist mainly "
    "as the structure-restoring half of the rmsf schemes."
)


def _one_pass(output: Image) -> Generator[Image, None, Image]:
    """A single-pass filter's output as a stream of one iterate."""
    yield output
    return output


# the defaults mirror the documented recommended settings per filter
FILTER_COMMANDS = {
    "gf": FilterCommand("guided filter", {"radius": 10, "eps": 0.1, "iters": 1}, "gf_iterates"),
    "tvgf": FilterCommand(
        "TV-regularized guided filter (periodic windows)",
        {"radius": 10, "eps": 0.01, "lam": 45.0, "iters": 1}, "tvgf_iterates",
        boundary=Boundary.PERIODIC),
    "cgf": FilterCommand(
        "conservative guided filter (anchored)",
        {"radius": 6, "eps": 0.001, "lam": 0.01, "iters": 1}, "cgf_iterates", anchor=True),
    "igf": FilterCommand(
        "inverse guided filter", {"radius": 6, "eps": 0.01}, "igf", description=_INVERSE),
    "icgf": FilterCommand(
        "inverse guided filter with anchor", {"radius": 6, "eps": 0.01, "lam": 0.01}, "icgf",
        anchor=True, description=_INVERSE),
    "rmsf-gf": FilterCommand(
        "mutual-structure rolling (plain pair)",
        {"radius": 6, "eps": 0.01, "eps2": 0.01, "iters": 5}, "gf_rmsf_iterates",
        g_output=True),
    "rmsf-cgf": FilterCommand(
        "mutual-structure rolling (anchored pair)",
        {"radius": 6, "eps": 0.001, "eps2": 0.001, "lam": 0.01, "beta": 0.01, "iters": 5},
        "cgf_rmsf_iterates", g_output=True),
    "roll37": FilterCommand(
        "cross-guided rolling without inverse terms "
        "(documented failure baseline: wipes out detail)",
        {"radius": 6, "eps": 0.01, "iters": 5}, "naive_roll37_iterates", g_output=True),
    "rfnf-seo": FilterCommand(
        "flash/no-flash rolling, additive detail",
        {"radius": 10, "eps": 0.1, "gain": 1.0, "iters": 5}, "rfnf_seo_iterates"),
    "rfnf-gen": FilterCommand(
        "flash/no-flash rolling, anchored",
        {"radius": 10, "eps": 0.1, "lam": 1.0, "tau": 1.0, "iters": 5}, "rfnf_gen_iterates"),
}


def _dest(key: str) -> str:
    """The args attribute that a PARAM_FLAGS key's flag sets."""
    return PARAM_FLAGS[key][1].get("dest", key)


def _flag_defaults(cmd: FilterCommand) -> dict:
    """Each of the command's PARAM_FLAGS keys with its default."""
    return cmd.params if cmd.boundary else {**cmd.params, "boundary": "truncate"}


def _filter_params(cmd: FilterCommand, args, w: WindowSpec) -> dict:
    """The parameters a filter run reports: its flags' values and boundary."""
    params = {_dest(key): getattr(args, _dest(key)) for key in cmd.params}
    params["boundary"] = w.boundary.value
    return params


def _add_filter_parser(sub, name: str, cmd: FilterCommand) -> None:
    sp = sub.add_parser(name, help=cmd.help, description=cmd.description)
    sp.add_argument("--input", required=True, help="input image (PGM/PPM)")
    sp.add_argument("--guidance", help="guidance image; defaults to the input")
    if cmd.anchor:
        sp.add_argument("--anchor", help="anchor image g; defaults to the input")
    sp.add_argument("--output", required=True, help="output image path")
    sp.add_argument("--maxval", type=int, choices=(255, 65535), default=255)
    if "iters" in cmd.params:
        sp.add_argument("--dump-iterates", action="store_true",
                        help="also write every rolling iterate (16-bit)")
    sp.add_argument("--metrics-against", help="reference image to score the output against")
    defaults = _flag_defaults(cmd)
    for key, (flag, kwargs) in PARAM_FLAGS.items():
        if key in defaults:
            sp.add_argument(flag, default=defaults[key], **kwargs)
    if cmd.g_output:
        sp.add_argument("--g-output", help="also write the filtered guidance track")
    sp.set_defaults(handler=lambda args: _run_filter_command(cmd, args))


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
    sp.set_defaults(handler=_run_metrics)

    sp = sub.add_parser("bench", help="wall-time benchmark on a synthetic image")
    sp.add_argument("--width", type=_param("width", int), default=1000)
    sp.add_argument("--height", type=_param("height", int), default=1000)
    sp.add_argument("--filter", choices=("box", "ssim", *FILTER_COMMANDS), default="gf",
                    help="kernel to time; ssim scores the image against the guide, "
                         "a filter command runs at its own defaults")
    sp.add_argument("--radius", type=_param("radius", int),
                    help="window radius; defaults to the filter's own (box: 10)")
    sp.add_argument("--repeat", type=_param("repeat", int), default=5)
    sp.add_argument("--seed", type=_param("seed", int), default=0)
    sp.set_defaults(handler=_run_bench)

    sp = sub.add_parser("synth", help="write deterministic synthetic test scenes")
    sp.add_argument("--kind", required=True, choices=tuple(SYNTH_KINDS))
    sp.add_argument("--seed", type=_param("seed", int), default=0)
    sp.add_argument("--width", type=_param("width", int), default=256)
    sp.add_argument("--height", type=_param("height", int), default=256)
    sp.add_argument("--sigma", type=_param("sigma"),
                    help="noise level of a kind that adds noise; defaults to the kind's own")
    sp.add_argument("--output", required=True, help="output path or stem for pairs")
    sp.set_defaults(handler=_run_synth)

    return ap


def _load_guidance(path) -> tuple[Image, dict]:
    """The scalar guide: a color guidance image collapses to its channel
    average, a gray one passes through."""
    channels = read_pnm_file(path)
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
    dumps: list[np.ndarray] = []

    def dump(iterate) -> None:  # keeps an iterate's q only as its 16-bit samples
        dumps.append(quantize(iterate.q if cmd.g_output else iterate, ITERATE_MAXVAL, name))

    final = last_iterate(
        cmd.run(chan, chan if guide is None else guide, anchor, w, args),
        dump if getattr(args, "dump_iterates", False) else None,
    )
    final, G = (final.q, final.G) if cmd.g_output else (final, None)
    return _Channel(
        out=final if args.metrics_against else quantize(final, args.maxval, name),
        g=quantize(G, args.maxval, name) if G is not None and args.g_output else None,
        dumps=dumps,
    )


def _run_filter_command(cmd: FilterCommand, args) -> dict:
    in_channels = read_pnm_file(args.input)
    report_inputs = {"input": _channel_info(args.input, in_channels)}
    shape = args.input_shape = in_channels[0].shape

    guide = None  # self-guidance, per channel
    if args.guidance:
        guide, report_inputs["guidance"] = _load_guidance(args.guidance)
        if guide.shape != shape:
            raise ValueError("guidance shape does not match the input")

    anchors = None  # the anchor is the input itself, or unused
    if cmd.anchor and args.anchor:
        anchors = read_pnm_file(args.anchor)
        if len(anchors) not in (1, len(in_channels)):
            raise ValueError("anchor channel count does not match the input")
        if anchors[0].shape != shape:
            raise ValueError("anchor shape does not match the input")
        report_inputs["anchor"] = _channel_info(args.anchor, anchors)

    w = WindowSpec(args.radius, cmd.boundary or args.boundary)
    done = [
        _filter_channel(cmd, args, w, idx, _take(in_channels, idx), guide, anchors)
        for idx in range(len(in_channels))
    ]

    metrics_obj = None
    if args.metrics_against:  # scored before any write: a bad reference leaves no file
        ref_channels = read_pnm_file(args.metrics_against)
        report_inputs["metrics_against"] = _channel_info(args.metrics_against, ref_channels)
        metrics_obj = _metrics_report([c.out for c in done], ref_channels)

    outputs = []

    def emit(path, planes, maxval):
        write_pnm_file(path, planes, maxval)
        outputs.append(_channel_info(path, planes))

    emit(args.output, [c.out for c in done], args.maxval)
    if cmd.g_output and args.g_output:
        emit(args.g_output, [c.g for c in done], args.maxval)
    for n, path in enumerate(_iterate_paths(args.output, len(done[0].dumps))):
        emit(path, [c.dumps[n] for c in done], ITERATE_MAXVAL)

    return {"inputs": report_inputs, "outputs": outputs, "metrics": metrics_obj,
            "params": {**_filter_params(cmd, args, w), "maxval": args.maxval}}


def _run_metrics(args) -> dict:
    a = read_pnm_file(args.input)
    args.input_shape = a[0].shape
    b = read_pnm_file(args.metrics_against)
    inputs = {"input": _channel_info(args.input, a),
              "metrics_against": _channel_info(args.metrics_against, b)}
    return {"inputs": inputs, "metrics": _metrics_report(a, b)}


def _bench_task(args) -> tuple[Callable[[], object], dict]:
    """The call ``bench`` times and the parameters it reports. A filter
    command runs its row at the row's defaults, as one channel of the
    subcommand does without --guidance and --anchor: the synthetic image is
    input, guide and anchor. ``ssim`` compares it with a second image."""
    img = synth.random_image(args.width, args.height, args.seed)
    if args.filter == "ssim":
        if args.radius is not None:
            raise ValueError("--radius does not apply to ssim, whose window is a fixed "
                             f"{SSIM_WINDOW}x{SSIM_WINDOW}")
        other = synth.random_image(args.width, args.height, args.seed + 1)
        return lambda: ssim(img, other), {}
    if args.filter == "box":
        w = WindowSpec(10 if args.radius is None else args.radius)
        return lambda: box_sum(img, w), {"radius": w.radius}
    cmd = FILTER_COMMANDS[args.filter]
    row = argparse.Namespace(**{_dest(k): v for k, v in _flag_defaults(cmd).items()})
    row.radius = row.radius if args.radius is None else args.radius
    w = WindowSpec(row.radius, cmd.boundary or row.boundary)
    return lambda: last_iterate(cmd.run(img, img, img, w, row)), _filter_params(cmd, row, w)


def _run_bench(args) -> dict:
    task, params = _bench_task(args)
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
        "params": {"filter": args.filter, "width": args.width, "height": args.height,
                   "repeat": args.repeat, "seed": args.seed, "workers": worker_count(),
                   **params},
        "timings_s": times,
        "median_s": statistics.median(times),
        "peak_mb": peak_bytes / 1e6,
    }


# --kind -> (the scene's planes from the parsed args and a noise level, one
# file suffix per plane, the kind's default noise level or None if it adds none)
SYNTH_KINDS = {
    "noise": (lambda a, sigma: synth.noise_pair(a.width, a.height, a.seed, sigma),
              ("_clean", "_noisy"), 0.05),
    "piecewise": (lambda a, _: [synth.piecewise(a.width, a.height, a.seed)], ("",), None),
    "texture": (lambda a, _: [synth.texture_scene(a.width, a.height, a.seed)], ("",), None),
    "flash-pair": (lambda a, sigma: synth.flash_pair(a.width, a.height, a.seed, sigma),
                   ("_flash", "_noflash"), 0.03),
}


def _run_synth(args) -> dict:
    make, suffixes, level = SYNTH_KINDS[args.kind]
    if level is None and args.sigma is not None:
        raise ValueError(f"--sigma does not apply to {args.kind}, which adds no noise")
    sigma = level if args.sigma is None else args.sigma
    stem, ext = os.path.splitext(args.output)
    outputs = []
    for suffix, plane in zip(suffixes, make(args, sigma)):
        path = f"{stem}{suffix}{ext or '.pgm'}"
        write_pnm_file(path, [plane], ITERATE_MAXVAL)
        outputs.append(_channel_info(path, [plane]))
    return {
        "outputs": outputs,
        "params": {"kind": args.kind, "seed": args.seed, "width": args.width,
                   "height": args.height, "sigma": sigma},
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    report = {"inputs": {}, "outputs": [], "params": {}, "metrics": None}
    try:
        report.update(args.handler(args))
    except (PnmError, OSError) as exc:
        print(f"gfkit: error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"gfkit: usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # named with the input's size if the handler has read it
        h, w = getattr(args, "input_shape", (None, None))
        of = "" if h is None else f" on a {w}x{h} input"
        print(f"gfkit: error: out of memory in {args.command}{of}", file=sys.stderr)
        return 4
    report["command"] = args.command
    report["wall_time_s"] = time.perf_counter() - t0
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
