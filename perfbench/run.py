#!/usr/bin/env python3
"""gfkit benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload oneshot-1mp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The library is imported from ``src/``
of that checkout and nowhere else. One client sends a request only after
the previous one has finished, so nothing queues and no layer waits.
``--seconds`` is the busy time measured; a request is not started once
the measured time plus the median request so far would pass it.

stdout ends with two JSON lines: a detail record (environment, sample
counts, tail percentile, failed fraction and, when traced, every span)
and the result line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics, per
request. See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SCHEMA = ROOT / "docs" / "report.schema.json"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gfkit, gfkit.cli; "
    "print(time.perf_counter() - t)"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def lib(mod: str, name: str):
    """Look the function up at call time, so a running tracer sees the call."""
    return getattr(sys.modules[f"gfkit.{mod}"], name)


def load_gfkit():
    """Import gfkit from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import gfkit  # noqa: F401
        import gfkit.cli  # noqa: F401
        import gfkit.synth  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import gfkit from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    found = Path(sys.modules["gfkit"].__file__).resolve().parent
    if found != SRC / "gfkit":
        print(f"perfbench: gfkit was imported from {found}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Time a fresh interpreter takes to import gfkit and gfkit.cli."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout)


def window(r: int, periodic: bool = False):
    core = sys.modules["gfkit.core"]
    return core.WindowSpec(r, core.Boundary.PERIODIC if periodic else core.Boundary.TRUNCATE)


class Oneshot:
    """gf, cgf, tvgf, igf and icgf once each on a 1000x1000 noisy scene,
    with the CLI's default parameters."""

    name = "oneshot-1mp"
    ops = 5
    in_process = True

    def __init__(self, seed: int):
        _, self.noisy = lib("synth", "noise_pair")(1000, 1000, seed)
        self.shape = self.noisy.shape
        self.mpx = self.ops * self.noisy.size / 1e6
        self.plane_bytes = self.noisy.nbytes

    def run(self):
        x = self.noisy
        return {
            "gf": lib("gf", "gf")(x, x, window(10), 0.1),
            "cgf": lib("cgf", "cgf")(x, x, x, window(6), 0.001, 0.01),
            "tvgf": lib("tvgf", "tvgf")(x, x, window(10, periodic=True), 0.01, 45.0),
            "igf": lib("igf", "igf")(x, x, window(6), 0.01),
            "icgf": lib("igf", "icgf")(x, x, x, window(6), 0.01, 0.01),
        }

    def check(self, out, rng) -> int:
        x = self.noisy
        oracles = {
            "gf": (10, lambda y, i: abs(out["gf"][y, i] - checks.oracle_gf(x, x, y, i, 10, 0.1))),
            "cgf": (6, lambda y, i: abs(out["cgf"][y, i] - checks.oracle_cgf(x, x, x, y, i, 6, 0.001, 0.01))),
            "tvgf": (10, lambda y, i: checks.tvgf_residual(out["tvgf"], x, x, y, i, 10, 0.01, 45.0)),
            "igf": (6, lambda y, i: abs(out["igf"][y, i] - checks.oracle_igf(x, x, y, i, 6, 0.01))),
            "icgf": (6, lambda y, i: abs(out["icgf"][y, i] - checks.oracle_icgf(x, x, x, y, i, 6, 0.01, 0.01))),
        }
        failed = 0
        for key, (r, err) in oracles.items():
            ok = checks.finite_with_shape(out[key], self.shape) and all(
                err(y, i) <= checks.ORACLE_TOL for y, i in checks.sample_pixels(rng, self.shape, r)
            )
            failed += not ok
        return failed


class Rolling:
    """gf_rmsf and cgf_rmsf for 3 iterations each, then rfnf_gen for 5, on a
    1000x1000 flash/no-flash pair, with the CLI's default parameters."""

    name = "rolling-1mp"
    ops = 3
    in_process = True

    def __init__(self, seed: int):
        self.flash, self.noflash = lib("synth", "flash_pair")(1000, 1000, seed)
        self.shape = self.flash.shape
        self.mpx = self.ops * self.flash.size / 1e6
        self.plane_bytes = self.flash.nbytes

    def run(self):
        p, g = self.noflash, self.flash
        return {
            "gf_rmsf": lib("rmsf", "gf_rmsf")(p, g, 0.01, 0.01, window(6), 3),
            "cgf_rmsf": lib("rmsf", "cgf_rmsf")(p, g, 0.001, 0.001, 0.01, 0.01, window(6), 3),
            "rfnf_gen": lib("rfnf", "rfnf_gen")(p, g, window(10), 0.1, 1.0, 1.0, 5),
        }

    def check(self, out, rng) -> int:
        failed = 0
        for key in ("gf_rmsf", "cgf_rmsf"):
            state = out[key]
            ok = (
                state.iteration == 3
                and checks.finite_with_shape(state.q, self.shape)
                and checks.finite_with_shape(state.G, self.shape)
            )
            failed += not ok
        failed += not checks.finite_with_shape(out["rfnf_gen"], self.shape)
        return failed


class CliRgb:
    """`gfkit cgf --iters 3 --dump-iterates --metrics-against <clean>` on a
    1920x1080 8-bit RGB PPM, in a fresh process per request."""

    name = "cli-rgb-1080p"
    ops = 1
    in_process = False
    width, height = 1920, 1080

    def __init__(self, seed: int):
        noise_pair = lib("synth", "noise_pair")
        pairs = [noise_pair(self.width, self.height, 3 * seed + c) for c in range(3)]
        clean, noisy = WORK / "clean.ppm", WORK / "noisy.ppm"
        write_ppm(clean, [c for c, _ in pairs])
        write_ppm(noisy, [n for _, n in pairs])
        out = WORK / "out.ppm"
        self.argv = [
            "cgf", "--input", str(noisy), "--output", str(out), "--iters", "3",
            "--dump-iterates", "--metrics-against", str(clean),
        ]
        self.expected = [(out, 255)] + [(WORK / f"out_iter{n:03d}.ppm", 65535) for n in (1, 2, 3)]
        self.schema = json.loads(SCHEMA.read_text())
        self.mpx = 3 * self.width * self.height / 1e6
        self.plane_bytes = self.width * self.height * 8
        self.child_rss_mb: list[float] = []

    def run(self):
        """Fresh process per request; peak RSS of the child from wait4."""
        with open(WORK / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "gfkit.cli", *self.argv],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
        self.child_rss_mb.append(usage.ru_maxrss / 1024)
        return proc.returncode, stdout.decode()

    def run_in_process(self):
        """Same request through gfkit.cli.main(argv), so the tracer can see it."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib("cli", "main")(self.argv)
        return code, buf.getvalue()

    def check(self, out, rng) -> int:
        code, stdout = out
        if code != 0:
            return 1
        try:
            ok = checks.cli_report_ok(stdout, self.schema, self.expected, self.width, self.height)
        except (ValueError, KeyError, OSError, IndexError) as exc:
            print(f"perfbench: CLI output check raised {exc!r}", file=sys.stderr)
            ok = False
        return not ok


WORKLOADS = {w.name: w for w in (Oneshot, Rolling, CliRgb)}


def write_ppm(path: Path, channels) -> None:
    """8-bit P6 writer of the benchmark's own, so inputs do not depend on gfkit.imgio."""
    h, w = channels[0].shape
    raster = np.stack([np.floor(np.clip(c, 0.0, 1.0) * 255 + 0.5) for c in channels], axis=-1)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(raster.astype(np.uint8).tobytes())


class Loop:
    """Closed loop, one client: collects request times and check results."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.index = 0

    def request(self, run, tracer=None) -> float:
        if tracer is not None:
            tracer.request = self.index
        t0 = time.perf_counter()
        out = run()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.request = -1
        self.attempted += self.workload.ops
        self.failed += self.workload.check(out, self.rng)
        self.index += 1
        return dt

    def measure(self, run, seconds: float, tracer=None):
        """Request times, in order, until the busy-time budget is used."""
        times: list[float] = []
        ids: list[int] = []
        while not times or sum(times) + statistics.median(times) <= seconds:
            ids.append(self.index)
            times.append(self.request(run, tracer))
        return times, ids


def tail(times):
    """Highest percentile with at least 10 samples beyond it, or the maximum
    (with 0 beyond it) when there are too few samples for one."""
    s = sorted(times)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def environment(workload, seed: int) -> dict:
    import scipy

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    l3 = "unknown"
    with contextlib.suppress(OSError):
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "plane_bytes": workload.plane_bytes,
        "load": "closed loop, 1 client, no parallel requests; no queue, so no layer waits",
    }


def layer_metrics(tracer: Tracer, ids, traced, untraced, import_s):
    n = len(ids)
    spans = tracer.summary(ids)
    named: set[str] = set()

    def field(name, key="self_s"):
        named.add(name)
        return spans.get(name, {}).get(key, 0.0) / n

    m = {
        "boxops.box_sum.calls": (field("boxops.box_sum", "calls"), "count"),
        "boxops.box_sum.self_s": (field("boxops.box_sum"), "s"),
        "boxops.box_sum.bytes_computed": (tracer.counters["boxops.box_sum.bytes_computed"] / n, "B"),
        "gf.gf_coeffs.calls": (field("gf.gf_coeffs", "calls"), "count"),
        "gf.gf_coeffs.self_s": (field("gf.gf_coeffs"), "s"),
        "gf.gf_apply.self_s": (field("gf.gf_apply"), "s"),
        "tvgf.tvgf_solve_q.calls": (field("tvgf.tvgf_solve_q", "calls"), "count"),
        "tvgf.tvgf_solve_q.self_s": (field("tvgf.tvgf_solve_q"), "s"),
        "igf.igf_update.self_s": (field("igf.igf_update"), "s"),
        "igf.icgf_update.self_s": (field("igf.icgf_update"), "s"),
        "rmsf.alpha_weight.self_s": (field("rmsf.alpha_weight"), "s"),
        "rmsf.iterations": (tracer.counters["rmsf.iterations"] / n, "count"),
        "rmsf.self_s": (field("rmsf.gf_rmsf") + field("rmsf.cgf_rmsf"), "s"),
        "cgf.anchor_weight.self_s": (field("cgf.anchor_weight"), "s"),
        "core.as_image.calls": (field("core.as_image", "calls"), "count"),
        "core.as_image.self_s": (field("core.as_image"), "s"),
        "imgio.read_pnm.self_s": (field("imgio.read_pnm"), "s"),
        "imgio.write_pnm.self_s": (field("imgio.write_pnm"), "s"),
        "imgio.file_io.self_s": (field("imgio.read_pnm_file") + field("imgio.write_pnm_file"), "s"),
        "imgio.bytes_read": (tracer.counters["imgio.bytes_read"] / n, "B"),
        "imgio.bytes_written": (tracer.counters["imgio.bytes_written"] / n, "B"),
        "metrics.ssim.self_s": (field("metrics.ssim"), "s"),
        "cli.main.self_s": (field("cli.main"), "s"),
        "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
    }
    m["other.self_s"] = (sum(v["self_s"] for k, v in spans.items() if k not in named) / n, "s")
    coverage = [tracer.top_level_seconds(i) / dt for i, dt in zip(ids, traced)]
    m["tracer.top_level_coverage"] = (statistics.median(coverage), "fraction")
    m["tracer.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_gfkit()
    WORK.mkdir(exist_ok=True)
    try:
        return run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def run(args) -> int:
    setup = []
    if not args.trace:
        setup = [import_seconds() for _ in range(SETUP_REPEATS)]
    workload = WORKLOADS[args.workload](args.seed)
    descent_failures = checks.descent_spot_check(sys.modules, args.seed)
    for msg in descent_failures:
        print(f"perfbench: descent check failed: {msg}", file=sys.stderr)

    loop = Loop(workload, args.seed)
    traceable = workload.run if workload.in_process else workload.run_in_process
    if args.trace or workload.in_process:
        loop.request(traceable)  # warm-up: first-touch pages and lazy imports
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(workload, args.seed),
    }

    if not args.trace:
        times, _ = loop.measure(workload.run, args.seconds)
        value, pct, beyond = tail(times)
        if workload.in_process:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            peak_mb = statistics.median(workload.child_rss_mb)
        metrics = {
            "throughput_mpx_s": {"value": workload.mpx * len(times) / sum(times), "unit": "Mpx/s"},
            "request_p50_s": {"value": statistics.median(times), "unit": "s"},
            "request_tail_s": {"value": value, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        detail["request_tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(times)}
        detail["request_times_s"] = times
        detail["setup_times_s"] = setup
    else:
        untraced, _ = loop.measure(traceable, args.seconds / 2)
        with Tracer() as tracer:
            traced, ids = loop.measure(traceable, args.seconds / 2, tracer)
        import_s = [] if workload.in_process else [import_seconds() for _ in traced]
        metrics, spans = layer_metrics(tracer, ids, traced, untraced, import_s)
        detail["untraced_times_s"] = untraced
        detail["traced_times_s"] = traced
        detail["spans_per_request"] = {
            k: {f: v / len(ids) for f, v in e.items()} for k, e in sorted(spans.items())
        }

    detail["attempted"] = loop.attempted
    detail["failed"] = loop.failed
    detail["failed_frac"] = loop.failed / loop.attempted
    correct = loop.failed == 0 and not descent_failures
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
