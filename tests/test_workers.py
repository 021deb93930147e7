"""The plane work gives the same bits on one worker as on several.

``boxops`` splits the axis-1 half of every box pass, every strip loop,
the TV Fourier solve and SSIM's strips over a pool of threads, one per
CPU. These tests force the worker count through ``boxops._WORKERS``, so
the threaded path runs even on a one-CPU machine, and compare each result
with the one-worker run. The planes sit above ``PARALLEL_PIXELS``, with
a height that is a multiple of neither the strip height at this width (32
rows) nor any worker count tried. tracemalloc then pins that the scratch
of the strip loops and of SSIM does not grow with the worker count past
what ``STRIPS_PER_RUN`` allows.
"""

import argparse
import sys
import threading
import time
import types

import numpy as np
import pytest

import gfkit.boxops
from gfkit.boxops import STRIPS_PER_RUN, box_sum, each_strip, in_parallel, work_blocks
from gfkit.cli import FILTER_COMMANDS, _dest, _flag_defaults
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import energy_gf, gf_coeffs, gf, last_iterate
from gfkit.metrics import ssim
from conftest import peak_planes

SHAPE = (527, 1000)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(17)
    return [rng.random(SHAPE) for _ in range(3)]


@pytest.fixture
def workers(monkeypatch):
    """workers(k, call): call() run with the plane work split k ways."""
    def run(k, call):
        monkeypatch.setattr(gfkit.boxops, "_WORKERS", k)
        return call()

    return run


def _same_on(workers, call, counts=(2, 3)):
    want = workers(1, call)
    for k in counts:
        got = workers(k, call)
        for x, y in zip(want, got, strict=True):
            assert np.array_equal(x, y)


def test_planes_are_above_the_cut_off():
    assert SHAPE[0] * SHAPE[1] >= gfkit.boxops.PARALLEL_PIXELS
    assert SHAPE[0] % 32 and SHAPE[0] % 131 and SHAPE[0] % 2 and SHAPE[0] % 3
    assert len(work_blocks(SHAPE[0], SHAPE[0] * SHAPE[1])) == gfkit.boxops._WORKERS


def test_work_blocks_cover_the_range_in_order(monkeypatch):
    monkeypatch.setattr(gfkit.boxops, "_WORKERS", 3)
    big = gfkit.boxops.PARALLEL_PIXELS
    assert work_blocks(7, big) == [slice(0, 2), slice(2, 4), slice(4, 7)]
    assert work_blocks(2, big) == [slice(0, 1), slice(1, 2)]  # fewer items than workers
    assert work_blocks(7, big - 1) == [slice(0, 7)]  # below the cut-off
    assert work_blocks(7, big, 2) == [slice(0, 3), slice(3, 7)]  # at most 2
    assert work_blocks(7, big, 0) == [slice(0, 7)]


def _strips_and_runs(shape):
    # each run of strips has a scratch block of its own
    seen = each_strip(shape, lambda rows, t: (rows, t.ctypes.data))
    return [rows for rows, _ in seen], len({block for _, block in seen})


def test_strip_runs_are_capped(workers):
    # 17 strips of 32 rows: at most one in 8 runs at once, so 2 runs
    strips, runs = workers(8, lambda: _strips_and_runs(SHAPE))
    assert strips == [slice(t, min(t + 32, SHAPE[0])) for t in range(0, SHAPE[0], 32)]
    assert runs == 2
    assert workers(1, lambda: _strips_and_runs(SHAPE)) == (strips, 1)


def _rows(command):
    """The row's run at its defaults, at most 2 passes, as bench runs it."""
    cmd = FILTER_COMMANDS[command]
    row = argparse.Namespace(**{_dest(k): v for k, v in _flag_defaults(cmd).items()})
    if hasattr(row, "iters"):
        row.iters = min(row.iters, 2)
    w = WindowSpec(row.radius, cmd.boundary or row.boundary)
    return cmd, row, w


@pytest.mark.parametrize("command", sorted(FILTER_COMMANDS))
def test_filter_commands(workers, images, command):
    p, guide, anchor = images
    cmd, row, w = _rows(command)

    def call():
        out = last_iterate(cmd.run(p, guide, anchor, w, row))
        return [out.q, out.G] if cmd.g_output else [out]

    _same_on(workers, call)


def test_more_strip_runs_with_narrow_strips(workers, images, monkeypatch):
    # strips of 8 rows: 66 strips, so 3 workers take 3 runs
    monkeypatch.setattr(gfkit.boxops, "STRIP_BYTES", 8 * 8 * SHAPE[1])
    p, guide, _ = images
    w = WindowSpec(5)

    def call():
        fit = gf_coeffs(p, guide, w, 0.01)
        energy = energy_gf(gf(p, guide, w, 0.01), fit, guide, w, 0.01)
        return [gf(p, p, w, 0.01), fit.a, fit.b, np.array([energy.total, *energy.terms.values()])]

    _same_on(workers, call, counts=(3,))
    assert workers(3, lambda: _strips_and_runs(SHAPE))[1] == 3


@pytest.mark.parametrize("call, blocks", [
    # a strip loop holds at most 2 blocks a strip: a scratch block and the counts
    (lambda p, g: gf(p, p, WindowSpec(3), 0.05), 2),
    (lambda p, g: gf(p, g, WindowSpec(3), 0.05), 2),
    # SSIM's 7 blocks a strip, each of the strip's 32 rows and 10 halo rows:
    # 17 strips of the interior grid
    (lambda p, g: ssim(p, g), 7 * (32 + 10) / 32),
], ids=["gf-self", "gf-guided", "ssim"])
def test_scratch_does_not_grow_with_the_worker_count(workers, images, call, blocks):
    # eight workers, whose runs of strips each hold their own blocks: all of
    # them together hold at most one strip in STRIPS_PER_RUN of each block
    p, guide, _ = images
    one = workers(1, lambda: peak_planes(lambda: call(p, guide), SHAPE))
    eight = workers(8, lambda: peak_planes(lambda: call(p, guide), SHAPE))
    assert eight - one < blocks / STRIPS_PER_RUN + 0.01


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("radius", [1, 10, 263])  # 2 * 263 + 1 = 527 rows
def test_box_sum(workers, images, boundary, radius):
    x = images[0]
    _same_on(workers, lambda: [box_sum(x, WindowSpec(radius, boundary))])


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("radius", [0, 1, 10, 131, 263])  # 131: a window past 8 strips of 32 rows
def test_box_sum_of_a_product(workers, images, boundary, radius):
    # the product's rows are formed as the strips, which split, read them;
    # its window sums are those of box_sum(x * y) at every worker count
    x, y = images[:2]
    w = WindowSpec(radius, boundary)
    want = box_sum(x * y, w)
    for k in (1, 2):
        assert np.array_equal(workers(k, lambda: box_sum(x, w, times=y)), want)


@pytest.mark.parametrize("radius", [600, 2000])  # windows past the image
def test_box_sum_truncated_past_the_image(workers, images, radius):
    x = images[0]
    _same_on(workers, lambda: [box_sum(x, WindowSpec(radius))])


def test_box_sum_fewer_rows_than_workers(workers):
    x = np.random.default_rng(2).random((2, gfkit.boxops.PARALLEL_PIXELS // 2 + 1))
    _same_on(workers, lambda: [box_sum(x, WindowSpec(1)), box_sum(x, WindowSpec(5))])


def test_energy_and_ssim(workers, images):
    p, guide, _ = images
    w = WindowSpec(5)

    def call():
        fit = gf_coeffs(p, guide, w, 0.01)
        energy = energy_gf(gf(p, guide, w, 0.01), fit, guide, w, 0.01)
        return [np.array([energy.total, *energy.terms.values()]), np.array(ssim(p, guide))]

    _same_on(workers, call)


@pytest.mark.parametrize("where", ["first", "last"])
def test_ssim_nan_in_a_strip_raises(workers, images, where):
    x = images[0].copy()
    x[0 if where == "first" else -1, 500] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf in x"):
        workers(2, lambda: ssim(x, images[1]))


def test_the_first_error_is_raised_after_every_task_stopped(monkeypatch):
    monkeypatch.setattr(gfkit.boxops, "_WORKERS", 2)
    finished = []

    def body(k):
        if k == 0:
            raise ValueError("first")
        time.sleep(0.2)
        finished.append(k)
        raise ValueError("second")

    with pytest.raises(ValueError, match="first"):
        in_parallel(body, range(2))
    assert finished == [1]


def test_tasks_run_in_the_callers_context(monkeypatch):
    monkeypatch.setattr(gfkit.boxops, "_WORKERS", 2)
    with np.errstate(divide="raise", invalid="ignore"):
        seen = in_parallel(lambda k: (np.geterr(), threading.current_thread()), range(2))
    assert [err["divide"] for err, _ in seen] == ["raise", "raise"]
    assert [err["invalid"] for err, _ in seen] == ["ignore", "ignore"]
    assert seen[1][1] is not threading.current_thread()  # the second ran on the pool


def _threads_start_until(monkeypatch, started) -> list:
    """threading.Thread.start, failing from the (started + 1)-th call on as
    it does when the process is out of threads or memory; returns the
    threads it was asked to start."""
    start, calls = threading.Thread.start, []

    def failing(thread):
        calls.append(thread)
        if len(calls) > started:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", failing)
    return calls


def test_a_thread_that_cannot_start_leaves_the_work_to_the_caller(workers, images, monkeypatch):
    # a fresh pool at 2 workers whose one thread fails to start: the caller
    # runs every call, the bits are those of one worker, and the process
    # stays on one worker after
    x, y = images[:2]
    w = WindowSpec(6)
    want = workers(1, lambda: [box_sum(x, w), box_sum(x, w, times=y), gf(x, y, w, 0.01)])
    monkeypatch.setattr(gfkit.boxops, "_pool", None)
    _threads_start_until(monkeypatch, 0)
    got = workers(2, lambda: [box_sum(x, w), box_sum(x, w, times=y), gf(x, y, w, 0.01)])
    for a, b in zip(want, got, strict=True):
        assert np.array_equal(a, b)
    assert gfkit.boxops.worker_count() == 1
    assert len(work_blocks(SHAPE[0], SHAPE[0] * SHAPE[1])) == 1


def test_a_call_whose_thread_did_not_start_runs_once(monkeypatch):
    # at 3 workers the first pool thread starts and the second does not:
    # the pool is given up before any call is queued on it, so every call
    # runs once, on the caller, and none on the started thread after
    # in_parallel returned
    monkeypatch.setattr(gfkit.boxops, "_WORKERS", 3)
    monkeypatch.setattr(gfkit.boxops, "_pool", None)
    _threads_start_until(monkeypatch, 1)
    ran = []

    def body(k):
        ran.append(k)
        time.sleep(0.05 * (k == 1))
        return k * k

    assert in_parallel(body, range(3)) == [0, 1, 4]
    time.sleep(0.1)  # a stale call on the started thread would run by now
    assert sorted(ran) == [0, 1, 2]
    assert gfkit.boxops.worker_count() == 1


def test_the_pool_starts_its_threads_once(images, monkeypatch):
    # the first split starts every pool thread, even with fewer calls than
    # threads, and no later split asks for one
    monkeypatch.setattr(gfkit.boxops, "_WORKERS", 3)
    monkeypatch.setattr(gfkit.boxops, "_pool", None)
    started = _threads_start_until(monkeypatch, 2)
    assert in_parallel(lambda k: k, range(2)) == [0, 1]
    assert len(started) == 2
    x, y = images[:2]
    for _ in range(25):
        box_sum(x, WindowSpec(6))
        ssim(x, y)
    assert len(started) == 2


def test_a_failed_start_never_strands_another_callers_call(monkeypatch):
    # three callers on a fresh pool at 4 workers. Of its 3 threads the first
    # starts, the second starts late (its run waits 0.5 s, as when the OS
    # schedules it late) and the third cannot start. C splits first and
    # holds a pool thread on an event; B splits 0.2 s later, A 0.1 s after
    # B. A failed start must not cancel a call another caller queued: every
    # caller returns, the process ends on one worker, and the pool threads
    # that started end too
    monkeypatch.setattr(gfkit.boxops, "_WORKERS", 4)
    monkeypatch.setattr(gfkit.boxops, "_pool", None)
    start, starts = threading.Thread.start, []

    def late_or_failing(thread):
        starts.append(thread)
        if len(starts) == 3:
            raise RuntimeError("can't start new thread")
        if len(starts) == 2:
            run = thread.run
            thread.run = lambda: (time.sleep(0.5), run())
        start(thread)

    release, results = threading.Event(), {}

    def caller(name, body):
        results[name] = in_parallel(body, range(2))

    def held(k):
        if k == 1:
            release.wait(5)
        return k

    callers = {name: threading.Thread(target=caller, args=(name, body), daemon=True)
               for name, body in [("C", held), ("B", lambda k: k), ("A", lambda k: k)]}
    monkeypatch.setattr(threading.Thread, "start", late_or_failing)
    for name, pause in [("C", 0.2), ("B", 0.1), ("A", 0.1)]:
        start(callers[name])  # unpatched: a caller is not a pool thread
        time.sleep(pause)
    release.set()
    for thread in callers.values():
        thread.join(3)
    assert results == {"C": [0, 1], "B": [0, 1], "A": [0, 1]}
    assert gfkit.boxops.worker_count() == 1
    for thread in starts[:2]:
        thread.join(3)
        assert not thread.is_alive()


def test_errstate_reaches_the_strips_on_the_pool(workers):
    # 0 / 0 in the flat bottom half, which the pool's worker fits
    g = np.random.default_rng(3).random(SHAPE)
    g[SHAPE[0] // 2 :] = 0.5
    with np.errstate(invalid="raise", divide="ignore"), pytest.raises(FloatingPointError):
        workers(2, lambda: gf_coeffs(g, g, WindowSpec(2), 0.0))


def test_no_public_function_runs_off_the_calling_thread(workers, images):
    # a tracer rebinds gfkit's functions at every module binding, as
    # conftest's count_box_passes does, and keeps one span stack
    p, guide, anchor = images
    originals = {}
    for name, module in list(sys.modules.items()):
        if name == "gfkit" or name.startswith("gfkit."):
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith("gfkit")):
                    originals[id(value)] = value
    calls, off = [], []

    def wrap(fn):
        def traced(*args, **kwargs):
            calls.append(fn.__name__)
            if threading.current_thread() is not threading.main_thread():
                off.append(fn.__name__)
            return fn(*args, **kwargs)

        return traced

    wrappers = {key: wrap(fn) for key, fn in originals.items()}
    patched = []
    for name, module in list(sys.modules.items()):
        if name == "gfkit" or name.startswith("gfkit."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
    try:
        for command in sorted(FILTER_COMMANDS):
            cmd, row, w = _rows(command)
            workers(2, lambda: last_iterate(cmd.run(p, guide, anchor, w, row)))
        # looked up at the call, so that the patched bindings run (the
        # package namespace shadows the gf and tvgf modules)
        lib = {mod: sys.modules[f"gfkit.{mod}"] for mod in ("gf", "metrics", "tvgf")}
        workers(2, lambda: lib["metrics"].ssim(p, guide))
        workers(2, lambda: lib["tvgf"].tvgf(p, p, WindowSpec(3, Boundary.PERIODIC), 0.01, 3.0))
        fit = workers(2, lambda: lib["gf"].gf_coeffs(p, guide, WindowSpec(3), 0.01))
        workers(2, lambda: lib["gf"].energy_gf(p, fit, guide, WindowSpec(3), 0.01))
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
    assert {"box_sum", "each_strip", "in_parallel", "ssim"} <= set(calls)
    assert off == []
