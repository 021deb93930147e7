"""O(1)-per-pixel sliding-window sums and means: the one window primitive,
and the worker pool that runs the plane work.

Every filter in the package, and the energy that prices it, is
assembled from these. ``box_sum`` makes one pass per axis, each at a cost
independent of the radius. Down the columns it keeps a running sum one
row at a time: row 0 holds the first window's rows, every later row the
window's change (the row that enters minus the row that leaves), and one
contiguous ``np.add`` per row accumulates them. Along the rows it runs
scipy's C running mean (``scipy.ndimage.uniform_filter1d``) in place on
that plane: zero extension gives the truncated window, wrap extension
the periodic one. A NaN or Inf in the input survives to the last row of
its column, so one row test rejects it. The tests re-derive the same
sums by direct per-offset summation, with no running sum.

The window sums of a product, ``box_sum(x, w, times=y)``, hold one plane
where ``box_sum(x * y, w)`` holds two. No product plane exists: the row
differences are written into the pass's new plane over row strips, and a
strip forms the product's rows as it reads them, the rows it gains
straight into its own rows of that plane and the rows it loses into one
scratch block. Every element gets the operations of ``box_sum(x * y,
w)``, so the same bits. A plain pass runs the same strips, reading x's
rows as they are. No pass writes over any array but its new plane, and
no radius or strip size picks a path.

Every filter step that follows a box pass is pointwise: each output pixel
is a few arithmetic operations on the window sums, the inputs and the
pixel's window count |w_i|. Those steps run in place over row strips of
a fixed byte budget (``each_strip``), so their temporaries are a few
cache-sized blocks and never a whole plane. The window count depends
only on the window and the image size: it is the product of two 1-D
factors, which a strip loop given the window builds once, and each strip
fills its block from them afresh. That gives the same exact integers as
the full count plane, their outer product (``window_counts``, for the
code that needs the plane whole), and never holds one.

The worker pool. Once the window sums exist, each pixel's result depends
only on its own pixel, and each half of a box pass depends only on its
own rows or columns. So the plane work splits into contiguous blocks
(``work_blocks``), one per CPU this process may run on, and ``in_parallel``
runs the first block on the caller and the rest on one thread pool,
made at the first split and never at import. With one CPU there is no
pool, and a plane below ``PARALLEL_PIXELS`` (2^18 pixels, where splitting
was measured to start to pay) stays on the caller. What splits:

- the axis-1 half of ``box_sum`` (``uniform_filter1d`` and the scale by
  the side), by rows;
- every strip loop, all of them ``each_strip``'s: the row differences of
  ``box_sum``, the pointwise filter steps and the strips of
  ``metrics.ssim``, whose blocks hold its window's halo rows as well. The
  strips go to the workers in contiguous runs, each run with its own
  scratch blocks, allocated by the caller; the strips are those of one
  thread, and at most one in ``STRIPS_PER_RUN`` runs at once, so the
  scratch stays a bounded share of the plane however many CPUs there are;
- the Fourier solve of ``tvgf``.

The running sum of ``box_sum`` stays on the caller. It is one ``np.add``
per row, each too short to release the interpreter lock for long, and
split by columns it ran slower (1.9 ms against 3.0-4.0 ms at 1 MP).
Every element goes through the same operations in the same order
whatever the split, so the results are the same bits at any worker
count. The one reduction over strips, the ridge of
``gf.energy_gf``, gets its per-strip values back in strip order, over the
same strips at any worker count. Each task runs in a copy of the
caller's context, so the caller's ``np.errstate`` holds in it. A task
makes only numpy and scipy calls and no call of a public ``gfkit``
function, so a tracer or a test that rebinds those functions sees every
call on the calling thread. The pool starts all its threads when it is
made, so no later split starts one. If a thread cannot start (the process
is out of threads or memory), the pool is shut down before any work is
queued on it, and the process stays on one worker, the caller running
every call.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections.abc import Callable, Sequence
from concurrent import futures
from functools import partial
from typing import TypeVar

import numpy as np
from scipy.ndimage import uniform_filter1d

from .core import Boundary, Image, WindowSpec, as_image, as_images, require_params

T = TypeVar("T")

# one worker per CPU this process may run on, the caller among them
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# planes of fewer pixels stay on the caller. Split against serial on 2
# vCPUs, medians of 40 alternating calls, r = 10: at 362^2 (2^17) a box
# pass ran 8% and a self-guided gf 15% slower split, at 420^2 about even,
# at 512^2 (2^18) 8% and 4% faster (winning 39 and 36 of 40 pairs), one
# tvgf pass 9% faster; at 1 MP 22%, 22% and 26% faster
PARALLEL_PIXELS = 1 << 18
# a loop whose runs of strips each hold scratch blocks runs at most one
# strip in this many at once, so that at any worker count the blocks of
# one scratch slot together hold about 1/STRIPS_PER_RUN of the plane or less
STRIPS_PER_RUN = 8
# bytes of one row strip of one plane, for every strip loop (``each_strip``:
# SSIM, the row differences of a box pass and the pointwise steps after
# it) and the first window's blocks of a box pass. A strip of each of a
# handful of planes then stays inside a 2 MB L2 cache; among budgets from
# 32 KiB to 1 MiB, 256 KiB ran fastest for both SSIM and the pointwise
# steps on 1 MP planes (SSIM: 256-384 KiB, also on 1080p)
STRIP_BYTES = 1 << 18
_pool: futures.ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child has none of the parent's threads, and its copy of the
    # lock may have been taken by one of them: it starts both afresh
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> futures.ThreadPoolExecutor | None:
    # the pool, or None on one worker. A started thread waits at the barrier,
    # never idle, so each submit starts the next (a pool reuses an idle
    # thread before it starts one), and the caller's wait trips it. A failed
    # start aborts it: the started threads, and the wait queued for the
    # missing one, return at once
    global _pool, _WORKERS
    with _pool_lock:
        if _pool is None and _WORKERS > 1:
            pool = futures.ThreadPoolExecutor(_WORKERS - 1, "gfkit")
            started = threading.Barrier(_WORKERS)
            try:
                for _ in range(_WORKERS - 1):
                    pool.submit(started.wait)
            except RuntimeError:
                started.abort()
                pool.shutdown(wait=False)
                _WORKERS = 1
                return None
            started.wait()
            _pool = pool
        return _pool


def worker_count() -> int:
    """How many threads share the plane work: the CPUs this process may use."""
    return _WORKERS


def work_blocks(n: int, pixels: int, most: int | None = None) -> list[slice]:
    """Contiguous blocks splitting range(n), the rows, columns or strips of
    a plane of ``pixels`` pixels: one per worker, but at most ``most`` (and
    ``n``), or one in all below ``PARALLEL_PIXELS`` pixels."""
    most = n if most is None else min(most, n)
    parts = 1 if pixels < PARALLEL_PIXELS else max(1, min(_WORKERS, most))
    return [slice(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def in_parallel(body: Callable[..., T], *args: Sequence) -> list[T]:
    """[body(*a) for a in zip(*args)], the first call on the caller and the
    others on the worker pool, each in a copy of the caller's context.

    Every call has returned or raised before this returns; then the first
    exception in argument order is raised. ``body`` must not itself call
    ``in_parallel``: the pool has one thread fewer than there are workers.
    Without a pool (one worker) the caller runs every call.
    """
    calls = [partial(body, *a) for a in zip(*args)]
    pool = _executor() if len(calls) > 1 else None
    if pool is None:
        return [call() for call in calls]
    tasks = [pool.submit(contextvars.copy_context().run, call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        for task in tasks:
            task.exception()  # waits for it
    return [first, *(task.result() for task in tasks)]


_NON_FINITE = "NaN or Inf in the input of a box sum"


def _strip_rows(shape) -> int:
    """Rows of one row strip of a (height, width) plane: ``STRIP_BYTES`` of
    one row strip, and at most a quarter of the rows."""
    h, width = shape
    return max(1, min(-(-h // 4), STRIP_BYTES // (8 * width)))


def _difference_bands(h: int, r: int, periodic: bool) -> list[tuple]:
    """The rows i >= 1 of a column pass's row differences, as bands (first,
    stop, gain, lose): row i of the band gains row gain + (i - first) and
    loses row lose + (i - first), or None where that row lies outside the
    image (truncation).

    Row i's window gains row i + r and loses row i - r - 1; under the
    periodic boundary both indices wrap, under truncation a row outside the
    image contributes nothing.
    """
    if periodic:  # 2r + 1 <= h, so the three bands are in order
        return [(1, r + 1, r + 1, h - r), (r + 1, h - r, 2 * r + 1, 0),
                (h - r, h, 0, h - 2 * r - 1)]
    lo, hi = min(r + 1, h), max(h - r, 1)  # rows [1, hi) gain, rows [lo, h) lose
    if lo < hi:  # gain only, both, lose only
        return [(1, lo, r + 1, None), (lo, hi, 2 * r + 1, 0), (hi, h, None, h - 2 * r - 1)]
    # the window is taller than the image: gain only, neither, lose only
    return [(1, hi, r + 1, None), (hi, lo, None, None), (lo, h, None, 0)]


def _difference(out: Image, gain: Image | None, lose: Image | None) -> None:
    """out = gain - lose, either of which may be absent (a row outside the
    image). The gain may be out itself, a product formed there."""
    if lose is not None:
        if gain is not None:
            np.subtract(gain, lose, out=out)
        else:
            np.negative(lose, out=out)
    elif gain is None:
        out[...] = 0.0
    elif gain is not out:
        out[...] = gain


def _row_differences(x: Image, times: Image | None, out: Image, r: int, periodic: bool) -> None:
    """out[0] = the first window's sum and, for i >= 1, out[i] = (window sum
    of rows around i) - (same around i - 1), of x or, with ``times``, of
    x * times, over the row strips of out.

    A product's rows are formed as a strip reads them: the rows it gains
    straight into out, the rows it loses into the strip's scratch block.
    Each element gets the operations of ``box_sum(x * times)``, so the same
    bits, and no product plane exists.
    """
    h = x.shape[0]

    def summand(i, n, into=None):
        # rows i to i + n of what is summed; a product is formed in into
        if times is None:
            return x[i : i + n]
        return np.multiply(x[i : i + n], times[i : i + n], out=into, order="C")

    def window(i, n, into):
        # into = the sum of rows i to i + n, in blocks of a strip's rows: the
        # first block summed, then each later row added in order, as np.sum
        # adds the rows of a block of 2 or more columns; it sums one column
        # pairwise, so that is one block
        step = h if x.shape[1] == 1 else _strip_rows(x.shape)
        np.sum(summand(i, min(step, n)), axis=0, out=into)
        for top in range(i + step, i + n, step):
            for row in summand(top, min(step, i + n - top)):
                into += row
        return into

    window(0, min(r + 1, h), out[0])
    if periodic:  # and the rows it wraps to
        out[0] += window(h - r, r, np.empty(x.shape[1]))
    bands = _difference_bands(h, r, periodic)

    def strip(rows, lost=None):
        for first, stop, gain, lose in bands:
            a, b = max(first, rows.start), min(stop, rows.stop)
            if a < b:
                dst, n = out[a:b], b - a
                _difference(dst, None if gain is None else summand(gain + a - first, n, dst),
                            None if lose is None else
                            summand(lose + a - first, n, None if lost is None else lost[:n]))

    each_strip(x.shape, strip, times is not None)


def box_sum(x: Image, w: WindowSpec, times: Image | None = None) -> Image:
    """Sum of x over the window around each pixel; with ``times``, the sum
    of x * times, bit for bit box_sum(x * times).

    The product's rows are formed as the pass reads them, so a product's
    window sums hold one plane, not two.
    Raises ValueError if x, or the product, holds a NaN or an Inf.
    """
    if times is None:
        x = as_image(x)
    else:
        x, times = as_images(x, times)
    w.check_fits(x.shape)
    r = w.radius
    if r == 0:
        out = x.copy() if times is None else np.multiply(x, times, order="C")
        if not np.isfinite(out).all():
            raise ValueError(_NON_FINITE)
        return out
    periodic = w.boundary is Boundary.PERIODIC
    out = np.empty(x.shape)
    with np.errstate(invalid="ignore"):
        _row_differences(x, times, out, r, periodic)
        rows = list(out)  # row views made once: on small planes the loop is call-bound
        for prev, row in zip(rows, rows[1:]):
            np.add(prev, row, out=row)
    # a NaN or Inf is carried down its column and never cancels
    if not np.isfinite(out[-1]).all():
        raise ValueError(_NON_FINITE)
    mode = "wrap" if periodic else "constant"
    # a truncated window past the row's ends sums the whole row; a periodic one fits it
    side = 2 * min(r, x.shape[1] - 1) + 1

    def row_pass(rows):
        block = out[rows]
        uniform_filter1d(block, side, axis=1, output=block, mode=mode)
        block *= side

    in_parallel(row_pass, work_blocks(out.shape[0], out.size))
    return out


def _counts_1d(n: int, w: WindowSpec) -> np.ndarray:
    if w.boundary is Boundary.PERIODIC:
        return np.full(n, w.side, dtype=np.float64)
    i, r = np.arange(n), min(w.radius, n - 1)  # a wider window counts the whole line
    return (np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1).astype(np.float64)


def window_counts(shape, w: WindowSpec) -> Image:
    """The plane of window counts |w_i| of a (height, width) grid: the outer
    product of its two 1-D factors, small integers and so exact."""
    h, width = shape
    require_params(height=h, width=width)
    w.check_fits(shape)
    return np.outer(_counts_1d(h, w), _counts_1d(width, w))


def each_strip(
    shape, body: Callable[..., T], scratch: int = 1, window: WindowSpec | None = None,
    halo: int = 0,
) -> list[T]:
    """body(rows, *tmp), or with ``window`` body(rows, n, *tmp), for every
    row strip of a (height, width) grid: the results in strip order.

    ``rows`` is the strip's slice of rows and ``tmp`` ``scratch`` blocks of
    the strip's width, overwritten by the next strip. A block holds the
    strip's rows and ``halo`` rows more: the rows a stencil reads beyond
    the strip, which its caller passes (a loop with ``window`` passes
    none). ``n`` is a block of the strip's window counts |w_i| under that
    window, filled afresh for each strip from the two 1-D count factors,
    which the loop builds once, so ``body`` may overwrite it. A strip spans
    at most a quarter of the rows, so that on a small plane the blocks stay
    a small share of the memory a filter holds. The strips are the same at
    any worker count; they go to the workers in contiguous runs
    (``work_blocks``), each run with blocks of its own, and at most one
    strip in ``STRIPS_PER_RUN`` runs at once.
    """
    h, width = shape
    step = _strip_rows(shape)
    tops = range(0, h, step)
    runs = work_blocks(len(tops), h * width, len(tops) // STRIPS_PER_RUN)
    blocks = np.empty((len(runs), scratch + (window is not None), step + halo, width))
    if window is not None:
        count_rows, count_cols = _counts_1d(h, window), _counts_1d(width, window)

    def run(strips, buf):
        results = []
        for top in tops[strips]:
            rows = slice(top, min(top + step, h))
            tmp = buf[:, : rows.stop - top + halo]
            if window is not None:  # einsum: a broadcast multiply would buffer a block
                np.einsum("i,j->ij", count_rows[rows], count_cols, out=tmp[0])
            results.append(body(rows, *tmp))
        return results

    return [result for part in in_parallel(run, runs, blocks) for result in part]


def box_mean(x: Image, w: WindowSpec) -> Image:
    """Windowed average of x, normalized by the actual per-pixel window size."""
    out = box_sum(x, w)
    each_strip(out.shape, lambda rows, n: np.divide(out[rows], n, out=out[rows]), 0, w)
    return out
