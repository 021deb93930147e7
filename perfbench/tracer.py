"""Outside tracer: wraps gfkit's layer functions without touching the library.

Every module imports ``box_sum``, ``as_image`` and friends by name, and
the package namespace rebinds ``gfkit.gf``, ``gfkit.tvgf``, ``gfkit.cgf``
and ``gfkit.igf`` to functions that shadow the submodules. So a function
is patched at every binding: each ``gfkit`` module in ``sys.modules`` is
scanned for attributes that are the original function object, and each
one is replaced by the same wrapper. Callers must look functions up
through ``sys.modules["gfkit.<mod>"]`` at call time to be traced.

A span is (name, parent span, request, start, end). A layer's self time
is its span's duration minus the durations of its direct children.
Spans stay in memory until ``summary`` aggregates them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# module -> public functions that make up the layer
LAYERS = {
    "core": ("as_image",),
    "boxops": ("box_sum",),
    "gf": ("gf", "gf_coeffs", "gf_apply"),
    "tvgf": ("tvgf", "tvgf_solve_q"),
    "cgf": ("cgf", "cgf_roll", "anchor_weight"),
    "igf": ("igf", "icgf", "igf_update", "icgf_update"),
    "rmsf": ("gf_rmsf", "cgf_rmsf", "alpha_weight"),
    "rfnf": ("rfnf_gen", "enhanced_flash"),
    "imgio": ("read_pnm", "write_pnm", "read_pnm_file", "write_pnm_file"),
    "metrics": ("ssim", "mse"),
    "cli": ("main",),
}


def _count_box_bytes(counters, args, result):
    # computed, not measured: one read of the input plane, one write of the output
    counters["boxops.box_sum.bytes_computed"] += 2 * result.nbytes


def _count_read(counters, args, result):
    counters["imgio.bytes_read"] += len(args[0])


def _count_written(counters, args, result):
    counters["imgio.bytes_written"] += len(result)


def _count_iterations(counters, args, result):
    counters["rmsf.iterations"] += result.iteration


COUNTERS = {
    "boxops.box_sum": _count_box_bytes,
    "imgio.read_pnm": _count_read,
    "imgio.write_pnm": _count_written,
    "rmsf.gf_rmsf": _count_iterations,
    "rmsf.cgf_rmsf": _count_iterations,
}


class Tracer:
    """Context manager that patches the layers on entry and restores them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.starts[sid] = t0
                self.ends[sid] = t1
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def __enter__(self):
        # keyed by id: the originals stay alive in their modules while patched
        wrappers = {}
        for mod, funcs in LAYERS.items():
            module = sys.modules[f"gfkit.{mod}"]
            for func in funcs:
                original = getattr(module, func)
                wrappers[id(original)] = self._wrap(f"{mod}.{func}", original)
        for modname, module in list(sys.modules.items()):
            if modname != "gfkit" and not modname.startswith("gfkit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[sid] - self.starts[sid]
        return out

    def summary(self, requests) -> dict:
        """Per-span-name calls, total and self seconds, over the given request ids."""
        wanted = set(requests)
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name in enumerate(self.names):
            if self.requests[sid] in wanted:
                entry = out[name]
                entry["calls"] += 1
                entry["total_s"] += self.ends[sid] - self.starts[sid]
                entry["self_s"] += selfs[sid]
        return dict(out)

    def top_level_seconds(self, request: int) -> float:
        """Time covered by the request's top-level spans."""
        return sum(
            self.ends[sid] - self.starts[sid]
            for sid, parent in enumerate(self.parents)
            if parent < 0 and self.requests[sid] == request
        )
