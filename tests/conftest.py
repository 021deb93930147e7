"""Shared fixtures and helpers.

``count_box_passes`` counts calls of ``box_sum``. Every module imports it
by name, so each ``gfkit`` module binding of the function is rebound to
one counting wrapper while the measured call runs, then restored.
``peak_bytes`` is the one tracemalloc measurement of the memory tests, and
``peak_planes`` the same peak counted in float planes. ``fresh_python``
runs a script in a new interpreter, for what only a process's first
import or first call shows.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gfkit.boxops


def peak_bytes(call, warm_up=True, runs=1) -> int:
    """Least tracemalloc allocation peak of ``runs`` calls of call(), after
    one untraced call unless ``warm_up`` is False: one-time allocations
    then do not count, and a test that bounds a cold call turns it off."""
    if warm_up:
        call()
    peaks = []
    for _ in range(runs):
        # a cyclic collection that fired inside one traced call and not
        # another moved its peak by up to about 90 KB; right after a full
        # collection none is due
        gc.collect()
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def peak_planes(call, shape) -> float:
    """``peak_bytes(call)`` in float64 planes of the given (height, width)."""
    return peak_bytes(call) / (8 * shape[0] * shape[1])


def fresh_python(script: str, *argv: str) -> None:
    """Runs ``script`` with ``argv`` in a new interpreter that imports this
    ``gfkit``, and fails the test unless it exits 0."""
    src = str(Path(gfkit.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.fixture
def count_box_passes():
    """count_box_passes(call) runs call() and returns the box passes it made."""
    original = gfkit.boxops.box_sum

    def count(call) -> int:
        calls = 0

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        patched = []
        for name, module in list(sys.modules.items()):
            if name != "gfkit" and not name.startswith("gfkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, attr))
                    setattr(module, attr, counting)
        try:
            call()
        finally:
            for module, attr in patched:
                setattr(module, attr, original)
        return calls

    return count
