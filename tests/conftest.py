"""Shared fixtures.

``count_box_passes`` counts calls of ``box_sum``. Every module imports it
by name, so each ``gfkit`` module binding of the function is rebound to
one counting wrapper while the measured call runs, then restored.
"""

import sys

import pytest

import gfkit.boxops


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
