"""The plain filters are their anchored twins at zero weight, bit for bit.

igf, gf_rmsf and the additive flash scheme run the same code as icgf,
cgf_rmsf and the anchored flash scheme, with the anchor dropped at
lam = 0 (and beta = 0). So each pair must agree exactly, at every pixel,
on both boundaries; criterion 03 keeps its round-off tolerances as the
looser regression guard. (cgf at lam = 0 against gf is pinned in
test_cgf.py.)
"""

import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec
from gfkit.igf import icgf, igf
from gfkit.rfnf import rfnf_gen, rfnf_seo
from gfkit.rmsf import cgf_rmsf, gf_rmsf

WINDOWS = pytest.mark.parametrize(
    "w", [WindowSpec(2, Boundary.TRUNCATE), WindowSpec(2, Boundary.PERIODIC)],
    ids=["truncate", "periodic"],
)


def _pair(seed):
    rng = np.random.default_rng(seed)
    return rng.random((15, 19)), rng.random((15, 19))


@WINDOWS
@pytest.mark.parametrize("input_kind", ["random", "half-constant", "constant"])
def test_icgf_at_lambda_zero_is_igf(w, input_kind):
    p, guess = _pair(1)
    if input_kind == "half-constant":
        p[:, :9] = 0.4
    elif input_kind == "constant":
        p[:] = 0.4
    got = icgf(p, guess, guess, w, 0.05, 0.0)
    want = igf(p, guess, w, 0.05)
    assert np.array_equal(got, want)
    kept = got == guess  # degenerate pixels keep the guess
    assert {"random": not kept.any(), "half-constant": 0 < kept.sum() < kept.size,
            "constant": kept.all()}[input_kind]


@WINDOWS
def test_cgf_rmsf_at_zero_anchors_is_gf_rmsf(w):
    p, guide = _pair(2)
    plain = gf_rmsf(p, guide, 0.1, 0.05, w, 3)
    anchored = cgf_rmsf(p, guide, 0.1, 0.05, 0.0, 0.0, w, 3)
    assert np.array_equal(plain.q, anchored.q)
    assert np.array_equal(plain.G, anchored.G)


@WINDOWS
def test_rfnf_gen_at_lambda_zero_is_rfnf_seo(w):
    noflash, flash = _pair(3)
    got = rfnf_gen(noflash, flash, w, 0.1, 0.0, 1.5, 3)
    want = rfnf_seo(noflash, flash, w, 0.1, 0.0, 3)
    assert np.array_equal(got, want)
