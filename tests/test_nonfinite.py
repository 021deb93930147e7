"""Every filter and rolling scheme rejects a NaN or an Inf in its input
or its guide: box_sum raises, and nothing computes on past it. The anchor
g of cgf, cgf_roll and icgf is never box-summed, so those entry points
check it themselves, and so do igf_update and icgf_update for their p,
their prior and (at lambda > 0) their anchor g. A NaN or Inf weight
(lambda, beta, tau) or a NaN eps is rejected by name before any
computation."""

import sys
import warnings

import numpy as np
import pytest

from gfkit.cgf import cgf, cgf_roll
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import GfCoeffs, gf, gf_coeffs
from gfkit.igf import icgf, icgf_update, igf, igf_update
from gfkit.rfnf import enhanced_flash, rfnf_gen, rfnf_seo
from gfkit.rmsf import cgf_rmsf, gf_rmsf
from gfkit.tvgf import tvgf

TRUNC = WindowSpec(2, Boundary.TRUNCATE)
PERIODIC = WindowSpec(2, Boundary.PERIODIC)

# each entry runs one filter on (p, guide); the anchors g stay finite
FILTERS = {
    "gf": lambda p, g: gf(p, g, TRUNC, 0.01),
    "cgf": lambda p, g: cgf(p, g, np.zeros_like(p), TRUNC, 0.01, 0.5),
    "tvgf": lambda p, g: tvgf(p, g, PERIODIC, 0.01, 1.0),
    "igf": lambda p, g: igf(p, g, TRUNC, 0.01),
    "icgf": lambda p, g: icgf(p, g, np.zeros_like(p), TRUNC, 0.01, 0.5),
    "gf_rmsf": lambda p, g: gf_rmsf(p, g, 0.01, 0.01, TRUNC, 2),
    "cgf_rmsf": lambda p, g: cgf_rmsf(p, g, 0.01, 0.01, 0.5, 0.5, TRUNC, 2),
    "rfnf_gen": lambda p, g: rfnf_gen(p, g, TRUNC, 0.01, 0.5, 1.5, 2),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("spoiled", ["p", "guide"])
@pytest.mark.parametrize("name", sorted(FILTERS))
def test_filter_rejects_non_finite(name, spoiled, bad):
    rng = np.random.default_rng(4)
    p, guide = rng.random((12, 10)), rng.random((12, 10))
    (p if spoiled == "p" else guide)[5, 7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fails before any numpy RuntimeWarning
        with pytest.raises(ValueError, match="NaN or Inf in the input of a box sum"):
            FILTERS[name](p, guide)


ANCHORED = {
    "cgf": lambda p, g: cgf(p, p, g, TRUNC, 0.01, 0.5),
    "cgf_roll": lambda p, g: cgf_roll(p, p, g, PERIODIC, 0.01, 0.5, 3),
    "icgf": lambda p, g: icgf(p, p, g, TRUNC, 0.01, 0.5),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (5, 7), (11, 9)])
@pytest.mark.parametrize("name", sorted(ANCHORED))
def test_anchored_filter_rejects_non_finite_anchor(name, where, bad):
    rng = np.random.default_rng(5)
    p, g = rng.random((12, 10)), rng.random((12, 10))
    g[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN or Inf in the anchor g"):
            ANCHORED[name](p, g)


NAN, INF = float("nan"), float("inf")

# each entry runs one entry point on (p, g) with one weight out of range,
# and names the parameter the error must blame
WEIGHTS = {
    "cgf-lambda-nan": (lambda p, g: cgf(p, p, g, TRUNC, 0.01, NAN), "lambda"),
    "cgf-lambda-inf": (lambda p, g: cgf(p, p, g, TRUNC, 0.01, INF), "lambda"),
    "cgf_roll-lambda-inf": (lambda p, g: cgf_roll(p, p, g, TRUNC, 0.01, INF, 2), "lambda"),
    "icgf-lambda-nan": (lambda p, g: icgf(p, p, g, TRUNC, 0.01, NAN), "lambda"),
    "tvgf-lambda-nan": (lambda p, g: tvgf(p, g, PERIODIC, 0.01, NAN), "lambda"),
    "rfnf_gen-tau-nan": (lambda p, g: rfnf_gen(p, g, TRUNC, 0.01, 0.5, NAN, 1), "tau"),
    "rfnf_gen-lambda-inf": (lambda p, g: rfnf_gen(p, g, TRUNC, 0.01, INF, 1.0, 1), "lambda"),
    "rfnf_seo-lambda-nan": (lambda p, g: rfnf_seo(p, g, TRUNC, 0.01, NAN, 1), "lambda"),
    "cgf_rmsf-beta-nan": (lambda p, g: cgf_rmsf(p, g, 0.01, 0.01, 0.5, NAN, TRUNC, 1), "beta"),
    "cgf_rmsf-lambda-inf": (lambda p, g: cgf_rmsf(p, g, 0.01, 0.01, INF, 0.5, TRUNC, 1), "lambda"),
    "enhanced_flash-tau-inf": (lambda p, g: enhanced_flash(g, TRUNC, 0.01, INF), "tau"),
    "gf-eps-nan": (lambda p, g: gf(p, g, TRUNC, NAN), "eps"),
    "igf-eps-nan": (lambda p, g: igf(p, g, TRUNC, NAN), "eps"),
    "gf_rmsf-eps2-nan": (lambda p, g: gf_rmsf(p, g, 0.01, NAN, TRUNC, 1), "eps2"),
}


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_non_finite_weight_is_rejected_by_name(name):
    rng = np.random.default_rng(6)
    p, g = rng.random((12, 10)), rng.random((12, 10))
    call, param = WEIGHTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{param} must be"):
            call(p, g)


# zero coefficients make every pixel degenerate, so the prior is the output
UPDATES = {
    "igf_update": lambda c, p, prior: igf_update(c, p, TRUNC, prior),
    "icgf_update": lambda c, p, prior: icgf_update(c, p, p, TRUNC, 0.0, prior),
    "icgf_update-anchored": lambda c, p, prior: icgf_update(c, p, p, TRUNC, 0.5, prior),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(UPDATES))
def test_inverse_update_rejects_non_finite_prior(name, bad):
    rng = np.random.default_rng(7)
    p, prior = rng.random((32, 32)), rng.random((32, 32))
    zeros = GfCoeffs(np.zeros_like(p), np.zeros_like(p))
    assert np.array_equal(UPDATES["igf_update"](zeros, p, prior), prior)
    prior[3, 4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN or Inf in prior"):
            UPDATES[name](zeros, p, prior)


@pytest.mark.parametrize("scheme", ["gf_rmsf", "cgf_rmsf"])
def test_rmsf_loop_adds_no_prior_scan(scheme, monkeypatch):
    # the loop's priors are its tracks, already box-summed in every fit
    scans = []
    monkeypatch.setattr(sys.modules["gfkit.igf"], "require_finite", lambda x, what: scans.append(what))
    rng = np.random.default_rng(8)
    p, g = rng.random((12, 10)), rng.random((12, 10))
    FILTERS[scheme](p, g)
    assert scans == []


# each entry calls one update on (coeffs, p, g, prior) and names the
# inputs it must scan
DIRECT = {
    "igf_update": (lambda c, p, g, prior: igf_update(c, p, TRUNC, prior), ("p",)),
    "icgf_update": (lambda c, p, g, prior: icgf_update(c, p, g, TRUNC, 0.0, prior), ("p",)),
    "icgf_update-anchored": (
        lambda c, p, g, prior: icgf_update(c, p, g, TRUNC, 0.5, prior), ("p", "g")),
}
MESSAGES = {"p": "NaN or Inf in p", "g": "NaN or Inf in the anchor g"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (16, 13), (31, 31)], ids=["corner", "mid", "last"])
@pytest.mark.parametrize("spoiled", ["p", "g"])
@pytest.mark.parametrize("name", sorted(DIRECT))
def test_inverse_update_rejects_non_finite_input(name, spoiled, where, bad):
    rng = np.random.default_rng(9)
    p, g, prior = rng.random((32, 32)), rng.random((32, 32)), rng.random((32, 32))
    coeffs = gf_coeffs(p, prior, TRUNC, 0.01)  # finite, not degenerate: p reaches every pixel
    call, scanned = DIRECT[name]
    clean = call(coeffs, p, g, prior)
    (p if spoiled == "p" else g)[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if spoiled in scanned:
            with pytest.raises(ValueError, match=MESSAGES[spoiled]):
                call(coeffs, p, g, prior)
        else:  # an anchor at lambda = 0 is never read
            assert np.array_equal(call(coeffs, p, g, prior), clean)


@pytest.mark.parametrize("name,scans", [
    ("igf", []),
    ("icgf", ["the anchor g"]),
])
def test_one_shot_inverse_scans_only_what_no_box_pass_reads(name, scans, monkeypatch):
    # p and the guess go through the fit's box passes; only icgf's anchor does not
    seen = []
    monkeypatch.setattr(sys.modules["gfkit.igf"], "require_finite",
                        lambda x, what: seen.append(what))
    rng = np.random.default_rng(10)
    p, g = rng.random((12, 10)), rng.random((12, 10))
    FILTERS[name](p, g)
    assert seen == scans
