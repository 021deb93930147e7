"""Every filter and rolling scheme rejects a NaN or an Inf in its input
or its guide: box_sum raises, and nothing computes on past it. Each plane
that no box pass reads is scanned by the entry point that takes it: the
anchor g of cgf, cgf_roll and icgf; the guide of gf_apply; the f of
tvgf_solve_q, which the Fourier solve would spread over the whole plane;
and what an energy prices without a box pass, the fit's a and b of
energy_gf, energy_tvgf and energy_mutual (whose inverse fit is named c
and d) and the anchor g of energy_cgf. The inverse update icgf_update
(and igf_update, its lambda = 0 case) scans nothing: igf, icgf and the
rmsf loop hand it only planes their fits box-sum or they scan, at
lambda = 0 it never reads its anchor, and called directly it lets a NaN
or Inf through. A NaN or Inf weight (lambda, beta, tau, eps, eps2) is
rejected by name before any computation, and a complex image before its
cast to float."""

import sys
import warnings

import numpy as np
import pytest

from gfkit.cgf import cgf, cgf_roll, energy_cgf
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import GfCoeffs, energy_gf, gf, gf_apply, gf_coeffs
from gfkit.igf import icgf, icgf_update, igf, igf_update
from gfkit.imgio import quantize
from gfkit.rfnf import enhanced_flash, rfnf_gen, rfnf_seo
from gfkit.rmsf import MutualState, cgf_rmsf, energy_mutual, gf_rmsf, naive_roll37
from gfkit.tvgf import energy_tvgf, tvgf, tvgf_solve_q

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
    "rfnf_seo": lambda p, g: rfnf_seo(p, g, TRUNC, 0.01, 0.5, 2),
    "naive_roll37": lambda p, g: naive_roll37(p, g, 0.01, TRUNC, 2),
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


@pytest.mark.parametrize("spoiled", ["p", "guide"])
@pytest.mark.parametrize("name", sorted(FILTERS))
def test_filter_rejects_a_complex_image(name, spoiled):
    # the cast to float once kept the real part, with only a ComplexWarning
    rng = np.random.default_rng(4)
    p, guide = rng.random((12, 10)), rng.random((12, 10))
    if spoiled == "p":
        p = p + 1j * p
    else:
        guide = guide + 1j * guide
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="expected a real image, got dtype complex128"):
            FILTERS[name](p, guide)


def test_quantize_rejects_a_complex_image():
    x = np.full((4, 4), 0.5, dtype=np.complex64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="expected a real image, got dtype complex64"):
            quantize(x)


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
    # an infinite ridge returned the box mean, and priced a ridge of nan
    "gf-eps-inf": (lambda p, g: gf(p, g, TRUNC, INF), "eps"),
    "energy_gf-eps-inf": (lambda p, g: energy_gf(p, gf_coeffs(p, g, TRUNC, 0.01), g, TRUNC, INF),
                          "eps"),
    "gf_rmsf-eps2-inf": (lambda p, g: gf_rmsf(p, g, 0.01, INF, TRUNC, 1), "eps2"),
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


@pytest.mark.parametrize("name,scans", [
    ("igf", []),
    ("icgf", ["the anchor g"]),
    ("gf_rmsf", []),
    ("cgf_rmsf", []),
], ids=["igf", "icgf", "gf_rmsf", "cgf_rmsf"])
def test_rmsf_loop_adds_no_prior_scan(name, scans, monkeypatch):
    # the inverse update scans nothing: the one-shot inverses' p and guess
    # and the loop's priors, its tracks, are box-summed in every fit, and
    # only icgf's anchor is scanned, by icgf itself
    seen = []
    monkeypatch.setattr(sys.modules["gfkit.igf"], "require_finite", lambda x, what: seen.append(what))
    rng = np.random.default_rng(8)
    p, g = rng.random((12, 10)), rng.random((12, 10))
    FILTERS[name](p, g)
    assert seen == scans


# each entry calls one update at lambda = 0 on (coeffs, p, g, prior)
UNANCHORED = {
    "igf_update": lambda c, p, g, prior: igf_update(c, p, TRUNC, prior),
    "icgf_update": lambda c, p, g, prior: icgf_update(c, p, g, TRUNC, 0.0, prior),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (16, 13), (31, 31)], ids=["corner", "mid", "last"])
@pytest.mark.parametrize("name", sorted(UNANCHORED))
def test_unanchored_update_never_reads_the_anchor(name, where, bad):
    rng = np.random.default_rng(9)
    p, g, prior = rng.random((32, 32)), rng.random((32, 32)), rng.random((32, 32))
    coeffs = gf_coeffs(p, prior, TRUNC, 0.01)  # finite: only a read of g could change the output
    call = UNANCHORED[name]
    clean = call(coeffs, p, g, prior)
    g[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(call(coeffs, p, g, prior), clean)


# each entry calls one update on (coeffs, p, prior) and names what zero
# coefficients make its output: every pixel is degenerate at lambda = 0, so
# the prior is the output; at lambda > 0 none is, and the anchor (here p) is
UPDATES = {
    "igf_update": (lambda c, p, prior: igf_update(c, p, TRUNC, prior), "prior"),
    "icgf_update": (lambda c, p, prior: icgf_update(c, p, p, TRUNC, 0.0, prior), "prior"),
    "icgf_update-anchored": (lambda c, p, prior: icgf_update(c, p, p, TRUNC, 0.5, prior), "p"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(UPDATES))
def test_direct_update_lets_a_non_finite_prior_through(name, bad):
    # called directly the update scans nothing: a degenerate pixel copies
    # its prior, non-finite or not, and a pixel that is not never reads it
    rng = np.random.default_rng(7)
    p, prior = rng.random((32, 32)), rng.random((32, 32))
    zeros = GfCoeffs(np.zeros_like(p), np.zeros_like(p))
    call, output = UPDATES[name]
    prior[3, 4] = bad
    expected = {"prior": prior, "p": p}[output].copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = call(zeros, p, prior)
    assert np.array_equal(out, expected, equal_nan=True)


# each entry runs one public inverse filter on (p, guess); the anchor is finite
INVERSES = {
    "igf": lambda p, guess: igf(p, guess, TRUNC, 0.01),
    "icgf": lambda p, guess: icgf(p, guess, np.zeros_like(p), TRUNC, 0.01, 0.0),
    "icgf-anchored": lambda p, guess: icgf(p, guess, np.zeros_like(p), TRUNC, 0.01, 0.5),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (16, 13), (31, 31)], ids=["corner", "mid", "last"])
@pytest.mark.parametrize("spoiled", ["p", "guess"])
@pytest.mark.parametrize("name", sorted(INVERSES))
def test_inverse_filter_rejects_non_finite_input_before_the_solve(
        name, spoiled, where, bad, monkeypatch):
    # the update no longer scans p or its prior, the guess: the fit's box
    # passes must catch either at every pixel before the solve is reached
    solves = []
    monkeypatch.setattr(sys.modules["gfkit.igf"], "icgf_update", lambda *a, **k: solves.append(a))
    rng = np.random.default_rng(9)
    p, guess = rng.random((32, 32)), rng.random((32, 32))
    (p if spoiled == "p" else guess)[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN or Inf in the input of a box sum"):
            INVERSES[name](p, guess)
    assert solves == []


# each entry hands one public update or energy a plane that it reads but
# never box-sums, and names that plane; every other plane is finite
CLEAN = np.random.default_rng(13).random((12, 10))
FIT = gf_coeffs(CLEAN, CLEAN, TRUNC, 0.01)
ENERGIES = {  # each prices CLEAN, guided by itself, with the fit (a, b)
    "energy_gf": lambda a, b: energy_gf(CLEAN, GfCoeffs(a, b), CLEAN, TRUNC, 0.01),
    "energy_tvgf": lambda a, b: energy_tvgf(CLEAN, GfCoeffs(a, b), CLEAN, PERIODIC, 0.01, 1.0),
    "energy_cgf": lambda a, b: energy_cgf(CLEAN, GfCoeffs(a, b), CLEAN, CLEAN, TRUNC, 0.01, 0.5),
    "energy_mutual": lambda a, b: energy_mutual(
        MutualState(CLEAN, CLEAN, 1), GfCoeffs(a, b), FIT, TRUNC, 0.01, 0.01),
}
PLANES = {
    "gf_apply": (lambda x: gf_apply(FIT, x, TRUNC), "the guide"),
    "tvgf_solve_q": (lambda x: tvgf_solve_q(x, PERIODIC, 1.0), "f"),
    **{f"{name}-a": (lambda x, e=energy: e(x, FIT.b), "the fit's a")
       for name, energy in ENERGIES.items()},
    **{f"{name}-b": (lambda x, e=energy: e(FIT.a, x), "the fit's b")
       for name, energy in ENERGIES.items()},
    "energy_cgf-g": (lambda x: energy_cgf(CLEAN, FIT, CLEAN, x, TRUNC, 0.01, 0.5),
                     "the anchor g"),
    # the inverse fit's planes, once blamed on the forward fit's a and b
    **{f"energy_mutual-{plane}": (
        lambda x, cd=cd: energy_mutual(MutualState(CLEAN, CLEAN, 1), FIT, cd(x), TRUNC, 0.01,
                                       0.01), f"the fit's {plane}")
       for plane, cd in [("c", lambda x: GfCoeffs(x, FIT.b)), ("d", lambda x: GfCoeffs(FIT.a, x))]},
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (5, 7), (11, 9)])
@pytest.mark.parametrize("name", sorted(PLANES))
def test_update_rejects_a_non_finite_plane(name, where, bad):
    # each once returned a NaN image, tvgf_solve_q an all-NaN plane and
    # each energy nan
    x = np.random.default_rng(11).random((12, 10))
    call, what = PLANES[name]
    x[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^NaN or Inf in {what}$"):
            call(x)


@pytest.mark.parametrize("name,module,scans", [
    ("igf", "gfkit.igf", []),
    ("icgf", "gfkit.igf", ["the anchor g"]),
    ("gf_apply", "gfkit.gf", ["the guide"]),
    ("tvgf_solve_q", "gfkit.tvgf", ["f"]),
    ("energy_gf-a", "gfkit.gf", ["the fit's a", "the fit's b"]),
    ("energy_cgf-g", "gfkit.cgf", ["the anchor g"]),
])
def test_scans_only_what_no_box_pass_reads(name, module, scans, monkeypatch):
    # the one-shot inverses' p and guess go through the fit's box passes, and
    # so do gf_apply's a and b and an energy's q and guide; icgf's anchor,
    # gf_apply's guide, tvgf_solve_q's f and an energy's fit and anchor do not
    seen = []
    monkeypatch.setattr(sys.modules[module], "require_finite", lambda x, what: seen.append(what))
    rng = np.random.default_rng(10)
    p, g = rng.random((12, 10)), rng.random((12, 10))
    if name in PLANES:
        PLANES[name][0](p)
    else:
        FILTERS[name](p, g)
    assert seen == scans

