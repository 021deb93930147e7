"""Generated-case properties of the filters: constants are fixed points,
gf is affine-equivariant in its input, the closed-form energy is the
per-window sum, and no row of criterion 02's descent table raises it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gfkit.cgf import cgf
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import anchor_term, energy_gf, gf, gf_coeffs
from gfkit.rfnf import detail_term
from gfkit.tvgf import tv_term, tvgf

from oracles import energy_gf_reordered
from test_acceptance import ccd_rows, descent_table

BOTH = [Boundary.TRUNCATE, Boundary.PERIODIC]
values = st.floats(-100.0, 100.0, allow_nan=False)
unit = st.floats(0.0, 1.0, allow_nan=False)
decades = st.floats(-4.0, 0.0).map(lambda e: 10.0**e)  # eps from 1e-4 to 1


@st.composite
def guided_cases(draw, boundaries=BOTH, wide=False, eps=st.floats(1e-3, 10.0)):
    """(guide, window, eps): any guide on [0, 1], a window that fits it.

    A truncated window has a radius up to 5, or with ``wide`` up to the
    image's larger side, so that it can be taller or wider than the image.
    """
    shape = (draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    boundary = draw(st.sampled_from(boundaries))
    if boundary is Boundary.PERIODIC:
        r_max = (min(shape) - 1) // 2
    else:
        r_max = max(shape) if wide else 5
    w = WindowSpec(draw(st.integers(0, r_max)), boundary)
    return draw(arrays(np.float64, shape, elements=unit)), w, draw(eps)


def _assert_constant(out, c):
    assert np.max(np.abs(out - c)) <= 1e-12 * max(1.0, abs(c))


@settings(max_examples=100, deadline=None)
@given(guided_cases(), values)
def test_gf_keeps_a_constant(case, c):
    guide, w, eps = case
    _assert_constant(gf(np.full(guide.shape, c), guide, w, eps), c)


@settings(max_examples=100, deadline=None)
@given(guided_cases(), values, st.floats(0.0, 10.0))
def test_cgf_keeps_a_constant_with_that_anchor(case, c, lam):
    guide, w, eps = case
    p = np.full(guide.shape, c)
    _assert_constant(cgf(p, guide, p, w, eps, lam), c)


@settings(max_examples=100, deadline=None)
@given(guided_cases([Boundary.PERIODIC]), values, st.floats(0.0, 100.0))
def test_tvgf_keeps_a_constant(case, c, lam):
    # tvgf runs on periodic windows only
    guide, w, eps = case
    _assert_constant(tvgf(np.full(guide.shape, c), guide, w, eps, lam), c)


@settings(max_examples=100, deadline=None)
@given(guided_cases(), st.data())
def test_gf_is_affine_equivariant(case, data):
    guide, w, eps = case
    p = data.draw(arrays(np.float64, guide.shape, elements=unit))
    alpha = data.draw(st.floats(-100.0, 100.0))
    beta = data.draw(values)
    got = gf(alpha * p + beta, guide, w, eps)
    want = alpha * gf(p, guide, w, eps) + beta
    assert np.max(np.abs(got - want)) <= 1e-12 * (abs(alpha) + abs(beta) + 1.0)


@settings(max_examples=100, deadline=None)
@given(guided_cases(), st.sampled_from(["none", "anchor", "tv", "detail"]), st.data())
def test_energy_is_the_per_window_sum(case, kind, data):
    guide, w, eps = case
    q, p, g = (data.draw(arrays(np.float64, guide.shape, elements=unit)) for _ in range(3))
    lam = data.draw(st.floats(0.0, 100.0))
    if kind == "tv" and w.boundary is not Boundary.PERIODIC:
        kind = "anchor"  # the TV term runs on periodic windows only
    term = {"none": lambda: None, "anchor": lambda: anchor_term(g, lam),
            "tv": lambda: tv_term(guide.shape, w, lam),
            "detail": lambda: detail_term(lam * (g - 0.5), w),
            }[kind]()
    fit = gf_coeffs(p, guide, w, eps)
    got = energy_gf(q, fit, guide, w, eps, term).total
    want = energy_gf_reordered(q, fit.a, fit.b, guide, w, eps) + (term.value(q) if term else 0.0)
    # relative to the sum of the squares of |a G| + |b| + |q|, which bounds
    # every sum that cancels; a vanishing energy has no relative error
    size = energy_gf_reordered(-np.abs(q), np.abs(fit.a), np.abs(fit.b), np.abs(guide), w, eps)
    assert abs(got - want) <= 1e-12 * (abs(want) + size)


PASSES = 3


def images(shape):
    """Images on [0, 1]: random, binary, or within 1e-6 of a constant."""
    return st.one_of(
        arrays(np.float64, shape, elements=unit),
        arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0])),
        arrays(np.float64, shape, elements=st.floats(0.0, 1e-6)).map(lambda x: x + 0.5),
    )


@settings(max_examples=100, deadline=None)
@given(guided_cases(wide=True, eps=decades), decades, st.floats(0.0, 100.0), st.data())
def test_rolls_never_raise_the_energy(case, eps2, lam, data):
    # every row of criterion 02's table, built by its own functions, each
    # iterate priced with the fit it was solved from, at the table's 1e-9
    # slack
    guide, w, eps = case  # the guide is redrawn, as the input is, from ``images``
    p, guide = (data.draw(images(guide.shape)) for _ in range(2))
    for name, rises, *_ in ccd_rows(p, guide, w, eps, eps2, lam, PASSES):
        assert np.all(rises <= 1e-9), f"{name} rose by {rises.max():.2e}"


def test_the_generated_rows_are_criterion_02s():
    # on a periodic window the generated cases run every row of the table
    rng = np.random.default_rng(0)
    p, guide = rng.random((8, 8)), rng.random((8, 8))
    w = WindowSpec(1, Boundary.PERIODIC)
    generated = {name for name, *_ in ccd_rows(p, guide, w, 0.1, 0.05, 2.0, 1)}
    assert generated == {name for name, *_ in descent_table(p, guide, 1)}
