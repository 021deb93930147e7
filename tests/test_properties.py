"""Generated-case properties of the filters: constants are fixed points,
and gf is affine-equivariant in its input."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gfkit.cgf import cgf
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import gf
from gfkit.tvgf import tvgf

BOTH = [Boundary.TRUNCATE, Boundary.PERIODIC]
values = st.floats(-100.0, 100.0, allow_nan=False)
unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def guided_cases(draw, boundaries=BOTH):
    """(guide, window, eps): any guide on [0, 1], a window that fits it."""
    shape = (draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    boundary = draw(st.sampled_from(boundaries))
    r_max = (min(shape) - 1) // 2 if boundary is Boundary.PERIODIC else 5
    w = WindowSpec(draw(st.integers(0, r_max)), boundary)
    eps = draw(st.floats(1e-3, 10.0))
    return draw(arrays(np.float64, shape, elements=unit)), w, eps


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
