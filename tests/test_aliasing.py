"""The moment kernels work in place only on arrays they allocate.

Callers reuse what they pass in: the rolling schemes feed the same
coefficient fields to the q and G updates and keep them in snapshots, and
pass the previous iterate as the fallback prior. So no kernel may write
into an argument or hand one back as its result.
"""

import numpy as np
import pytest

from gfkit.boxops import box_sum
from gfkit.core import Boundary, WindowSpec
from gfkit.gf import GfCoeffs, gf_apply, gf_coeffs
from gfkit.igf import icgf_update, igf_update
from gfkit.rmsf import alpha_weight, cgf_rmsf, gf_rmsf


@pytest.mark.parametrize("boundary", [Boundary.TRUNCATE, Boundary.PERIODIC])
@pytest.mark.parametrize("r", [0, 2])
def test_kernels_leave_inputs_unchanged_and_return_fresh_arrays(r, boundary):
    w = WindowSpec(r, boundary)
    rng = np.random.default_rng(10 * r + (boundary is Boundary.PERIODIC))
    p, guide, g, prior = (rng.random((9, 11)) for _ in range(4))
    fitted = gf_coeffs(p, guide, w, 0.1)
    # zero slopes make every pixel degenerate, so the updates copy the prior
    flat = GfCoeffs(a=np.zeros_like(p), b=rng.random(p.shape))
    inputs = [p, guide, g, prior, fitted.a, fitted.b, flat.a, flat.b]
    before = [x.copy() for x in inputs]

    fresh = gf_coeffs(p, guide, w, 0.1)
    outputs = [box_sum(p, w), fresh.a, fresh.b, alpha_weight(fitted.a, w)]
    for coeffs in (fitted, flat):
        outputs += [
            gf_apply(coeffs, guide, w),
            igf_update(coeffs, p, w, prior),
            icgf_update(coeffs, p, g, w, 0.0, prior),
            icgf_update(coeffs, p, g, w, 0.5, prior),
        ]
    np.testing.assert_array_equal(outputs[-3], prior)
    gf_rmsf(p, guide, 0.1, 0.1, w, 2)
    cgf_rmsf(p, guide, 0.1, 0.1, 0.5, 0.5, w, 2)

    for x, saved in zip(inputs, before):
        np.testing.assert_array_equal(x, saved)
    for i, out in enumerate(outputs):
        for other in inputs + outputs[:i]:
            assert not np.shares_memory(out, other)
