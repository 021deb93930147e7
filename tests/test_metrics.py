import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import correlate1d

import gfkit.boxops
from gfkit.boxops import _strip_rows
from gfkit.metrics import (
    SSIM_SIGMA,
    SSIM_WINDOW,
    _gaussian_window,
    mse,
    psnr,
    ssim,
)

from conftest import peak_bytes
from oracles import naive_ssim

# printed (PSNR, MSE) rows that are self-consistent under peak 1.0:
# 10*log10(1/mse) must land on the printed PSNR within the rounding
# interval of the 4-decimal MSE
CONSISTENT_PAIRS = [
    (21.8370, 0.0066),
    (24.5191, 0.0035),
]


class TestMse:
    def test_identical_zero(self):
        x = np.random.default_rng(0).random((8, 8))
        assert mse(x, x) == 0.0

    def test_constant_offset(self):
        assert mse(np.full((5, 5), 0.0), np.full((5, 5), 0.1)) == pytest.approx(0.01)

    def test_symmetry_and_nonnegative(self):
        rng = np.random.default_rng(1)
        x, y = rng.random((9, 9)), rng.random((9, 9))
        assert mse(x, y) == mse(y, x) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones((3, 3)), np.ones((3, 4)))


@pytest.mark.filterwarnings("error")  # raised before numpy computes on the value
class TestRejectsNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spoiled", ["x", "y"])
    @pytest.mark.parametrize("where", [(0, 0), (20, 1000), (-1, -1)])
    @pytest.mark.parametrize("metric", [mse, psnr, ssim])
    def test_non_finite_raises(self, metric, where, spoiled, bad):
        # 40 rows at width 2048 make two SSIM strips; the spoiled pixel sits
        # in the first row and a border column, mid-plane, or in the last
        # row and column
        rng = np.random.default_rng(6)
        x, y = rng.random((40, 2048)), rng.random((40, 2048))
        (x if spoiled == "x" else y)[where] = bad
        with pytest.raises(ValueError, match=f"NaN or Inf in {spoiled}"):
            metric(x, y)


class TestPsnr:
    def test_identical_is_inf(self):
        x = np.random.default_rng(2).random((8, 8))
        assert psnr(x, x) == math.inf

    def test_known_value(self):
        x = np.full((10, 10), 0.0)
        y = np.full((10, 10), 0.1)
        assert psnr(x, y) == pytest.approx(20.0)

    @pytest.mark.parametrize("printed_psnr,printed_mse", CONSISTENT_PAIRS)
    def test_peak_one_consistency(self, printed_psnr, printed_mse):
        lo = 10 * math.log10(1.0 / (printed_mse + 5e-5))
        hi = 10 * math.log10(1.0 / (printed_mse - 5e-5))
        assert lo <= printed_psnr <= hi

    def test_monotone_decreasing_in_mse(self):
        x = np.full((6, 6), 0.0)
        values = [psnr(x, np.full((6, 6), v)) for v in (0.05, 0.1, 0.2)]
        assert values[0] > values[1] > values[2]


class TestSsim:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(3).random((16, 16))
        assert ssim(x, x) == 1.0

    def test_inverted_midgray_image_low(self):
        rng = np.random.default_rng(4)
        x = 0.5 + 0.3 * (rng.random((16, 16)) - 0.5)
        assert ssim(x, 1.0 - x) < 0.5

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(5)
        x, y = rng.random((16, 16)), rng.random((16, 16))
        assert ssim(x, y) == pytest.approx(naive_ssim(x, y), abs=1e-10)

    def test_constant_pair_luminance_only(self):
        mu1, mu2 = 0.4, 0.5
        c1 = 0.01**2
        want = (2 * mu1 * mu2 + c1) / (mu1**2 + mu2**2 + c1)
        got = ssim(np.full((16, 16), mu1), np.full((16, 16), mu2))
        assert got == pytest.approx(want, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x, y = rng.random((12, 12)), rng.random((12, 12))
            assert -1.0 <= ssim(x, y) <= 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.ones((8, 8)), np.ones((8, 8)))


def whole_plane_ssim(x, y):
    """SSIM as two zero-padded correlate1d passes per local mean over the
    whole plane, cropped to the interior: the formula the strip-streamed
    ``ssim`` must reproduce bit for bit. The denominator reads var_x + var_y
    as E[x^2 + y^2] - (mu_x^2 + mu_y^2), so four fields are filtered."""
    k = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    r = SSIM_WINDOW // 2

    def local_mean(z):
        z = correlate1d(correlate1d(z, k, axis=0, mode="constant"), k, axis=1, mode="constant")
        return z[r:-r, r:-r]

    c1, c2 = 0.01**2, 0.03**2
    mu_x, mu_y = local_mean(x), local_mean(y)
    means = mu_x * mu_x + mu_y * mu_y
    cov = local_mean(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (means + c1) * (local_mean(x * x + y * y) - means + c2)
    return float(np.mean(num / den))


def _strip_boundary_shapes(width):
    # interior heights one row below, at and one above four and five strips
    # of ssim's strip loop, each_strip over the interior grid: from four
    # strips up the byte budget, not the quarter cap, sets the strip height
    rows = _strip_rows((1 << 20, width))
    interiors = [n * rows + d for n in (4, 5) for d in (-1, 0, 1)]
    assert [_strip_rows((h, width)) for h in interiors] == [rows] * 6
    return [(h + SSIM_WINDOW - 1, width) for h in interiors]


class TestSsimStrips:
    @pytest.mark.parametrize(
        "shape",
        [(11, 11), (11, 300), (300, 11), (12, 11), (11, 12), (40, 33)]
        + _strip_boundary_shapes(300)
        + _strip_boundary_shapes(2048),
    )
    def test_bit_equal_to_whole_plane_formula(self, shape):
        rng = np.random.default_rng(shape[0] * 7919 + shape[1])
        x, y = rng.random(shape), rng.random(shape)
        assert ssim(x, y) == whole_plane_ssim(x, y)

    @pytest.mark.parametrize("layout", ["transposed", "strided", "reversed"])
    def test_bit_equal_on_views(self, layout):
        rng = np.random.default_rng(11)
        base_x, base_y = rng.random((140, 90)), rng.random((140, 90))
        view = {
            "transposed": lambda a: a.T,
            "strided": lambda a: a[::2, ::3],
            "reversed": lambda a: a[::-1, ::-1],
        }[layout]
        x, y = view(base_x), view(base_y)
        assert ssim(x, y) == whole_plane_ssim(x, y)

    def test_bit_equal_at_1080p(self):
        rng = np.random.default_rng(13)
        x = rng.random((1080, 1920))
        y = np.clip(x + 0.1 * rng.standard_normal(x.shape), 0.0, 1.0)
        assert ssim(x, y) == whole_plane_ssim(x, y)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_peak_memory_below_two_planes_at_1080p(self, monkeypatch, workers):
        # at any worker count: the runs of strips, each with blocks of its
        # own, are capped by the rows their blocks hold, halo included
        monkeypatch.setattr(gfkit.boxops, "_WORKERS", workers)
        rng = np.random.default_rng(14)
        x, y = rng.random((1080, 1920)), rng.random((1080, 1920))
        # a cold call: a warm-up would leave SSIM's one-time allocations out
        assert peak_bytes(lambda: ssim(x, y), warm_up=False) < 2 * x.nbytes


@st.composite
def ssim_pairs(draw):
    shape = (draw(st.integers(11, 22)), draw(st.integers(11, 22)))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    return draw(arrays(np.float64, shape, elements=unit)), draw(arrays(np.float64, shape, elements=unit))


@settings(max_examples=40, deadline=None)
@given(ssim_pairs())
def test_ssim_matches_naive_property(pair):
    x, y = pair
    assert ssim(x, y) == pytest.approx(naive_ssim(x, y), abs=1e-10)
