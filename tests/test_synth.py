import numpy as np
import pytest

from gfkit import synth


def test_generators_deterministic():
    a = synth.piecewise(64, 48, seed=3)
    b = synth.piecewise(64, 48, seed=3)
    np.testing.assert_array_equal(a, b)
    f1, n1 = synth.flash_pair(32, 32, seed=9)
    f2, n2 = synth.flash_pair(32, 32, seed=9)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(n1, n2)


def test_noise_sigma_statistics():
    clean, noisy = synth.noise_pair(256, 256, seed=1, sigma=0.05)
    sample = float(np.std(noisy - clean))
    assert abs(sample - 0.05) <= 0.05 * 0.05


def test_piecewise_has_multiple_constant_regions():
    img = synth.piecewise(64, 64, seed=0)
    values, counts = np.unique(img, return_counts=True)
    # at least two levels each covering a meaningful area
    assert np.sum(counts >= 16) >= 2
    assert np.all(img >= 0.0) and np.all(img <= 1.0)


def test_texture_rides_on_structure():
    img = synth.texture_scene(64, 64, seed=2)
    flat = synth.piecewise(64, 64, seed=2)
    # texture adds high-frequency content on top of the same structure
    assert np.std(img - flat) > 0.01
    assert np.max(np.abs(img - flat)) <= 0.09


def test_flash_pair_properties():
    flash, noflash = synth.flash_pair(64, 64, seed=4)
    assert flash.shape == noflash.shape == (64, 64)
    # flash keeps more high-frequency energy than the blurred no-flash shot
    def hf_energy(x):
        return float(np.mean((x - 0.25 * (
            np.roll(x, 1, 0) + np.roll(x, -1, 0) + np.roll(x, 1, 1) + np.roll(x, -1, 1)
        )) ** 2))

    assert hf_energy(flash) > hf_energy(noflash)


def test_random_image_range_and_shape():
    img = synth.random_image(20, 10, seed=5)
    assert img.shape == (10, 20)
    assert np.all((img >= 0.0) & (img < 1.0))


@pytest.mark.parametrize("make", [
    synth.piecewise, synth.texture_scene, synth.noise_pair, synth.flash_pair, synth.random_image,
])
@pytest.mark.parametrize("width, height", [(0, 5), (5, 0), (0, 0), (-1, 5)])
def test_size_below_one_is_refused(make, width, height):
    # piecewise(0, 5, 0) once returned an empty image
    name = "width" if width < 1 else "height"
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got "):
        make(width, height, 0)


@pytest.mark.parametrize("make", [synth.noise_pair, synth.flash_pair])
@pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
def test_noise_level_out_of_range_is_refused(make, sigma):
    # a NaN level once gave an all-NaN noisy image
    with pytest.raises(ValueError, match="^sigma must be finite and >= 0, got "):
        make(8, 8, 0, sigma)


@pytest.mark.parametrize("make", [
    synth.piecewise, synth.texture_scene, synth.noise_pair, synth.flash_pair, synth.random_image,
])
@pytest.mark.parametrize("seed", [-1, 0.5, "1"])
def test_seed_out_of_range_is_refused(make, seed):
    # -1 once gave numpy's bare "expected non-negative integer"
    rule = "must be >= 0" if seed == -1 else "must be an integer"
    with pytest.raises(ValueError, match=f"^seed {rule}, got "):
        make(8, 8, seed)
