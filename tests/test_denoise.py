"""Denoiser tests.

Oracles are independent of the implementation: the impulse response is
checked against a kernel recomputed here from the truncation rule, the
separable filter against scipy's reference implementation (same sampled
Gaussian, same replicate borders at sigma = 1) and, bit for bit, against
scipy's correlate1d with this file's kernel at any sigma, NLM against window
convexity bounds from rank filters and against a band-by-band reference
written here with the same float32 weight arithmetic, and TV against an energy
functional evaluated by this file's own forward differences.
"""

import importlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy import ndimage

from pnpunmix.cube import HsiCube
from pnpunmix.denoise import (
    _div,
    _grad,
    available_denoisers,
    denoise,
    gaussian_filter,
    nlm_filter,
    register_denoiser,
    tv_denoise,
)
from pnpunmix.errors import ComputeError

# the package re-exports the function ``denoise``, which hides the module
denoise_module = importlib.import_module("pnpunmix.denoise")


def _rof_energy(u, f, mu):
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:-1, :] = u[1:, :] - u[:-1, :]
    gy[:, :-1] = u[:, 1:] - u[:, :-1]
    return 0.5 * np.sum((u - f) ** 2) + mu * np.sum(np.sqrt(gx**2 + gy**2))


# ---------------------------------------------------------------- gaussian


def test_gaussian_impulse_reproduces_kernel(monkeypatch):
    sigma = 1.25
    monkeypatch.setattr(denoise_module, "GAUSSIAN_WIDTH", sigma)
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-(x**2) / (2.0 * sigma**2))
    k /= k.sum()
    size = 4 * radius + 1
    img = np.zeros((size, size))
    img[2 * radius, 2 * radius] = 1.0
    out = gaussian_filter(img)
    expected = np.outer(k, k)
    got = out[radius : radius + k.size, radius : radius + k.size]
    assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_gaussian_matches_scipy_at_unit_sigma(monkeypatch):
    # scipy's radius rule int(truncate*sigma + 0.5) agrees with ceil(3*sigma)
    # at sigma = 1, so the whole pipeline must agree to roundoff
    monkeypatch.setattr(denoise_module, "GAUSSIAN_WIDTH", 1.0)
    rng = np.random.default_rng(0)
    img = rng.standard_normal((37, 23))
    ours = gaussian_filter(img)
    ref = ndimage.gaussian_filter(img, 1.0, mode="nearest", truncate=3.0)
    assert_allclose(ours, ref, rtol=0, atol=1e-12)


def test_gaussian_constant_preserved(monkeypatch):
    monkeypatch.setattr(denoise_module, "GAUSSIAN_WIDTH", 2.0)
    img = np.full((16, 16), 0.37)
    assert_allclose(gaussian_filter(img), img, rtol=0, atol=1e-12)


def test_gaussian_ramp_interior_unchanged():
    cols = np.arange(40.0)
    img = np.tile(cols, (12, 1))
    out = gaussian_filter(img)
    r = int(np.ceil(3 * denoise_module.GAUSSIAN_WIDTH))
    assert_allclose(out[:, r:-r], img[:, r:-r], rtol=0, atol=1e-10)


def _gaussian_kernel(sigma):
    """The sampled kernel of the truncation rule, recomputed here."""
    radius = max(int(np.ceil(3.0 * sigma)), 1)
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-(x**2) / (2.0 * sigma**2))
    return k / k.sum()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), lead=st.lists(st.integers(1, 3), max_size=2),
       rows=st.integers(1, 12), cols=st.integers(1, 12),
       sigma_spatial=st.floats(0.3, 4.0), scale=st.sampled_from([1.0, 1e-3, 1e3]),
       block_planes=st.integers(1, 3))
def test_gaussian_volume_is_bitwise_per_band(data, lead, rows, cols, sigma_spatial,
                                             scale, block_planes):
    # scipy's correlation along rows, then columns, is the reference; radii
    # up to 12 exceed most of these planes, and a budget of one to three
    # planes makes most volumes span several blocks
    volume = scale * data.draw(arrays(np.float64, (*lead, rows, cols),
                                      elements=st.floats(-1.0, 1.0)))
    # hypothesis refuses function-scoped fixtures such as monkeypatch
    with mock.patch.object(denoise_module, "BLOCK_PIXELS", block_planes * rows * cols), \
            mock.patch.object(denoise_module, "GAUSSIAN_WIDTH", sigma_spatial):
        out = gaussian_filter(volume)
    kernel = _gaussian_kernel(sigma_spatial)
    want = ndimage.correlate1d(volume, kernel, axis=-2, mode="nearest")
    want = ndimage.correlate1d(want, kernel, axis=-1, mode="nearest")
    assert_array_equal(out, want)


# --------------------------------------------------------------------- nlm


def _nlm_reference(band, sigma, patch_radius, search_radius, h_scale):
    """Pixelwise non-local means on one band, one patch sum per offset.

    The weights are float32 on the band's power-of-two scale 2^-e, which
    takes its largest |value| into [1/2, 1): squared differences with
    replicated borders, summed over the patch's rows and then its columns,
    each in increasing offset order, divided by h^2 (h scaled alike, h^2 at
    least float32's least normal) and exponentiated.  The sums are float64
    over the unscaled values.
    """
    e = np.frexp(np.abs(band).max())[1]
    scaled = np.ldexp(band, -e).astype(np.float32)
    h2 = np.float32(max(np.ldexp(h_scale * sigma, -e) ** 2, np.finfo(np.float32).tiny))
    rows, cols = band.shape
    p, r = patch_radius, search_radius
    padded = np.pad(band, r, mode="edge")
    padded32 = np.pad(scaled, r, mode="edge")
    num = np.zeros_like(band)
    den = np.zeros_like(band)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            window = (slice(r + dy, r + dy + rows), slice(r + dx, r + dx + cols))
            diff = np.pad((scaled - padded32[window]) ** 2, p, mode="edge")
            row_sum = diff[: rows]
            for i in range(1, 2 * p + 1):
                row_sum = row_sum + diff[i : i + rows]
            ssd = row_sum[:, : cols]
            for j in range(1, 2 * p + 1):
                ssd = ssd + row_sum[:, j : j + cols]
            w = np.exp(-ssd / h2).astype(np.float64)
            num += w * padded[window]
            den += w
    return num / den


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), lead=st.lists(st.integers(1, 4), max_size=2),
       rows=st.integers(1, 9), cols=st.integers(1, 9),
       patch_radius=st.integers(1, 5), search_radius=st.integers(1, 6),
       scale=st.sampled_from([1.0, 1e-3, 1e3]), rel_sigma=st.floats(0.02, 1.0),
       block_planes=st.integers(1, 3))
def test_nlm_volume_matches_band_reference(data, lead, rows, cols, patch_radius,
                                           search_radius, scale, rel_sigma,
                                           block_planes):
    # radii up to 5 and 6 exceed most of these planes; a budget of one to
    # three planes makes most volumes span several blocks
    volume = scale * data.draw(arrays(np.float64, (*lead, rows, cols),
                                      elements=st.floats(0.0, 1.0)))
    sigma = rel_sigma * scale
    with mock.patch.multiple(denoise_module, BLOCK_PIXELS=block_planes * rows * cols,
                             NLM_PATCH_RADIUS=patch_radius,
                             NLM_SEARCH_RADIUS=search_radius, NLM_H_SCALE=2.0):
        out = nlm_filter(volume, sigma)
    want = np.stack([_nlm_reference(band, sigma, patch_radius, search_radius, 2.0)
                     for band in volume.reshape(-1, rows, cols)])
    tol = 1e-12 * max(1.0, float(np.abs(volume).max()))
    assert_allclose(out, want.reshape(volume.shape), rtol=0, atol=tol)


def test_shipped_nlm_is_the_reference_at_its_own_constants():
    # no constant patched: the filter the library ships is the reference at
    # the module's own radii and bandwidth scale
    volume = np.random.default_rng(6).uniform(size=(2, 23, 19))
    sigma = 0.05
    out = nlm_filter(volume, sigma)
    want = np.stack([_nlm_reference(band, sigma, denoise_module.NLM_PATCH_RADIUS,
                                    denoise_module.NLM_SEARCH_RADIUS,
                                    denoise_module.NLM_H_SCALE) for band in volume])
    assert_allclose(out, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spike", [(11, 9), (0, 0), (22, 5)])
def test_nlm_spike_reaches_exactly_search_plus_patch_radius(spike):
    # a pixel set to the image's maximum (so the power-of-two scale stays)
    # moves only the outputs whose window holds a patch that covers it: at
    # Chebyshev distance at most NLM_SEARCH_RADIUS + NLM_PATCH_RADIUS, with
    # replicated borders only ever bringing it closer
    img = np.random.default_rng(7).uniform(size=(23, 19))
    spiked = img.copy()
    spiked[spike] = img.max()
    changed = nlm_filter(spiked, 0.05) != nlm_filter(img, 0.05)
    rows, cols = np.nonzero(changed)
    reach = np.maximum(np.abs(rows - spike[0]), np.abs(cols - spike[1]))
    radius = denoise_module.NLM_SEARCH_RADIUS + denoise_module.NLM_PATCH_RADIUS
    assert reach.max() <= radius
    if all(radius <= c < n - radius for c, n in zip(spike, img.shape)):
        # away from the border the whole reach is used: no smaller window
        assert reach.max() == radius


@settings(max_examples=60, deadline=None, derandomize=True)
@given(volume=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 9),
                                           st.integers(1, 9)),
                     elements=st.just(0.0) | st.floats(2.0**-100, 1.0)
                     | st.floats(-1.0, -(2.0**-100))),
       rel_sigma=st.floats(0.02, 1.0), k=st.integers(-900, 900))
# at 2^664 (about 2e199) the squared differences of unscaled data overflow
@example(volume=np.random.default_rng(0).uniform(size=(2, 8, 8)), rel_sigma=0.1, k=664)
def test_nlm_scales_exactly_with_the_data(volume, rel_sigma, k):
    # every scaled value and 10 sigma 2^k stay normal floats, so the data and
    # sigma times 2^k give 2^k times the output, bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nlm_filter(np.ldexp(volume, k), np.ldexp(rel_sigma, k))
    assert_array_equal(out, np.ldexp(nlm_filter(volume, rel_sigma), k))


def test_nlm_at_1e200_is_finite_with_no_warning():
    # the squared differences of this cube overflow unless each channel is
    # scaled first: unscaled, inf / inf gave NaN and a ComputeError
    u = np.random.default_rng(5).uniform(size=(3, 12, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = denoise("nlm", HsiCube(1e200 * u), 1e199).values
    assert_allclose(out / 1e200, nlm_filter(u, 0.1), rtol=0, atol=1e-6)


@pytest.mark.parametrize("filter_volume, bound", [
    (lambda volume: nlm_filter(volume, 0.05), 3.0),
    (gaussian_filter, 1.9),
], ids=["nlm", "gaussian"])
def test_block_budget_bounds_memory(filter_volume, bound):
    # 24 planes of 128 x 128 span six blocks; one pass over the whole
    # volume would hold about seven (nlm) or two (gaussian) volumes of
    # temporaries, while blocks hold the output and a few blocks
    volume = np.random.default_rng(13).uniform(size=(24, 128, 128))
    assert 128 * 128 < denoise_module.BLOCK_PIXELS < volume.size
    tracemalloc.start()
    try:
        filter_volume(volume)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * volume.nbytes


def test_nlm_constant_unchanged():
    img = np.full((20, 20), 0.6)
    assert_allclose(nlm_filter(img, 0.05), img, rtol=0, atol=1e-12)


def test_nlm_window_convexity_bound():
    rng = np.random.default_rng(1)
    img = rng.uniform(0.0, 1.0, size=(32, 32))
    out = nlm_filter(img, 0.02)
    size = 2 * denoise_module.NLM_SEARCH_RADIUS + 1
    lo = ndimage.minimum_filter(img, size=size, mode="nearest")
    hi = ndimage.maximum_filter(img, size=size, mode="nearest")
    assert (out >= lo - 1e-12).all()
    assert (out <= hi + 1e-12).all()


def test_nlm_interior_variance_reduction():
    # two-region image at sigma = 0.05: interiors must flatten >= 2x
    rng = np.random.default_rng(2)
    clean = np.zeros((48, 48))
    clean[:, 24:] = 1.0
    sigma = 0.05
    noisy = clean + sigma * rng.standard_normal(clean.shape)
    out = nlm_filter(noisy, sigma)
    interior = np.zeros_like(clean, dtype=bool)
    interior[7:-7, 7:17] = True
    interior[7:-7, 31:41] = True
    var_in = np.var((noisy - clean)[interior])
    var_out = np.var((out - clean)[interior])
    assert var_out <= var_in / 2.0


def test_nlm_preserves_strong_edge():
    rng = np.random.default_rng(3)
    clean = np.zeros((24, 24))
    clean[:, 12:] = 1.0
    noisy = clean + 0.01 * rng.standard_normal(clean.shape)
    out = nlm_filter(noisy, 0.01)
    assert np.abs(out - clean).max() < 0.05


def test_nlm_subnormal_h2_keeps_only_the_centre_weight():
    # h^2 = (10 * 1e-162)^2 is subnormal: every ssd / h^2 off the centre
    # overflows to a weight of exp(-inf) = 0, with no warning
    img = np.random.default_rng(4).uniform(size=(10, 10))
    assert_array_equal(nlm_filter(img, 1e-162), img)


def test_nlm_overflowing_h2_is_a_box_mean():
    # h^2 = (10 * 1e160)^2 is beyond the float range: every weight is 1
    img = np.random.default_rng(4).uniform(size=(10, 10))
    size = 2 * denoise_module.NLM_SEARCH_RADIUS + 1
    want = ndimage.uniform_filter(img, size=size, mode="nearest")
    assert_allclose(nlm_filter(img, 1e160), want, rtol=0, atol=1e-12)


def test_nlm_zero_sigma_returns_input():
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(10, 10))
    assert_array_equal(nlm_filter(img, 0.0), img)
    for volume in (rng.uniform(size=(2, 3, 1, 7)), rng.uniform(size=(3, 9, 1))):
        out = nlm_filter(volume, 0.0)
        assert_array_equal(out, volume)
        assert not np.shares_memory(out, volume)


# ---------------------------------------------------------------------- tv


def test_tv_energy_never_above_input():
    rng = np.random.default_rng(5)
    for _ in range(5):
        img = rng.uniform(size=(24, 24)) + 0.3 * rng.standard_normal((24, 24))
        for mu in (0.01, 0.1, 0.5):
            out = tv_denoise(img, mu)
            assert _rof_energy(out, img, mu) <= _rof_energy(img, img, mu) + 1e-12


def test_tv_constant_unchanged():
    img = np.full((16, 16), 0.25)
    assert_array_equal(tv_denoise(img, 0.3), img)


def test_tv_tiny_sigma_is_identity():
    rng = np.random.default_rng(6)
    img = rng.uniform(size=(20, 20))
    out = tv_denoise(img, 1e-8)
    assert np.abs(out - img).max() < 1e-6


@pytest.mark.parametrize("sigma", [1e-162, 1e-300, 5e-324])
def test_tv_sigma_too_small_for_the_dual_steps_returns_the_input(sigma):
    # the dual steps overflow, so the plane comes back bit for bit, the
    # mu -> 0 limit, and no numpy warning escapes
    img = np.random.default_rng(6).uniform(size=(8, 8))
    assert_array_equal(tv_denoise(img, sigma), img)


def test_tv_plane_whose_dual_steps_overflow_comes_back_alone():
    # the first plane's differences overflow at any sigma: it comes back bit
    # for bit, and the second is filtered as it would be alone, with no warning
    rng = np.random.default_rng(13)
    volume = np.stack([rng.uniform(-1.0, 1.0, size=(9, 7)) * 1.7e308,
                       rng.uniform(size=(9, 7))])
    out = tv_denoise(volume, 0.1)
    assert_array_equal(out[0], volume[0])
    assert_array_equal(out[1], tv_denoise(volume[1], 0.1))


def test_tv_maximum_principle():
    rng = np.random.default_rng(7)
    img = rng.standard_normal((20, 20))
    out = tv_denoise(img, 0.4)
    assert out.min() >= img.min() - 1e-12
    assert out.max() <= img.max() + 1e-12


def test_tv_actually_smooths():
    rng = np.random.default_rng(8)
    clean = np.zeros((32, 32))
    clean[:, 16:] = 1.0
    noisy = clean + 0.1 * rng.standard_normal(clean.shape)
    out = tv_denoise(noisy, 0.1)
    assert np.sum((out - clean) ** 2) < np.sum((noisy - clean) ** 2)


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (2, 7), (6, 5)])
def test_tv_divergence_is_negative_adjoint_of_gradient(shape):
    # <grad u, p> = -<u, div p> on every shape, degenerate axes included
    rng = np.random.default_rng(9)
    u, p1, p2 = rng.standard_normal((3, *shape))
    gx, gy = _grad(u)
    assert np.sum(gx * p1 + gy * p2) == pytest.approx(-np.sum(u * _div(p1, p2)), abs=1e-12)


@pytest.mark.parametrize("shape", [(1, 40), (40, 1)])
def test_tv_thin_band_is_one_dimensional_tv(shape):
    # a single row or column is a 1-D signal: a noisy step gets smoother,
    # the energy drops, and the two orientations agree after a transpose
    rng = np.random.default_rng(10)
    clean = np.zeros(40)
    clean[20:] = 1.0
    noisy = (clean + 0.1 * rng.standard_normal(40)).reshape(shape)
    out = tv_denoise(noisy, 0.1)
    assert out.shape == shape
    assert np.sum((out.ravel() - clean) ** 2) < np.sum((noisy.ravel() - clean) ** 2)
    assert _rof_energy(out, noisy, 0.1) <= _rof_energy(noisy, noisy, 0.1)
    assert_allclose(tv_denoise(noisy.T, 0.1).T, out, rtol=0, atol=1e-15)


def test_tv_single_pixel_band_is_unchanged():
    # no neighbours, no variation to remove
    img = np.array([[0.37]])
    assert_array_equal(tv_denoise(img, 0.5), img)


# ---------------------------------------------------- names and dispatch


def test_denoise_identity_exact():
    rng = np.random.default_rng(9)
    cube = HsiCube(rng.uniform(size=(5, 8, 9)))
    out = denoise("identity", cube, 0.0)
    assert_array_equal(out.values, cube.values)


def test_denoise_unknown_kind():
    cube = HsiCube(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="identity"):
        denoise("nope", cube, 0.1)


def test_denoise_negative_sigma_rejected():
    cube = HsiCube(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="sigma"):
        denoise("identity", cube, -0.5)


def test_denoise_gain_on_piecewise_constant():
    rng = np.random.default_rng(10)
    clean = np.zeros((64, 64))
    clean[:32, :] = 0.2
    clean[32:, :] = 0.8
    clean[:, 40:] += 0.15
    sigma = 0.08
    noisy = clean + sigma * rng.standard_normal(clean.shape)
    cube = HsiCube(noisy[None])
    for kind in ("nlm", "tv"):
        out = denoise(kind, cube, sigma)
        mse_out = np.mean((out.values[0] - clean) ** 2)
        mse_in = np.mean((noisy - clean) ** 2)
        assert mse_out < mse_in, kind


def test_denoise_band_permutation_equivariance(monkeypatch):
    monkeypatch.setattr(denoise_module, "TV_ITERS", 8)
    rng = np.random.default_rng(11)
    cube = HsiCube(rng.uniform(size=(6, 16, 16)))
    out = denoise("tv", cube, 0.2)
    perm = np.array([3, 0, 5, 1, 4, 2])
    out_p = denoise("tv", HsiCube(cube.values[perm]), 0.2)
    assert_array_equal(out_p.values, out.values[perm])


@pytest.mark.parametrize("kind, constants, band_fn", [
    ("gaussian", {"GAUSSIAN_WIDTH": 1.2}, lambda band, sigma: gaussian_filter(band)),
    ("nlm", {"NLM_PATCH_RADIUS": 2, "NLM_SEARCH_RADIUS": 3, "NLM_H_SCALE": 4.0},
     nlm_filter),
    ("tv", {"TV_ITERS": 4}, tv_denoise),
], ids=["gaussian", "nlm", "tv"])
def test_volume_entry_gives_each_band_its_own_filtering(kind, constants, band_fn,
                                                        monkeypatch):
    # the registry hands the whole volume to one filter call
    for name, value in constants.items():
        monkeypatch.setattr(denoise_module, name, value)
    rng = np.random.default_rng(12)
    cube = HsiCube(rng.uniform(size=(5, 37, 29)))
    out = denoise(kind, cube, 0.05)
    assert_array_equal(out.values, np.stack([band_fn(band, 0.05) for band in cube.values]))


def test_register_custom_denoiser():
    calls = []

    def halver(volume, sigma):
        calls.append(sigma)
        return volume * 0.5

    register_denoiser("halver-test", halver)
    assert "halver-test" in available_denoisers()
    cube = HsiCube(np.full((2, 3, 3), 1.0))
    out = denoise("halver-test", cube, 0.3)
    assert_array_equal(out.values, np.full((2, 3, 3), 0.5))
    assert calls == [0.3]
    with pytest.raises(ValueError, match="registered"):
        register_denoiser("halver-test", halver)


def test_register_refuses_a_denoiser_that_is_not_callable():
    with pytest.raises(ValueError, match="callable"):
        register_denoiser("none-test", None)
    assert "none-test" not in available_denoisers()


def test_shape_change_is_an_error():
    register_denoiser("cropper-test", lambda v, s: v[:, 1:, :])
    cube = HsiCube(np.zeros((2, 4, 4)))
    with pytest.raises(ComputeError, match="shape"):
        denoise("cropper-test", cube, 0.1)
