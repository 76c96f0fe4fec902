"""Synthetic scene generator: simplex guarantees, determinism, calibration.

The abundance fields' blur is checked bit for bit against scipy's
gaussian_filter, the reference the scenes were first drawn with.
"""

import hashlib
import logging
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from pnpunmix import synth
from pnpunmix.cube import unfold
from pnpunmix.errors import ComputeError
from pnpunmix.qp import fcls
from pnpunmix.synth import (
    Scene,
    SceneSpec,
    _smooth_field,
    generate_abundances,
    generate_endmembers,
    make_scene,
)


def small_spec(**overrides):
    base = dict(rows=16, cols=16, endmembers=3, bands=20, seed=11)
    base.update(overrides)
    return SceneSpec(**base)


class TestSceneSpec:
    def test_defaults_are_desk_scale(self):
        spec = SceneSpec()
        assert (spec.rows, spec.cols) == (64, 64)
        assert spec.endmembers == 4
        assert spec.bands == 64
        assert spec.pixels == 4096

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(rows=4), "8x8"),
            (dict(cols=7), "8x8"),
            (dict(endmembers=1), "endmembers"),
            (dict(bands=2, endmembers=3), "bands"),
            (dict(field_smoothness=0.0), "field_smoothness"),
            (dict(field_smoothness=-1.0), "field_smoothness"),
            (dict(pure_pixel_fraction=1.5), "pure_pixel_fraction"),
            (dict(snr_db=float("nan")), "snr_db"),
            (dict(seed=-1), "seed"),
            (dict(seed=2.5), "seed"),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs, fragment):
        base = dict(rows=16, cols=16, endmembers=3, bands=20)
        base.update(kwargs)
        with pytest.raises(ValueError, match=fragment):
            SceneSpec(**base)


class TestGenerateAbundances:
    def test_columns_live_on_the_simplex(self):
        a = generate_abundances(small_spec())
        assert a.values.shape == (3, 256)
        assert a.values.min() >= 0.0
        npt.assert_allclose(a.values.sum(axis=0), 1.0, atol=1e-12)

    def test_all_pure_when_fraction_is_one(self):
        a = generate_abundances(small_spec(pure_pixel_fraction=1.0))
        # every column must be a basis vector
        assert np.all(np.sort(a.values, axis=0)[:-1] == 0.0)
        npt.assert_array_equal(a.values.max(axis=0), 1.0)

    def test_zero_fraction_keeps_strictly_mixed_pixels(self):
        a = generate_abundances(small_spec(pure_pixel_fraction=0.0))
        assert a.values.min() > 0.0
        assert a.values.max() < 1.0

    def test_pure_pixel_count_matches_fraction(self):
        spec = small_spec(pure_pixel_fraction=0.1)
        a = generate_abundances(spec)
        pure = int(np.sum(a.values.max(axis=0) == 1.0))
        assert pure == round(0.1 * spec.pixels)

    @pytest.mark.parametrize("smoothness", [4.0, 6.0])
    def test_planes_are_spatially_coherent(self, smoothness):
        # oracle: measured lag-1 autocorrelation (np.corrcoef) of each
        # abundance plane, both axes, must exceed 0.5
        spec = SceneSpec(
            rows=64, cols=64, endmembers=4, bands=64,
            field_smoothness=smoothness, seed=3,
        )
        a = generate_abundances(spec)
        planes = a.values.reshape(4, spec.cols, spec.rows).transpose(0, 2, 1)
        for plane in planes:
            horiz = np.corrcoef(plane[:, :-1].ravel(), plane[:, 1:].ravel())[0, 1]
            vert = np.corrcoef(plane[:-1, :].ravel(), plane[1:, :].ravel())[0, 1]
            assert horiz > 0.5
            assert vert > 0.5

    def test_deterministic_per_seed(self):
        first = generate_abundances(small_spec())
        second = generate_abundances(small_spec())
        npt.assert_array_equal(first.values, second.values)

    def test_distinct_seeds_differ(self):
        first = generate_abundances(small_spec(seed=1))
        second = generate_abundances(small_spec(seed=2))
        assert np.any(first.values != second.values)

    def test_permuting_field_seeds_permutes_rows(self, monkeypatch):
        spec = small_spec(pure_pixel_fraction=0.05)
        children = np.random.SeedSequence(spec.seed, spawn_key=(0,)).spawn(
            spec.endmembers + 1
        )
        base = generate_abundances(spec)
        # the fields' children permuted, the pure-pixel stream (last) kept
        perm = [2, 0, 1]
        monkeypatch.setattr(synth, "_field_children",
                            lambda _: [children[i] for i in perm] + children[3:])
        permuted = generate_abundances(spec)
        npt.assert_array_equal(permuted.values, base.values[perm])

    def test_kernel_of_radius_zero_leaves_the_fields_unblurred(self):
        # below sigma = 0.125 the kernel is the single tap 1, down to sigmas
        # whose square underflows
        tiny = generate_abundances(small_spec(field_smoothness=1e-200))
        npt.assert_array_equal(
            tiny.values, generate_abundances(small_spec(field_smoothness=0.1)).values)


class TestGenerateEndmembers:
    def test_values_within_unit_interval(self):
        m = generate_endmembers(40, 4, seed=5)
        assert m.values.shape == (40, 4)
        assert m.values.min() >= 0.0
        assert m.values.max() <= 1.0

    def test_pairwise_angles_clear_the_floor(self):
        m = generate_endmembers(40, 5, seed=7)
        cols = m.values
        for i in range(5):
            for j in range(i + 1, 5):
                u, v = cols[:, i], cols[:, j]
                cosine = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                angle = math.degrees(math.acos(min(1.0, cosine)))
                assert angle >= 5.0

    def test_deterministic_per_seed(self):
        npt.assert_array_equal(
            generate_endmembers(30, 3, seed=9).values,
            generate_endmembers(30, 3, seed=9).values,
        )

    def test_gram_condition_number_logged_and_finite(self, caplog):
        with caplog.at_level(logging.INFO, logger="pnpunmix.synth"):
            m = generate_endmembers(40, 4, seed=5)
        cond = float(np.linalg.cond(m.values.T @ m.values))
        assert np.isfinite(cond)
        assert any("condition number" in rec.message for rec in caplog.records)

    def test_unreachable_angle_floor_raises(self, monkeypatch):
        # strictly positive spectra cannot be nearly orthogonal
        monkeypatch.setattr(synth, "MIN_ANGLE_DEG", 89.9)
        monkeypatch.setattr(synth, "MAX_TRIES", 40)
        with pytest.raises(ComputeError, match="89.9 degree angle floor in 40 tries"):
            generate_endmembers(3, 3, seed=0)

    def test_more_endmembers_than_bands_rejected(self):
        with pytest.raises(ValueError, match="bands"):
            generate_endmembers(2, 3, seed=0)


class TestMakeScene:
    def test_bundle_shapes_and_types(self):
        scene = make_scene(small_spec())
        assert isinstance(scene, Scene)
        assert scene.noisy.values.shape == (20, 16, 16)
        assert scene.clean.values.shape == (20, 16, 16)
        assert scene.truth.values.shape == (3, 256)
        assert scene.endmembers.values.shape == (20, 3)

    def test_infinite_snr_means_noiseless(self):
        scene = make_scene(small_spec(snr_db=float("inf")))
        npt.assert_array_equal(scene.noisy.values, scene.clean.values)

    def test_clean_cube_is_exact_forward_model(self):
        scene = make_scene(small_spec())
        expected = scene.endmembers.values @ scene.truth.values
        npt.assert_array_equal(unfold(scene.clean).values, expected)

    def test_fcls_on_clean_recovers_truth(self):
        # oracle: exact recovery from noiseless data by an independently
        # tested solver
        scene = make_scene(SceneSpec(rows=24, cols=24, endmembers=4, bands=32, seed=2))
        estimate = fcls(scene.endmembers, unfold(scene.clean))
        rmse = float(np.sqrt(np.mean((estimate.values - scene.truth.values) ** 2)))
        assert rmse < 1e-6

    @pytest.mark.parametrize("snr_db", [5.0, 10.0, 20.0, 30.0])
    def test_realized_snr_within_tenth_db(self, snr_db):
        # oracle: energy-ratio SNR measured directly on the two cubes
        scene = make_scene(SceneSpec(snr_db=snr_db, seed=4))
        signal = float(np.sum(scene.clean.values**2))
        noise = float(np.sum((scene.noisy.values - scene.clean.values) ** 2))
        measured = 10.0 * math.log10(signal / noise)
        assert abs(measured - snr_db) < 0.1

    def test_bitwise_reproducible(self):
        spec = small_spec(seed=21)
        first = make_scene(spec)
        second = make_scene(spec)
        npt.assert_array_equal(first.noisy.values, second.noisy.values)
        npt.assert_array_equal(first.clean.values, second.clean.values)
        npt.assert_array_equal(first.truth.values, second.truth.values)
        npt.assert_array_equal(first.endmembers.values, second.endmembers.values)

    def test_noise_streams_uncorrelated_across_seeds(self):
        a = make_scene(SceneSpec(seed=1))
        b = make_scene(SceneSpec(seed=2))
        noise_a = (a.noisy.values - a.clean.values).ravel()
        noise_b = (b.noisy.values - b.clean.values).ravel()
        assert noise_a.size >= 100_000
        corr = float(np.corrcoef(noise_a, noise_b)[0, 1])
        assert abs(corr) < 0.01


class _Plane:
    """Stands in for the field's generator: hands out one given plane."""

    def __init__(self, plane):
        self.plane = plane

    def standard_normal(self, shape):
        assert shape == self.plane.shape
        return self.plane.copy()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40), sigma=st.floats(0.2, 20.0),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_field_blur_is_scipy_gaussian_filter_bit_for_bit(rows, cols, sigma, log_scale,
                                                        seed):
    # kernel radii up to 80 exceed every plane here, so the mirrored
    # borders fold back and forth across it
    plane = 10.0**log_scale * np.random.default_rng(seed).standard_normal((rows, cols))
    want = gaussian_filter(plane, sigma=sigma, mode="reflect")
    want = (want - want.mean()) / max(float(want.std()), 1e-12)
    npt.assert_array_equal(_smooth_field(_Plane(plane), rows, cols, sigma), want)


# sha256 over noisy, clean, truth and endmembers of the proh-nlm benchmark
# scene (SceneSpec() at 10 dB), as first drawn with scipy's blur
BENCH_SCENE_SHA256 = {
    0: "90d5b6ecf17b56e51e3219057f35c8fdb348a1c581bffbc2ab159567c9565657",
    1: "248c2a26eff3dc766fa6b96256ae92033a17be5b0ca4a25f19b519ce6bc54f8a",
    2: "35e4f067dd5d4535d2be530d95755dfc81d12290d76b02632b64e6cba20775b5",
}


@pytest.mark.parametrize("seed", sorted(BENCH_SCENE_SHA256))
def test_benchmark_scene_keeps_its_bytes(seed):
    scene = make_scene(SceneSpec(snr_db=10.0, seed=seed))
    digest = hashlib.sha256()
    for part in (scene.noisy, scene.clean, scene.truth, scene.endmembers):
        digest.update(np.ascontiguousarray(part.values).tobytes())
    assert digest.hexdigest() == BENCH_SCENE_SHA256[seed]
