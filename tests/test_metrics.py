"""Metric tests with hand-computed frozen values.

rmse: swapping two one-hot pixels makes every squared entry 1, so rmse = 1.
psnr: single pixel, est 2 vs ref 1 -> 10*log10(2^2/1) = 6.020599913279624.
psnr denominator: per-pixel spatial sum divided by pixel count, not by
    bands: est (3,1) vs ref (2,2) in one pixel -> mse = 2, peak = 3,
    psnr = 10*log10(9/2) = 6.532125137753437.
reconstruction error: offsets of 0.5 in both bands of one pixel ->
    sqrt((0.25 + 0.25)/2) = 0.5.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pnpunmix import metrics
from pnpunmix.cube import PixelMatrix
from pnpunmix.errors import ShapeError
from pnpunmix.metrics import (
    MetricsReport,
    evaluate,
    psnr,
    reconstruction_error,
    rmse,
)
from pnpunmix.model import AbundanceMatrix, EndmemberMatrix, mix


def _ab(values):
    arr = np.asarray(values, dtype=float)
    return AbundanceMatrix(arr, 1, arr.shape[1])


def test_rmse_swapped_pixels_is_one():
    truth = _ab([[1.0, 0.0], [0.0, 1.0]])
    est = _ab([[0.0, 1.0], [1.0, 0.0]])
    assert rmse(truth, est) == 1.0


def test_rmse_zero_iff_equal():
    truth = _ab([[0.25, 0.5], [0.75, 0.5]])
    same = _ab([[0.25, 0.5], [0.75, 0.5]])
    assert rmse(truth, same) == 0.0
    off = _ab([[0.25 + 1e-9, 0.5], [0.75 - 1e-9, 0.5]])
    assert rmse(truth, off) > 0.0


def test_rmse_shape_mismatch():
    with pytest.raises(ShapeError):
        rmse(_ab([[1.0], [0.0]]), _ab([[1.0, 0.0], [0.0, 1.0]]))


def test_psnr_single_pixel():
    est = PixelMatrix(np.array([[2.0]]), 1, 1)
    ref = PixelMatrix(np.array([[1.0]]), 1, 1)
    assert_allclose(psnr(est, ref), 6.020599913279624, rtol=0, atol=1e-12)


def test_psnr_spatial_denominator():
    # two bands, one pixel: squared error 2 spread over 1 pixel, peak 3
    est = PixelMatrix(np.array([[3.0], [1.0]]), 1, 1)
    ref = PixelMatrix(np.array([[2.0], [2.0]]), 1, 1)
    assert_allclose(psnr(est, ref), 10.0 * math.log10(9.0 / 2.0), rtol=0, atol=1e-12)
    assert_allclose(psnr(est, ref), 6.532125137753437, rtol=0, atol=1e-12)


def test_psnr_perfect_match_is_infinite():
    y = PixelMatrix(np.array([[1.0, 2.0]]), 1, 2)
    assert psnr(y, y) == math.inf


@pytest.mark.parametrize("peak", [1e300, 1.0])
def test_error_past_the_float_range_reads_inf_without_a_warning(peak):
    # a squared error that overflows is inf, and so -inf dB of psnr, also
    # when the peak's own square overflows; the suite makes warnings errors
    est = PixelMatrix(np.array([[peak], [1e300]]), 1, 1)
    ref = PixelMatrix(np.array([[0.0], [-1e300]]), 1, 1)
    assert reconstruction_error(est, ref) == math.inf
    assert psnr(est, ref) == -math.inf


def test_reconstruction_error_hand_case():
    obs = PixelMatrix(np.array([[0.0], [0.0]]), 1, 1)
    rec = PixelMatrix(np.array([[0.5], [0.5]]), 1, 1)
    assert reconstruction_error(obs, rec) == 0.5


def test_evaluate_bundles_everything():
    em = EndmemberMatrix(np.eye(2))
    truth = _ab([[1.0, 0.0], [0.0, 1.0]])
    est = _ab([[0.0, 1.0], [1.0, 0.0]])
    observed = PixelMatrix(truth.values, 1, 2)
    clean = observed
    report = evaluate(em, observed, est, truth=truth, clean=clean)
    assert isinstance(report, MetricsReport)
    assert report.rmse == 1.0
    # reconstruction = est itself under identity endmembers
    assert_allclose(report.reconstruction_error, 1.0)
    assert report.psnr_peak == 1.0
    d = report.to_dict()
    assert d["rmse"] == 1.0 and "psnr" in d


def test_evaluate_without_truth():
    em = EndmemberMatrix(np.eye(2))
    est = _ab([[0.5, 0.5], [0.5, 0.5]])
    observed = PixelMatrix(est.values, 1, 2)
    report = evaluate(em, observed, est)
    assert report.rmse is None and report.psnr is None
    assert report.reconstruction_error == 0.0
    assert "rmse" not in report.to_dict()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    bands=st.integers(1, 6),
    count=st.integers(1, 4),
    pixels=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_pass_is_the_same_at_every_block_size(bands, count, pixels, seed):
    # blocks of 1-7 pixels cover one-pixel blocks and every short tail:
    # the float32 payload and the peak come out bit for bit the same
    rng = np.random.default_rng(seed)
    em = EndmemberMatrix(rng.uniform(0.1, 0.9, size=(bands, count)))
    est = AbundanceMatrix(rng.dirichlet(np.ones(count), size=pixels).T, 1, pixels)
    # references far from every reconstructed value (at most 0.9): the
    # pass's einsum and mix's matmul may differ in the last bit of M·A,
    # which then moves each error term by under an ulp of the term
    observed = PixelMatrix(rng.uniform(10.0, 20.0, size=(bands, pixels)), 1, pixels)
    clean = PixelMatrix(rng.uniform(10.0, 20.0, size=(bands, pixels)), 1, pixels)
    mixed = mix(em, est)
    error = reconstruction_error(observed, mixed)
    db = psnr(mixed, clean)
    runs = []
    for block in range(1, 8):
        with mock.patch.object(metrics, "BLOCK_PIXELS", block):
            runs.append(metrics._evaluate(em, observed, est, clean=clean, payload=True))
    first, payload = runs[0]
    assert payload.dtype == np.dtype("<f4") and payload.shape == (bands, pixels)
    for report, stored in runs:
        assert stored.tobytes() == payload.tobytes()
        assert report.psnr_peak == first.psnr_peak
        assert abs(report.reconstruction_error - error) <= 4 * math.ulp(error)
        assert abs(report.psnr - db) <= 4 * math.ulp(db)


def test_evaluate_holds_no_full_size_array():
    # 64 bands over three blocks and a one-pixel tail: the pass keeps two
    # (bands, block) buffers, never a (bands, pixels) float64 array
    pixels = 3 * metrics.BLOCK_PIXELS + 1
    rng = np.random.default_rng(5)
    em = EndmemberMatrix(rng.uniform(0.1, 0.9, size=(64, 4)))
    est = AbundanceMatrix(rng.dirichlet(np.ones(4), size=pixels).T, 1, pixels)
    observed = PixelMatrix(rng.uniform(size=(64, pixels)), 1, pixels)
    clean = PixelMatrix(rng.uniform(size=(64, pixels)), 1, pixels)
    tracemalloc.start()
    try:
        evaluate(em, observed, est, truth=est, clean=clean)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < observed.values.nbytes


def test_rmse_holds_no_full_size_array():
    # the squared error is summed in one reused (P, block) buffer, never in
    # a (P, pixels) difference
    pixels = 16 * metrics.BLOCK_PIXELS
    rng = np.random.default_rng(6)
    truth, est = (AbundanceMatrix(rng.dirichlet(np.ones(5), size=pixels).T, 1, pixels)
                  for _ in range(2))
    tracemalloc.start()
    try:
        value = rmse(truth, est)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < truth.values.nbytes
    direct = float(np.sqrt(np.mean((est.values - truth.values) ** 2)))
    assert abs(value - direct) <= 4 * math.ulp(direct)


@pytest.mark.parametrize("wrong",["observed", "clean", "endmembers"])
def test_evaluate_checks_shapes_before_the_pass(wrong):
    em = EndmemberMatrix(np.eye(2))
    est = _ab([[0.5, 1.0], [0.5, 0.0]])
    good = PixelMatrix(np.ones((2, 2)), 1, 2)
    inputs = {"observed": good, "clean": good, "endmembers": em}
    inputs[wrong] = (EndmemberMatrix(np.eye(3)) if wrong == "endmembers"
                     else PixelMatrix(np.ones((3, 2)), 1, 2))
    with pytest.raises(ShapeError):
        evaluate(inputs["endmembers"], inputs["observed"], est, clean=inputs["clean"])


def _bright_endmembers(top):
    with pytest.warns(UserWarning, match="outside"):
        return EndmemberMatrix(np.array([[top, top], [0.5, 0.25]]))


def test_evaluate_refuses_a_reconstruction_past_the_float32_range():
    # M·A of about 1e100 scores, but as a payload it would be stored as inf
    em = _bright_endmembers(1e100)
    est = _ab([[0.5, 1.0], [0.5, 0.0]])
    observed = PixelMatrix(np.zeros((2, 2)), 1, 2)
    assert math.isfinite(evaluate(em, observed, est).reconstruction_error)
    with pytest.raises(ValueError, match="float32 range"):
        metrics._evaluate(em, observed, est, payload=True)


@pytest.mark.parametrize("payload", [False, True])
def test_evaluate_refuses_a_reconstruction_past_the_float_range(payload):
    # abundances summing to just over one carry M·A past the largest float
    em = _bright_endmembers(np.finfo(float).max)
    est = _ab([[0.5], [0.5 + 5e-9]])
    observed = PixelMatrix(np.zeros((2, 1)), 1, 1)
    with pytest.raises(ValueError, match="must be finite"):
        metrics._evaluate(em, observed, est, payload=payload)
