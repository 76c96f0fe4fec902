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

import numpy as np
import pytest
from numpy.testing import assert_allclose

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


def test_evaluate_scores_a_given_reconstruction_as_its_own():
    rng = np.random.default_rng(4)
    em = EndmemberMatrix(rng.uniform(0.1, 0.9, size=(6, 3)))
    est = AbundanceMatrix(rng.dirichlet(np.ones(3), size=8).T, 2, 4)
    truth = AbundanceMatrix(rng.dirichlet(np.ones(3), size=8).T, 2, 4)
    observed = PixelMatrix(rng.uniform(0.1, 0.9, size=(6, 8)), 2, 4)
    clean = PixelMatrix(em.values @ truth.values, 2, 4)
    formed = evaluate(em, observed, est, truth=truth, clean=clean)
    given = evaluate(em, observed, est, truth=truth, clean=clean,
                     reconstruction=mix(em, est))
    assert given == formed
    with pytest.raises(ShapeError):
        evaluate(em, observed, est, reconstruction=PixelMatrix(np.ones((5, 8)), 2, 4))
