"""Quality metrics for abundance estimates and reconstructions."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cube import PixelMatrix
from .errors import ShapeError
from .model import AbundanceMatrix, EndmemberMatrix, mix

__all__ = ["rmse", "psnr", "reconstruction_error", "MetricsReport", "evaluate"]


def rmse(truth: AbundanceMatrix, estimate: AbundanceMatrix) -> float:
    """Root mean square abundance error, averaged over pixels and endmembers.

    Zero exactly when the two matrices are identical.
    """
    if truth.values.shape != estimate.values.shape:
        raise ShapeError(
            f"abundance shapes differ: {truth.values.shape} vs {estimate.values.shape}"
        )
    return _rmse(truth.values, estimate.values)


def _rmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """:func:`rmse` on two arrays of the same shape."""
    diff = estimate - truth
    return float(np.sqrt(np.mean(diff**2)))


def _squared_error(
    a: PixelMatrix, b: PixelMatrix, out: np.ndarray | None = None
) -> np.ndarray:
    """(a - b)**2, elementwise; formed in ``out`` when given, else fresh."""
    if a.values.shape != b.values.shape:
        raise ShapeError(
            f"pixel matrix shapes differ: {a.values.shape} vs {b.values.shape}"
        )
    out = np.subtract(a.values, b.values, out=out)
    return np.square(out, out=out)


def _psnr_parts(
    estimate: PixelMatrix, reference: PixelMatrix, out: np.ndarray | None = None
) -> tuple[float, float, float]:
    """(peak, mse, psnr in dB) from one pass over both matrices.

    ``out``, if given, is a float64 scratch array of the matrices' shape.
    """
    sq = _squared_error(estimate, reference, out)
    peak = float(estimate.values.max())
    # squared error summed over everything, divided by the pixel count only
    # (per-pixel spectral error is summed, not averaged, over channels)
    mse = float(np.sum(sq) / estimate.pixels)
    if mse == 0.0:
        return peak, mse, math.inf
    if peak <= 0.0:
        return peak, mse, -math.inf
    return peak, mse, 10.0 * math.log10(peak * peak / mse)


def psnr(estimate: PixelMatrix, reference: PixelMatrix) -> float:
    """Peak signal-to-noise ratio of a reconstruction, in dB.

    The peak is taken from the estimate under evaluation.  A perfect match
    returns ``inf``; report the peak alongside when comparing runs, since
    it is data-dependent.
    """
    return _psnr_parts(estimate, reference)[2]


def reconstruction_error(
    observed: PixelMatrix, reconstruction: PixelMatrix, *, out: np.ndarray | None = None
) -> float:
    """Root mean square spectral residual between observation and model fit.

    ``out``, if given, is a float64 scratch array of the matrices' shape
    that receives the squared residuals instead of a fresh array.
    """
    return float(np.sqrt(np.mean(_squared_error(observed, reconstruction, out))))


@dataclass(frozen=True)
class MetricsReport:
    """Bundle of run metrics; abundance metrics are None without ground truth.

    ``psnr_peak`` and ``psnr_mse`` record the ingredients of the PSNR value
    so runs with different reconstruction peaks stay comparable.
    """

    reconstruction_error: float
    rmse: float | None = None
    psnr: float | None = None
    psnr_peak: float | None = None
    psnr_mse: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def evaluate(
    endmembers: EndmemberMatrix,
    observed: PixelMatrix,
    estimate: AbundanceMatrix,
    truth: AbundanceMatrix | None = None,
    clean: PixelMatrix | None = None,
    reconstruction: PixelMatrix | None = None,
) -> MetricsReport:
    """Score an abundance estimate against whatever references are available.

    Args:
        endmembers: spectra used to rebuild the scene from the estimate.
        observed: the (possibly noisy) data that was unmixed.
        estimate: abundances under evaluation.
        truth: ground-truth abundances, enables rmse.
        clean: noiseless spectra, enables reconstruction psnr.
        reconstruction: ``mix(endmembers, estimate)`` if already formed.
    """
    if reconstruction is None:
        reconstruction = mix(endmembers, estimate)
    # one (bands, pixels) scratch array for both squared-error sums
    scratch = np.empty(observed.values.shape)
    re = reconstruction_error(observed, reconstruction, out=scratch)
    r = rmse(truth, estimate) if truth is not None else None
    p = peak = pmse = None
    if clean is not None:
        peak, pmse, p = _psnr_parts(reconstruction, clean, scratch)
    return MetricsReport(
        reconstruction_error=re,
        rmse=r,
        psnr=p,
        psnr_peak=peak,
        psnr_mse=pmse,
    )
