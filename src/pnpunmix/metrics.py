"""Quality metrics for abundance estimates and reconstructions.

Squared errors are summed over blocks of BLOCK_PIXELS pixels, each block's
sum taken in one reused contiguous buffer, so every metric sums the same
way. :func:`evaluate` forms the reconstruction M·A block by block in that
same pass and never holds it whole.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cube import PixelMatrix
from .errors import ShapeError
from .model import AbundanceMatrix, EndmemberMatrix, _check_count

__all__ = ["rmse", "psnr", "reconstruction_error", "MetricsReport", "evaluate"]

# pixels per block of the squared-error sums and of evaluate's pass
BLOCK_PIXELS = 4096


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
    return math.sqrt(_squared_error(estimate, truth) / truth.size)


def _same_shape(a: tuple, b: tuple) -> None:
    if a != b:
        raise ShapeError(f"pixel matrix shapes differ: {a} vs {b}")


def _blocks(channels: int, pixels: int, count: int):
    """(start, stop, views) per block of pixels.

    Each view is a contiguous (channels, stop - start) window onto one of
    ``count`` buffers reused from block to block.
    """
    width = min(BLOCK_PIXELS, pixels)
    buffers = np.empty((count, channels * width))
    for start in range(0, pixels, width):
        stop = min(start + width, pixels)
        size = channels * (stop - start)
        yield start, stop, [b[:size].reshape(channels, -1) for b in buffers]


def _block_error(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    """Σ(a - b)² of one block, formed in ``scratch``."""
    with np.errstate(over="ignore"):  # an error past the float range reads inf
        np.subtract(a, b, out=scratch)
        np.square(scratch, out=scratch)
        return float(scratch.sum())


def _squared_error(a: np.ndarray, b: np.ndarray) -> float:
    """Σ(a - b)² over every entry of two same-shape arrays, block by block."""
    _same_shape(a.shape, b.shape)
    total = 0.0
    for start, stop, (scratch,) in _blocks(*a.shape, 1):
        total += _block_error(a[:, start:stop], b[:, start:stop], scratch)
    return total


def _psnr_parts(peak: float, squared_error: float, pixels: int) -> tuple[float, float]:
    """(mse, psnr in dB) from the estimate's peak and its summed squared error."""
    # squared error summed over everything, divided by the pixel count only
    # (per-pixel spectral error is summed, not averaged, over channels)
    mse = squared_error / pixels
    if mse == 0.0:
        return mse, math.inf
    if peak <= 0.0 or mse == math.inf:
        return mse, -math.inf
    return mse, 10.0 * math.log10(peak * peak / mse)


def psnr(estimate: PixelMatrix, reference: PixelMatrix) -> float:
    """Peak signal-to-noise ratio of a reconstruction, in dB.

    The peak is taken from the estimate under evaluation.  A perfect match
    returns ``inf``; report the peak alongside when comparing runs, since
    it is data-dependent.
    """
    error = _squared_error(estimate.values, reference.values)
    return _psnr_parts(float(estimate.values.max()), error, estimate.pixels)[1]


def reconstruction_error(observed: PixelMatrix, reconstruction: PixelMatrix) -> float:
    """Root mean square spectral residual between observation and model fit."""
    return math.sqrt(_squared_error(observed.values, reconstruction.values)
                     / observed.values.size)


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
) -> MetricsReport:
    """Score an abundance estimate against whatever references are available.

    Args:
        endmembers: spectra used to rebuild the scene from the estimate.
        observed: the (possibly noisy) data that was unmixed.
        estimate: abundances under evaluation.
        truth: ground-truth abundances, enables rmse.
        clean: noiseless spectra, enables reconstruction psnr.
    """
    return _evaluate(endmembers, observed, estimate, truth, clean)[0]


def _evaluate(
    endmembers: EndmemberMatrix,
    observed: PixelMatrix,
    estimate: AbundanceMatrix,
    truth: AbundanceMatrix | None = None,
    clean: PixelMatrix | None = None,
    payload: bool = False,
) -> tuple[MetricsReport, np.ndarray | None]:
    """:func:`evaluate` in one pass over the reconstruction M·A.

    Each block of M·A is formed by einsum (no BLAS call) in a reused
    buffer and scored there.  With ``payload``, the blocks are also stored
    as the little-endian float32 (bands, pixels) payload of a cube file,
    returned next to the report (else None).  A reconstruction that is not
    finite, or that float32 cannot hold, raises ValueError.
    """
    _check_count(endmembers, estimate)
    shape = (endmembers.bands, estimate.pixels)
    _same_shape(observed.values.shape, shape)
    if clean is not None:
        _same_shape(shape, clean.values.shape)
    r = rmse(truth, estimate) if truth is not None else None
    m, a, y = endmembers.values, estimate.values, observed.values
    stored = np.empty(shape, dtype="<f4") if payload else None
    error = clean_error = 0.0
    peak = -math.inf
    for start, stop, (ma, scratch) in _blocks(*shape, 2):
        np.einsum("ij,jn->in", m, a[:, start:stop], out=ma)
        block = _block_error(y[:, start:stop], ma, scratch)
        # the observed data are finite, so a finite sum means a finite block
        if not math.isfinite(block) and not np.isfinite(ma).all():
            raise ValueError("reconstruction must be finite (no NaN or Inf)")
        error += block
        if clean is not None:
            clean_error += _block_error(ma, clean.values[:, start:stop], scratch)
            peak = max(peak, float(ma.max()))
        if stored is not None:
            try:
                with np.errstate(over="raise"):
                    stored[:, start:stop] = ma
            except FloatingPointError:
                raise ValueError(
                    "reconstruction values beyond the float32 range would not read back"
                ) from None
    p = pmse = None
    if clean is not None:
        pmse, p = _psnr_parts(peak, clean_error, estimate.pixels)
    report = MetricsReport(
        reconstruction_error=math.sqrt(error / y.size),
        rmse=r,
        psnr=p,
        psnr_peak=None if clean is None else peak,
        psnr_mse=pmse,
    )
    return report, stored
