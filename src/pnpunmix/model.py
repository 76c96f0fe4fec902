"""Linear mixing model: endmember and abundance containers, mixing, noise.

Every pixel spectrum is modeled as a convex combination of a few material
spectra (endmembers): y = M a + n, with the abundance vector a constrained
to the unit simplex (non-negative, summing to one).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cube import PixelMatrix, _as_readonly_f64
from .errors import ShapeError

__all__ = ["EndmemberMatrix", "AbundanceMatrix", "mix", "add_noise_snr"]

# entries in [-ANC_CLAMP, 0) are treated as roundoff and clamped to zero
ANC_CLAMP = 1e-12
ASC_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EndmemberMatrix:
    """Material spectra, one column per endmember, shape (bands, endmembers).

    Args:
        values: (bands, endmembers) spectra.  Reflectance outside [0, 1]
            is allowed but draws a warning; an all-zero column or two
            bitwise-identical columns are errors.
        names: optional per-endmember labels, same length as the columns.
    """

    values: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _as_readonly_f64(self.values, "endmembers", 2)
        with np.errstate(over="ignore"):  # an overflowing norm is not zero
            norms = np.linalg.norm(arr, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("endmember column is all zero")
        for i in range(arr.shape[1]):
            for j in range(i + 1, arr.shape[1]):
                if np.array_equal(arr[:, i], arr[:, j]):
                    raise ValueError(f"endmember columns {i} and {j} are identical")
        if arr.min() < 0.0 or arr.max() > 1.0:
            warnings.warn("endmember values fall outside [0, 1]", stacklevel=3)
        object.__setattr__(self, "values", arr)
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != arr.shape[1]:
                raise ShapeError("one name per endmember required")
            object.__setattr__(self, "names", names)

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def count(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class AbundanceMatrix(PixelMatrix):
    """Per-pixel abundance fractions, shape (endmembers, pixels).

    A :class:`PixelMatrix` whose columns lie on the unit simplex: entries
    >= 0 and each column summing to one within ``asc_tol``.  Entries in
    [-1e-12, 0) are clamped to zero in a new array, so the caller's array
    is never written; anything more negative is an error.

    Args:
        values: (endmembers, pixels) fractions.
        spatial_rows: image rows the pixel columns unfold from.
        spatial_cols: image cols; rows * cols must equal pixels.
        asc_tol: sum-to-one tolerance.  The default is the in-memory
            contract; readers of 32-bit files pass a looser value.
    """

    asc_tol: float = ASC_TOL

    def __post_init__(self):
        super().__post_init__()
        arr = self.values
        low = arr.min()
        if low < -ANC_CLAMP:
            raise ValueError(f"abundance {low} is negative beyond roundoff")
        if low < 0.0:
            arr = np.where(arr < 0.0, 0.0, arr)
            arr.setflags(write=False)
            object.__setattr__(self, "values", arr)
        sums = arr.sum(axis=0)
        worst = np.abs(sums - 1.0).max()
        if worst > self.asc_tol:
            raise ValueError(
                f"abundance columns must sum to 1 within {self.asc_tol:g}, "
                f"worst deviation {worst:.3e}"
            )

    @property
    def endmembers(self) -> int:
        return self.values.shape[0]


def _check_count(endmembers: EndmemberMatrix, abundances: AbundanceMatrix) -> None:
    """ShapeError unless there is one abundance row per endmember column."""
    if endmembers.count != abundances.endmembers:
        raise ShapeError(f"{endmembers.count} endmember columns vs "
                         f"{abundances.endmembers} abundance rows")


def mix(endmembers: EndmemberMatrix, abundances: AbundanceMatrix) -> PixelMatrix:
    """Forward model: spectra for every pixel, Y = M A.

    Returns:
        PixelMatrix of shape (bands, pixels) carrying the abundance grid's
        spatial dimensions; its array is the product itself, not a copy.
    """
    _check_count(endmembers, abundances)
    y = endmembers.values @ abundances.values
    # read-only, so the container adopts the product instead of copying it
    y.setflags(write=False)
    return PixelMatrix(y, abundances.spatial_rows, abundances.spatial_cols)


def _power_ratio(snr_db: float) -> float:
    """10^(snr_db/10), inf past the float range; ValueError if a finite
    snr_db's ratio underflows to 0, where the noise would be infinite."""
    try:
        with np.errstate(over="ignore"):  # a numpy scalar's ratio overflows to inf
            ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:  # the ratio, or an int snr_db, is past the float range
        ratio = math.inf
    if ratio == 0.0 and snr_db != -math.inf:
        raise _too_low(snr_db, "its power ratio 10^(snr_db/10) underflows to 0")
    return ratio


def _too_low(snr_db: float, why: str) -> ValueError:
    """The ValueError of an snr_db whose noise the float range cannot hold."""
    return ValueError(f"snr_db {snr_db!r} is too low: {why}")


def add_noise_snr(clean: PixelMatrix, snr_db: float, seed: int) -> PixelMatrix:
    """Add white Gaussian noise at a target signal-to-noise ratio.

    The noise variance is set from the signal energy,
    sigma^2 = ||Y||_F^2 / (size * 10^(snr_db/10)), so the expected realized
    SNR matches the target.  Draws come from numpy's default_rng (PCG64
    generator, ziggurat normal sampler), so a given seed reproduces the
    same noise bit for bit across runs and platforms with the same numpy.

    The result is ``clean + sigma * standard_normal(shape)`` bit for bit,
    formed in its own buffer, which first holds the squares of the energy
    sum and then the draws: one array the size of ``clean`` is allocated.

    Args:
        clean: noiseless spectra.
        snr_db: target SNR in dB; ``inf`` (or ``-inf``), or one whose ratio
            10^(snr_db/10) is past the float range, returns the input
            unchanged.  A finite snr_db whose ratio underflows to 0 (below
            about -3233 dB), or whose sigma overflows (below about -3080 dB
            at unit signal power), is a ValueError.
        seed: generator seed.
    """
    ratio = _power_ratio(snr_db)
    if ratio == math.inf or snr_db == -math.inf:
        return PixelMatrix(clean.values, clean.spatial_rows, clean.spatial_cols)
    values = clean.values
    noisy = np.square(values, out=np.empty_like(values))
    sigma = np.sqrt(float(noisy.sum()) / (values.size * ratio))
    # sigma^2 and the values' squares are finite floats, so a finite sigma and
    # every |value| are at most sqrt(max float) ~ 1.3e154: no noisy value overflows
    if not np.isfinite(sigma):
        raise _too_low(snr_db, "its noise level sigma overflows the float range")
    np.random.default_rng(seed).standard_normal(out=noisy)
    noisy *= sigma
    noisy += values
    # read-only, so the container adopts the buffer instead of copying it
    noisy.setflags(write=False)
    return PixelMatrix(noisy, clean.spatial_rows, clean.spatial_cols)
