"""Containers and reshapes for hyperspectral data.

A scene lives in two equivalent layouts:

* :class:`HsiCube` -- a (bands, rows, cols) array, the shape filters work on.
* :class:`PixelMatrix` -- a (channels, pixels) array, the shape the solvers
  work on, with one column per pixel.

The column ordering is fixed once and used everywhere, including the binary
cube file format: pixel ``n = col * rows + row``, i.e. pixels walk down each
spatial column before moving to the next one.  This module is the only one
that spells it out, in ``_pixel_view``, the (channels, cols, rows) view
of either layout whose C order is the pixel order.  The file writers
convert that view; :func:`fold` and :func:`unfold` wrap two array-level
relabelings built on it, which the unmixing loop and the scene generator
call directly on plain arrays.  A round trip reproduces the input bit for
bit.

Both containers hold a read-only C-ordered float64 array, taken in by
``_as_readonly_f64``, the one intake of every array container in the
library.  An input that already is one and owns its data is adopted as-is,
without a copy (the library marks the arrays it makes for a container
read-only, so they exist once); any other input, a writeable array or a
view included, is copied.  Every input is checked for NaN and Inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = ["HsiCube", "PixelMatrix", "fold", "unfold"]


def _as_readonly_f64(values, name: str, ndim: int) -> np.ndarray:
    """The container's array: ``values`` adopted or copied, then checked."""
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.c_contiguous and values.flags.owndata
            and not values.flags.writeable):
        arr = values
    else:
        arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (no NaN or Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HsiCube:
    """Hyperspectral image cube, shape (bands, rows, cols).

    Values are held as a read-only float64 array: a read-only, C-ordered
    float64 input that owns its data is adopted without a copy, anything
    else is copied.  NaN/Inf are rejected.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_f64(self.values, "cube", 3))

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def rows(self) -> int:
        return self.values.shape[1]

    @property
    def cols(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class PixelMatrix:
    """Per-pixel data matrix, shape (channels, pixels), one column per pixel.

    Values are adopted or copied as in :class:`HsiCube`.

    Args:
        values: (channels, pixels) array, any finite reals.
        spatial_rows: rows of the image the columns came from.
        spatial_cols: cols of the image; rows * cols must equal pixels.
    """

    values: np.ndarray
    spatial_rows: int
    spatial_cols: int

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_f64(self.values, "matrix", 2))
        if self.spatial_rows < 1 or self.spatial_cols < 1:
            raise ShapeError("spatial dimensions must be positive")
        if self.spatial_rows * self.spatial_cols != self.values.shape[1]:
            raise ShapeError(
                f"{self.values.shape[1]} columns cannot fill a "
                f"{self.spatial_rows}x{self.spatial_cols} image"
            )

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def pixels(self) -> int:
        return self.values.shape[1]


def _pixel_view(values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(channels, rows, cols) planes or (channels, rows*cols) pixel columns
    as a (channels, cols, rows) view, whose C order is the pixel order."""
    if values.ndim == 3:
        return values.transpose(0, 2, 1)
    return values.reshape(-1, cols, rows)


# The two relabelings below return new read-only, C-ordered float64 arrays
# that own their data, so a container adopts them without another copy.


def _to_planes(pixels: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(channels, rows*cols) pixel columns as (channels, rows, cols) planes."""
    planes = np.empty((pixels.shape[0], rows, cols))
    _pixel_view(planes, rows, cols)[...] = _pixel_view(pixels, rows, cols)
    planes.setflags(write=False)
    return planes


def _to_pixels(planes: np.ndarray) -> np.ndarray:
    """(channels, rows, cols) planes as pixel columns, n = col*rows + row."""
    ch, r, c = planes.shape
    pixels = np.empty((ch, r * c))
    _pixel_view(pixels, r, c)[...] = _pixel_view(planes, r, c)
    pixels.setflags(write=False)
    return pixels


def unfold(cube: HsiCube) -> PixelMatrix:
    """Flatten a cube to a (bands, pixels) matrix, pixel n = col*rows + row."""
    return PixelMatrix(_to_pixels(cube.values), cube.rows, cube.cols)


def fold(matrix: PixelMatrix) -> HsiCube:
    """Reshape a :class:`PixelMatrix` back into a (channels, rows, cols) cube.

    Inverse of :func:`unfold`; an abundance matrix, a PixelMatrix too,
    folds into one plane per endmember.
    """
    return HsiCube(_to_planes(matrix.values, matrix.spatial_rows, matrix.spatial_cols))
