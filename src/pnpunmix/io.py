"""File formats: raw cubes with text sidecars, CSV spectra, graymaps, configs.

A cube on disk is its PixelMatrix: a raw little-endian 32-bit float payload
in band-major order (within each band, pixels run down the columns, row
index fastest) next to a ``.hdr`` text sidecar naming shape and encoding.
Abundances reuse the same container with one channel per endmember; reading
them back applies a loosened sum-to-one tolerance because 32-bit storage
rounds the fractions. Endmember spectra travel as plain CSV, maps as binary
PGM, run parameters as flat ``key = value`` text.

Every reader raises FileFormatError with the offending path in the message;
shape and content checks of the reconstructed objects are delegated to the
container types.
"""

from __future__ import annotations

import warnings
from functools import partial
from pathlib import Path

import numpy as np

from .cube import HsiCube, PixelMatrix, fold, unfold
from .errors import FileFormatError
from .model import ANC_CLAMP, AbundanceMatrix, EndmemberMatrix

__all__ = [
    "write_cube",
    "read_cube",
    "write_abundances",
    "read_abundances",
    "write_endmembers",
    "read_endmembers",
    "write_graymap",
    "read_graymap",
    "write_config",
    "read_config",
]

# sum-to-one slack after float32 quantization of the stored fractions
STORED_ASC_TOL = 1e-5

_HEADER_KEYS = ("channels", "rows", "cols", "dtype", "layout", "endianness")
_DTYPE_TAG = "float32"
_LAYOUT_TAG = "band-major"
_ENDIAN_TAG = "little"


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".hdr")


def _write_pixels(path, matrix) -> None:
    """Write a (channels, pixels) container as float32 payload plus ``.hdr``."""
    path = Path(path)
    payload = matrix.values.astype("<f4").tobytes(order="C")
    lines = [
        f"channels = {matrix.values.shape[0]}",
        f"rows = {matrix.spatial_rows}",
        f"cols = {matrix.spatial_cols}",
        f"dtype = {_DTYPE_TAG}",
        f"layout = {_LAYOUT_TAG}",
        f"endianness = {_ENDIAN_TAG}",
    ]
    _sidecar(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    path.write_bytes(payload)


def write_cube(path, cube: HsiCube) -> None:
    """Write a cube as raw float32 payload plus ``.hdr`` sidecar."""
    _write_pixels(path, unfold(cube))


def _parse_sidecar(path: Path) -> tuple[int, int, int]:
    sidecar = _sidecar(path)
    if not sidecar.is_file():
        raise FileFormatError(f"{path}: missing sidecar {sidecar.name}")
    fields = {}
    for raw in sidecar.read_text(encoding="ascii").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"{sidecar}: malformed line {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise FileFormatError(f"{sidecar}: missing keys {missing}")
    expected = {"dtype": _DTYPE_TAG, "layout": _LAYOUT_TAG, "endianness": _ENDIAN_TAG}
    for key, tag in expected.items():
        if fields[key] != tag:
            raise FileFormatError(
                f"{sidecar}: unsupported {key} {fields[key]!r}, expected {tag!r}"
            )
    try:
        channels, rows, cols = (int(fields[k]) for k in ("channels", "rows", "cols"))
    except ValueError as exc:
        raise FileFormatError(f"{sidecar}: non-integer dimension ({exc})") from None
    if min(channels, rows, cols) < 1:
        raise FileFormatError(f"{sidecar}: dimensions must be positive")
    return channels, rows, cols


def _read_pixels(path, container=PixelMatrix):
    """The (channels, pixels) matrix a payload stores; exact length enforced."""
    path = Path(path)
    channels, rows, cols = _parse_sidecar(path)
    if not path.is_file():
        raise FileFormatError(f"{path}: payload file missing")
    data = path.read_bytes()
    expected = channels * rows * cols * 4
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: payload is {len(data)} bytes, header implies {expected}"
        )
    # the container's own copy is the one float32 -> float64 conversion
    values = np.frombuffer(data, dtype="<f4").reshape(channels, rows * cols)
    try:
        return container(values, rows, cols)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def read_cube(path) -> HsiCube:
    """Read a cube written by write_cube; exact payload length enforced."""
    return fold(_read_pixels(path))


def write_abundances(path, abundances: AbundanceMatrix) -> None:
    """Store abundance planes in the cube container, one channel per endmember."""
    _write_pixels(path, abundances)


def read_abundances(path, asc_tol: float = STORED_ASC_TOL) -> AbundanceMatrix:
    return _read_pixels(path, partial(AbundanceMatrix, asc_tol=asc_tol))


def write_endmembers(path, endmembers: EndmemberMatrix) -> None:
    """CSV with a header row of names, then one row per band.

    Values are printed with nine significant digits, comfortably inside
    the 1e-6 round-trip contract.
    """
    names = endmembers.names
    if names is None:
        names = tuple(f"em_{i}" for i in range(endmembers.count))
    rows = [",".join(names)]
    rows += [
        ",".join(f"{v:.9g}" for v in band_row) for band_row in endmembers.values
    ]
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")


def read_endmembers(path) -> EndmemberMatrix:
    path = Path(path)
    if not path.is_file():
        raise FileFormatError(f"{path}: no such file")
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not a text file") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise FileFormatError(f"{path}: need a header row and at least one band row")
    names = tuple(cell.strip() for cell in lines[0].split(","))
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise FileFormatError(
                f"{path}:{lineno}: {len(cells)} columns, header names {len(names)}"
            )
        try:
            values.append([float(cell) for cell in cells])
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: non-numeric cell") from None
    try:
        return EndmemberMatrix(np.array(values), names)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def write_graymap(path, plane: np.ndarray) -> None:
    """Render a [0, 1] image plane as a binary 8-bit portable graymap.

    Quantization is pinned: byte = floor(255 * clamp(v, 0, 1) + 0.5), so
    ties round up (0.5 maps to 128). Input is clamped, not rejected, with a
    warning only when it lies more than ANC_CLAMP (roundoff) outside [0, 1].
    """
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"graymap plane must be 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("graymap plane must be finite")
    if arr.min() < -ANC_CLAMP or arr.max() > 1.0 + ANC_CLAMP:
        warnings.warn("graymap values outside [0, 1] clamped", stacklevel=2)
    arr = np.clip(arr, 0.0, 1.0)
    # np.round would round half to even; the format pins half-up
    bytes_ = np.floor(255.0 * arr + 0.5).astype(np.uint8)
    rows, cols = bytes_.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    Path(path).write_bytes(header + bytes_.tobytes(order="C"))


def _graymap_tokens(data: bytes, count: int, path: Path) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-delimited header tokens; comments skipped."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise FileFormatError(f"{path}: truncated graymap header")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    # exactly one whitespace byte separates the header from the payload
    return tokens, pos + 1


def read_graymap(path) -> np.ndarray:
    """Read a binary PGM written by write_graymap; returns uint8 (rows, cols)."""
    path = Path(path)
    if not path.is_file():
        raise FileFormatError(f"{path}: no such file")
    data = path.read_bytes()
    tokens, offset = _graymap_tokens(data, 4, path)
    if tokens[0] != b"P5":
        raise FileFormatError(f"{path}: not a binary graymap (magic {tokens[0]!r})")
    try:
        cols, rows, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise FileFormatError(f"{path}: non-integer header field") from None
    if maxval != 255:
        raise FileFormatError(f"{path}: unsupported max value {maxval}")
    payload = data[offset:]
    if len(payload) != rows * cols:
        raise FileFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {rows * cols}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols).copy()


def write_config(path, fields: dict) -> None:
    """Flat ``key = value`` run-config text, one pair per line."""
    lines = [f"{key} = {value}" for key, value in fields.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_config(path) -> dict[str, str]:
    """Parse a flat config file; blank lines and ``#`` comments are skipped.

    Values come back as strings; interpreting them is the caller's job.
    """
    path = Path(path)
    if not path.is_file():
        raise FileFormatError(f"{path}: no such file")
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise FileFormatError(f"{path}:{lineno}: empty key")
        if key in fields:
            raise FileFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    return fields
