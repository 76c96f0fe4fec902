"""File formats: raw cubes with text sidecars, CSV spectra, graymaps, configs.

A cube on disk is its PixelMatrix: a raw little-endian 32-bit float payload
in band-major order (within each band, pixels run down the columns, row
index fastest) next to a ``.hdr`` text sidecar naming shape and encoding.
Abundances reuse the same container with one channel per endmember; reading
them back applies a loosened sum-to-one tolerance because 32-bit storage
rounds the fractions. Endmember spectra travel as plain CSV, maps as binary
PGM. Sidecars and run configs share one ``key = value`` codec: write_config
writes it, and read_config, which rejects duplicate and empty keys, reads it.

Every reader raises FileFormatError with the offending path in the message;
shape and content checks of the reconstructed objects are delegated to the
container types.
"""

from __future__ import annotations

import warnings
from functools import partial
from pathlib import Path

import numpy as np

from .cube import HsiCube, PixelMatrix, _as_readonly_f64, fold, unfold
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
# float32 values per read of a cube payload (4 MiB)
READ_CHUNK_VALUES = 1 << 20

# a sidecar's keys: the payload's shape, then its one supported encoding
_ENCODING = {"dtype": "float32", "layout": "band-major", "endianness": "little"}
_HEADER_KEYS = ("channels", "rows", "cols", *_ENCODING)


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".hdr")


def _write_pixels(path, matrix: PixelMatrix) -> None:
    """Write a :class:`PixelMatrix` as float32 payload plus ``.hdr``."""
    path = Path(path)
    payload = np.ascontiguousarray(matrix.values, dtype="<f4")
    shape = (matrix.channels, matrix.spatial_rows, matrix.spatial_cols)
    write_config(_sidecar(path), dict(zip(_HEADER_KEYS, shape)) | _ENCODING)
    path.write_bytes(payload)


def write_cube(path, cube: HsiCube) -> None:
    """Write a cube as raw float32 payload plus ``.hdr`` sidecar."""
    _write_pixels(path, unfold(cube))


def _parse_sidecar(path: Path) -> tuple[int, int, int]:
    sidecar = _sidecar(path)
    if not sidecar.is_file():
        raise FileFormatError(f"{path}: missing sidecar {sidecar.name}")
    fields = read_config(sidecar)
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise FileFormatError(f"{sidecar}: missing keys {missing}")
    for key, tag in _ENCODING.items():
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
    """The (channels, pixels) matrix a payload stores; exact length enforced.

    The length is checked against the header before anything is read; the
    float32 payload then goes in READ_CHUNK_VALUES pieces straight into the
    float64 matrix, which the container adopts without a copy.
    """
    path = Path(path)
    channels, rows, cols = _parse_sidecar(path)
    if not path.is_file():
        raise FileFormatError(f"{path}: payload file missing")
    expected = channels * rows * cols * 4
    size = path.stat().st_size
    if size != expected:
        raise FileFormatError(
            f"{path}: payload is {size} bytes, header implies {expected}"
        )
    values = np.empty((channels, rows * cols))
    flat = values.reshape(-1)
    chunk = np.empty(min(READ_CHUNK_VALUES, flat.size), dtype="<f4")
    with open(path, "rb") as handle:
        for start in range(0, flat.size, chunk.size):
            part = chunk[: flat.size - start]
            if handle.readinto(part) != part.nbytes:
                raise FileFormatError(f"{path}: payload shrank while being read")
            flat[start : start + part.size] = part
    values.setflags(write=False)
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


def read_abundances(path) -> AbundanceMatrix:
    """Read abundances written by write_abundances, with STORED_ASC_TOL."""
    return _read_pixels(path, partial(AbundanceMatrix, asc_tol=STORED_ASC_TOL))


def write_endmembers(path, endmembers: EndmemberMatrix) -> None:
    """CSV with a header row of names, then one row per band.

    Values are printed with nine significant digits, comfortably inside
    the 1e-6 round-trip contract.  What read_endmembers would not read back
    as written raises ValueError before anything is written: a name that is
    empty, not ASCII, or holds a comma, a line break or leading or trailing
    whitespace, and spectra that repeat a column once printed.
    """
    names = endmembers.names
    if names is None:
        names = tuple(f"em_{i}" for i in range(endmembers.count))
    for name in names:
        if (not name or not name.isascii() or "," in name or name != name.strip()
                or len(name.splitlines()) > 1):
            raise ValueError(f"endmember name {name!r} would not read back")
    cells = [[f"{v:.9g}" for v in band_row] for band_row in endmembers.values]
    with warnings.catch_warnings():  # the spectra's range warned when they were built
        warnings.simplefilter("ignore")
        EndmemberMatrix(np.array([[float(c) for c in row] for row in cells]))
    rows = [",".join(names)] + [",".join(row) for row in cells]
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
    arr = _as_readonly_f64(plane, "graymap plane", 2)
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
    """Flat ``key = value`` text, one pair per line, as read_config reads it.

    A pair that would not read back as written raises ValueError before
    anything is written: an empty key, a key holding ``=`` or starting with
    ``#``, a key whose ``str`` repeats an earlier key's, or a key or value
    (as ``str``) with a line break or leading or trailing whitespace.
    """
    lines = {}
    for key, value in fields.items():
        key, value = str(key), str(value)
        if (not key or key in lines or "=" in key or key.startswith("#")
                or any(s != s.strip() or len(s.splitlines()) > 1 for s in (key, value))):
            raise ValueError(f"config pair {key!r} = {value!r} would not read back")
        lines[key] = f"{key} = {value}"
    Path(path).write_text("\n".join(lines.values()) + "\n", encoding="utf-8")


def read_config(path) -> dict[str, str]:
    """Parse a flat config file; blank lines and ``#`` comments are skipped.

    Values come back as strings; interpreting them is the caller's job.
    """
    path = Path(path)
    if not path.is_file():
        raise FileFormatError(f"{path}: no such file")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not a text file") from None
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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
