"""Swappable image denoisers, the prior half of the unmixing splitting.

The unmixing loop hands each iteration's (channels, rows, cols) planes
to the selected denoiser at the noise level sigma = sqrt(lambda / rho),
through the array-level step that :func:`denoise` wraps for cubes;
everything behind that step is interchangeable.  Built-ins (plain numpy,
as is the whole package): ``identity`` (no prior), ``gaussian``
(separable blur of width GAUSSIAN_WIDTH), ``nlm`` (non-local means with
bandwidth h = NLM_H_SCALE * sigma; float32 weights on a power-of-two
scale per channel, float64 sums, so data and sigma times 2^k give
exactly 2^k times the output), ``tv`` (rudin-osher-fatemi model with
weight mu = sigma, solved by dual projected gradient).

Every built-in gives each channel what filtering that channel alone
gives, with replicate borders, on one thread, filtering blocks of whole
channels (up to BLOCK_PIXELS pixels) in one pass.  Their settings are
the module constants below, read at call time.
Every denoiser, built-in or plug-in, is a callable ``fn(volume, sigma)
-> array``: ``volume`` is a read-only, C-contiguous float64 (channels,
rows, cols) array, and the result is a new array of that shape.
External ones (a learned prior, say) plug in through
:func:`register_denoiser`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .cube import HsiCube
from .errors import ComputeError

__all__ = [
    "denoise",
    "gaussian_filter",
    "nlm_filter",
    "tv_denoise",
    "register_denoiser",
    "available_denoisers",
]


# the built-ins' settings: the gaussian's spatial width in pixels, nlm's
# patch and search radii (the windows are 2r + 1 wide) and its bandwidth h
# per unit sigma, and tv's dual projected-gradient steps.  The presets'
# (rho0, lambda) were tuned at these values, except that nlm's were tuned at
# a search radius of 5 and await a retune at 3: on the small, smooth
# abundance and coefficient images the loop filters, the 7 x 7 window is
# both faster and more accurate than 11 x 11 at the same presets
GAUSSIAN_WIDTH = 1.5
NLM_PATCH_RADIUS = 1
NLM_SEARCH_RADIUS = 3
NLM_H_SCALE = 10.0
TV_ITERS = 30

# pixels per block: the built-ins filter whole channels together up to this
# many, so their temporaries stay a few blocks in size on any volume, while
# small volumes (pro-h's few coefficient images) pass in one block
BLOCK_PIXELS = 1 << 16


def _by_blocks(volume: np.ndarray, filter_block: Callable) -> np.ndarray:
    """filter_block on (channels, rows, cols) blocks of whole channels.

    ``volume`` is one plane or a stack (..., rows, cols); a block holds up
    to BLOCK_PIXELS pixels, and at least one channel.
    """
    rows, cols = volume.shape[-2:]
    planes = volume.reshape(-1, rows, cols)
    out = np.empty_like(planes)
    step = max(BLOCK_PIXELS // (rows * cols), 1)
    for start in range(0, planes.shape[0], step):
        out[start : start + step] = filter_block(planes[start : start + step])
    return out.reshape(volume.shape)


def gaussian_filter(volume: np.ndarray) -> np.ndarray:
    """Separable Gaussian blur of each (rows, cols) plane, replicate borders.

    ``volume`` is one plane or a stack (..., rows, cols), filtered in
    blocks of whole channels, so each plane comes out bit for bit as it
    would alone.  The 1D kernel is sampled on integer offsets, truncated
    at ceil(3 * GAUSSIAN_WIDTH) and renormalized to sum exactly 1, so
    constant images pass through unchanged.  Rows are filtered first,
    then columns, with scipy.ndimage.correlate1d's arithmetic for a
    symmetric kernel (mode "nearest"), so the output matches it bit for
    bit.
    """
    volume = np.asarray(volume, dtype=np.float64)
    radius = max(int(np.ceil(3.0 * GAUSSIAN_WIDTH)), 1)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(x**2) / (2.0 * GAUSSIAN_WIDTH**2))
    kernel /= kernel.sum()
    return _by_blocks(volume, lambda block: _correlate_symmetric(
        _correlate_symmetric(block, kernel, 1), kernel, 2))


def _correlate_symmetric(
    block: np.ndarray, kernel: np.ndarray, axis: int, border: str = "edge"
) -> np.ndarray:
    """Correlate one axis with a symmetric odd kernel.

    The axis is extended by np.pad with mode ``border``: "edge" replicates
    (correlate1d's "nearest"), "symmetric" mirrors (its "reflect").
    out = x * w_0, then out += (x_-j + x_+j) * w_j from the outermost tap
    j = r inward: the order and grouping of correlate1d's symmetric loop.
    """
    r = kernel.size // 2
    n = block.shape[axis]
    pad = [(0, 0)] * block.ndim
    pad[axis] = (r, r)
    padded = np.pad(block, pad, mode=border)

    def shifted(j: int) -> np.ndarray:
        return padded[(slice(None),) * axis + (slice(r + j, r + j + n),)]

    out = block * kernel[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(shifted(-j), shifted(j), out=pair)
        pair *= kernel[r - j]
        out += pair
    return out


def nlm_filter(volume: np.ndarray, sigma: float) -> np.ndarray:
    """Non-local means: average similar pixels from a search window.

    Pixel j in the (2*NLM_SEARCH_RADIUS+1)^2 window around pixel i
    contributes with weight exp(-ssd(i, j) / h^2), where ssd is the summed
    squared difference of the (2*NLM_PATCH_RADIUS+1)^2 patches and
    h = NLM_H_SCALE * sigma.  The weights are float32 on each channel's
    power-of-two scale (h scaled alike), so no data scale overflows and
    data and sigma times 2^k give exactly 2^k times the output; the sums
    are float64, so every output value is a convex combination of window
    values.  Borders replicate.  sigma = 0 returns a copy of the input.

    ``volume`` is one plane or a stack (..., rows, cols) of channels that
    are filtered independently.  Whole channels go through the search
    loop together, in blocks of up to BLOCK_PIXELS pixels (at least one
    channel), which bounds the temporaries to a few blocks.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if sigma == 0.0:
        return volume.copy()
    p, s = NLM_PATCH_RADIUS, NLM_SEARCH_RADIUS
    with np.errstate(over="ignore"):
        return _by_blocks(volume, lambda block: _nlm_block(block, NLM_H_SCALE * sigma, p, s))


def _nlm_block(block: np.ndarray, h: float, p: int, s: int) -> np.ndarray:
    """nlm_filter on a (channels, rows, cols) block, one pass per offset.

    Each channel is edge-padded by s rows and m = max(s, p) columns and
    flattened, so with row pitch `pitch` a search offset (dy, dx) is the
    flat shift dy * pitch + dx.  The per-offset work then runs on the
    contiguous flat span from the first pixel to the last, whose
    out-of-image columns hold finite values that are never read back.
    """
    n, rows, cols = block.shape
    m = max(s, p)
    pitch = cols + 2 * m
    padded = np.pad(block, ((0, 0), (s, s), (m, m)), mode="edge").reshape(n, -1)
    # each channel's largest |value| scales into [1/2, 1); an h^2 that overflows weighs
    # every offset 1 (a box mean), one below float32's least normal is raised to it
    e = np.frexp(np.abs(block).max(axis=(1, 2)))[1][:, None]
    scaled = np.ldexp(padded, -e).astype(np.float32)
    h2 = np.maximum(np.ldexp(h, -e) ** 2, np.finfo(np.float32).tiny).astype(np.float32)
    span = (rows - 1) * pitch + cols
    pixels = scaled[:, s * pitch + m : s * pitch + m + span]
    # float32 squared differences in rows p .. p + rows - 1, replicated p
    # rows up and down and p columns left and right (zeroed, so that cells
    # no offset writes stay finite); their sums over 2p + 1 rows; the patch
    # sums that become the weights; and each weight widened to float64
    diff = np.zeros((n, rows + 2 * p, pitch), dtype=np.float32)
    flat_diff = diff.reshape(n, -1)
    inner = flat_diff[:, p * pitch + m : p * pitch + m + span]
    row_sum = np.empty((n, rows * pitch), dtype=np.float32)
    w = np.empty((n, span), dtype=np.float32)
    wide = np.empty((n, span))
    num, den = np.zeros((2, n, rows * pitch))
    num_span, den_span = num[:, m : m + span], den[:, m : m + span]
    image_rows = diff[:, p : p + rows]
    for dy in range(-s, s + 1):
        for dx in range(-s, s + 1):
            start = (s + dy) * pitch + m + dx
            np.subtract(pixels, scaled[:, start : start + span], out=inner)
            np.square(inner, out=inner)
            image_rows[..., m - p : m] = image_rows[..., m : m + 1]
            image_rows[..., m + cols : m + cols + p] = image_rows[..., m + cols - 1 : m + cols]
            diff[:, :p] = diff[:, p : p + 1]
            diff[:, p + rows :] = diff[:, p + rows - 1 : p + rows]
            np.copyto(row_sum, flat_diff[:, : rows * pitch])
            for i in range(1, 2 * p + 1):
                row_sum += flat_diff[:, i * pitch : (i + rows) * pitch]
            np.copyto(w, row_sum[:, m - p : m - p + span])
            for j in range(1, 2 * p + 1):
                w += row_sum[:, m - p + j : m - p + j + span]
            np.divide(w, -h2, out=w)
            np.exp(w, out=w)
            np.copyto(wide, w)
            den_span += wide
            wide *= padded[:, start : start + span]
            num_span += wide
    grid = (n, rows, pitch)
    return num.reshape(grid)[:, :, m : m + cols] / den.reshape(grid)[:, :, m : m + cols]


def _grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx, gy = np.zeros_like(u), np.zeros_like(u)
    gx[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
    gy[..., :-1] = u[..., 1:] - u[..., :-1]
    return gx, gy


def _div(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    # negative adjoint of _grad on the last two axes: <grad u, p> =
    # -<u, div p>; an axis of length 1 has no differences, so its term is zero
    out = np.zeros_like(p1)
    if p1.shape[-2] > 1:
        out[..., 0, :] = p1[..., 0, :]
        out[..., 1:-1, :] = p1[..., 1:-1, :] - p1[..., :-2, :]
        out[..., -1, :] = -p1[..., -2, :]
    if p1.shape[-1] > 1:
        out[..., 0] += p2[..., 0]
        out[..., 1:-1] += p2[..., 1:-1] - p2[..., :-2]
        out[..., -1] += -p2[..., -2]
    return out


def tv_denoise(volume: np.ndarray, sigma: float) -> np.ndarray:
    """Total-variation denoising, min over u of ||u-f||^2/2 + mu*TV(u).

    mu = sigma.  Chambolle's dual projection takes TV_ITERS steps of length
    1/8 (the inverse Lipschitz bound of the discrete gradient); the primal
    point of the last is returned, clipped to each plane's input range.
    sigma = 0 returns a copy, and a plane whose dual steps overflow (a tiny
    mu, say) comes back unchanged: the mu -> 0 limit.  ``volume`` is one
    plane or a stack (..., rows, cols), filtered in blocks of whole channels.
    """
    volume = np.asarray(volume, dtype=np.float64)
    mu = float(sigma)
    if mu == 0.0:
        return volume.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        return _by_blocks(volume, lambda block: _tv_block(block, mu))


def _tv_block(f: np.ndarray, mu: float) -> np.ndarray:
    """tv_denoise on a (channels, rows, cols) block."""
    p1, p2 = np.zeros_like(f), np.zeros_like(f)
    for _ in range(TV_ITERS):
        gx, gy = _grad(f + mu * _div(p1, p2))
        p1 = p1 + (0.125 / mu) * gx
        p2 = p2 + (0.125 / mu) * gy
        norm = np.maximum(1.0, np.sqrt(p1**2 + p2**2))
        p1 /= norm
        p2 /= norm
    lo, hi = f.min(axis=(1, 2), keepdims=True), f.max(axis=(1, 2), keepdims=True)
    u = np.clip(f + mu * _div(p1, p2), lo, hi)
    return np.where(np.isfinite(u).all(axis=(1, 2), keepdims=True), u, f)


# kind -> fn(volume, sigma) -> volume; ``gaussian`` ignores sigma (its strength
# is GAUSSIAN_WIDTH alone), so in ``unmix`` lambda has no effect on it, only rho0
_REGISTRY: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "identity": lambda volume, sigma: volume,
    "gaussian": lambda volume, sigma: gaussian_filter(volume),
    "nlm": nlm_filter,
    "tv": tv_denoise,
}


def register_denoiser(name: str, fn: Callable[[np.ndarray, float], np.ndarray]) -> None:
    """Add an external denoiser under a new name.

    In ``unmix`` the volume has one channel per endmember, not per band:
    abundance planes (pro-a) or basis coefficients of the spectra (pro-h).
    In pro-h the plug-in gets neither the basis U nor the endmembers M, so
    it cannot rebuild band images from the coefficients.

    Args:
        name: registry key for config files and the command line.
        fn: callable taking (volume, sigma), where volume is a read-only,
            C-contiguous float64 (channels, rows, cols) array, and
            returning a new array of the same shape; it must not write
            to the input.  It is trusted to be deterministic.
    """
    if not name or not isinstance(name, str):
        raise ValueError("denoiser name must be a non-empty string")
    if name in _REGISTRY:
        raise ValueError(f"denoiser {name!r} is already registered")
    if not callable(fn):
        raise ValueError(f"denoiser {name!r} must be callable, got {fn!r}")
    _REGISTRY[name] = fn


def available_denoisers() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _registered(kind: str) -> Callable[[np.ndarray, float], np.ndarray]:
    """The denoiser registered as ``kind``; any other value is a ValueError."""
    if not isinstance(kind, str) or kind not in _REGISTRY:
        raise ValueError(f"unknown denoiser {kind!r}; "
                         f"available: {', '.join(available_denoisers())}")
    return _REGISTRY[kind]


def _denoise_planes(kind: str, planes: np.ndarray, sigma: float) -> np.ndarray:
    """:func:`denoise` on a (channels, rows, cols) array, returning an array."""
    fn = _registered(kind)
    if not np.isfinite(sigma) or sigma < 0.0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    out = np.asarray(fn(planes, float(sigma)), dtype=np.float64)
    if out.shape != planes.shape:
        raise ComputeError(
            f"denoiser {kind!r} changed the volume shape: "
            f"{planes.shape} -> {out.shape}"
        )
    if not np.isfinite(out).all():
        raise ComputeError(f"denoiser {kind!r}: cube must be finite (no NaN or Inf)")
    return out


def denoise(kind: str, volume: HsiCube, sigma: float) -> HsiCube:
    """Apply the denoiser registered as ``kind`` to a cube at noise level sigma.

    Args:
        kind: a name from :func:`available_denoisers`; any other value is
            a ValueError.
        volume: input cube.
        sigma: nonnegative noise level handed to the denoiser.

    Returns:
        A cube of the same shape; a shape-changing denoiser or non-finite
        output is a ComputeError.  The denoiser's own exceptions propagate.
    """
    return HsiCube(_denoise_planes(kind, volume.values, sigma))
