"""Swappable image denoisers, the prior half of the unmixing splitting.

The algorithm only ever calls ``denoise(spec, volume, sigma)`` with the
iteration's noise level sigma = sqrt(lambda / rho_k); everything behind
that call is interchangeable.  Built-ins: ``identity`` (no prior),
``gaussian`` (separable blur, fixed spatial width), ``nlm`` (non-local
means with bandwidth h = h_scale * sigma), ``tv`` (rudin-osher-fatemi
model with weight mu = sigma, solved by dual projected gradient).

All built-ins filter each band alone, in order on one thread, with
replicate borders.  External denoisers (a learned prior, say) plug in
through :func:`register_denoiser` with the signature ``fn(volume,
sigma) -> volume``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy import ndimage

from .cube import HsiCube
from .errors import ComputeError

__all__ = [
    "DenoiserSpec",
    "denoise",
    "gaussian_filter",
    "nlm_filter",
    "tv_denoise",
    "register_denoiser",
    "available_denoisers",
]

_PARAM_SPECS: dict[str, dict[str, tuple]] = {
    "identity": {},
    "gaussian": {"sigma_spatial": ("positive", 1.5)},
    "nlm": {
        "patch_radius": ("radius", 1),
        "search_radius": ("radius", 5),
        "h_scale": ("positive", 10.0),
    },
    "tv": {"iters": ("count", 30)},
}


@dataclass(frozen=True, eq=False)
class DenoiserSpec:
    """Name + parameters selecting a denoiser.

    The kind must be registered.  For the built-in kinds the parameters
    are validated eagerly: radii and iteration counts must be integers
    >= 1 (window sizes 2r+1 stay odd by construction), widths and scales
    positive.  Parameters of externally registered kinds pass through
    untouched.
    """

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        if self.kind not in _REGISTRY:
            raise ValueError(
                f"unknown denoiser {self.kind!r}; "
                f"available: {', '.join(available_denoisers())}"
            )
        spec = _PARAM_SPECS.get(self.kind)
        if spec is None:
            return
        for key, value in self.params.items():
            if key not in spec:
                raise ValueError(
                    f"unknown parameter {key!r} for denoiser {self.kind!r}; "
                    f"valid: {sorted(spec)}"
                )
            role = spec[key][0]
            if role in ("radius", "count"):
                if not isinstance(value, (int, np.integer)) or value < 1:
                    raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
            elif (not isinstance(value, numbers.Real) or not np.isfinite(value)
                  or value <= 0):
                raise ValueError(f"{key} must be a positive number, got {value!r}")

    def resolved(self) -> dict:
        """Parameters with defaults filled in (built-in kinds only)."""
        spec = _PARAM_SPECS.get(self.kind)
        if spec is None:
            return dict(self.params)
        out = {key: default for key, (_, default) in spec.items()}
        out.update(self.params)
        return out


def gaussian_filter(band: np.ndarray, sigma_spatial: float) -> np.ndarray:
    """Separable Gaussian blur with replicate borders.

    The 1D kernel is sampled on integer offsets, truncated at
    ceil(3 * sigma_spatial) and renormalized to sum exactly 1, so constant
    images pass through unchanged.
    """
    if sigma_spatial <= 0:
        raise ValueError(f"sigma_spatial must be positive, got {sigma_spatial}")
    band = np.asarray(band, dtype=np.float64)
    radius = max(int(np.ceil(3.0 * sigma_spatial)), 1)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(x**2) / (2.0 * sigma_spatial**2))
    kernel /= kernel.sum()
    out = ndimage.correlate1d(band, kernel, axis=0, mode="nearest")
    return ndimage.correlate1d(out, kernel, axis=1, mode="nearest")


def nlm_filter(
    band: np.ndarray,
    sigma: float,
    patch_radius: int = 1,
    search_radius: int = 5,
    h_scale: float = 10.0,
) -> np.ndarray:
    """Non-local means: average similar pixels from a search window.

    Pixel j in the window around pixel i contributes with weight
    exp(-ssd(i, j) / h^2), where ssd is the summed squared difference of
    the (2*patch_radius+1)^2 patches and h = h_scale * sigma.  Weights
    are normalized, so every output value is a convex combination of
    window values.  Borders replicate.  sigma = 0 returns the input.
    """
    band = np.asarray(band, dtype=np.float64)
    h2 = (h_scale * sigma) ** 2
    if h2 == 0.0:
        return band.copy()
    rows, cols = band.shape
    size = 2 * patch_radius + 1
    padded = np.pad(band, search_radius, mode="edge")
    num = np.zeros_like(band)
    den = np.zeros_like(band)
    for dy in range(-search_radius, search_radius + 1):
        for dx in range(-search_radius, search_radius + 1):
            shifted = padded[
                search_radius + dy : search_radius + dy + rows,
                search_radius + dx : search_radius + dx + cols,
            ]
            ssd = ndimage.uniform_filter(
                (band - shifted) ** 2, size=size, mode="nearest"
            ) * (size * size)
            w = np.exp(-ssd / h2)
            num += w * shifted
            den += w
    return num / den


def _grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:-1, :] = u[1:, :] - u[:-1, :]
    gy[:, :-1] = u[:, 1:] - u[:, :-1]
    return gx, gy


def _div(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    # negative adjoint of _grad: <grad u, p> = -<u, div p>; an axis of
    # length 1 has no differences, so its term is zero
    out = np.zeros_like(p1)
    if p1.shape[0] > 1:
        out[0, :] = p1[0, :]
        out[1:-1, :] = p1[1:-1, :] - p1[:-2, :]
        out[-1, :] = -p1[-2, :]
    if p1.shape[1] > 1:
        out[:, 0] += p2[:, 0]
        out[:, 1:-1] += p2[:, 1:-1] - p2[:, :-2]
        out[:, -1] += -p2[:, -2]
    return out


def _rof_energy(u: np.ndarray, f: np.ndarray, mu: float) -> float:
    gx, gy = _grad(u)
    return float(0.5 * np.sum((u - f) ** 2) + mu * np.sum(np.sqrt(gx**2 + gy**2)))


def tv_denoise(band: np.ndarray, sigma: float, iters: int = 30) -> np.ndarray:
    """Total-variation denoising, min over u of ||u-f||^2/2 + mu*TV(u).

    mu = sigma.  The dual variable takes projected-gradient steps of
    length 1/8 (the inverse Lipschitz bound of the discrete gradient);
    among the primal candidates, the one with the lowest energy is kept,
    the input included, and candidates are clipped to the input range
    (which can only lower the energy), so the returned energy never
    exceeds the input's.  sigma = 0 returns the input.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    f = np.asarray(band, dtype=np.float64)
    mu = float(sigma)
    if mu == 0.0:
        return f.copy()
    lo, hi = float(f.min()), float(f.max())
    p1 = np.zeros_like(f)
    p2 = np.zeros_like(f)
    best = f.copy()
    best_energy = _rof_energy(f, f, mu)
    for _ in range(iters):
        u = f + mu * _div(p1, p2)
        gx, gy = _grad(u)
        p1 = p1 + (0.125 / mu) * gx
        p2 = p2 + (0.125 / mu) * gy
        norm = np.maximum(1.0, np.sqrt(p1**2 + p2**2))
        p1 /= norm
        p2 /= norm
        cand = np.clip(f + mu * _div(p1, p2), lo, hi)
        energy = _rof_energy(cand, f, mu)
        if energy < best_energy:
            best, best_energy = cand, energy
    return best


def _band_by_band(band_fn: Callable) -> Callable:
    """A registry entry calling ``band_fn(band, sigma, **params)`` per band."""
    return lambda volume, sigma, params: np.stack(
        [band_fn(band, sigma, **params) for band in volume]
    )


# kind -> fn(volume array, sigma, resolved params) -> volume array
_REGISTRY: dict[str, Callable] = {
    "identity": lambda volume, sigma, params: volume,
    "gaussian": _band_by_band(
        lambda band, sigma, sigma_spatial: gaussian_filter(band, sigma_spatial)
    ),
    "nlm": _band_by_band(nlm_filter),
    "tv": _band_by_band(tv_denoise),
}


def register_denoiser(name: str, fn: Callable[[np.ndarray, float], np.ndarray]) -> None:
    """Add an external denoiser under a new name.

    Args:
        name: registry key for config files and the command line.
        fn: callable taking (volume array, sigma) and returning an array
            of the same shape.  It is trusted to be deterministic.
    """
    if not name or not isinstance(name, str):
        raise ValueError("denoiser name must be a non-empty string")
    if name in _REGISTRY:
        raise ValueError(f"denoiser {name!r} is already registered")
    _REGISTRY[name] = lambda volume, sigma, params: np.asarray(
        fn(volume, sigma), dtype=np.float64
    )


def available_denoisers() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def denoise(spec: DenoiserSpec, volume: HsiCube, sigma: float) -> HsiCube:
    """Apply the selected denoiser to a cube at noise level sigma.

    Args:
        spec: denoiser selection, see :class:`DenoiserSpec`.
        volume: input cube.
        sigma: nonnegative noise level handed to the denoiser.

    Returns:
        A cube of the same shape; a shape-changing denoiser or non-finite
        output is a ComputeError.  The denoiser's own exceptions propagate.
    """
    if not np.isfinite(sigma) or sigma < 0.0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    out = _REGISTRY[spec.kind](volume.values, float(sigma), spec.resolved())
    if out.shape != volume.values.shape:
        raise ComputeError(
            f"denoiser {spec.kind!r} changed the volume shape: "
            f"{volume.values.shape} -> {out.shape}"
        )
    try:
        return HsiCube(out)
    except ValueError as exc:
        raise ComputeError(f"denoiser {spec.kind!r}: {exc}") from None
