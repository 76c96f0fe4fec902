"""Synthetic hyperspectral scenes with exact ground truth.

Abundance maps come from independent Gaussian random fields (white noise
blurred as by scipy.ndimage.gaussian_filter, truncate-4 kernel, mirrored
borders, bit for bit, so scenes keep their bytes), pushed onto the unit
simplex with a per-pixel softmax so non-negativity and sum-to-one hold by
construction. A small share of pixels is then overwritten with pure basis
vectors so the scene contains both mixed and pure material. Endmember
spectra are smooth random bump mixtures kept mutually distinct by a
spectral-angle floor.

Determinism: every artifact is a pure function of the scene seed. Child
streams are split off with ``numpy.random.SeedSequence`` spawn keys so
the abundance fields, the endmember draw, and the noise draw never share
a stream: key (0,) spawns one child per field plus one for the pure-pixel
placement, key (1,) drives the endmembers, key (2,) derives the noise seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cube import HsiCube, _to_pixels, fold
from .denoise import _correlate_symmetric
from .errors import ComputeError
from .model import AbundanceMatrix, EndmemberMatrix, add_noise_snr, mix

__all__ = [
    "SceneSpec",
    "Scene",
    "generate_abundances",
    "generate_endmembers",
    "make_scene",
]

logger = logging.getLogger(__name__)

# reflectance floor/ceiling for generated spectra; keeps them strictly
# positive and inside the physical range without touching the endpoints
SPECTRUM_LO = 0.05
SPECTRUM_HI = 0.95
# least spectral angle between generated endmembers, in degrees, and the
# candidates drawn per endmember before the floor counts as unreachable
MIN_ANGLE_DEG = 5.0
MAX_TRIES = 500


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of one synthetic scene.

    Args:
        rows, cols: image size, at least 8 by 8.
        endmembers: number of materials, at least 2.
        bands: spectral channels, at least ``endmembers``.
        field_smoothness: Gaussian-field kernel sigma in pixels; larger
            values give larger coherent abundance patches.
        pure_pixel_fraction: share of pixels replaced with pure basis
            columns, in [0, 1].
        snr_db: noise level for the noisy cube; ``inf`` means noiseless.
        seed: master seed; identical specs produce bitwise identical scenes.
    """

    rows: int = 64
    cols: int = 64
    endmembers: int = 4
    bands: int = 64
    field_smoothness: float = 6.0
    pure_pixel_fraction: float = 0.02
    snr_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.rows < 8 or self.cols < 8:
            raise ValueError(f"scene must be at least 8x8, got {self.rows}x{self.cols}")
        if self.endmembers < 2:
            raise ValueError(f"endmembers must be >= 2, got {self.endmembers}")
        if self.bands < self.endmembers:
            raise ValueError(
                f"bands ({self.bands}) must be >= endmembers ({self.endmembers})"
            )
        smooth = float(self.field_smoothness)
        if not math.isfinite(smooth) or smooth <= 0.0:
            raise ValueError(f"field_smoothness must be positive, got {smooth}")
        frac = float(self.pure_pixel_fraction)
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"pure_pixel_fraction must be in [0, 1], got {frac}")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def pixels(self) -> int:
        return self.rows * self.cols


class Scene(NamedTuple):
    """One generated scene: observation, reference data, and ground truth."""

    noisy: HsiCube
    clean: HsiCube
    truth: AbundanceMatrix
    endmembers: EndmemberMatrix


def _field_children(spec: SceneSpec) -> list[np.random.SeedSequence]:
    """Child seeds for the abundance stage: one per field, plus one extra
    stream that places the pure pixels."""
    root = np.random.SeedSequence(spec.seed, spawn_key=(0,))
    return root.spawn(spec.endmembers + 1)


def _smooth_field(rng: np.random.Generator, rows: int, cols: int, sigma: float):
    field = rng.standard_normal((rows, cols))
    # rows, then columns; radius 0 is the identity (and sigma * sigma may underflow)
    radius = int(4.0 * sigma + 0.5)
    if radius:
        x = np.arange(-radius, radius + 1)
        kernel = np.exp(-0.5 / (sigma * sigma) * x**2)
        kernel /= kernel.sum()
        for axis in (0, 1):
            field = _correlate_symmetric(field, kernel, axis, border="symmetric")
    # smoothing shrinks the variance; restandardize so the softmax sees
    # comparable spread regardless of the kernel width
    spread = float(field.std())
    return (field - field.mean()) / max(spread, 1e-12)


def generate_abundances(spec: SceneSpec) -> AbundanceMatrix:
    """Simplex-valued abundance maps from smoothed Gaussian fields.

    One random field is drawn per endmember, smoothed, standardized, and
    the per-pixel softmax across fields yields strictly positive fractions
    summing to one. A ``pure_pixel_fraction`` share of pixels (chosen by a
    stream independent of the fields) is overwritten with the basis vector
    of its dominant material.

    Each field's seed is a child spawned from ``SeedSequence(seed,
    spawn_key=(0,))``. Permuting those children permutes the abundance rows
    and nothing else, which keeps the planes exchangeable; the pure-pixel
    placement uses the last, extra child, so it does not move.
    """
    children = _field_children(spec)
    fields = np.stack([_smooth_field(np.random.default_rng(s), spec.rows, spec.cols,
                                     spec.field_smoothness) for s in children[:-1]])
    fields -= fields.max(axis=0, keepdims=True)
    weights = np.exp(fields)
    # sum the sorted weights so the denominator depends only on the
    # multiset of field values; reordering the planes then permutes the
    # output rows bitwise
    denom = np.sort(weights, axis=0).sum(axis=0, keepdims=True)
    # pixel columns in the cube's order, written below and then marked
    # read-only again, so the container adopts them without a copy
    a = _to_pixels(weights / denom)
    a.setflags(write=True)

    n_pure = int(round(spec.pure_pixel_fraction * spec.pixels))
    if n_pure > 0:
        pure_rng = np.random.default_rng(children[-1])
        chosen = pure_rng.choice(spec.pixels, size=n_pure, replace=False)
        dominant = np.argmax(a[:, chosen], axis=0)
        a[:, chosen] = 0.0
        a[dominant, chosen] = 1.0
    a.setflags(write=False)
    return AbundanceMatrix(a, spec.rows, spec.cols)


def _spectral_angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    cosine = float(u @ v) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    return math.degrees(math.acos(min(1.0, max(-1.0, cosine))))


def _bump_spectrum(rng: np.random.Generator, bands: int) -> np.ndarray | None:
    grid = np.arange(bands, dtype=np.float64)
    n_bumps = int(rng.integers(2, 5))
    centers = rng.uniform(0.0, bands - 1.0, n_bumps)
    widths = rng.uniform(bands / 20.0, bands / 4.0, n_bumps)
    heights = rng.uniform(0.5, 1.0, n_bumps)
    s = np.zeros(bands)
    for c, w, h in zip(centers, widths, heights):
        s += h * np.exp(-0.5 * ((grid - c) / w) ** 2)
    span = float(s.max() - s.min())
    if span < 1e-9:
        return None
    return SPECTRUM_LO + (SPECTRUM_HI - SPECTRUM_LO) * (s - s.min()) / span


def generate_endmembers(
    bands: int, count: int, seed: int | np.random.SeedSequence
) -> EndmemberMatrix:
    """Smooth random spectra in [0, 1] with a mutual spectral-angle floor.

    Each spectrum is a mixture of a few Gaussian bumps over the band axis,
    rescaled into [0.05, 0.95]. Candidates closer than MIN_ANGLE_DEG
    degrees to an already accepted spectrum are rejected and redrawn; if a
    slot exhausts MAX_TRIES candidates the floor is unreachable (too few
    bands for that many distinct spectra) and a ComputeError is raised.
    The condition number of the Gram matrix of the accepted set is logged.
    """
    if bands < count:
        raise ValueError(f"bands ({bands}) must be >= count ({count})")
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    for slot in range(count):
        for _ in range(MAX_TRIES):
            candidate = _bump_spectrum(rng, bands)
            if candidate is None:
                continue
            if all(
                _spectral_angle_deg(candidate, prev) >= MIN_ANGLE_DEG
                for prev in accepted
            ):
                accepted.append(candidate)
                break
        else:
            raise ComputeError(
                f"no spectrum for slot {slot} cleared the {MIN_ANGLE_DEG:g} degree "
                f"angle floor in {MAX_TRIES} tries"
            )
    m = np.column_stack(accepted)
    gram_cond = float(np.linalg.cond(m.T @ m))
    logger.info("endmember gram matrix condition number %.6g", gram_cond)
    return EndmemberMatrix(m)


def make_scene(spec: SceneSpec) -> Scene:
    """Generate a full scene: noisy cube, clean cube, truth, endmembers.

    The clean cube is the exact forward model of the truth, so constrained
    least squares on it recovers the truth to solver precision; the noisy
    cube adds white Gaussian noise calibrated to ``spec.snr_db``.
    """
    truth = generate_abundances(spec)
    endmembers = generate_endmembers(
        spec.bands, spec.endmembers, np.random.SeedSequence(spec.seed, spawn_key=(1,))
    )
    clean_matrix = mix(endmembers, truth)
    noise_seed = int(np.random.SeedSequence(spec.seed, spawn_key=(2,)).generate_state(1)[0])
    noisy_matrix = add_noise_snr(clean_matrix, spec.snr_db, noise_seed)
    return Scene(fold(noisy_matrix), fold(clean_matrix), truth, endmembers)
