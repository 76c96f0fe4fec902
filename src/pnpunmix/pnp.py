"""Plug-and-play ADMM unmixing loop.

A per-pixel simplex QP fits the data and a denoiser D plays the prior on
the split variable z = H a; z and the scaled dual u are (P, pixels)
arrays, which only D sees as (P, rows, cols) planes in the pixel order of
:mod:`pnpunmix.cube`.  "pro-a" filters the abundance planes: H = I.
"pro-h" filters the spectra M a as coordinates in an orthonormal basis U
of span(M): from the thin SVD M = U S V', each column of U signed so that
its largest-magnitude entry is positive, H = S V', so U H = M and H'H =
M'M.  White noise of level sigma on the bands keeps level sigma on these
coefficients, and a linear denoiser that treats all bands alike gives
exactly the B-band loop.  A starts from the fully constrained
least-squares fit and U from zero.  That start already minimizes the data
term, so each iteration, at the one penalty rho = rho0 of the whole run,
refreshes Z before the A-step:

    Z      <- D(H A + U, sigma = sqrt(lambda/rho))
    U      <- U + H A - Z
    A      <- per-pixel QP, Q = M'M + rho H'H, f = -(M'y + rho H'(Z - U))

until max_iter is reached or the relative primal residual
||H A - Z||_F / ||Z||_F (0/0 = 0, x/0 = inf; free of the data's scale),
taken right after the A-step against the consensus variable it was
pulled toward, drops below stop_tol; the identity prior, whose fixed
point is the start, stops after one iteration.  The last iterate is
returned with one :class:`IterationRecord` per iteration.  The loop only
forms each A-step's Q and f: :mod:`pnpunmix.qp` checks them and the result.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .cube import PixelMatrix, _to_pixels, _to_planes
from .denoise import _denoise_planes, _registered
from .errors import ComputeError, ShapeError
from .metrics import _rmse
from .model import AbundanceMatrix, EndmemberMatrix
from .qp import _least_squares, _solve_batch

__all__ = [
    "PnpConfig",
    "IterationRecord",
    "AdmmState",
    "unmix",
    "PRESETS",
    "default_config",
]

MODES = ("pro-h", "pro-a")

# (mode, denoiser kind, snr dB) -> (rho0, lambda); measured working points
# for the shipped non-local means prior at the four standard noise levels
PRESETS: dict[tuple[str, str, int], tuple[float, float]] = {
    ("pro-h", "nlm", 5): (2.0, 1.2e-2),
    ("pro-h", "nlm", 10): (1.0, 4e-3),
    ("pro-h", "nlm", 20): (0.2, 8e-4),
    ("pro-h", "nlm", 30): (0.02, 4e-4),
    ("pro-a", "nlm", 5): (6.0, 6e-2),
    ("pro-a", "nlm", 10): (6.0, 4e-2),
    ("pro-a", "nlm", 20): (10.0, 6e-4),
    ("pro-a", "nlm", 30): (10.0, 2e-4),
}


def _check_mode(mode: str) -> None:
    if not isinstance(mode, str) or mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True, eq=False)
class PnpConfig:
    """Knobs of the unmixing loop.

    Args:
        mode: "pro-h" (prior on reconstructed spectra) or "pro-a"
            (prior on abundance planes).
        denoiser: registered name of the prior, see ``available_denoisers``.
        rho0: coupling weight rho, > 0, fixed for the whole run.
        lam: prior weight lambda, > 0; the denoiser sees
            sigma = sqrt(lam / rho0).
        max_iter: outer iteration budget K.
        stop_tol: relative primal residual threshold; the loop stops
            early once ||HA - Z||_F / ||Z||_F (0/0 = 0, x/0 = inf), which
            does not depend on the data's scale, falls below it.
            Zero disables the early stop and runs all max_iter rounds.
            The last iterate is returned, not a best-so-far.

    An unknown denoiser or mode, a setting that is not a real number,
    a rho0 or lam beyond the float range, and settings whose sigma is
    not finite and positive are refused with a ValueError.
    """

    mode: str
    denoiser: str
    rho0: float
    lam: float
    max_iter: int = 20
    stop_tol: float = 1e-4

    def __post_init__(self):
        _registered(self.denoiser)
        _check_mode(self.mode)
        for name, value in (("rho0", self.rho0), ("lambda", self.lam)):
            # not < inf: float() of an int past the float range raises OverflowError
            if not (isinstance(value, Real) and 0 < value <= sys.float_info.max):
                raise ValueError(f"{name} must be > 0 and a finite float, got {value!r}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not (isinstance(self.stop_tol, Real) and 0 <= self.stop_tol < math.inf):
            raise ValueError(f"stop_tol must be >= 0, got {self.stop_tol!r}")
        if not 0.0 < math.sqrt(float(self.lam) / float(self.rho0)) < math.inf:
            raise ValueError(f"sigma = sqrt(lambda / rho0) is not finite and positive: {self}")


@dataclass(frozen=True)
class IterationRecord:
    """What one executed iteration k measured."""

    rho: float  # penalty rho = rho0, the same in every iteration
    sigma: float  # denoiser noise level sqrt(lambda / rho)
    primal_residual: float  # the stop rule's gap, taken after the A-step
    rmse: float | None  # abundance rmse against truth; None without truth
    a_step_seconds: float
    z_step_seconds: float
    qp_unconverged: int  # pixels whose QP missed the inner tolerance
    qp_sweeps_max: int  # active-set sweeps of the slowest pixel's QP
    qp_sweeps_mean: float  # active-set sweeps per pixel, averaged over pixels
    qp_shifted: int  # pixels whose QP met a singular face (FACE_SHIFT used)


@dataclass(frozen=True, eq=False)
class AdmmState:
    """Final loop state (z and u: one channel per endmember) and records.

    The final splitting gap is ``iterations[-1].primal_residual``.
    """

    a: AbundanceMatrix
    z: PixelMatrix
    u: PixelMatrix
    iterations: tuple[IterationRecord, ...]

    @property
    def iteration(self) -> int:
        """Number of executed iterations."""
        return len(self.iterations)

    # per-iteration columns read by the benchmark's traced pass (bench/spans.py)
    @property
    def a_step_seconds(self) -> tuple[float, ...]:
        return tuple(r.a_step_seconds for r in self.iterations)

    @property
    def qp_unconverged(self) -> tuple[int, ...]:
        return tuple(r.qp_unconverged for r in self.iterations)


def _split_operator(mode: str, m: np.ndarray) -> np.ndarray | None:
    """H of the split z = H a: S V' for pro-h, None for pro-a's identity."""
    if mode == "pro-a":
        return None
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    sign = np.sign(u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])])
    return (sign * s)[:, None] * vt


def _times(h: np.ndarray | None, x: np.ndarray, spec: str = "ij,jn->in") -> np.ndarray:
    """H x, or H' x with spec "ji,jn->in", by einsum; x itself for H = I (None).

    einsum makes no BLAS call, so no BLAS thread spins through the next
    Z-step.
    """
    return x if h is None else np.einsum(spec, h, x)


def _split_gap(h: np.ndarray | None, a: np.ndarray,
               z: np.ndarray) -> tuple[np.ndarray, float]:
    """H A and the relative gap ||H A - Z||_F / ||Z||_F (0/0 = 0, x/0 = inf).

    Should ||Z||^2 leave the normal range or ||D||^2 = ||H A - Z||^2
    overflow, both are redone on D and Z times 2^-e, e = frexp(max|Z|)[1],
    an exact scaling: the gap does not depend on the data's scale.
    """
    ha = _times(h, a)
    d = ha - z
    with np.errstate(over="ignore"):  # a sum past the float range is inf, no warning
        dd, zz = np.sum(d * d), np.sum(z * z)
        if not sys.float_info.min <= zz < math.inf or dd == math.inf:
            e = math.frexp(np.abs(z).max())[1]
            d, z = np.ldexp(d, -e), np.ldexp(z, -e)
            dd, zz = np.sum(d * d), np.sum(z * z)
    gap = math.sqrt(dd) / math.sqrt(zz) if zz else (math.inf if dd else 0.0)
    return ha, gap


def unmix(
    observed: PixelMatrix,
    endmembers: EndmemberMatrix,
    cfg: PnpConfig,
    *,
    truth: AbundanceMatrix | None = None,
) -> tuple[AbundanceMatrix, AdmmState]:
    """Estimate per-pixel abundances with a denoiser in the loop.

    Args:
        observed: data to unmix, (bands, pixels).
        endmembers: known spectra, (bands, endmembers).
        cfg: loop configuration.
        truth: optional ground truth on the data's grid; when given, every
            iteration record carries the abundance rmse, for convergence plots.

    Returns:
        (final abundances, state with one record per iteration).

    Pixels whose QP missed the inner tolerance keep their last feasible
    value and are counted in each record's qp_unconverged; one summary
    warning at the end counts them and the least-squares start's misses.
    Non-finite values raise ComputeError naming the z-step or the a-step
    (the start included); any exception the denoiser itself raises
    propagates unchanged.  Mismatched shapes raise ShapeError first.
    """
    rows, cols = observed.spatial_rows, observed.spatial_cols
    if truth is not None:
        grid = (truth.endmembers, truth.spatial_rows, truth.spatial_cols)
        if grid != (endmembers.count, rows, cols):
            raise ShapeError(f"truth (endmembers, rows, cols) {grid} vs data "
                             f"{(endmembers.count, rows, cols)}")
    a, start_bad, mtm, mty = _least_squares(endmembers, observed)
    h = _split_operator(cfg.mode, endmembers.values)
    rho = float(cfg.rho0)
    sigma = math.sqrt(float(cfg.lam) / rho)
    with np.errstate(over="ignore", invalid="ignore"):
        q = mtm + rho * (np.eye(endmembers.count) if h is None else h.T @ h)
    ha = _times(h, a)
    u = np.zeros_like(ha)

    records: list[IterationRecord] = []
    for _ in range(cfg.max_iter):
        tic = time.perf_counter()
        try:
            planes = _to_planes(ha + u, rows, cols)
            z = _to_pixels(_denoise_planes(cfg.denoiser, planes, sigma))
        except ComputeError as exc:
            raise ComputeError(f"z-step failed: {exc}") from exc
        z_seconds = time.perf_counter() - tic

        u = u + ha - z
        tic = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            fs = -(mty + rho * _times(h, z - u, "ji,jn->in"))
        a, sweeps, conv, shifted = _solve_batch(q, fs, a)
        a_seconds = time.perf_counter() - tic

        ha, residual = _split_gap(h, a, z)
        records.append(IterationRecord(
            rho=rho,
            sigma=sigma,
            primal_residual=residual,
            rmse=None if truth is None else _rmse(truth.values, a),
            a_step_seconds=a_seconds,
            z_step_seconds=z_seconds,
            qp_unconverged=int((~conv).sum()),
            qp_sweeps_max=int(sweeps.max()),
            qp_sweeps_mean=float(sweeps.mean()),
            qp_shifted=int(shifted.sum()),
        ))
        if residual < cfg.stop_tol:
            break

    loop_bad = sum(r.qp_unconverged for r in records)
    if loop_bad or start_bad:
        warnings.warn(
            f"{loop_bad} pixel QP solves (summed over iterations) and {start_bad} "
            "of the least-squares start missed the inner tolerance; their last "
            "feasible iterates were used",
            stacklevel=2,
        )
    state = AdmmState(
        a=AbundanceMatrix(a, rows, cols),
        z=PixelMatrix(z, rows, cols),
        u=PixelMatrix(u, rows, cols),
        iterations=tuple(records),
    )
    return state.a, state


def default_config(mode: str, denoiser_kind: str, snr_db: float = 20.0, **overrides):
    """Build a PnpConfig from the shipped presets.

    Looks up (rho0, lambda) for the mode/denoiser/SNR working point,
    falling back to (1.0, 1e-3) when no preset exists, as for an
    infinite SNR; the other fields take the PnpConfig defaults.  Any
    field can be overridden by keyword.  A snr_db that is NaN or not a
    number is a ValueError, and so are an unknown mode or denoiser.
    """
    if not (isinstance(snr_db, Real) and -math.inf <= snr_db <= math.inf):
        raise ValueError(f"snr_db must be a number, got {snr_db!r}")
    level = int(round(snr_db)) if -math.inf < snr_db < math.inf else None
    # both key the presets, which need them hashable, so they are checked first
    _registered(denoiser_kind)
    _check_mode(mode)
    rho0, lam = PRESETS.get((mode, denoiser_kind, level), (1.0, 1e-3))
    return PnpConfig(**{"mode": mode, "denoiser": denoiser_kind,
                        "rho0": rho0, "lam": lam, **overrides})
