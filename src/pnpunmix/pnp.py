"""Plug-and-play ADMM unmixing loop.

The constrained inverse problem is split in two: a per-pixel simplex QP
that fits the data, and a denoiser that plays the prior on the split
variable.  A pattern matrix H picks what the prior sees: mode "pro-h"
sets H = M so the denoiser works on reconstructed spectra (bands x rows
x cols volumes), mode "pro-a" sets H = I so it works on the abundance
planes themselves.

Per iteration k (with penalty rho_k = rho0 * alpha^k, computed in closed
form so the schedule is exact):

    xtilde = Z - U
    A      <- per-pixel QP with Q, f from (M, H, rho_k, xtilde)
    ztilde = H A + U
    Z      <- unfold(denoise(fold(ztilde), sigma = sqrt(lambda/rho_k)))
    U      <- U + H A - Z

until max_iter is reached or the relative primal residual
||H A_{k+1} - Z_k||_F / max(||Z_k||_F, 1e-12), taken right after the
A-step against the consensus variable it was pulled toward, drops below
stop_tol.  (Measured after the Z refresh instead, the residual of a
do-nothing prior would be identically zero and every run would stop
after one iteration.)  The last iterate is returned, together with one
:class:`IterationRecord` per executed iteration.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .cube import PixelMatrix, fold, unfold
from .denoise import DenoiserSpec, denoise
from .errors import ComputeError, ShapeError
from .metrics import rmse as _rmse
from .model import AbundanceMatrix, EndmemberMatrix
from .qp import MODES, _solve_batch

__all__ = [
    "PnpConfig",
    "IterationRecord",
    "AdmmState",
    "unmix",
    "primal_residual",
    "PRESETS",
    "default_config",
]

# (mode, denoiser kind, snr dB) -> (rho0, lambda); measured working points
# for the shipped non-local means prior at the four standard noise levels
PRESETS: dict[tuple[str, str, int], tuple[float, float]] = {
    ("pro-h", "nlm", 5): (1.0, 3e-3),
    ("pro-h", "nlm", 10): (0.5, 1e-3),
    ("pro-h", "nlm", 20): (0.1, 2e-4),
    ("pro-h", "nlm", 30): (0.005, 1e-4),
    ("pro-a", "nlm", 5): (3.0, 3e-2),
    ("pro-a", "nlm", 10): (3.0, 2e-2),
    ("pro-a", "nlm", 20): (5.0, 3e-4),
    ("pro-a", "nlm", 30): (5.0, 1e-4),
}

DEFAULT_ALPHA = 1.1
FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PnpConfig:
    """Knobs of the unmixing loop.

    Args:
        mode: "pro-h" (prior on reconstructed spectra) or "pro-a"
            (prior on abundance planes).
        denoiser: prior selection.
        rho0: initial coupling weight, > 0.
        lam: prior weight lambda, > 0; the denoiser sees
            sigma = sqrt(lam / rho_k).
        alpha: per-iteration growth of rho, >= 1 (the coupling only ever
            tightens, so the denoiser gets more conservative over time).
        max_iter: outer iteration budget K.
        stop_tol: relative primal residual threshold; the loop stops
            early once ||HA - Z||_F / max(||Z||_F, 1e-12) falls below it.
            Zero disables the early stop and runs all max_iter rounds.
            The last iterate is returned, not a best-so-far.
        seed: non-negative integer seeding the random simplex start of A.
    """

    mode: str
    denoiser: DenoiserSpec
    rho0: float
    lam: float
    alpha: float = 1.0
    max_iter: int = 20
    stop_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.denoiser, DenoiserSpec):
            raise ValueError("denoiser must be a DenoiserSpec")
        if not (np.isfinite(self.rho0) and self.rho0 > 0):
            raise ValueError(f"rho0 must be > 0, got {self.rho0}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if not (np.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not (np.isfinite(self.stop_tol) and self.stop_tol >= 0):
            raise ValueError(f"stop_tol must be >= 0, got {self.stop_tol}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class IterationRecord:
    """What one executed iteration k measured."""

    rho: float  # penalty rho_k = rho0 * alpha^k
    sigma: float  # denoiser noise level sqrt(lambda / rho_k)
    primal_residual: float  # the stop rule's gap, taken after the A-step
    rmse: float | None  # abundance rmse against truth; None without truth
    a_step_seconds: float
    z_step_seconds: float
    qp_unconverged: int  # pixels whose QP missed the inner tolerance


@dataclass(frozen=True, eq=False)
class AdmmState:
    """Final loop state plus one record per executed iteration."""

    a: AbundanceMatrix
    z: PixelMatrix
    u: PixelMatrix
    mode: str
    endmembers: EndmemberMatrix
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


def _apply_h(mode: str, m: np.ndarray, a: np.ndarray) -> np.ndarray:
    return m @ a if mode == "pro-h" else a.copy()


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
        truth: optional ground truth; when given, every iteration
            record carries the abundance rmse, for convergence plots.

    Returns:
        (final abundances, state with one record per iteration).

    Pixels whose QP missed the inner tolerance keep their last feasible
    value and are counted in each record's qp_unconverged; a single
    summary warning is emitted at the end if any occurred.  Non-finite
    values anywhere raise ComputeError naming the step; any exception the
    denoiser itself raises propagates unchanged.
    """
    if observed.channels != endmembers.bands:
        raise ShapeError(
            f"{observed.channels} data channels vs {endmembers.bands} endmember bands"
        )
    m = endmembers.values
    bands, count = m.shape
    pixels = observed.pixels
    rows, cols = observed.spatial_rows, observed.spatial_cols

    rng = np.random.default_rng(cfg.seed)
    a = rng.uniform(size=(count, pixels))
    a /= a.sum(axis=0)

    mtm = m.T @ m
    mty = np.einsum("li,ln->in", m, observed.values)
    ha = _apply_h(cfg.mode, m, a)
    z = ha.copy()
    u = np.zeros_like(z)

    records: list[IterationRecord] = []
    for k in range(cfg.max_iter):
        rho_k = cfg.rho0 * cfg.alpha**k
        x_tilde = z - u

        tic = time.perf_counter()
        if cfg.mode == "pro-h":
            q = (1.0 + rho_k) * mtm
            fs = -(mty + rho_k * np.einsum("li,ln->in", m, x_tilde))
        else:
            q = mtm + rho_k * np.eye(count)
            fs = -(mty + rho_k * x_tilde)
        a, _, conv, _, _ = _solve_batch(q, fs, a)
        a_seconds = time.perf_counter() - tic
        if not np.isfinite(a).all():
            raise ComputeError("a-step produced non-finite abundances")
        worst_sum = float(np.abs(a.sum(axis=0) - 1.0).max())
        if worst_sum > FEASIBILITY_TOL or a.min() < 0.0:
            raise ComputeError(
                f"a-step feasibility violated: sum deviation {worst_sum:.3e}, "
                f"min entry {a.min():.3e}"
            )

        ha = _apply_h(cfg.mode, m, a)
        residual = float(np.linalg.norm(ha - z) / max(np.linalg.norm(z), 1e-12))

        z_tilde = ha + u
        sigma_k = float(np.sqrt(cfg.lam / rho_k))
        tic = time.perf_counter()
        try:
            volume = fold(PixelMatrix(z_tilde, rows, cols))
            z = unfold(denoise(cfg.denoiser, volume, sigma_k)).values
        except ComputeError as exc:
            raise ComputeError(f"z-step failed: {exc}") from exc
        z_seconds = time.perf_counter() - tic

        u = u + ha - z
        if not np.isfinite(u).all():
            raise ComputeError("u-step produced non-finite values")

        records.append(IterationRecord(
            rho=rho_k,
            sigma=sigma_k,
            primal_residual=residual,
            rmse=None if truth is None else _rmse(truth, AbundanceMatrix(a, rows, cols)),
            a_step_seconds=a_seconds,
            z_step_seconds=z_seconds,
            qp_unconverged=int((~conv).sum()),
        ))
        if residual < cfg.stop_tol:
            break

    total_bad = sum(r.qp_unconverged for r in records)
    if total_bad:
        warnings.warn(
            f"{total_bad} pixel QP solves (summed over iterations) missed the "
            "inner tolerance; their last feasible iterates were used",
            stacklevel=2,
        )
    state = AdmmState(
        a=AbundanceMatrix(a, rows, cols),
        z=PixelMatrix(z, rows, cols),
        u=PixelMatrix(u, rows, cols),
        mode=cfg.mode,
        endmembers=endmembers,
        iterations=tuple(records),
    )
    return state.a, state


def primal_residual(state: AdmmState) -> float:
    """Relative splitting mismatch ||HA - Z||_F / max(||Z||_F, 1e-12).

    Evaluated on the state's final pair, so it is (up to the dual update)
    the gap the next A-step would see; near any fixed point it is small.
    """
    ha = _apply_h(state.mode, state.endmembers.values, state.a.values)
    z = state.z.values
    return float(np.linalg.norm(ha - z) / max(np.linalg.norm(z), 1e-12))


def default_config(mode: str, denoiser_kind: str, snr_db: float = 20.0, **overrides):
    """Build a PnpConfig from the shipped presets.

    Looks up (rho0, lambda) for the mode/denoiser/SNR working point,
    falling back to (1.0, 1e-3) when no preset exists, as for an
    infinite SNR; alpha defaults to DEFAULT_ALPHA.  Any field can be
    overridden by keyword.  A NaN snr_db is a ValueError.
    """
    if math.isnan(snr_db):
        raise ValueError(f"snr_db must be a number, got {snr_db}")
    level = int(round(snr_db)) if math.isfinite(snr_db) else None
    rho0, lam = PRESETS.get((mode, denoiser_kind, level), (1.0, 1e-3))
    fields: dict = {
        "mode": mode,
        "denoiser": DenoiserSpec(denoiser_kind),
        "rho0": rho0,
        "lam": lam,
        "alpha": DEFAULT_ALPHA,
    }
    fields.update(overrides)
    return PnpConfig(**fields)
