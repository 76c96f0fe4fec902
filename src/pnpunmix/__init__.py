"""Plug-and-play ADMM hyperspectral unmixing.

Estimate per-pixel material fractions of a hyperspectral cube from known
endmember spectra, with a swappable image denoiser acting as the prior
inside an ADMM loop. The denoiser can smooth either the reconstructed
spectra (mode "pro-h") or the abundance maps themselves (mode "pro-a");
with the identity denoiser both modes reduce to fully constrained least
squares.

Typical use::

    from pnpunmix import SceneSpec, default_config, make_scene, unfold, unmix

    scene = make_scene(SceneSpec(snr_db=10.0))
    cfg = default_config("pro-a", "nlm", snr_db=10.0)
    estimate, state = unmix(unfold(scene.noisy), scene.endmembers, cfg)

Custom priors plug in through :func:`register_denoiser`.
"""

from .cube import HsiCube, PixelMatrix, fold, unfold
from .denoise import available_denoisers, denoise, register_denoiser
from .errors import ComputeError, FileFormatError, ShapeError
from .io import (
    read_abundances,
    read_config,
    read_cube,
    read_endmembers,
    read_graymap,
    write_abundances,
    write_config,
    write_cube,
    write_endmembers,
    write_graymap,
)
from .metrics import MetricsReport, evaluate, psnr, reconstruction_error, rmse
from .model import AbundanceMatrix, EndmemberMatrix, add_noise_snr, mix
from .pnp import (
    AdmmState,
    IterationRecord,
    PnpConfig,
    default_config,
    unmix,
)
from .qp import QpProblem, QpSolution, fcls, solve_simplex_qp
from .synth import Scene, SceneSpec, generate_abundances, generate_endmembers, make_scene

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HsiCube",
    "PixelMatrix",
    "fold",
    "unfold",
    "EndmemberMatrix",
    "AbundanceMatrix",
    "mix",
    "add_noise_snr",
    "rmse",
    "psnr",
    "reconstruction_error",
    "MetricsReport",
    "evaluate",
    "QpProblem",
    "QpSolution",
    "solve_simplex_qp",
    "fcls",
    "denoise",
    "register_denoiser",
    "available_denoisers",
    "PnpConfig",
    "IterationRecord",
    "AdmmState",
    "unmix",
    "default_config",
    "SceneSpec",
    "Scene",
    "generate_abundances",
    "generate_endmembers",
    "make_scene",
    "read_cube",
    "write_cube",
    "read_abundances",
    "write_abundances",
    "read_endmembers",
    "write_endmembers",
    "read_graymap",
    "write_graymap",
    "read_config",
    "write_config",
    "ShapeError",
    "ComputeError",
    "FileFormatError",
]
