"""Batch command line: make scenes, unmix cubes, score estimates, run priors.

Four subcommands cover the whole workflow:

  synth    write a synthetic scene (noisy + clean cubes, truth, spectra)
  unmix    estimate abundances for a cube given endmember spectra
  eval     score an abundance file against references
  denoise  apply one of the registered denoisers to a cube

The unmix command reads its settings from an optional flat config file
(``key = value`` lines); every key ``k`` is also the flag ``--k`` (``_``
written ``-``), and flags override the file; loop settings given neither
way take the defaults of ``default_config``. It always writes the same
artifact set. Everything is a pure function of argv and files.

Exit codes: 0 success, 1 unexpected error inside a stage, 2 usage/config/
file format, 3 shape mismatch, 4 numerical failure, 5 filesystem error.
A warning prints as one ``pnpunmix: warning: <message>`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .cube import fold
from .denoise import _registered, available_denoisers, denoise
from .errors import ComputeError, FileFormatError, ShapeError
from .io import (
    _beyond_float32,
    _read_pixels,
    _write_payload,
    read_abundances,
    read_config,
    read_cube,
    read_endmembers,
    write_abundances,
    write_config,
    write_cube,
    write_endmembers,
    write_graymap,
)
from .metrics import _evaluate, evaluate
from .model import _too_low
from .pnp import PnpConfig, default_config, unmix
from .synth import SceneSpec, make_scene

__all__ = ["main"]

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_SHAPE = 3
EXIT_COMPUTE = 4
EXIT_IO = 5

# fixed artifact names inside the output directory
SYNTH_FILES = ("noisy.raw", "clean.raw", "truth.raw", "endmembers.csv", "scene.cfg")
ABUNDANCE_FILE = "abundances.raw"
RECONSTRUCTION_FILE = "reconstruction.raw"
METRICS_FILE = "metrics.json"
TRACE_FILE = "trace.csv"


class UsageError(ValueError):
    """Bad or missing settings; maps to the argparse exit code."""


@contextmanager
def _phase(name: str):
    """Tag exceptions with the pipeline stage they escaped from."""
    try:
        yield
    except Exception as exc:
        if not hasattr(exc, "_pnp_stage"):
            exc._pnp_stage = name
        raise


@dataclass(frozen=True)
class _Opt:
    key: str
    convert: object
    default: object = None
    help: str = ""
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


_UNMIX_OPTS = (
    _Opt("cube", str, required=True, help="observed cube to unmix"),
    _Opt("endmembers", str, required=True, help="endmember CSV"),
    _Opt("truth", str, help="ground-truth abundance file (enables rmse)"),
    _Opt("clean", str, help="noiseless reference cube (enables psnr)"),
    _Opt("out", str, required=True, help="output directory"),
    _Opt("mode", str, required=True, help="pro-h or pro-a"),
    _Opt("denoiser", str, default="nlm", help="prior; one of the registered kinds"),
    _Opt("snr_db", float, help="assumed noise level in dB; picks the preset rho0/lam"),
    _Opt("rho0", float, help="penalty weight rho, fixed for the whole run"),
    _Opt("lam", float, help="prior strength lambda"),
    _Opt("max_iter", int, help="iteration budget"),
    _Opt("stop_tol", float, help="relative primal residual stop"),
)

# settings handed to default_config when given; the rest take its defaults
_LOOP_KEYS = {f.name for f in fields(PnpConfig)} - {"mode", "denoiser"} | {"snr_db"}


def _merge_settings(args) -> dict:
    """Config-file values overridden by explicit flags; unknown keys rejected."""
    known = {opt.key: opt for opt in _UNMIX_OPTS}
    settings = {opt.key: opt.default for opt in _UNMIX_OPTS}
    if args.config is not None:
        for key, raw in read_config(args.config).items():
            opt = known.get(key)
            if opt is None:
                raise UsageError(f"unknown config key {key!r} in {args.config}")
            try:
                settings[key] = opt.convert(raw)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
    for opt in _UNMIX_OPTS:
        flag_value = getattr(args, opt.key)
        if flag_value is not None:
            settings[opt.key] = flag_value
    missing = [known[k].flag for k, v in settings.items() if v is None and known[k].required]
    if missing:
        raise UsageError(f"missing required settings: {', '.join(sorted(missing))}")
    return settings


def _write_trace(path: Path, state) -> None:
    # wall-clock timings stay out of the file so same-seed runs are
    # byte-identical; they remain on the returned state for library users
    with_rmse = state.iterations[0].rmse is not None
    header = ["iteration", "rho", "sigma", "primal_residual"]
    if with_rmse:
        header.append("rmse")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i, rec in enumerate(state.iterations, 1):
            row = [i, repr(rec.rho), repr(rec.sigma), repr(rec.primal_residual)]
            if with_rmse:
                row.append(repr(rec.rmse))
            writer.writerow(row)


def cmd_synth(args) -> int:
    with _phase("scene generation"):
        spec = SceneSpec(**{f.name: getattr(args, f.name) for f in fields(SceneSpec)})
        scene = make_scene(spec)
        if _beyond_float32(scene.noisy.values):
            raise _too_low(spec.snr_db, "its noisy cube exceeds a cube file's float32 range")
    with _phase("output writing"):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_cube(out / "noisy.raw", scene.noisy)
        write_cube(out / "clean.raw", scene.clean)
        write_abundances(out / "truth.raw", scene.truth)
        write_endmembers(out / "endmembers.csv", scene.endmembers)
        write_config(out / "scene.cfg", asdict(spec))
    print(f"wrote {', '.join(SYNTH_FILES)} to {out}")
    return EXIT_OK


def cmd_unmix(args) -> int:
    with _phase("configuration"):
        settings = _merge_settings(args)
        overrides = {key: settings[key] for key in _LOOP_KEYS if settings[key] is not None}
        cfg = default_config(settings["mode"], settings["denoiser"], **overrides)
    with _phase("input parsing"):
        observed = _read_pixels(settings["cube"])
        endmembers = read_endmembers(settings["endmembers"])
        truth = read_abundances(settings["truth"]) if settings["truth"] else None
        clean = _read_pixels(settings["clean"]) if settings["clean"] else None
    with _phase("unmixing"):
        estimate, state = unmix(observed, endmembers, cfg, truth=truth)
    with _phase("evaluation"):
        # one pass over M·A scores it and yields the reconstruction payload
        report, payload = _evaluate(endmembers, observed, estimate, truth=truth,
                                    clean=clean, payload=True)
        record = report.to_dict()
    with _phase("output writing"):
        out_dir = Path(settings["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        write_abundances(out_dir / ABUNDANCE_FILE, estimate)
        _write_payload(out_dir / RECONSTRUCTION_FILE, payload,
                       estimate.spatial_rows, estimate.spatial_cols)
        text = json.dumps(record, sort_keys=True, indent=2)
        (out_dir / METRICS_FILE).write_text(text + "\n")
        _write_trace(out_dir / TRACE_FILE, state)
        planes = fold(estimate).values.clip(0.0, 1.0)  # drop the simplex slack
        for i in range(planes.shape[0]):
            write_graymap(out_dir / f"map_{i}.pgm", planes[i])
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    with _phase("input parsing"):
        estimate = read_abundances(args.estimate)
        endmembers = read_endmembers(args.endmembers)
        observed = _read_pixels(args.observed)
        truth = read_abundances(args.truth) if args.truth else None
        clean = _read_pixels(args.clean) if args.clean else None
    with _phase("evaluation"):
        report = evaluate(endmembers, observed, estimate, truth=truth, clean=clean)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_denoise(args) -> int:
    with _phase("configuration"):
        _registered(args.kind)
    # checked before any input is read, under the stage it configures
    with _phase("denoising"):
        if not 0.0 <= args.sigma < float("inf"):
            raise UsageError(f"sigma must be finite and >= 0, got {args.sigma}")
    with _phase("input parsing"):
        cube = read_cube(args.input)
    with _phase("denoising"):
        filtered = denoise(args.kind, cube, args.sigma)
    with _phase("output writing"):
        write_cube(Path(args.out), filtered)
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnpunmix",
        description="Hyperspectral unmixing with plug-and-play denoiser priors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic scene")
    synth.add_argument("--out", required=True, help="output directory")
    for f in fields(SceneSpec):
        synth.add_argument("--" + f.name.replace("_", "-"),
                           type=type(f.default), default=f.default)
    synth.set_defaults(handler=cmd_synth)

    unmix_p = sub.add_parser("unmix", help="estimate abundances for a cube")
    unmix_p.add_argument("--config", help="flat key = value settings file")
    for opt in _UNMIX_OPTS:
        unmix_p.add_argument(opt.flag, dest=opt.key, type=opt.convert, help=opt.help)
    unmix_p.set_defaults(handler=cmd_unmix)

    eval_p = sub.add_parser("eval", help="score an abundance estimate")
    eval_p.add_argument("--estimate", required=True, help="abundance file to score")
    eval_p.add_argument("--endmembers", required=True, help="endmember CSV")
    eval_p.add_argument("--observed", required=True, help="cube the estimate explains")
    eval_p.add_argument("--truth", help="ground-truth abundances (enables rmse)")
    eval_p.add_argument("--clean", help="noiseless cube (enables psnr)")
    eval_p.set_defaults(handler=cmd_eval)

    den = sub.add_parser("denoise", help="apply a denoiser to a cube")
    den.add_argument("--input", required=True, help="cube to filter")
    den.add_argument("--out", required=True, help="output cube path")
    den.add_argument("--kind", default="nlm",
                     help="one of: " + ", ".join(available_denoisers()))
    den.add_argument("--sigma", type=float, required=True, help="noise level")
    den.set_defaults(handler=cmd_denoise)
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"pnpunmix: warning: {message}\n"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a library warning prints as one line, not as the source file and line
    # that raised it; recorders of warnings are left alone
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.handler(args)
    except ShapeError as exc:
        return _report(exc, EXIT_SHAPE)
    except FileFormatError as exc:
        return _report(exc, EXIT_USAGE)
    except ComputeError as exc:
        return _report(exc, EXIT_COMPUTE)
    except ValueError as exc:
        # settings and inputs are checked before the compute stages, so a
        # ValueError escaping one is a bug, such as a plug-in denoiser's own
        if (isinstance(exc, UsageError)
                or getattr(exc, "_pnp_stage", None) not in ("unmixing", "denoising")):
            return _report(exc, EXIT_USAGE)
        return _report(exc, EXIT_UNEXPECTED, f"{type(exc).__name__}: ")
    except OSError as exc:
        return _report(exc, EXIT_IO)
    except Exception as exc:
        # a bug or a plug-in denoiser's own error: one line, no traceback
        return _report(exc, EXIT_UNEXPECTED, f"{type(exc).__name__}: ")
    finally:
        warnings.formatwarning = formatwarning


def _report(exc: Exception, code: int, kind: str = "") -> int:
    stage = getattr(exc, "_pnp_stage", None)
    where = f" [{stage}]" if stage else ""
    print(f"pnpunmix: error{where}: {kind}{exc}", file=sys.stderr)
    return code
