"""Batch command line: make scenes, unmix cubes, score estimates, run priors.

Four subcommands cover the whole workflow:

  synth    write a synthetic scene (noisy + clean cubes, truth, spectra)
  unmix    estimate abundances for a cube given endmember spectra
  eval     score an abundance file against references
  denoise  apply one of the registered denoisers to a cube

The unmix command reads its settings from an optional flat config file
(``key = value`` lines); every key is also a command line flag, and flags
override the file; loop settings given neither way take the defaults of
``default_config``. Everything is a pure function of argv and files.

Exit codes: 0 success, 1 unexpected error inside a stage, 2 usage/config/
file format, 3 shape mismatch, 4 numerical failure, 5 filesystem error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .cube import fold
from .denoise import DenoiserSpec, available_denoisers, denoise
from .errors import ComputeError, FileFormatError, ShapeError
from .io import (
    _read_pixels,
    _write_pixels,
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
from .metrics import evaluate
from .model import mix
from .pnp import PnpConfig, default_config, unmix
from .synth import SceneSpec, make_scene

__all__ = ["RunConfig", "main"]

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


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


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
    _Opt("rho0", float, help="initial penalty weight"),
    _Opt("lam", float, help="prior strength lambda"),
    _Opt("alpha", float, help="penalty growth factor per iteration"),
    _Opt("max_iter", int, help="iteration budget"),
    _Opt("stop_tol", float, help="relative primal residual stop"),
    _Opt("seed", int, help="seed for the abundance initialization"),
    _Opt("emit_maps", _parse_bool, default=True, help="write per-endmember maps"),
    _Opt("emit_trace", _parse_bool, default=True, help="write per-iteration trace"),
    _Opt("emit_metrics", _parse_bool, default=True, help="write metrics JSON"),
)

_DENOISER_KEY_PREFIX = "denoiser."

# settings handed to default_config when given; the rest take its defaults
_LOOP_KEYS = {f.name for f in fields(PnpConfig)} - {"mode", "denoiser"} | {"snr_db"}


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one unmix run: paths, loop config, outputs."""

    cube: Path
    endmembers: Path
    out_dir: Path
    pnp: PnpConfig
    truth: Path | None = None
    clean: Path | None = None
    emit_maps: bool = True
    emit_trace: bool = True
    emit_metrics: bool = True


def _merge_settings(args) -> tuple[dict, dict]:
    """Config-file values overridden by explicit flags; unknown keys rejected."""
    known = {opt.key: opt for opt in _UNMIX_OPTS}
    settings = {opt.key: opt.default for opt in _UNMIX_OPTS}
    denoiser_params: dict = {}
    if args.config is not None:
        for key, raw in read_config(args.config).items():
            if key.startswith(_DENOISER_KEY_PREFIX):
                denoiser_params[key[len(_DENOISER_KEY_PREFIX):]] = _parse_number(raw)
                continue
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
    for item in args.denoiser_param or ():
        if "=" not in item:
            raise UsageError(f"--denoiser-param expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        denoiser_params[key.strip()] = _parse_number(raw)
    missing = [known[k].flag for k, v in settings.items() if v is None and known[k].required]
    if missing:
        raise UsageError(f"missing required settings: {', '.join(sorted(missing))}")
    return settings, denoiser_params


def _build_run_config(args) -> RunConfig:
    settings, denoiser_params = _merge_settings(args)
    overrides = {key: settings[key] for key in _LOOP_KEYS if settings[key] is not None}
    if denoiser_params:
        overrides["denoiser"] = DenoiserSpec(settings["denoiser"], denoiser_params)
    pnp = default_config(settings["mode"], settings["denoiser"], **overrides)
    return RunConfig(
        cube=Path(settings["cube"]),
        endmembers=Path(settings["endmembers"]),
        out_dir=Path(settings["out"]),
        pnp=pnp,
        truth=Path(settings["truth"]) if settings["truth"] else None,
        clean=Path(settings["clean"]) if settings["clean"] else None,
        emit_maps=settings["emit_maps"],
        emit_trace=settings["emit_trace"],
        emit_metrics=settings["emit_metrics"],
    )


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
        rc = _build_run_config(args)
    with _phase("input parsing"):
        observed = _read_pixels(rc.cube)
        endmembers = read_endmembers(rc.endmembers)
        truth = read_abundances(rc.truth) if rc.truth else None
        clean = _read_pixels(rc.clean) if rc.clean else None
    with _phase("unmixing"):
        estimate, state = unmix(observed, endmembers, rc.pnp, truth=truth)
    with _phase("evaluation"):
        record = evaluate(
            endmembers, observed, estimate, truth=truth, clean=clean
        ).to_dict()
        if truth is not None:
            record["per_iteration_rmse"] = [r.rmse for r in state.iterations]
    with _phase("output writing"):
        rc.out_dir.mkdir(parents=True, exist_ok=True)
        write_abundances(rc.out_dir / ABUNDANCE_FILE, estimate)
        _write_pixels(rc.out_dir / RECONSTRUCTION_FILE, mix(endmembers, estimate))
        if rc.emit_metrics:
            (rc.out_dir / METRICS_FILE).write_text(
                json.dumps(record, sort_keys=True, indent=2) + "\n"
            )
        if rc.emit_trace:
            _write_trace(rc.out_dir / TRACE_FILE, state)
        if rc.emit_maps:
            planes = fold(estimate).values
            for i in range(planes.shape[0]):
                write_graymap(rc.out_dir / f"map_{i}.pgm", planes[i])
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
    record = json.dumps(report.to_dict(), sort_keys=True)
    if args.out:
        with _phase("output writing"):
            Path(args.out).write_text(record + "\n")
    print(record)
    return EXIT_OK


def cmd_denoise(args) -> int:
    with _phase("configuration"):
        params = {}
        for item in args.param or ():
            if "=" not in item:
                raise UsageError(f"--param expects key=value, got {item!r}")
            key, _, raw = item.partition("=")
            params[key.strip()] = _parse_number(raw)
        spec = DenoiserSpec(args.kind, params)
    with _phase("input parsing"):
        cube = read_cube(args.input)
    with _phase("denoising"):
        filtered = denoise(spec, cube, args.sigma)
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
        if opt.convert is _parse_bool:
            unmix_p.add_argument(
                "--no-" + opt.key.replace("emit_", "").replace("_", "-"),
                dest=opt.key, action="store_const", const=False, default=None,
                help="suppress " + opt.help.replace("write ", ""),
            )
        else:
            unmix_p.add_argument(
                opt.flag, dest=opt.key, type=opt.convert, default=None, help=opt.help
            )
    unmix_p.add_argument(
        "--denoiser-param", action="append", metavar="KEY=VALUE",
        help="denoiser parameter; repeatable (config file: denoiser.<key>)",
    )
    unmix_p.set_defaults(handler=cmd_unmix)

    eval_p = sub.add_parser("eval", help="score an abundance estimate")
    eval_p.add_argument("--estimate", required=True, help="abundance file to score")
    eval_p.add_argument("--endmembers", required=True, help="endmember CSV")
    eval_p.add_argument("--observed", required=True, help="cube the estimate explains")
    eval_p.add_argument("--truth", help="ground-truth abundances (enables rmse)")
    eval_p.add_argument("--clean", help="noiseless cube (enables psnr)")
    eval_p.add_argument("--out", help="also write the JSON record here")
    eval_p.set_defaults(handler=cmd_eval)

    den = sub.add_parser("denoise", help="apply a denoiser to a cube")
    den.add_argument("--input", required=True, help="cube to filter")
    den.add_argument("--out", required=True, help="output cube path")
    den.add_argument("--kind", default="nlm",
                     help="one of: " + ", ".join(available_denoisers()))
    den.add_argument("--sigma", type=float, required=True, help="noise level")
    den.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="denoiser parameter; repeatable")
    den.set_defaults(handler=cmd_denoise)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ShapeError as exc:
        return _report(exc, EXIT_SHAPE)
    except FileFormatError as exc:
        return _report(exc, EXIT_USAGE)
    except ComputeError as exc:
        return _report(exc, EXIT_COMPUTE)
    except ValueError as exc:
        # settings and inputs are checked before unmixing starts, so a
        # ValueError escaping it is a bug, such as a plug-in denoiser's own
        if getattr(exc, "_pnp_stage", None) != "unmixing":
            return _report(exc, EXIT_USAGE)
        return _report(exc, EXIT_UNEXPECTED, f"{type(exc).__name__}: ")
    except OSError as exc:
        return _report(exc, EXIT_IO)
    except Exception as exc:
        # a bug or a plug-in denoiser's own error: one line, no traceback
        return _report(exc, EXIT_UNEXPECTED, f"{type(exc).__name__}: ")


def _report(exc: Exception, code: int, kind: str = "") -> int:
    stage = getattr(exc, "_pnp_stage", None)
    where = f" [{stage}]" if stage else ""
    print(f"pnpunmix: error{where}: {kind}{exc}", file=sys.stderr)
    return code
