"""Command line: artifacts, config merging, exit codes, determinism."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pnpunmix
from pnpunmix.cli import _UNMIX_OPTS, _build_parser, main
from pnpunmix.cube import PixelMatrix, fold, unfold
from pnpunmix.denoise import available_denoisers, denoise, register_denoiser
from pnpunmix.io import (
    read_abundances,
    read_config,
    read_cube,
    read_endmembers,
    read_graymap,
    write_abundances,
    write_config,
    write_cube,
    write_endmembers,
)
from pnpunmix.metrics import evaluate
from pnpunmix.model import AbundanceMatrix, EndmemberMatrix, mix
from pnpunmix.pnp import PnpConfig, default_config, unmix
from pnpunmix.qp import fcls
from pnpunmix.synth import SceneSpec

SCENE_ARGS = [
    "synth", "--rows", "12", "--cols", "12", "--endmembers", "3",
    "--bands", "16", "--seed", "5",
]


@pytest.fixture()
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    assert main(SCENE_ARGS + ["--out", str(out)]) == 0
    return out


def run_unmix(scene, out, *extra):
    argv = [
        "unmix",
        "--cube", str(scene / "noisy.raw"),
        "--endmembers", str(scene / "endmembers.csv"),
        "--out", str(out),
        "--mode", "pro-a",
        *extra,
    ]
    return main(argv)


class TestSynthCommand:
    def test_writes_five_artifacts_that_parse_back(self, scene_dir):
        noisy = read_cube(scene_dir / "noisy.raw")
        clean = read_cube(scene_dir / "clean.raw")
        truth = read_abundances(scene_dir / "truth.raw")
        endmembers = read_endmembers(scene_dir / "endmembers.csv")
        cfg = read_config(scene_dir / "scene.cfg")
        assert noisy.values.shape == (16, 12, 12)
        assert clean.values.shape == (16, 12, 12)
        assert truth.values.shape == (3, 144)
        assert endmembers.values.shape == (16, 3)
        assert cfg["seed"] == "5"
        assert cfg["snr_db"] == "20.0"

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(SCENE_ARGS + ["--out", str(first)]) == 0
        assert main(SCENE_ARGS + ["--out", str(second)]) == 0
        for name in ("noisy.raw", "clean.raw", "truth.raw",
                     "endmembers.csv", "scene.cfg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_written_noise_level_survives_reload(self, tmp_path):
        # oracle: reload both cubes and re-measure the energy ratio
        out = tmp_path / "snr"
        argv = ["synth", "--rows", "24", "--cols", "24", "--endmembers", "3",
                "--bands", "32", "--snr-db", "10", "--seed", "2", "--out", str(out)]
        assert main(argv) == 0
        noisy = read_cube(out / "noisy.raw").values
        clean = read_cube(out / "clean.raw").values
        measured = 10.0 * math.log10(
            float(np.sum(clean**2)) / float(np.sum((noisy - clean) ** 2))
        )
        assert abs(measured - 10.0) < 0.1

    def test_bad_spec_exits_with_usage_code(self, tmp_path, capsys):
        argv = ["synth", "--rows", "4", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "scene generation" in capsys.readouterr().err

    def test_no_flags_write_the_scene_spec_defaults(self, tmp_path):
        out = tmp_path / "default"
        assert main(["synth", "--out", str(out)]) == 0
        expected = {key: str(value) for key, value in asdict(SceneSpec()).items()}
        assert read_config(out / "scene.cfg") == expected

    def test_snr_whose_ratio_overflows_writes_a_noiseless_scene(self, tmp_path):
        # 10^310 is past the float range: no noise, rather than an OverflowError
        out = tmp_path / "quiet"
        assert main(SCENE_ARGS + ["--snr-db", "3100", "--out", str(out)]) == 0
        assert (out / "noisy.raw").read_bytes() == (out / "clean.raw").read_bytes()

    def test_blur_kernel_no_array_holds_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "wide"
        assert main(SCENE_ARGS + ["--field-smoothness", "1e300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pnpunmix: error [scene generation]: field_smoothness ")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_snr_whose_ratio_underflows_is_usage_error(self, tmp_path, capsys):
        # 10^(-400) underflows to 0: the noise would be infinite
        out = tmp_path / "loud"
        assert main(SCENE_ARGS + ["--snr-db=-4000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pnpunmix: error [scene generation]: snr_db -4000.0 ")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_snr_whose_sigma_overflows_is_usage_error(self, tmp_path, capsys):
        # 10^(-320) is a subnormal ratio, but the energy over it overflows
        out = tmp_path / "louder"
        argv = ["synth", "--rows", "8", "--cols", "8", "--endmembers", "2", "--bands", "4",
                "--snr-db=-3200", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pnpunmix: error [scene generation]: snr_db -3200.0 ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err and not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        argv = SCENE_ARGS[:-2] + ["--seed", "-1", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err


class TestUnmixCommand:
    def test_identity_prior_matches_direct_fcls(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        code = run_unmix(
            scene_dir, out,
            "--denoiser", "identity", "--rho0", "1e-3",
            "--stop-tol", "1e-15",
        )
        assert code == 0
        cube = read_cube(scene_dir / "noisy.raw")
        endmembers = read_endmembers(scene_dir / "endmembers.csv")
        direct = fcls(endmembers, unfold(cube))
        estimate = read_abundances(out / "abundances.raw")
        gap = float(np.sqrt(np.mean((estimate.values - direct.values) ** 2)))
        assert gap < 1e-6

    def test_metrics_file_matches_library_evaluation(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        code = run_unmix(
            scene_dir, out,
            "--denoiser", "identity", "--rho0", "1e-3",
            "--truth", str(scene_dir / "truth.raw"),
            "--clean", str(scene_dir / "clean.raw"),
        )
        assert code == 0
        record = json.loads((out / "metrics.json").read_text())
        endmembers = read_endmembers(scene_dir / "endmembers.csv")
        observed = unfold(read_cube(scene_dir / "noisy.raw"))
        report = evaluate(
            endmembers, observed,
            read_abundances(out / "abundances.raw"),
            truth=read_abundances(scene_dir / "truth.raw"),
            clean=unfold(read_cube(scene_dir / "clean.raw")),
        )
        # the stored abundance file is float32-quantized, so recomputed
        # metrics agree to float32 precision, not bit for bit
        for key in ("reconstruction_error", "rmse", "psnr"):
            assert record[key] == pytest.approx(report.to_dict()[key], rel=1e-6)

    def test_truth_toggles_rmse_presence(self, scene_dir, tmp_path):
        bare = tmp_path / "bare"
        assert run_unmix(scene_dir, bare, "--denoiser", "identity",
                         "--max-iter", "2") == 0
        record = json.loads((bare / "metrics.json").read_text())
        assert "reconstruction_error" in record
        assert "rmse" not in record
        assert "psnr" not in record

        with_truth = tmp_path / "ref"
        assert run_unmix(scene_dir, with_truth, "--denoiser", "identity",
                         "--max-iter", "2",
                         "--truth", str(scene_dir / "truth.raw")) == 0
        record = json.loads((with_truth / "metrics.json").read_text())
        assert "rmse" in record

    def test_trace_rows_and_monotone_rho(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        assert run_unmix(scene_dir, out, "--denoiser", "identity",
                         "--max-iter", "4", "--stop-tol", "0") == 0
        lines = (out / "trace.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["iteration", "rho", "sigma", "primal_residual"]
        assert len(lines) == 1 + 4
        rhos = [float(line.split(",")[1]) for line in lines[1:]]
        assert rhos == sorted(rhos)
        assert len(set(rhos)) == 1  # rho is fixed for the whole run

    def test_trace_and_metrics_write_the_iteration_records(
        self, scene_dir, tmp_path, capsys
    ):
        truth = read_abundances(scene_dir / "truth.raw")
        _, state = unmix(
            unfold(read_cube(scene_dir / "noisy.raw")),
            read_endmembers(scene_dir / "endmembers.csv"),
            default_config("pro-a", "nlm", max_iter=3),
            truth=truth,
        )
        out = tmp_path / "ref"
        assert run_unmix(scene_dir, out, "--max-iter", "3",
                         "--truth", str(scene_dir / "truth.raw")) == 0
        printed = json.loads(capsys.readouterr().out)
        rows = [line.split(",") for line in
                (out / "trace.csv").read_text().splitlines()]
        assert rows[0] == ["iteration", "rho", "sigma", "primal_residual", "rmse"]
        assert rows[1:] == [
            [str(i), repr(r.rho), repr(r.sigma), repr(r.primal_residual), repr(r.rmse)]
            for i, r in enumerate(state.iterations, 1)
        ]
        record = json.loads((out / "metrics.json").read_text())
        assert record["per_iteration_rmse"] == [r.rmse for r in state.iterations]
        assert printed == record

        bare = tmp_path / "bare"
        assert run_unmix(scene_dir, bare, "--max-iter", "3") == 0
        assert "per_iteration_rmse" not in json.loads(capsys.readouterr().out)
        rows = [line.split(",") for line in
                (bare / "trace.csv").read_text().splitlines()]
        assert rows[0] == ["iteration", "rho", "sigma", "primal_residual"]
        assert rows[1:] == [
            [str(i), repr(r.rho), repr(r.sigma), repr(r.primal_residual)]
            for i, r in enumerate(state.iterations, 1)
        ]
        assert "per_iteration_rmse" not in json.loads(
            (bare / "metrics.json").read_text())

    def test_unknown_denoiser_is_configuration_error(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_unmix(scene_dir, out, "--denoiser", "nosuch") == 2
        err = capsys.readouterr().err
        assert "[configuration]" in err and "nosuch" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_maps_written_per_endmember(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        assert run_unmix(scene_dir, out, "--denoiser", "identity",
                         "--max-iter", "2") == 0
        for i in range(3):
            plane = read_graymap(out / f"map_{i}.pgm")
            assert plane.shape == (12, 12)
        assert not (out / "map_3.pgm").exists()

    def test_config_file_supplies_settings_and_flags_override(
        self, scene_dir, tmp_path
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join([
                f"cube = {scene_dir / 'noisy.raw'}",
                f"endmembers = {scene_dir / 'endmembers.csv'}",
                f"out = {tmp_path / 'from-file'}",
                "mode = pro-a",
                "denoiser = identity",
                "max_iter = 3",
                "stop_tol = 0",
            ]) + "\n"
        )
        assert main(["unmix", "--config", str(cfg)]) == 0
        trace = (tmp_path / "from-file" / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 3
        assert read_graymap(tmp_path / "from-file" / "map_0.pgm").shape == (12, 12)

        override = tmp_path / "override"
        assert main(["unmix", "--config", str(cfg), "--out", str(override),
                     "--max-iter", "2"]) == 0
        trace = (override / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 2

    def test_every_setting_has_one_name_as_key_and_flag(self, scene_dir, tmp_path,
                                                        capsys):
        # each setting k is the config key k and the flag --k, nothing else
        values = {
            "cube": scene_dir / "noisy.raw", "endmembers": scene_dir / "endmembers.csv",
            "truth": scene_dir / "truth.raw", "clean": scene_dir / "clean.raw",
            "mode": "pro-a", "denoiser": "gaussian", "snr_db": 10.0, "rho0": 0.5,
            "lam": 0.25, "max_iter": 2, "stop_tol": 0.0,
        }
        assert set(values) | {"out"} == {opt.key for opt in _UNMIX_OPTS}
        write_config(tmp_path / "all.cfg", {**values, "out": tmp_path / "file"})
        assert main(["unmix", "--config", str(tmp_path / "all.cfg")]) == 0
        flags = [x for key, value in values.items()
                 for x in ("--" + key.replace("_", "-"), str(value))]
        assert main(["unmix", *flags, "--out", str(tmp_path / "flags")]) == 0
        names = {p.name for p in (tmp_path / "file").iterdir()}
        assert names == {"abundances.raw", "abundances.hdr", "reconstruction.raw",
                         "reconstruction.hdr", "metrics.json", "trace.csv",
                         "map_0.pgm", "map_1.pgm", "map_2.pgm"}
        for name in names:
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes()), name
        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        offered = {s for a in sub.choices["unmix"]._actions for s in a.option_strings}
        assert offered == ({opt.flag for opt in _UNMIX_OPTS}
                           | {"--config", "-h", "--help"})
        capsys.readouterr()
        for gone in (["--no-maps"], ["--no-trace"], ["--no-metrics"],
                     ["--denoiser-param", "h_scale=2"]):
            assert run_unmix(scene_dir, tmp_path / "gone", *gone) == 2
            assert gone[0] in capsys.readouterr().err
        for key, value in (("emit_maps", "false"), ("denoiser.h_scale", "2")):
            cfg = tmp_path / "stale.cfg"
            cfg.write_text(f"{key} = {value}\n")
            assert run_unmix(scene_dir, tmp_path / "stale", "--config", str(cfg)) == 2
            assert capsys.readouterr().err == (
                f"pnpunmix: error [configuration]: unknown config key {key!r} in {cfg}\n")
        assert main(["denoise", "--input", str(scene_dir / "noisy.raw"),
                     "--out", str(tmp_path / "gone.raw"), "--kind", "tv",
                     "--sigma", "0.1", "--param", "iters=5"]) == 2
        assert "--param" in capsys.readouterr().err
        assert not any((tmp_path / name).exists()
                       for name in ("gone", "stale", "gone.raw", "gone.hdr"))

    def test_unknown_config_key_is_usage_error(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho = 1.0\n")
        assert main(["unmix", "--config", str(cfg)]) == 2
        assert "rho" in capsys.readouterr().err

    def test_missing_required_settings_reported(self, capsys):
        assert main(["unmix", "--mode", "pro-a"]) == 2
        err = capsys.readouterr().err
        assert "--cube" in err and "--out" in err

    def test_infinite_snr_runs_nan_snr_is_usage_error(self, scene_dir, tmp_path, capsys):
        assert run_unmix(scene_dir, tmp_path / "inf", "--denoiser", "identity",
                         "--max-iter", "2", "--snr-db", "inf") == 0
        assert run_unmix(scene_dir, tmp_path / "nan", "--denoiser", "identity",
                         "--max-iter", "2", "--snr-db", "nan") == 2
        err = capsys.readouterr().err
        assert "[configuration]" in err and "snr_db" in err

    def test_no_loop_flags_match_library_defaults(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        assert run_unmix(scene_dir, out) == 0
        estimate, _ = unmix(
            unfold(read_cube(scene_dir / "noisy.raw")),
            read_endmembers(scene_dir / "endmembers.csv"),
            default_config("pro-a", "nlm"),
        )
        write_abundances(tmp_path / "library.raw", estimate)
        assert ((out / "abundances.raw").read_bytes()
                == (tmp_path / "library.raw").read_bytes())
        endmembers = read_endmembers(scene_dir / "endmembers.csv")
        write_cube(tmp_path / "mixed.raw", fold(mix(endmembers, estimate)))
        assert ((out / "reconstruction.raw").read_bytes()
                == (tmp_path / "mixed.raw").read_bytes())

    def test_seed_is_not_an_option(self, scene_dir, tmp_path, capsys):
        # the loop starts from the least-squares fit, so nothing is random
        assert run_unmix(scene_dir, tmp_path / "flag", "--seed", "3") == 2
        assert "--seed" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        assert run_unmix(scene_dir, tmp_path / "file", "--config", str(cfg)) == 2
        assert "seed" in capsys.readouterr().err

    def test_qp_settings_are_not_options(self, scene_dir, tmp_path, capsys):
        assert run_unmix(scene_dir, tmp_path / "flag", "--qp-tol", "1e-6") == 2
        assert "--qp-tol" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qp_tol = 1e-6\n")
        assert run_unmix(scene_dir, tmp_path / "file", "--config", str(cfg)) == 2
        assert "qp_tol" in capsys.readouterr().err

    def test_same_inputs_give_byte_identical_outputs(self, scene_dir, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        for out in (first, second):
            assert run_unmix(scene_dir, out, "--denoiser", "nlm",
                             "--max-iter", "3") == 0
        for name in ("abundances.raw", "reconstruction.raw",
                     "metrics.json", "trace.csv", "map_0.pgm"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestEvalCommand:
    @pytest.fixture()
    def dyadic_files(self, tmp_path):
        # values chosen exactly representable in float32 so the stored
        # clean cube equals the recomputed reconstruction bit for bit
        endmembers = EndmemberMatrix(
            np.array([[0.25, 1.0], [0.5, 0.5], [1.0, 0.25], [0.75, 0.125]])
        )
        truth = AbundanceMatrix(
            np.array([[0.75, 0.25, 1.0, 0.5], [0.25, 0.75, 0.0, 0.5]]), 2, 2
        )
        clean = PixelMatrix(endmembers.values @ truth.values, 2, 2)
        observed = PixelMatrix(clean.values + 0.5, 2, 2)
        paths = {
            "endmembers": tmp_path / "em.csv",
            "truth": tmp_path / "truth.raw",
            "clean": tmp_path / "clean.raw",
            "observed": tmp_path / "observed.raw",
        }
        write_endmembers(paths["endmembers"], endmembers)
        write_abundances(paths["truth"], truth)
        write_cube(paths["clean"], fold(clean))
        write_cube(paths["observed"], fold(observed))
        return paths

    def test_perfect_estimate_scores_zero_rmse_infinite_psnr(
        self, dyadic_files, tmp_path, capsys
    ):
        code = main([
            "eval",
            "--estimate", str(dyadic_files["truth"]),
            "--truth", str(dyadic_files["truth"]),
            "--endmembers", str(dyadic_files["endmembers"]),
            "--observed", str(dyadic_files["observed"]),
            "--clean", str(dyadic_files["clean"]),
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["rmse"] == 0.0
        assert record["psnr"] == math.inf
        assert record["reconstruction_error"] == 0.5

    def test_record_matches_library_call_exactly(self, dyadic_files, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main([
            "eval",
            "--estimate", str(dyadic_files["truth"]),
            "--truth", str(dyadic_files["truth"]),
            "--endmembers", str(dyadic_files["endmembers"]),
            "--observed", str(dyadic_files["observed"]),
            "--out", str(out_file),
        ])
        assert code == 0
        stdout_record = json.loads(capsys.readouterr().out)
        file_record = json.loads(out_file.read_text())
        report = evaluate(
            read_endmembers(dyadic_files["endmembers"]),
            unfold(read_cube(dyadic_files["observed"])),
            read_abundances(dyadic_files["truth"]),
            truth=read_abundances(dyadic_files["truth"]),
        )
        assert stdout_record == file_record == report.to_dict()


class TestDenoiseCommand:
    def test_identity_round_trips_the_cube(self, scene_dir, tmp_path):
        out = tmp_path / "filtered.raw"
        code = main(["denoise", "--input", str(scene_dir / "noisy.raw"),
                     "--out", str(out), "--kind", "identity", "--sigma", "0.1"])
        assert code == 0
        npt.assert_array_equal(
            read_cube(out).values, read_cube(scene_dir / "noisy.raw").values
        )

    def test_gaussian_filter_changes_values_keeps_shape(self, scene_dir, tmp_path):
        out = tmp_path / "filtered.raw"
        code = main(["denoise", "--input", str(scene_dir / "noisy.raw"),
                     "--out", str(out), "--kind", "gaussian", "--sigma", "0.1"])
        assert code == 0
        filtered = read_cube(out)
        noisy = read_cube(scene_dir / "noisy.raw")
        assert filtered.values.shape == noisy.values.shape
        assert np.any(filtered.values != noisy.values)

    @pytest.mark.parametrize("kind, params", [
        ("identity", {}),
        ("gaussian", {"GAUSSIAN_WIDTH": 0.7}),
        ("nlm", {"NLM_SEARCH_RADIUS": 2}),
        ("tv", {"TV_ITERS": 5}),
    ])
    def test_writes_the_library_bytes_for_every_built_in(self, scene_dir, tmp_path,
                                                         kind, params, monkeypatch):
        # each built-in at settings other than its defaults
        for name, value in params.items():
            monkeypatch.setattr(sys.modules["pnpunmix.denoise"], name, value)
        noisy = scene_dir / "noisy.raw"
        out, ref = tmp_path / "filtered.raw", tmp_path / "reference.raw"
        assert main(["denoise", "--input", str(noisy), "--out", str(out), "--kind", kind,
                     "--sigma", "0.1"]) == 0
        write_cube(ref, denoise(kind, read_cube(noisy), 0.1))
        for suffix in (".raw", ".hdr"):
            assert (out.with_suffix(suffix).read_bytes()
                    == ref.with_suffix(suffix).read_bytes())

    def test_unknown_kind_is_usage_error(self, scene_dir, tmp_path, capsys):
        code = main(["denoise", "--input", str(scene_dir / "noisy.raw"),
                     "--out", str(tmp_path / "x.raw"), "--kind", "wavelet",
                     "--sigma", "0.1"])
        assert code == 2
        assert "wavelet" in capsys.readouterr().err

    def test_negative_sigma_is_usage_error(self, scene_dir, tmp_path, capsys):
        code = main(["denoise", "--input", str(scene_dir / "noisy.raw"),
                     "--out", str(tmp_path / "x.raw"), "--kind", "identity",
                     "--sigma", "-0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "[denoising]" in err and "sigma" in err

    def test_plugin_value_error_is_unexpected_error_with_stage(
        self, scene_dir, tmp_path, capsys
    ):
        # as in unmix: a plug-in's own ValueError is a bug, not a usage error
        def broken(volume, sigma):
            raise ValueError("plug-in bug")

        try:
            register_denoiser("cli-denoise-raises-value", broken)
        except ValueError:
            pass
        code = main(["denoise", "--input", str(scene_dir / "noisy.raw"),
                     "--out", str(tmp_path / "x.raw"),
                     "--kind", "cli-denoise-raises-value", "--sigma", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "pnpunmix: error [denoising]: ValueError: plug-in bug\n"
        assert not (tmp_path / "x.raw").exists()

    def test_output_past_float32_is_refused_unwritten(self, scene_dir, tmp_path, capsys):
        # a plug-in whose output float32 cannot hold: stored, it would read inf
        try:
            register_denoiser("cli-denoise-too-bright", lambda vol, sigma: vol * 1e39)
        except ValueError:
            pass
        code = main(["denoise", "--input", str(scene_dir / "noisy.raw"),
                     "--out", str(tmp_path / "x.raw"),
                     "--kind", "cli-denoise-too-bright", "--sigma", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pnpunmix: error [output writing]: ")
        assert "float32 range" in err and err.count("\n") == 1
        assert not (tmp_path / "x.raw").exists() and not (tmp_path / "x.hdr").exists()


class TestThinImages:
    @pytest.mark.parametrize("rows, cols", [(1, 12), (12, 1)])
    def test_single_row_or_column_cube_unmixes_with_tv(self, tmp_path, rows, cols):
        rng = np.random.default_rng(3)
        endmembers = EndmemberMatrix(rng.uniform(0.1, 0.9, size=(8, 3)))
        truth = rng.dirichlet(np.ones(3), size=rows * cols).T
        observed = PixelMatrix(endmembers.values @ truth, rows, cols)
        write_cube(tmp_path / "thin.raw", fold(observed))
        write_endmembers(tmp_path / "em.csv", endmembers)
        out = tmp_path / "run"
        code = main(["unmix", "--cube", str(tmp_path / "thin.raw"),
                     "--endmembers", str(tmp_path / "em.csv"), "--out", str(out),
                     "--mode", "pro-h", "--denoiser", "tv", "--max-iter", "3"])
        assert code == 0
        estimate = read_abundances(out / "abundances.raw")
        assert estimate.values.shape == (3, rows * cols)
        assert np.isfinite(estimate.values).all()


class TestExitCodes:
    def test_missing_input_file_is_parse_error(self, tmp_path, capsys):
        code = main(["unmix", "--cube", str(tmp_path / "absent.raw"),
                     "--endmembers", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "o"), "--mode", "pro-a"])
        assert code == 2
        assert "input parsing" in capsys.readouterr().err

    def test_library_warning_prints_as_one_pnpunmix_line(self, scene_dir, tmp_path):
        # pytest records warnings instead of printing them, so the command
        # runs in a child process
        rows = list(csv.reader((scene_dir / "endmembers.csv").read_text().splitlines()))
        rows[1][0] = "1.5"
        with (tmp_path / "bright.csv").open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        src = str(Path(pnpunmix.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pnpunmix", "unmix", "--cube", str(scene_dir / "noisy.raw"),
             "--endmembers", str(tmp_path / "bright.csv"), "--out", str(tmp_path / "o"),
             "--mode", "pro-a", "--denoiser", "identity", "--max-iter", "2"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "pnpunmix: warning: endmember values fall outside [0, 1]\n"
        # in process, the formatter is bound only while the command runs
        before = warnings.formatwarning
        with pytest.warns(UserWarning, match="outside"):
            assert main(["unmix", "--cube", str(scene_dir / "noisy.raw"),
                         "--endmembers", str(tmp_path / "bright.csv"),
                         "--out", str(tmp_path / "p"), "--mode", "pro-a",
                         "--denoiser", "identity", "--max-iter", "2"]) == 0
        assert warnings.formatwarning is before

    def test_band_mismatch_is_shape_error(self, scene_dir, tmp_path, capsys):
        wrong = EndmemberMatrix(np.array([[0.2, 0.8], [0.7, 0.3], [0.5, 0.6]]))
        write_endmembers(tmp_path / "wrong.csv", wrong)
        code = main(["unmix", "--cube", str(scene_dir / "noisy.raw"),
                     "--endmembers", str(tmp_path / "wrong.csv"),
                     "--out", str(tmp_path / "o"), "--mode", "pro-a",
                     "--denoiser", "identity"])
        assert code == 3
        assert "unmixing" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config key"])
    def test_alpha_is_no_setting(self, scene_dir, tmp_path, capsys, where):
        # rho is fixed at rho0 for the whole run: no growth factor is taken
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {"cube": scene_dir / "noisy.raw",
                           "endmembers": scene_dir / "endmembers.csv",
                           "mode": "pro-a", "denoiser": "identity"})
        argv = ["unmix", "--config", str(cfg), "--out", str(tmp_path / "run")]
        if where == "flag":
            argv += ["--alpha", "1.1"]
        else:
            cfg.write_text(cfg.read_text() + "alpha = 1.1\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        if where == "flag":
            assert err.endswith("error: unrecognized arguments: --alpha 1.1\n"), err
        else:
            assert err == ("pnpunmix: error [configuration]: "
                           f"unknown config key 'alpha' in {cfg}\n")
        assert not (tmp_path / "run").exists()

    def test_truth_on_another_grid_is_shape_error(self, scene_dir, tmp_path, capsys):
        # the 144 pixels of the 12x12 scene, laid out on an 8x18 grid
        truth = read_abundances(scene_dir / "truth.raw")
        wide = AbundanceMatrix(truth.values, 8, 18, asc_tol=truth.asc_tol)
        write_abundances(tmp_path / "wide.raw", wide)
        code = run_unmix(scene_dir, tmp_path / "o", "--denoiser", "identity",
                         "--truth", str(tmp_path / "wide.raw"))
        assert code == 3
        assert "[unmixing]" in capsys.readouterr().err

    def test_compute_failure_is_reported_with_stage(self, scene_dir, tmp_path, capsys):
        try:
            register_denoiser("cli-poison", lambda vol, sigma: np.full_like(vol, np.nan))
        except ValueError:
            pass
        code = run_unmix(scene_dir, tmp_path / "o", "--denoiser", "cli-poison")
        assert code == 4
        assert "unmixing" in capsys.readouterr().err

    def test_raising_plugin_is_unexpected_error_with_stage(
        self, scene_dir, tmp_path, capsys
    ):
        def broken(volume, sigma):
            raise TypeError("plug-in bug")

        try:
            register_denoiser("cli-raises", broken)
        except ValueError:
            pass
        code = run_unmix(scene_dir, tmp_path / "o", "--denoiser", "cli-raises")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "pnpunmix: error [unmixing]: TypeError: plug-in bug\n"

    def test_plugin_value_error_is_unexpected_error_with_stage(
        self, scene_dir, tmp_path, capsys
    ):
        # a ValueError is the plug-in's own bug, not a usage or numerical error
        def broken(volume, sigma):
            raise ValueError("plug-in bug")

        try:
            register_denoiser("cli-raises-value", broken)
        except ValueError:
            pass
        code = run_unmix(scene_dir, tmp_path / "o", "--denoiser", "cli-raises-value")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "pnpunmix: error [unmixing]: ValueError: plug-in bug\n"

    def test_unwritable_output_is_io_error(self, scene_dir, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory\n")
        code = run_unmix(scene_dir, blocker / "sub", "--denoiser", "identity",
                         "--max-iter", "2")
        assert code == 5
        assert "output writing" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, code, stage", [
        (["--mode", "pro-h", "--denoiser", "nlm", "--rho0", "1e-300", "--lam", "1e300"],
         2, "configuration"),
        (["--mode", "pro-h", "--denoiser", "tv", "--rho0", "1e308", "--lam", "1e308"],
         4, "unmixing"),
        (["--mode", "pro-a", "--denoiser", "tv", "--rho0", "1.5e308", "--lam", "1e308"],
         4, "unmixing"),
        (["--mode", "pro-h", "--denoiser", "nlm", "--lam", "5e-324"], 0, None),
        (["--mode", "pro-h", "--denoiser", "nlm", "--rho0", "1", "--lam", "1e308"], 0, None),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v))
    def test_extreme_schedule_exits_with_one_line(self, tmp_path, capsys, extra, code,
                                                  stage):
        # an 8x8, P=3, 6-band, 10 dB scene; warnings are errors in this suite,
        # so a numpy overflow warning fails the test
        scene = tmp_path / "scene"
        assert main(["synth", "--rows", "8", "--cols", "8", "--endmembers", "3",
                     "--bands", "6", "--snr-db", "10", "--out", str(scene)]) == 0
        capsys.readouterr()
        argv = ["unmix", "--cube", str(scene / "noisy.raw"),
                "--endmembers", str(scene / "endmembers.csv"),
                "--out", str(tmp_path / "o"), *extra]
        assert main(argv) == code
        err = capsys.readouterr().err
        if stage is None:
            assert err == ""
        else:
            assert err.startswith(f"pnpunmix: error [{stage}]: ")
            assert err.count("\n") == 1

    def test_endmembers_too_bright_for_the_a_step_exit_4(self, tmp_path, capsys):
        # the scene's endmember CSV scaled by 1e160: M'M overflows in the
        # least-squares start, which the A-step refuses
        scene = tmp_path / "scene"
        assert main(["synth", "--rows", "8", "--cols", "8", "--endmembers", "3",
                     "--bands", "6", "--snr-db", "10", "--out", str(scene)]) == 0
        capsys.readouterr()
        with open(scene / "endmembers.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        with open(tmp_path / "bright.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([header] + [[repr(float(v) * 1e160) for v in row]
                                                 for row in rows])
        with pytest.warns(UserWarning, match=r"outside \[0, 1\]"):
            code = main(["unmix", "--cube", str(scene / "noisy.raw"),
                         "--endmembers", str(tmp_path / "bright.csv"),
                         "--out", str(tmp_path / "o"), "--mode", "pro-h"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("pnpunmix: error [unmixing]: a-step: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["pro-h", "pro-a"])
    def test_reconstruction_past_float32_exits_2_unwritten(self, tmp_path, capsys, mode):
        # one endmember cell of 1e100 unmixes, but M·A then holds values that
        # float32 cannot store; refused before any artifact is written
        scene = tmp_path / "scene"
        assert main(["synth", "--rows", "8", "--cols", "8", "--endmembers", "3",
                     "--bands", "6", "--snr-db", "10", "--out", str(scene)]) == 0
        capsys.readouterr()
        with open(scene / "endmembers.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        rows[0][0] = "1e100"
        with open(tmp_path / "bright.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        with pytest.warns(UserWarning, match=r"outside \[0, 1\]"):
            code = main(["unmix", "--cube", str(scene / "noisy.raw"),
                         "--endmembers", str(tmp_path / "bright.csv"),
                         "--out", str(tmp_path / "o"), "--mode", mode,
                         "--denoiser", "identity"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pnpunmix: error [evaluation]: reconstruction values "
                              "beyond the float32 range")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()


BUILT_IN_DENOISERS = ("identity", "gaussian", "nlm", "tv")
QP_MISS_SUMMARY = "of the least-squares start missed the inner tolerance"
ENDMEMBER_RANGE = "endmember values fall outside [0, 1]"


@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "scene"
    assert main(["synth", "--rows", "8", "--cols", "8", "--endmembers", "3",
                 "--bands", "6", "--snr-db", "10", "--out", str(out)]) == 0
    return out


def _log_uniform(low, high):
    return st.floats(low, high).map(lambda x: 2.0**x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(["pro-h", "pro-a"]),
    denoiser=st.sampled_from(BUILT_IN_DENOISERS),
    rho0=_log_uniform(-1074.0, 1023.99),
    lam=_log_uniform(-1074.0, 1023.99),
    max_iter=st.integers(1, 5),
)
# tv at sigma = 1e-160, where its dual steps overflow
@example(mode="pro-a", denoiser="tv", rho0=1.0, lam=1e-320, max_iter=1)
def test_any_loop_setting_unmixes_or_exits_with_one_line(tiny_scene, mode, denoiser,
                                                         rho0, lam, max_iter):
    # every setting the command line takes: exit 0, 2 or 4, at most one
    # stderr line naming the stage, and no warning but the QP-miss summary
    out = tiny_scene.parent / "run"
    argv = ["unmix", "--cube", str(tiny_scene / "noisy.raw"),
            "--endmembers", str(tiny_scene / "endmembers.csv"), "--out", str(out),
            "--mode", mode, "--denoiser", denoiser, "--rho0", repr(rho0),
            "--lam", repr(lam), "--max-iter", str(max_iter)]
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 4), err.getvalue()
    for w in caught:
        assert QP_MISS_SUMMARY in str(w.message), str(w.message)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and (code == 0) == (lines == []), lines
    if lines:
        assert lines[0].startswith(("pnpunmix: error [configuration]: ",
                                    "pnpunmix: error [unmixing]: ")), lines[0]
    else:
        estimate = read_abundances(out / "abundances.raw")
        assert estimate.values.min() >= 0.0
        assert np.abs(estimate.values.sum(axis=0) - 1.0).max() <= estimate.asc_tol


@pytest.fixture(scope="module")
def tiny_inputs(tiny_scene):
    # the tiny scene plus an estimate for eval: its fcls abundances
    estimate = fcls(read_endmembers(tiny_scene / "endmembers.csv"),
                    unfold(read_cube(tiny_scene / "noisy.raw")))
    write_abundances(tiny_scene / "estimate.raw", estimate)
    return tiny_scene


_PAYLOADS = ("noisy.raw", "clean.raw", "truth.raw", "estimate.raw")
_SIDECARS = tuple(name.replace(".raw", ".hdr") for name in _PAYLOADS)
_HDR_KEYS = ("channels", "rows", "cols", "dtype", "layout", "endianness", "extra")
_TOKENS = ("1e3", "-3", "0", "1", "8", "64", "2.5", "float64", "big-endian",
           "band-major", "nan", "inf", "-inf", "1e300", "0x10", "abc", "")
_BAD_VALUES = (math.nan, math.inf, -math.inf, 3.4e38, -3.4e38, 1e20, 1e6, -1.0)
_CORRUPTIONS = st.one_of(
    st.tuples(st.sampled_from(_SIDECARS), st.just("line"),
              st.sampled_from(_HDR_KEYS), st.sampled_from(_TOKENS)),
    st.tuples(st.sampled_from(_PAYLOADS), st.sampled_from(["truncate", "extend"]),
              st.integers(1, 40)),
    st.tuples(st.sampled_from(_PAYLOADS), st.just("value"),
              st.integers(0, 10**6), st.sampled_from(_BAD_VALUES)),
    st.tuples(st.just("endmembers.csv"), st.just("cell"),
              st.integers(0, 10**6), st.sampled_from(_TOKENS)),
    st.tuples(st.just("endmembers.csv"), st.just("drop"), st.integers(0, 10**6)),
    st.tuples(st.sampled_from(_PAYLOADS + _SIDECARS + ("endmembers.csv",)),
              st.sampled_from(["empty", "missing"])),
)


def _corrupt(path, how, *args):
    if how == "missing":
        path.unlink()
    elif how == "empty":
        path.write_bytes(b"")
    elif how in ("truncate", "extend"):
        data = path.read_bytes()
        n = args[0]
        path.write_bytes(data[:-n] if how == "truncate" else data + b"\x01" * n)
    elif how == "value":
        payload = np.fromfile(path, dtype="<f4")
        payload[args[0] % payload.size] = args[1]
        payload.tofile(path)
    elif how == "line":
        key, token = args
        lines = [ln for ln in path.read_text().splitlines()
                 if ln.partition("=")[0].strip() != key]
        path.write_text("\n".join(lines + [f"{key} = {token}"]) + "\n")
    else:
        rows = [ln.split(",") for ln in path.read_text().splitlines()]
        if how == "drop":
            del rows[args[0] % len(rows)]
        else:
            row = rows[args[0] % len(rows)]
            row[args[0] // len(rows) % len(row)] = args[1]
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")


_COMMANDS = ("eval",) + tuple(f"unmix {mode} {kind}" for mode in ("pro-h", "pro-a")
                              for kind in ("identity", "gaussian"))
_STAGE_BY_CODE = {
    # evaluation: an endmember cell so bright that M·A leaves the float32 range
    2: ("[input parsing]: ", "[evaluation]: "),
    3: ("[input parsing]: ", "[unmixing]: ", "[evaluation]: "),
    4: ("[unmixing]: a-step",),
}


def _run_on_corrupted(inputs, tmp, command, corruption):
    scene = tmp / "scene"
    shutil.copytree(inputs, scene)
    name, *how = corruption
    _corrupt(scene / name, *how)
    files = {"--endmembers": scene / "endmembers.csv", "--truth": scene / "truth.raw",
             "--clean": scene / "clean.raw"}
    if command == "eval":
        argv = ["eval", "--estimate", scene / "estimate.raw",
                "--observed", scene / "noisy.raw"]
    else:
        _, mode, kind = command.split()
        argv = ["unmix", "--cube", scene / "noisy.raw", "--out", tmp / "out",
                "--mode", mode, "--denoiser", kind, "--max-iter", "3"]
    argv += [x for item in files.items() for x in item]
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(_COMMANDS), corruption=_CORRUPTIONS)
# one hot pixel, far beyond the endmembers' scale (see below)
@example(command="unmix pro-h gaussian", corruption=("noisy.raw", "value", 0, 1e20))
# a reconstruction past the float range: eval reads its error as inf
@example(command="eval", corruption=("endmembers.csv", "cell", 1, "1e300"))
# a reconstruction past the float32 range: unmix refuses to store it
@example(command="unmix pro-a identity", corruption=("endmembers.csv", "cell", 1, "1e100"))
def test_any_corrupted_input_unmixes_or_exits_with_one_line(tiny_inputs, command,
                                                           corruption):
    # one input file of eval or unmix corrupted: a bad sidecar token, a
    # payload off by 1-40 bytes, a non-finite or huge value, a bad CSV cell
    # or row, an empty or a missing file
    with tempfile.TemporaryDirectory() as tmp:
        code, err, caught = _run_on_corrupted(tiny_inputs, Path(tmp), command, corruption)
    # the one warning: spectra outside reflectance, from a corrupted CSV cell
    allowed = [ENDMEMBER_RANGE] if corruption[:2] == ("endmembers.csv", "cell") else []
    assert set(caught) <= set(allowed), caught
    lines = err.splitlines()
    assert len(lines) <= 1 and (code == 0) == (lines == []), (code, lines)
    if lines:
        assert code in _STAGE_BY_CODE, lines[0]
        assert lines[0].startswith(tuple(f"pnpunmix: error {stage}"
                                         for stage in _STAGE_BY_CODE[code])), lines[0]


@pytest.mark.parametrize("mode", ["pro-h", "pro-a"])
def test_one_hot_pixel_unmixes_with_exit_0(tiny_inputs, tmp_path, mode):
    # one payload value of 1e20, far beyond the endmembers' scale: that
    # pixel's face solves lose the sum-to-one row to cancellation, and the
    # A-step moves them back onto it, so the run unmixes without a word
    code, err, caught = _run_on_corrupted(tiny_inputs, tmp_path, f"unmix {mode} nlm",
                                          ("noisy.raw", "value", 0, 1e20))
    assert (code, err, caught) == (0, "", [])


class TestDenoiserNames:
    """A denoiser is its registered name, checked alike at every entry."""

    @staticmethod
    def _entries(scene_dir, tmp_path, kind):
        # the five entries that take a name: (what it returns, or raises; the
        # output path that a refused name must leave unwritten, or None)
        cube = read_cube(scene_dir / "noisy.raw")
        unmix_out, denoise_out = tmp_path / "unmix", tmp_path / "denoised.raw"
        return {
            "PnpConfig": (lambda: PnpConfig("pro-a", kind, 1.0, 1e-3), None),
            "default_config": (lambda: default_config("pro-a", kind), None),
            "denoise": (lambda: denoise(kind, cube, 0.1), None),
            "pnpunmix unmix": (lambda: run_unmix(scene_dir, unmix_out, "--denoiser", kind,
                                                 "--max-iter", "2"), unmix_out),
            "pnpunmix denoise": (lambda: main(["denoise", "--input", str(scene_dir / "noisy.raw"),
                                               "--out", str(denoise_out), "--kind", kind,
                                               "--sigma", "0.1"]), denoise_out),
        }

    def test_an_unknown_name_gets_one_message_at_all_five_entries(
        self, scene_dir, tmp_path, capsys
    ):
        message = f"unknown denoiser 'nosuch'; available: {', '.join(available_denoisers())}"
        for entry, (call, out) in self._entries(scene_dir, tmp_path, "nosuch").items():
            if out is None:
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == message, entry
            else:
                assert call() == 2, entry
                captured = capsys.readouterr()
                assert captured.err == f"pnpunmix: error [configuration]: {message}\n", entry
                assert captured.out == "", entry
                assert not out.exists(), entry
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scene"]

    def test_a_name_registered_after_import_is_accepted_at_all_five_entries(
        self, scene_dir, tmp_path
    ):
        try:
            register_denoiser("late-halver", lambda volume, sigma: volume * 0.5)
        except ValueError:
            pass
        entries = self._entries(scene_dir, tmp_path, "late-halver")
        assert entries["PnpConfig"][0]().denoiser == "late-halver"
        assert entries["default_config"][0]().denoiser == "late-halver"
        npt.assert_array_equal(entries["denoise"][0]().values,
                               read_cube(scene_dir / "noisy.raw").values * 0.5)
        for entry in ("pnpunmix unmix", "pnpunmix denoise"):
            call, out = entries[entry]
            assert call() == 0, entry
            assert out.exists(), entry

    @pytest.mark.parametrize("kind", [None, 3, b"nlm", ["nlm"], {"kind": "nlm"}],
                             ids=["None", "int", "bytes", "list", "dict"])
    def test_a_name_that_is_not_a_string_is_a_value_error(self, scene_dir, tmp_path, kind):
        entries = self._entries(scene_dir, tmp_path, kind)
        for entry in ("PnpConfig", "default_config", "denoise"):
            with pytest.raises(ValueError, match="^unknown denoiser "):
                entries[entry][0]()
