"""Release gate: one test per acceptance criterion, thresholds pinned.

Every test prints a single pass/fail verdict line on the real stdout
(bypassing pytest's capture) before asserting, so a plain test run
leaves a readable checklist.  Scenes and seeds are frozen; the trend
scene (64x64, 4 materials, 64 bands, seed 0) is shared by criteria
4, 5 and 7 through a module fixture so the expensive runs happen once.
"""

import math
import time

import numpy as np
import pytest

from pnpunmix import (
    AbundanceMatrix,
    PixelMatrix,
    QpProblem,
    SceneSpec,
    add_noise_snr,
    default_config,
    evaluate,
    fcls,
    fold,
    make_scene,
    psnr,
    read_abundances,
    read_cube,
    read_endmembers,
    read_graymap,
    reconstruction_error,
    rmse,
    solve_simplex_qp,
    unfold,
    unmix,
    write_abundances,
    write_cube,
    write_endmembers,
    write_graymap,
)
from pnpunmix.cli import main

TREND_SEED = 0
TREND_SNRS = (5.0, 10.0)
RMSE_GAIN = 0.90          # prior runs must land at <= 90% of baseline rmse
PSNR_GAIN_DB = 0.5
EARLY_RATIO = 1.10
ASC_TOL = 1e-8


def _verdict(capsys, num, name, ok, detail):
    word = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {word} {name}: {detail}"
    # capture is fd-level by default, so suspend it for the checklist line
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _small_scene():
    return make_scene(
        SceneSpec(rows=16, cols=16, endmembers=3, bands=16, snr_db=20.0, seed=0)
    )


@pytest.fixture(scope="module")
def trend_runs():
    """Baseline and both prior modes on the frozen trend scene, per SNR.

    Returns ({snr: (scene, baseline_report, {mode: (report, state, cfg)})},
    wall seconds for everything).
    """
    t0 = time.perf_counter()
    out = {}
    for snr in TREND_SNRS:
        scene = make_scene(
            SceneSpec(
                rows=64, cols=64, endmembers=4, bands=64,
                snr_db=snr, seed=TREND_SEED,
            )
        )
        observed = unfold(scene.noisy)
        clean = unfold(scene.clean)
        base = fcls(scene.endmembers, observed)
        base_report = evaluate(
            scene.endmembers, observed, base, truth=scene.truth, clean=clean
        )
        runs = {}
        for mode in ("pro-h", "pro-a"):
            cfg = default_config(mode, "nlm", snr_db=snr, stop_tol=0.0)
            est, state = unmix(observed, scene.endmembers, cfg, truth=scene.truth)
            report = evaluate(
                scene.endmembers, observed, est, truth=scene.truth, clean=clean
            )
            runs[mode] = (report, state, cfg)
        out[snr] = (scene, base_report, runs)
    return out, time.perf_counter() - t0


def test_criterion_01_noiseless_exact_recovery(capsys):
    t0 = time.perf_counter()
    scene = make_scene(
        SceneSpec(rows=32, cols=32, endmembers=4, bands=32,
                  snr_db=math.inf, seed=0)
    )
    est = fcls(scene.endmembers, unfold(scene.noisy))
    err = rmse(scene.truth, est)
    took = time.perf_counter() - t0
    _verdict(
        capsys,
        1, "noiseless scene recovered exactly",
        err < 1e-6 and took < 5.0,
        f"rmse {err:.3g} (limit 1e-6), {took:.2f}s (limit 5s)",
    )


def test_criterion_02_qp_matches_grid_search(capsys):
    t0 = time.perf_counter()
    # all simplex points with coordinates on a 1e-3 lattice
    n = 1000
    i = np.repeat(np.arange(n + 1), n + 1 - np.arange(n + 1))
    j = np.concatenate([np.arange(n + 1 - v) for v in range(n + 1)])
    grid = np.stack([i, j, n - i - j], axis=1) / float(n)
    rng = np.random.default_rng(np.random.SeedSequence(20260818))
    worst = -math.inf
    for _ in range(100):
        m = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        q = m.T @ m
        f = -m.T @ y
        sol = solve_simplex_qp(QpProblem(q, f))
        obj = 0.5 * sol.a @ q @ sol.a + f @ sol.a
        grid_obj = (0.5 * np.einsum("kp,pq,kq->k", grid, q, grid) + grid @ f).min()
        worst = max(worst, obj - grid_obj)
    took = time.perf_counter() - t0
    _verdict(
        capsys,
        2, "pixel QP never loses to exhaustive grid search",
        worst <= 1e-6 and took < 30.0,
        f"worst objective excess {worst:.3g} over {grid.shape[0]} grid points "
        f"x 100 problems (limit 1e-6), {took:.2f}s (limit 30s)",
    )


def test_criterion_03_identity_prior_reproduces_baseline(capsys):
    t0 = time.perf_counter()
    scene = _small_scene()
    observed = unfold(scene.noisy)
    base = fcls(scene.endmembers, observed)
    gaps = {}
    for mode in ("pro-h", "pro-a"):
        cfg = default_config(
            mode, "identity", snr_db=20.0, rho0=1e-3, stop_tol=0.0
        )
        est, state = unmix(observed, scene.endmembers, cfg)
        assert state.iteration == 20
        gaps[mode] = rmse(base, est)
    took = time.perf_counter() - t0
    _verdict(
        capsys,
        3, "identity prior lands on the least-squares baseline",
        max(gaps.values()) < 1e-6 and took < 10.0,
        f"rmse vs baseline pro-h {gaps['pro-h']:.3g}, pro-a {gaps['pro-a']:.3g} "
        f"(limit 1e-6), {took:.2f}s (limit 10s)",
    )


def test_criterion_04_priors_beat_baseline_rmse(capsys, trend_runs):
    runs, took = trend_runs
    details = []
    ok = took < 180.0
    for snr in TREND_SNRS:
        _, base_report, by_mode = runs[snr]
        for mode in ("pro-h", "pro-a"):
            report = by_mode[mode][0]
            ok = ok and report.rmse <= RMSE_GAIN * base_report.rmse
            details.append(
                f"{mode}@{snr:g}dB {report.rmse:.4f} vs baseline "
                f"{base_report.rmse:.4f}"
            )
    _verdict(
        capsys,
        4, "denoising priors cut rmse by 10%+",
        ok,
        "; ".join(details) + f"; {took:.1f}s (limit 180s)",
    )


def test_criterion_05_psnr_gain_at_heavy_noise(capsys, trend_runs):
    runs, _ = trend_runs
    _, base_report, by_mode = runs[5.0]
    gains = {
        mode: by_mode[mode][0].psnr - base_report.psnr
        for mode in ("pro-h", "pro-a")
    }
    _verdict(
        capsys,
        5, "reconstruction psnr gain at 5 dB",
        min(gains.values()) >= PSNR_GAIN_DB,
        f"pro-h +{gains['pro-h']:.2f} dB, pro-a +{gains['pro-a']:.2f} dB "
        f"(need >= {PSNR_GAIN_DB})",
    )


def test_criterion_06_schedule_and_feasibility(capsys, trend_runs):
    runs, _ = trend_runs
    scene = _small_scene()
    observed = unfold(scene.noisy)

    states = []
    for snr in TREND_SNRS:
        for mode in ("pro-h", "pro-a"):
            _, state, cfg = runs[snr][2][mode]
            states.append((state, cfg))
    # short denoiser-in-the-loop runs whose final iterate IS iterate k of
    # the full run (the loop has no lookahead), so feasibility of every
    # iterate reduces to feasibility of these prefixes
    prefix_estimates = []
    for mode in ("pro-h", "pro-a"):
        for k in (1, 2, 3):
            cfg = default_config(
                mode, "nlm", snr_db=20.0, stop_tol=0.0, max_iter=k
            )
            est, state = unmix(observed, scene.endmembers, cfg)
            states.append((state, cfg))
            prefix_estimates.append(est)

    schedule_ok = True
    for state, cfg in states:
        # scalar expressions, not vectorized power: integer-exponent array
        # power rounds differently in the last ulp
        want_rho = [cfg.rho0] * state.iteration
        want_sigma = [float(np.sqrt(cfg.lam / r)) for r in want_rho]
        schedule_ok = schedule_ok and [r.rho for r in state.iterations] == want_rho
        schedule_ok = schedule_ok and [r.sigma for r in state.iterations] == want_sigma

    finals = [st.a for st, _ in states] + prefix_estimates
    worst_asc = max(abs(a.values.sum(axis=0) - 1.0).max() for a in finals)
    worst_anc = min(a.values.min() for a in finals)
    ok = schedule_ok and worst_asc <= ASC_TOL and worst_anc >= 0.0
    _verdict(
        capsys,
        6, "penalty schedule exact, every iterate feasible",
        ok,
        f"rho/sigma laws bitwise {schedule_ok}, worst sum-to-one gap "
        f"{worst_asc:.3g} (limit 1e-8), min abundance {worst_anc:.3g}",
    )


def test_criterion_07_early_progress(capsys, trend_runs):
    runs, _ = trend_runs
    details = []
    ok = True
    for snr in TREND_SNRS:
        for mode in ("pro-h", "pro-a"):
            state = runs[snr][2][mode][1]
            trace = [r.rmse for r in state.iterations]
            assert None not in trace and len(trace) == 20
            ratio = trace[2] / trace[19]
            ok = ok and ratio <= EARLY_RATIO
            details.append(f"{mode}@{snr:g}dB {ratio:.3f}")
    _verdict(
        capsys,
        7, "iteration 3 already close to iteration 20",
        ok,
        "rmse@3 / rmse@20: " + ", ".join(details) + f" (limit {EARLY_RATIO})",
    )


def test_criterion_08_noise_calibration(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(42))
    clean = PixelMatrix(rng.uniform(0.1, 1.0, size=(50, 64 * 64)), 64, 64)
    offsets = {}
    for snr in (5.0, 10.0, 20.0, 30.0):
        noisy = add_noise_snr(clean, snr, seed=int(snr))
        err = noisy.values - clean.values
        realized = 10.0 * np.log10((clean.values**2).sum() / (err**2).sum())
        offsets[snr] = realized - snr
    worst = max(abs(v) for v in offsets.values())
    _verdict(
        capsys,
        8, "injected noise hits the requested snr",
        worst <= 0.1,
        ", ".join(f"{k:g}dB {v:+.3f}" for k, v in offsets.items())
        + " (limit +/-0.1 dB)",
    )


def test_criterion_09_metric_hand_values(capsys):
    truth = AbundanceMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), 1, 2)
    swapped = AbundanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 2)
    rmse_ok = rmse(truth, swapped) == 1.0

    est = PixelMatrix(np.array([[2.0]]), 1, 1)
    ref = PixelMatrix(np.array([[1.0]]), 1, 1)
    psnr_ok = abs(psnr(est, ref) - 6.020599913279624) <= 1e-12

    obs = PixelMatrix(np.array([[0.0], [0.0]]), 1, 1)
    rec = PixelMatrix(np.array([[0.5], [0.5]]), 1, 1)
    re_ok = reconstruction_error(obs, rec) == 0.5

    _verdict(
        capsys,
        9, "hand-computed metric values match",
        rmse_ok and psnr_ok and re_ok,
        f"rmse-swap {rmse_ok}, psnr 10*log10(4) {psnr_ok}, re-half {re_ok}",
    )


def test_criterion_10_round_trips_and_repeatability(capsys, tmp_path):
    checks = {}

    # container round-trips
    rng = np.random.default_rng(np.random.SeedSequence(7))
    cube = fold(
        PixelMatrix(
            rng.uniform(0.0, 2.0, size=(5, 48)).astype(np.float32).astype(float),
            6, 8,
        )
    )
    write_cube(tmp_path / "c.raw", cube)
    checks["cube"] = np.array_equal(read_cube(tmp_path / "c.raw").values, cube.values)

    scene = _small_scene()
    write_abundances(tmp_path / "a.raw", scene.truth)
    back = read_abundances(tmp_path / "a.raw")
    checks["abundances"] = (
        np.abs(back.values - scene.truth.values).max() <= 1e-6
    )

    write_endmembers(tmp_path / "m.csv", scene.endmembers)
    checks["endmembers"] = (
        np.abs(read_endmembers(tmp_path / "m.csv").values
               - scene.endmembers.values).max() <= 1e-6
    )

    plane = rng.uniform(-0.1, 1.1, size=(9, 7))
    with pytest.warns(UserWarning, match="clamped"):
        write_graymap(tmp_path / "g.pgm", plane)
    want = np.floor(255.0 * np.clip(plane, 0.0, 1.0) + 0.5).astype(np.uint8)
    checks["graymap"] = np.array_equal(read_graymap(tmp_path / "g.pgm"), want)

    # same-seed command runs must leave byte-identical artifacts
    synth = ["synth", "--rows", "12", "--cols", "12", "--endmembers", "3",
             "--bands", "16", "--seed", "11"]
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert main(synth + ["--out", str(s1)]) == 0
    assert main(synth + ["--out", str(s2)]) == 0
    synth_same = all(
        (s1 / name).read_bytes() == (s2 / name).read_bytes()
        for name in ("noisy.raw", "clean.raw", "truth.raw",
                     "endmembers.csv", "scene.cfg")
    )

    unmix_argv = [
        "unmix", "--cube", str(s1 / "noisy.raw"),
        "--endmembers", str(s1 / "endmembers.csv"),
        "--truth", str(s1 / "truth.raw"), "--clean", str(s1 / "clean.raw"),
        "--mode", "pro-a", "--denoiser", "nlm", "--snr-db", "20",
    ]
    u1, u2 = tmp_path / "u1", tmp_path / "u2"
    assert main(unmix_argv + ["--out", str(u1)]) == 0
    assert main(unmix_argv + ["--out", str(u2)]) == 0
    artifacts = ["abundances.raw", "reconstruction.raw", "metrics.json",
                 "trace.csv", "map_0.pgm", "map_1.pgm", "map_2.pgm"]
    unmix_same = all(
        (u1 / name).read_bytes() == (u2 / name).read_bytes()
        for name in artifacts
    )
    checks["same-seed bytes"] = synth_same and unmix_same

    _verdict(
        capsys,
        10, "formats round-trip, reruns byte-identical",
        all(checks.values()),
        ", ".join(f"{k} {v}" for k, v in checks.items()),
    )
