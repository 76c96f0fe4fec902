"""ADMM loop tests.

The identity-denoiser oracle: with the prior step removed the dual
variable collapses to zero after one iteration and the loop becomes a
proximal-point iteration for the constrained least-squares objective, so
with a small coupling weight the result must match fcls.
"""

import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import pnpunmix
from pnpunmix import cube, qp
from pnpunmix.cube import PixelMatrix, fold, unfold
from pnpunmix.denoise import denoise, register_denoiser
from pnpunmix.errors import ComputeError, ShapeError
from pnpunmix.metrics import rmse
from pnpunmix.model import AbundanceMatrix, EndmemberMatrix, add_noise_snr, mix
from pnpunmix.pnp import (
    PRESETS,
    PnpConfig,
    _split_gap,
    _split_operator,
    default_config,
    unmix,
)
from pnpunmix.qp import fcls
from pnpunmix.synth import SceneSpec, make_scene


def _scene(rows=8, cols=8, p=3, bands=16, snr_db=25.0, seed=0):
    rng = np.random.default_rng(seed)
    em = EndmemberMatrix(rng.uniform(0.05, 0.95, size=(bands, p)))
    truth = AbundanceMatrix(rng.dirichlet(np.ones(p), size=rows * cols).T, rows, cols)
    clean = mix(em, truth)
    noisy = add_noise_snr(clean, snr_db, seed=seed + 1)
    return em, truth, clean, noisy


def _identity_cfg(mode, **over):
    base = dict(
        mode=mode,
        denoiser="identity",
        rho0=1e-3,
        lam=1e-3,
        max_iter=20,
        stop_tol=1e-12,
    )
    base.update(over)
    return PnpConfig(**base)


@pytest.mark.parametrize("mode", ["pro-h", "pro-a"])
def test_identity_denoiser_reaches_fcls(mode):
    em, truth, clean, noisy = _scene()
    baseline = fcls(em, noisy)
    est, state = unmix(noisy, em, _identity_cfg(mode))
    assert rmse(baseline, est) < 1e-6
    assert state.iteration <= 20


def _basis(m):
    """The orthonormal U with M = U H that pro-h's coefficients refer to."""
    return m @ np.linalg.inv(_split_operator("pro-h", m))


def _full_band_proh(observed, em, cfg):
    """Pro-h on B-band spectra, H = M: the loop the subspace pro-h replaces."""
    m = em.values
    rows, cols = observed.spatial_rows, observed.spatial_cols
    mtm = m.T @ m
    mty = m.T @ observed.values
    a = qp._solve_batch(mtm, -mty, np.full(mty.shape, 1.0 / em.count))[0]
    ha = m @ a
    u = np.zeros_like(ha)
    rho = cfg.rho0
    for _ in range(cfg.max_iter):
        volume = fold(PixelMatrix(ha + u, rows, cols))
        z = unfold(denoise(cfg.denoiser, volume, math.sqrt(cfg.lam / rho))).values
        u = u + ha - z
        a = qp._solve_batch((1.0 + rho) * mtm, -(mty + rho * m.T @ (z - u)), a)[0]
        ha = m @ a
    return a, z, u


@pytest.mark.parametrize("kind", ["gaussian", "identity"])
def test_subspace_proh_matches_the_full_band_loop(kind):
    # a linear denoiser that treats every band alike keeps the B-band state
    # in span(M), so the P-coefficient loop is the B-band loop up to rounding
    em, truth, clean, noisy = _scene()
    cfg = _identity_cfg("pro-h", denoiser=kind, rho0=0.5, max_iter=8, stop_tol=0.0)
    est, state = unmix(noisy, em, cfg)
    a_ref, z_ref, u_ref = _full_band_proh(noisy, em, cfg)
    basis = _basis(em.values)
    assert state.iteration == 8
    assert_allclose(est.values, a_ref, rtol=0, atol=1e-12)
    assert_allclose(basis @ state.z.values, z_ref, rtol=0, atol=1e-12)
    assert_allclose(basis @ state.u.values, u_ref, rtol=0, atol=1e-12)


def test_subspace_basis_is_orthonormal_and_signed():
    em, truth, clean, noisy = _scene(p=4)
    h = _split_operator("pro-h", em.values)
    assert_allclose(h.T @ h, em.values.T @ em.values, rtol=0, atol=1e-12)
    basis = _basis(em.values)
    assert_allclose(basis.T @ basis, np.eye(4), rtol=0, atol=1e-12)
    peak = np.abs(basis).argmax(axis=0)
    assert (basis[peak, np.arange(4)] > 0.0).all()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    count=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_permuting_endmembers_permutes_abundances(count, seed, data):
    perm = np.asarray(data.draw(st.permutations(range(count))))
    em, truth, clean, noisy = _scene(rows=6, cols=6, p=count, bands=12,
                                     snr_db=10.0, seed=seed)
    swapped = EndmemberMatrix(em.values[:, perm])
    assert_allclose(fcls(swapped, noisy).values, fcls(em, noisy).values[perm],
                    rtol=0, atol=1e-9)
    for mode in ("pro-h", "pro-a"):
        cfg = default_config(mode, "nlm", snr_db=10.0, max_iter=4, stop_tol=0.0)
        est = unmix(noisy, em, cfg)[0].values
        assert_allclose(unmix(noisy, swapped, cfg)[0].values, est[perm],
                        rtol=0, atol=1e-9)


def test_constant_rho_at_alpha_one():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    _, state = unmix(noisy, em, _identity_cfg("pro-h", rho0=0.3, max_iter=5, stop_tol=0.0))
    assert state.iteration == 5
    assert {r.rho for r in state.iterations} == {0.3}


def test_sigma_trace_follows_schedule():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    cfg = _identity_cfg("pro-a", rho0=2.0, lam=5e-4, max_iter=7, stop_tol=0.0)
    _, state = unmix(noisy, em, cfg)
    sigmas = [r.sigma for r in state.iterations]
    expected = np.sqrt(cfg.lam / np.asarray([r.rho for r in state.iterations]))
    assert_array_equal(np.asarray(sigmas), expected)
    assert (np.diff(sigmas) <= 0).all()


# both modes carry one channel per endmember; in pro-h these are the
# coordinates of the spectra in an orthonormal basis of span(M)
@pytest.mark.parametrize("mode,channels", [("pro-h", 3), ("pro-a", 3)])
def test_split_variable_shapes(mode, channels):
    em, truth, clean, noisy = _scene()
    _, state = unmix(noisy, em, _identity_cfg(mode, max_iter=2))
    assert state.z.channels == channels
    assert state.u.channels == channels
    assert state.z.pixels == noisy.pixels


def test_telemetry_lengths_and_stop_rule():
    em, truth, clean, noisy = _scene()
    cfg = _identity_cfg("pro-h", stop_tol=1e-3, max_iter=50)
    _, state = unmix(noisy, em, cfg, truth=truth)
    n = state.iteration
    assert n < 50  # identity denoiser contracts fast at small rho
    residuals = [r.primal_residual for r in state.iterations]
    assert residuals[-1] < 1e-3
    assert (np.asarray(residuals[:-1]) >= 1e-3).all()
    assert all(r.rmse is not None for r in state.iterations)
    assert len(state.a_step_seconds) == len(state.qp_unconverged) == n


def test_records_count_qp_sweeps_and_singular_faces():
    # pro-a's Q = M'M + rho I is positive definite: no face is singular
    # (the acceptance trend scene: 64 x 64, P = 4, 64 bands, 10 dB, seed 0)
    scene = pnpunmix.make_scene(pnpunmix.SceneSpec(
        rows=64, cols=64, endmembers=4, bands=64, snr_db=10.0, seed=0))
    cfg = default_config("pro-a", "nlm", snr_db=10.0, max_iter=4, stop_tol=0.0)
    _, state = unmix(unfold(scene.noisy), scene.endmembers, cfg)
    assert all(r.qp_shifted == 0 and r.qp_sweeps_max >= 1 for r in state.iterations)
    # warm-started pixels mostly finish in one sweep: the mean per pixel
    # sits below the slowest pixel's count
    assert all(1.0 <= r.qp_sweeps_mean < r.qp_sweeps_max for r in state.iterations)
    # pro-h with B = 2 bands and P = 4 endmembers: H'H = M'M has a 2-d null
    # space, which meets the sum-zero plane, so the full face's KKT matrix
    # is singular and its solves take the diagonal shift
    em, truth, clean, noisy = _scene(p=4, bands=2, snr_db=10.0)
    cfg = default_config("pro-h", "nlm", snr_db=10.0, max_iter=4, stop_tol=0.0)
    _, state = unmix(noisy, em, cfg)
    assert all(r.qp_shifted > 0 and r.qp_sweeps_max >= 1 for r in state.iterations)
    assert all(1.0 <= r.qp_sweeps_mean <= r.qp_sweeps_max for r in state.iterations)


@pytest.mark.parametrize("mode", ["pro-h", "pro-a"])
def test_default_stop_rule_waits_for_the_prior(mode):
    # the least-squares start already satisfies the data term, so the first
    # recorded gap must measure the prior's pull, not the start against itself
    em, truth, clean, noisy = _scene(snr_db=10.0)
    cfg = default_config(mode, "nlm", snr_db=10.0, max_iter=3)
    est, state = unmix(noisy, em, cfg)
    assert cfg.stop_tol > 0.0
    assert state.iteration == 3
    assert state.iterations[0].primal_residual > cfg.stop_tol
    assert rmse(fcls(em, noisy), est) > 1e-3


def test_rmse_trace_needs_truth():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    _, state = unmix(noisy, em, _identity_cfg("pro-a", max_iter=3))
    assert all(r.rmse is None for r in state.iterations)


def test_same_seed_bitwise_reproducible():
    em, truth, clean, noisy = _scene()
    cfg = PnpConfig(
        mode="pro-a",
        denoiser="nlm",
        rho0=1.0,
        lam=1e-3,
        max_iter=3,
    )
    a1, s1 = unmix(noisy, em, cfg)
    a2, s2 = unmix(noisy, em, cfg)
    assert_array_equal(a1.values, a2.values)
    assert ([r.primal_residual for r in s1.iterations]
            == [r.primal_residual for r in s2.iterations])


def test_abundances_feasible_every_iteration():
    seen = []

    def probe(volume, sigma):
        seen.append(volume.copy())
        return volume

    register_denoiser("probe-feasible", probe)
    em, truth, clean, noisy = _scene()
    cfg = _identity_cfg("pro-a", max_iter=4, stop_tol=0.0)
    cfg = PnpConfig(**{**cfg.__dict__, "denoiser": "probe-feasible"})
    unmix(noisy, em, cfg)
    # pro-a: the denoiser sees folded abundance-plus-dual planes, one per
    # endmember; the abundance part entered feasible (checked in-loop),
    # here we confirm the volumes have the endmember channel count
    assert len(seen) == 4
    assert all(v.shape == (3, 8, 8) for v in seen)


def test_nan_from_denoiser_names_the_step():
    register_denoiser("poison-test", lambda v, s: v * np.nan)
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    cfg = _identity_cfg("pro-h", max_iter=2)
    cfg = PnpConfig(**{**cfg.__dict__, "denoiser": "poison-test"})
    with pytest.raises(ComputeError, match="z-step"):
        unmix(noisy, em, cfg)


def test_plugin_value_error_propagates_unchanged():
    # only non-finite denoiser output is a numerical failure of the z-step
    def broken(volume, sigma):
        raise ValueError("plug-in bug")

    register_denoiser("raises-value-test", broken)
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    cfg = _identity_cfg("pro-h", max_iter=2)
    cfg = PnpConfig(**{**cfg.__dict__, "denoiser": "raises-value-test"})
    with pytest.raises(ValueError, match="^plug-in bug$") as caught:
        unmix(noisy, em, cfg)
    assert type(caught.value) is ValueError


def test_shape_mismatch_rejected():
    em, truth, clean, noisy = _scene()
    wrong = PixelMatrix(noisy.values[:-1], noisy.spatial_rows, noisy.spatial_cols)
    with pytest.raises(ShapeError):
        unmix(wrong, em, _identity_cfg("pro-a"))


@pytest.mark.parametrize("grid", [(3, 4, 4), (3, 4, 16), (3, 16, 4), (2, 8, 8)])
def test_truth_off_the_data_grid_is_rejected_before_the_first_iteration(grid):
    # (3, 4, 4) has the wrong pixel count; (3, 4, 16) and (3, 16, 4) hold
    # the 64 pixels of the 3x8x8 data on another grid, which used to run
    # silently; (2, 8, 8) has the wrong endmember count
    calls = []
    kind = "count-truth-{}x{}x{}".format(*grid)
    register_denoiser(kind, lambda v, s: calls.append(1) or v.copy())
    em, truth, clean, noisy = _scene()
    p, rows, cols = grid
    wrong = AbundanceMatrix(np.full((p, rows * cols), 1.0 / p), rows, cols)
    cfg = PnpConfig(**{**_identity_cfg("pro-a").__dict__, "denoiser": kind})
    with pytest.raises(ShapeError, match=rf"\({p}, {rows}, {cols}\) vs data \(3, 8, 8\)"):
        unmix(noisy, em, cfg, truth=wrong)
    assert calls == []


def test_plugin_gets_read_only_c_ordered_planes_in_pixel_order():
    # a non-square scene: the built-in filters treat rows and columns
    # alike, so only a recording plug-in can tell a transposed layout
    seen = []

    def record(volume, sigma):
        seen.append(volume)
        return volume.copy()

    register_denoiser("record-planes", record)
    scene = make_scene(SceneSpec(rows=8, cols=13, endmembers=3, bands=16))
    noisy = unfold(scene.noisy)
    cfg = PnpConfig(mode="pro-a", denoiser="record-planes",
                    rho0=1.0, lam=1e-3, max_iter=3, stop_tol=0.0)
    unmix(noisy, scene.endmembers, cfg)
    assert len(seen) == 3
    for volume in seen:
        assert type(volume) is np.ndarray
        assert volume.shape == (3, 8, 13)
        assert volume.dtype == np.float64
        assert volume.flags.c_contiguous
        assert not volume.flags.writeable
    start = fcls(scene.endmembers, noisy)
    assert seen[0].tobytes() == fold(start).values.tobytes()
    # plane[:, row, col] is pixel col * rows + row
    pixel = np.arange(13)[None, :] * 8 + np.arange(8)[:, None]
    assert seen[0].tobytes() == start.values[:, pixel].tobytes()


@pytest.mark.parametrize("mode", ["pro-a", "pro-h"])
def test_containers_per_unmix_do_not_grow_with_the_budget(mode, monkeypatch):
    counts = {"arrays": 0, "abundances": 0}
    as_readonly = cube._as_readonly_f64
    post_init = AbundanceMatrix.__post_init__

    def count_arrays(*args, **kwargs):
        counts["arrays"] += 1
        return as_readonly(*args, **kwargs)

    def count_abundances(self):
        counts["abundances"] += 1
        post_init(self)

    monkeypatch.setattr(cube, "_as_readonly_f64", count_arrays)
    monkeypatch.setattr(AbundanceMatrix, "__post_init__", count_abundances)
    em, truth, clean, noisy = _scene()
    per_budget = []
    for max_iter in (1, 5):
        counts.update(arrays=0, abundances=0)
        cfg = PnpConfig(mode=mode, denoiser="gaussian", rho0=1.0,
                        lam=1e-3, max_iter=max_iter, stop_tol=0.0)
        _, state = unmix(noisy, em, cfg, truth=truth)
        assert len(state.iterations) == max_iter
        per_budget.append(dict(counts))
    assert per_budget[0] == per_budget[1]


def test_config_validation():
    den = "identity"
    with pytest.raises(ValueError, match="mode"):
        PnpConfig(mode="pro-x", denoiser=den, rho0=1.0, lam=1e-3)
    with pytest.raises(ValueError, match="rho0"):
        PnpConfig(mode="pro-a", denoiser=den, rho0=0.0, lam=1e-3)
    with pytest.raises(ValueError, match="lambda"):
        PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=1e-3, max_iter=0)
    for max_iter in (2.5, "3"):
        with pytest.raises(ValueError, match="max_iter"):
            PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=1e-3, max_iter=max_iter)


_CFG = dict(mode="pro-a", denoiser="nlm", rho0=1.0, lam=1e-3)


@pytest.mark.parametrize("build, kwargs, match", [
    (PnpConfig, {**_CFG, "rho0": "1.0"}, "rho0"),
    (PnpConfig, {**_CFG, "rho0": 1 + 0j}, "rho0"),
    (PnpConfig, {**_CFG, "lam": None}, "lambda"),
    (PnpConfig, {**_CFG, "stop_tol": None}, "stop_tol"),
    # float() of either raises OverflowError; the message names that setting
    (PnpConfig, {**_CFG, "lam": 10**400}, "^lambda must be"),
    (PnpConfig, {**_CFG, "rho0": 10**400}, "^rho0 must be"),
    (PnpConfig, {**_CFG, "mode": ["pro-a"]}, "mode"),
    (default_config, dict(mode=["pro-a"], denoiser_kind="nlm"), "mode"),
    (default_config, dict(mode="pro-a", denoiser_kind="nlm", snr_db="10"), "snr_db"),
    (default_config, dict(mode="pro-a", denoiser_kind="nlm", snr_db=None), "snr_db"),
], ids=["rho0 str", "rho0 complex", "lam None", "stop_tol None", "lam beyond floats",
        "rho0 beyond floats", "mode list", "default_config mode list", "snr_db str",
        "snr_db None"])
def test_a_setting_of_the_wrong_type_is_its_own_value_error(build, kwargs, match):
    with pytest.raises(ValueError, match=match):
        build(**kwargs)


@pytest.mark.parametrize("settings, match", [
    (dict(rho0=1e-300, lam=1e300), r"sigma = sqrt\(lambda / rho0\)"),
    (dict(rho0=1e300, lam=1e-300), r"sigma = sqrt\(lambda / rho0\)"),
], ids=["sigma_0 inf", "sigma_0 zero"])
def test_config_refuses_a_schedule_the_loop_cannot_run(settings, match):
    with pytest.raises(ValueError, match=match):
        PnpConfig(**{"mode": "pro-a", "denoiser": "identity", "rho0": 1.0,
                     "lam": 1e-3, **settings})


@pytest.mark.parametrize("settings", [
    dict(lam=5e-324),
    dict(lam=1e308),
    dict(max_iter=10**400),
], ids=["lam subnormal", "lam huge", "max_iter beyond floats"])
def test_config_accepts_extreme_but_runnable_schedules(settings):
    cfg = PnpConfig(**{"mode": "pro-a", "denoiser": "identity",
                       "rho0": 1.0, "lam": 1e-3, **settings})
    sigma = math.sqrt(cfg.lam / cfg.rho0)
    assert 0.0 < cfg.rho0 < math.inf and 0.0 < sigma < math.inf


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    max_iter=st.integers(1, 5),
    rho_edge=st.booleans(),
    edge=st.floats(-1e-12, 1e-12),
    lam_kind=st.sampled_from(["subnormal sigma^2", "free"]),
    scale=st.floats(0.25, 4.0),
)
def test_config_accepts_exactly_the_schedules_the_loop_can_run(max_iter, rho_edge, edge,
                                                               lam_kind, scale):
    # settings at the float edges: rho0 within 1e-12 of the largest float,
    # or lambda / rho0 within a few steps of the smallest subnormal, where
    # rounding decides; PnpConfig must take exactly those whose (rho, sigma)
    # the loop computes finite and positive, whatever the budget
    big = sys.float_info.max
    if rho_edge:
        rho0 = big * (1.0 + edge)
    else:
        rho0 = 2.0 ** (60 + 900 * abs(edge) * 1e12)  # lambda below stays normal
    if lam_kind == "subnormal sigma^2":
        lam = min(rho0, big) * scale * math.ulp(0.0)
    else:
        lam = 2.0 ** (1000 * (scale - 2.125) / 1.875)
    knobs = dict(rho0=rho0, lam=lam)
    expect = (math.isfinite(rho0) and lam > 0
              and 0.0 < math.sqrt(float(lam) / float(rho0)) < math.inf)
    try:
        PnpConfig(mode="pro-a", denoiser="identity", max_iter=max_iter, **knobs)
    except ValueError:
        assert not expect, knobs
    else:
        assert expect, knobs


def test_sweep_budget_misses_are_counted_and_warned_once(monkeypatch):
    # one active-set sweep leaves the pixels with a pinned variable open
    monkeypatch.setattr(qp, "QP_MAX_SWEEPS", 1)
    em, truth, clean, noisy = _scene()
    with pytest.warns(UserWarning) as record:
        est, state = unmix(noisy, em, _identity_cfg(
            "pro-a", denoiser="gaussian", rho0=1.0, max_iter=5
        ))
    missed = sum(r.qp_unconverged for r in state.iterations)
    assert missed > 0
    assert len(record) == 1
    assert f"{missed} pixel QP solves" in str(record[0].message)
    assert est.values.min() >= 0.0
    assert_allclose(est.values.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_start_misses_are_counted_in_the_warning(monkeypatch):
    # the identity prior leaves the least-squares start in place, so with
    # one sweep per solve only the start misses, as many pixels as fcls
    monkeypatch.setattr(qp, "QP_MAX_SWEEPS", 1)
    em, truth, clean, noisy = _scene()
    with pytest.warns(UserWarning, match=r"^(\d+) of 64 pixels") as fcls_record:
        fcls(em, noisy)
    start_missed = int(str(fcls_record[0].message).split()[0])
    assert start_missed > 0
    with pytest.warns(UserWarning) as record:
        _, state = unmix(noisy, em, _identity_cfg("pro-a", max_iter=3, stop_tol=0.0))
    assert sum(r.qp_unconverged for r in state.iterations) == 0
    assert len(record) == 1
    assert (f"0 pixel QP solves (summed over iterations) and {start_missed} "
            "of the least-squares start") in str(record[0].message)


def test_primal_residual_zero_at_consistency():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    # z = H a formed as the loop forms it, so the gap is exactly zero
    h = _split_operator("pro-h", em.values)
    z = np.einsum("ij,jn->in", h, truth.values)
    ha, gap = _split_gap(h, truth.values, z)
    assert_array_equal(ha, z)
    assert gap == 0.0


def test_primal_residual_tiny_at_identity_fixed_point():
    # the do-nothing prior collapses the dual variable, so the final
    # state's splitting gap is numerically zero; the least-squares start
    # is already its fixed point, so the recorded per-iteration residuals
    # (gap before each Z refresh) start at rounding level and fall to zero
    em, truth, clean, noisy = _scene()
    _, state = unmix(noisy, em, _identity_cfg("pro-a", max_iter=6, stop_tol=0.0))
    assert state.iteration == 6
    assert state.iterations[-1].primal_residual < 1e-10
    res = np.asarray([r.primal_residual for r in state.iterations])
    assert res[0] < 1e-12
    assert res[-1] < res[0]


# unmix a 64 x 64 scene, P = 4, three iterations each of pro-h nlm and
# pro-a gaussian; print the estimate digest and every recorded residual
_THREAD_PROBE = """
import hashlib, json
import pnpunmix
scene = pnpunmix.make_scene(pnpunmix.SceneSpec(
    rows=64, cols=64, endmembers=4, bands=32, snr_db=10.0, seed=0))
observed = pnpunmix.unfold(scene.noisy)
out = {}
for mode, kind in (("pro-h", "nlm"), ("pro-a", "gaussian")):
    cfg = pnpunmix.default_config(mode, kind, snr_db=10.0, max_iter=3, stop_tol=0.0)
    est, state = pnpunmix.unmix(observed, scene.endmembers, cfg)
    out[mode] = [hashlib.sha256(est.values.tobytes()).hexdigest(),
                 [r.primal_residual.hex() for r in state.iterations]]
print(json.dumps(out))
"""


def _thread_probe(**env) -> dict:
    src = str(Path(pnpunmix.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env={**base, **env},
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_results_do_not_depend_on_the_blas_thread_count():
    one = _thread_probe(OPENBLAS_NUM_THREADS="1")
    default = _thread_probe()
    assert one == default
    assert len(one["pro-h"][1]) == len(one["pro-a"][1]) == 3


def test_presets_cover_documented_rows():
    assert PRESETS[("pro-h", "nlm", 5)] == (2.0, 1.2e-2)
    assert PRESETS[("pro-h", "nlm", 20)] == (0.2, 8e-4)
    assert PRESETS[("pro-h", "nlm", 30)] == (0.02, 4e-4)
    assert PRESETS[("pro-a", "nlm", 5)] == (6.0, 6e-2)
    assert PRESETS[("pro-a", "nlm", 30)] == (10.0, 2e-4)


def test_default_config_resolution():
    cfg = default_config("pro-h", "nlm", snr_db=5.0)
    assert (cfg.rho0, cfg.lam) == (2.0, 1.2e-2)
    assert cfg.max_iter == 20
    cfg = default_config("pro-a", "nlm", snr_db=10.0)
    assert (cfg.rho0, cfg.lam) == (6.0, 4e-2)
    # no table row: generic fallback, still overridable
    cfg = default_config("pro-a", "tv", snr_db=20.0, lam=7e-4, max_iter=7)
    assert cfg.denoiser == "tv"
    assert cfg.lam == 7e-4 and cfg.max_iter == 7


def test_default_config_infinite_snr_falls_back_nan_rejected():
    cfg = default_config("pro-h", "nlm", snr_db=float("inf"))
    assert (cfg.rho0, cfg.lam) == (1.0, 1e-3)
    with pytest.raises(ValueError, match="snr_db"):
        default_config("pro-h", "nlm", snr_db=float("nan"))


@functools.cache
def _scale_scene():
    # an 8x8, P=3, 6-band, 10 dB scene and its fcls bytes at c = 1
    scene = make_scene(SceneSpec(rows=8, cols=8, endmembers=3, bands=6, snr_db=10.0))
    m, y = scene.endmembers.values, unfold(scene.noisy).values
    return m, y, fcls(scene.endmembers, unfold(scene.noisy)).values


SOLVERS = ["fcls"] + [f"{mode} {kind}" for mode in ("pro-h", "pro-a")
                      for kind in ("nlm", "tv", "gaussian")]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=st.integers(-1074, 1023), solver=st.sampled_from(SOLVERS))
@example(k=-1074, solver="fcls")
@example(k=-530, solver="fcls")
@example(k=509, solver="pro-h gaussian")
@example(k=512, solver="pro-h nlm")
@example(k=1023, solver="pro-a tv")
def test_a_step_contract_holds_at_every_data_scale(k, solver):
    # M and Y scaled by c = 2^k: the containers refuse the data, the A-step
    # refuses its QP with a ComputeError naming it, or the abundances are on
    # the simplex.  fcls keeps the c = 1 bytes until M'M goes subnormal
    # (about 2^-1020, so k < -510)
    m, y, base = _scale_scene()
    with np.errstate(over="ignore", under="ignore"):
        cm, cy = 2.0**k * m, 2.0**k * y

    def outcome():
        try:
            em, observed = EndmemberMatrix(cm), PixelMatrix(cy, 8, 8)
        except ValueError:
            return None
        try:
            if solver == "fcls":
                return fcls(em, observed)
            mode, kind = solver.split()
            return unmix(observed, em, default_config(mode, kind, max_iter=3))[0]
        except ComputeError as exc:
            assert str(exc).startswith("a-step"), str(exc)
            return None

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = outcome()
    for w in caught:
        assert str(w.message) == "endmember values fall outside [0, 1]", str(w.message)
    if est is not None:
        assert est.values.min() >= 0.0
        assert np.abs(est.values.sum(axis=0) - 1.0).max() <= 1e-8
        if solver == "fcls" and abs(k) <= 500:
            assert_array_equal(est.values, base)


def _scaled_run(solver, k, law=True):
    # M and Y scaled by c = 2^k; under the scaling law lambda goes with c^2,
    # and rho0 too in pro-a (in pro-h, H = S V' already carries c)
    m, y, _ = _scale_scene()
    c = 2.0**k
    mode, kind = solver.split()
    cfg = default_config(mode, kind, max_iter=3)
    if law:
        rho0 = cfg.rho0 * c * c if mode == "pro-a" else cfg.rho0
        cfg = default_config(mode, kind, max_iter=3, lam=cfg.lam * c * c, rho0=rho0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "endmember values fall outside")
        est, state = unmix(PixelMatrix(c * y, 8, 8), EndmemberMatrix(c * m), cfg)
    return est.values, [r.primal_residual for r in state.iterations]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(-456, 456), solver=st.sampled_from(SOLVERS[1:]))
# the stop rule's old 1e-12 floor on ||Z||_F stopped these after one
# iteration (-60) or changed their gaps (-44)
@example(k=-60, solver="pro-h gaussian")
@example(k=-44, solver="pro-h nlm")
def test_stop_rule_gives_the_c1_run_under_the_scaling_law(k, solver):
    # the default stop_tol decides here; the relative gap is a ratio of
    # norms that scale alike, so every record and abundance keeps its bits
    est, gaps = _scaled_run(solver, k)
    base_est, base_gaps = _scaled_run(solver, 0)
    assert gaps == base_gaps
    assert_array_equal(est, base_est)


@pytest.mark.parametrize("k", [509, 510])
def test_stop_rule_survives_an_overflowing_norm(k):
    # pro-h gaussian at c = 2^509 with the default settings: ||Z||^2
    # overflows, which read as a zero gap and stopped after one iteration
    _, gaps = _scaled_run("pro-h gaussian", k, law=False)
    _, base_gaps = _scaled_run("pro-h gaussian", 0)
    assert len(gaps) == len(base_gaps) == 3
    assert_allclose(gaps, base_gaps, rtol=1e-12)


def test_split_gap_reads_zero_over_zero_as_zero_and_x_over_zero_as_inf():
    h = np.eye(2)
    a = np.array([[0.5], [0.5]])
    assert _split_gap(h, np.zeros_like(a), np.zeros_like(a))[1] == 0.0
    assert _split_gap(h, a, np.zeros_like(a))[1] == math.inf
