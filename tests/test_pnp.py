"""ADMM loop tests.

The identity-denoiser oracle: with the prior step removed the dual
variable collapses to zero after one iteration and the loop becomes a
proximal-point iteration for the constrained least-squares objective, so
with a small coupling weight the result must match fcls.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pnpunmix import qp
from pnpunmix.cube import PixelMatrix
from pnpunmix.denoise import DenoiserSpec, register_denoiser
from pnpunmix.errors import ComputeError, ShapeError
from pnpunmix.metrics import rmse
from pnpunmix.model import AbundanceMatrix, EndmemberMatrix, add_noise_snr, mix
from pnpunmix.pnp import (
    PRESETS,
    AdmmState,
    IterationRecord,
    PnpConfig,
    default_config,
    primal_residual,
    unmix,
)
from pnpunmix.qp import fcls


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
        denoiser=DenoiserSpec("identity"),
        rho0=1e-3,
        lam=1e-3,
        alpha=1.0,
        max_iter=20,
        stop_tol=1e-12,
        seed=3,
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


def test_rho_schedule_exact():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    cfg = _identity_cfg("pro-a", rho0=0.7, alpha=1.1, max_iter=6)
    _, state = unmix(noisy, em, cfg)
    expected = [0.7 * 1.1**k for k in range(state.iteration)]
    assert [r.rho for r in state.iterations] == expected  # bitwise, not approximately
    assert state.iterations[-1].rho == expected[-1]


def test_constant_rho_at_alpha_one():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    _, state = unmix(noisy, em, _identity_cfg("pro-h", rho0=0.3, max_iter=5))
    assert {r.rho for r in state.iterations} == {0.3}


def test_sigma_trace_follows_schedule():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    cfg = _identity_cfg("pro-a", rho0=2.0, lam=5e-4, alpha=1.2, max_iter=7)
    _, state = unmix(noisy, em, cfg)
    sigmas = [r.sigma for r in state.iterations]
    expected = np.sqrt(cfg.lam / np.asarray([r.rho for r in state.iterations]))
    assert_array_equal(np.asarray(sigmas), expected)
    assert (np.diff(sigmas) <= 0).all()


@pytest.mark.parametrize("mode,channels", [("pro-h", 16), ("pro-a", 3)])
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


def test_rmse_trace_needs_truth():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    _, state = unmix(noisy, em, _identity_cfg("pro-a", max_iter=3))
    assert all(r.rmse is None for r in state.iterations)


def test_same_seed_bitwise_reproducible():
    em, truth, clean, noisy = _scene()
    cfg = PnpConfig(
        mode="pro-a",
        denoiser=DenoiserSpec("nlm", {"search_radius": 3}),
        rho0=1.0,
        lam=1e-3,
        alpha=1.1,
        max_iter=3,
        seed=11,
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
    cfg = _identity_cfg("pro-a", max_iter=4)
    cfg = PnpConfig(**{**cfg.__dict__, "denoiser": DenoiserSpec("probe-feasible")})
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
    cfg = PnpConfig(**{**cfg.__dict__, "denoiser": DenoiserSpec("poison-test")})
    with pytest.raises(ComputeError, match="z-step"):
        unmix(noisy, em, cfg)


def test_plugin_value_error_propagates_unchanged():
    # only non-finite denoiser output is a numerical failure of the z-step
    def broken(volume, sigma):
        raise ValueError("plug-in bug")

    register_denoiser("raises-value-test", broken)
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    cfg = _identity_cfg("pro-h", max_iter=2)
    cfg = PnpConfig(**{**cfg.__dict__, "denoiser": DenoiserSpec("raises-value-test")})
    with pytest.raises(ValueError, match="^plug-in bug$") as caught:
        unmix(noisy, em, cfg)
    assert type(caught.value) is ValueError


def test_shape_mismatch_rejected():
    em, truth, clean, noisy = _scene()
    wrong = PixelMatrix(noisy.values[:-1], noisy.spatial_rows, noisy.spatial_cols)
    with pytest.raises(ShapeError):
        unmix(wrong, em, _identity_cfg("pro-a"))


def test_config_validation():
    den = DenoiserSpec("identity")
    with pytest.raises(ValueError, match="mode"):
        PnpConfig(mode="pro-x", denoiser=den, rho0=1.0, lam=1e-3)
    with pytest.raises(ValueError, match="rho0"):
        PnpConfig(mode="pro-a", denoiser=den, rho0=0.0, lam=1e-3)
    with pytest.raises(ValueError, match="lambda"):
        PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=0.0)
    with pytest.raises(ValueError, match="alpha"):
        PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=1e-3, alpha=0.9)
    with pytest.raises(ValueError, match="max_iter"):
        PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=1e-3, max_iter=0)
    for max_iter in (2.5, "3"):
        with pytest.raises(ValueError, match="max_iter"):
            PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=1e-3, max_iter=max_iter)
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ValueError, match="seed"):
            PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=1e-3, seed=seed)
    assert PnpConfig(mode="pro-a", denoiser=den, rho0=1.0, lam=1e-3, seed=np.int64(7)).seed == 7


def test_sweep_budget_misses_are_counted_and_warned_once(monkeypatch):
    # one active-set sweep leaves the pixels with a pinned variable open
    monkeypatch.setattr(qp, "QP_MAX_SWEEPS", 1)
    em, truth, clean, noisy = _scene()
    with pytest.warns(UserWarning) as record:
        est, state = unmix(noisy, em, _identity_cfg("pro-a", max_iter=5))
    missed = sum(r.qp_unconverged for r in state.iterations)
    assert missed > 0
    assert len(record) == 1
    assert f"{missed} pixel QP solves" in str(record[0].message)
    assert est.values.min() >= 0.0
    assert_allclose(est.values.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_primal_residual_zero_at_consistency():
    em, truth, clean, noisy = _scene(rows=4, cols=4)
    ha = em.values @ truth.values
    state = AdmmState(
        a=truth,
        z=PixelMatrix(ha, 4, 4),
        u=PixelMatrix(np.zeros_like(ha), 4, 4),
        mode="pro-h",
        endmembers=em,
        iterations=(IterationRecord(1.0, 1.0, 0.0, None, 0.0, 0.0, 0),),
    )
    assert primal_residual(state) == 0.0


def test_primal_residual_tiny_at_identity_fixed_point():
    # the do-nothing prior collapses the dual variable, so the final
    # state's splitting gap is numerically zero even while the recorded
    # per-iteration residuals (gap before each Z refresh) decay gradually
    em, truth, clean, noisy = _scene()
    _, state = unmix(noisy, em, _identity_cfg("pro-a", max_iter=6))
    assert primal_residual(state) < 1e-10
    res = np.asarray([r.primal_residual for r in state.iterations])
    assert res[-1] < res[0]


def test_presets_cover_documented_rows():
    assert PRESETS[("pro-h", "nlm", 5)] == (1.0, 3e-3)
    assert PRESETS[("pro-h", "nlm", 20)] == (0.1, 2e-4)
    assert PRESETS[("pro-a", "nlm", 5)] == (3.0, 3e-2)
    assert PRESETS[("pro-a", "nlm", 30)] == (5.0, 1e-4)


def test_default_config_resolution():
    cfg = default_config("pro-h", "nlm", snr_db=5.0)
    assert (cfg.rho0, cfg.lam) == (1.0, 3e-3)
    assert cfg.alpha == 1.1 and cfg.max_iter == 20
    cfg = default_config("pro-a", "nlm", snr_db=10.0)
    assert (cfg.rho0, cfg.lam) == (3.0, 2e-2)
    assert cfg.alpha == 1.1
    # no table row: generic fallback, still overridable
    cfg = default_config("pro-a", "tv", snr_db=20.0, lam=7e-4, seed=9)
    assert cfg.denoiser.kind == "tv"
    assert cfg.lam == 7e-4 and cfg.seed == 9


def test_default_config_infinite_snr_falls_back_nan_rejected():
    cfg = default_config("pro-h", "nlm", snr_db=float("inf"))
    assert (cfg.rho0, cfg.lam) == (1.0, 1e-3)
    with pytest.raises(ValueError, match="snr_db"):
        default_config("pro-h", "nlm", snr_db=float("nan"))
