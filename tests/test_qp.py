"""Simplex QP tests.

Hand-worked oracles (derived before the solver was written):

* Q = I, f = -y: the QP is min ||a - y||^2/2 on the simplex, i.e. Euclidean
  projection of y.  Projections below were computed by hand with the
  sort-and-threshold rule: y already on the simplex stays put,
  y = (0.8, 0.4, -0.2) -> (0.7, 0.3, 0), y = (1.4, 0.2, -0.6) -> (1, 0, 0).
* The brute-force oracle enumerates the simplex on a fixed grid and takes
  the best objective; the solver must never be worse (criterion lives in
  test_acceptance, a small version is exercised here).
"""

import functools
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pnpunmix import qp
from pnpunmix.cube import PixelMatrix, unfold
from pnpunmix.errors import ShapeError
from pnpunmix.model import EndmemberMatrix
from pnpunmix.pnp import default_config, unmix
from pnpunmix.qp import QpProblem, QpSolution, fcls, solve_simplex_qp
from pnpunmix.synth import SceneSpec, make_scene


def _objective(problem, a):
    return 0.5 * a @ problem.q @ a + problem.f @ a


def test_projection_interior_point():
    y = np.array([0.6, 0.3, 0.1])
    sol = solve_simplex_qp(QpProblem(np.eye(3), -y))
    assert_allclose(sol.a, y, rtol=0, atol=1e-12)
    assert sol.converged
    assert sol.kkt_residual <= 1e-9


def test_projection_face_point():
    sol = solve_simplex_qp(QpProblem(np.eye(3), -np.array([0.8, 0.4, -0.2])))
    assert_allclose(sol.a, [0.7, 0.3, 0.0], rtol=0, atol=1e-12)


def test_projection_vertex():
    sol = solve_simplex_qp(QpProblem(np.eye(3), -np.array([1.4, 0.2, -0.6])))
    assert_allclose(sol.a, [1.0, 0.0, 0.0], rtol=0, atol=1e-12)


def test_solution_is_feasible_and_stationary():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = int(rng.integers(2, 7))
        b = rng.standard_normal((p + 2, p))
        q = b.T @ b + 0.05 * np.eye(p)
        f = rng.standard_normal(p)
        sol = solve_simplex_qp(QpProblem(q, f))
        assert sol.converged
        assert sol.a.min() >= 0.0
        assert abs(sol.a.sum() - 1.0) <= 1e-9
        assert sol.kkt_residual <= 1e-9


def test_never_worse_than_coarse_grid():
    # small sibling of the acceptance check: 10 problems, 1e-2 grid
    rng = np.random.default_rng(7)
    step = 100
    ij = [(i, j) for i in range(step + 1) for j in range(step + 1 - i)]
    grid = np.array([[i, j, step - i - j] for i, j in ij], dtype=float).T / step
    for _ in range(10):
        b = rng.standard_normal((3, 3))
        problem = QpProblem(b.T @ b + 0.1 * np.eye(3), rng.standard_normal(3))
        best = (
            0.5 * np.sum(grid * (problem.q @ grid), axis=0) + problem.f @ grid
        ).min()
        sol = solve_simplex_qp(problem)
        assert _objective(problem, sol.a) <= best + 1e-6


def test_objective_trace_monotone(monkeypatch):
    # a sweep budget of k stops right after sweep k, so budgets 0 .. the
    # solve's own sweep count replay the objective after every sweep
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = rng.standard_normal((5, 5))
        problem = QpProblem(b.T @ b + 0.01 * np.eye(5), 3.0 * rng.standard_normal(5))
        sol = solve_simplex_qp(problem)
        trace = []
        for k in range(sol.iterations + 1):
            monkeypatch.setattr(qp, "QP_MAX_SWEEPS", k)
            trace.append(_objective(problem, solve_simplex_qp(problem).a))
        monkeypatch.undo()
        assert trace[-1] == _objective(problem, sol.a)
        assert (np.diff(trace) <= 1e-10).all()


def test_warm_start_never_worse_than_start():
    # the loop warm-starts each A-step at the previous iterate
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 4))
    q, f = b.T @ b + 0.1 * np.eye(4), rng.standard_normal(4)
    problem = QpProblem(q, f)
    start = np.array([0.1, 0.2, 0.3, 0.4])
    a = qp._solve_batch(q, f[:, None], start[:, None])[0][:, 0]
    assert _objective(problem, a) <= _objective(problem, start) + 1e-12
    # warm starting at the solution stays at the solution
    again = qp._solve_batch(q, f[:, None], a[:, None])[0][:, 0]
    assert_allclose(again, a, rtol=0, atol=1e-12)


def test_deterministic_reruns():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((6, 6))
    problem = QpProblem(b.T @ b, rng.standard_normal(6))
    s1 = solve_simplex_qp(problem)
    s2 = solve_simplex_qp(problem)
    assert np.array_equal(s1.a, s2.a)
    assert s1.iterations == s2.iterations


def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    b = rng.standard_normal((4, 4))
    q = b.T @ b + 0.2 * np.eye(4)
    f = rng.standard_normal(4)
    perm = np.array([2, 0, 3, 1])
    sol = solve_simplex_qp(QpProblem(q, f))
    sol_p = solve_simplex_qp(QpProblem(q[np.ix_(perm, perm)], f[perm]))
    assert_allclose(sol_p.a, sol.a[perm], rtol=0, atol=1e-12)


def test_zero_curvature_picks_cheapest_vertex():
    # Q = 0 turns the QP into a linear program; the shifted retry on each
    # singular face must land on the vertex with the smallest cost
    sol = solve_simplex_qp(QpProblem(np.zeros((3, 3)), np.array([0.3, 0.1, 0.5])))
    assert_allclose(sol.a, [0.0, 1.0, 0.0], rtol=0, atol=1e-12)
    assert sol.converged


def test_problem_validation():
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="definite"):
        QpProblem(np.array([[-1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ShapeError):
        QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        QpProblem(np.eye(2), np.array([np.nan, 0.0]))


def test_problem_validation_is_scale_free():
    # the zero eigenvalues of a rank-deficient b'b come out at about
    # +-1e-16 max|q|, so the checks must not read them in absolute units
    rng = np.random.default_rng(32)
    for _ in range(20):
        b = rng.uniform(size=(3, 6))
        f = rng.standard_normal(6)
        ref = solve_simplex_qp(QpProblem(b.T @ b, f))
        for c in (1e-6, 1e3, 1e6):
            sol = solve_simplex_qp(QpProblem(c * (b.T @ b), c * f))
            assert_allclose(sol.a, ref.a, rtol=0, atol=1e-9)
    for c in (1e-6, 1e6):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(c * np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="definite"):
            QpProblem(c * np.array([[-1.0, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_kkt_residual_is_in_the_callers_units():
    # at (2^20 q, 2^20 f) the solver works on the same normalised problem,
    # so it returns the same point, whose residual must scale with the data
    rng = np.random.default_rng(31)
    for _ in range(200):
        b = rng.uniform(size=(3, 6))
        q, f = b.T @ b, rng.standard_normal(6)
        sol = solve_simplex_qp(QpProblem(q, f))
        big = solve_simplex_qp(QpProblem(2.0**20 * q, 2.0**20 * f))
        assert sol.converged and big.converged
        assert_array_equal(big.a, sol.a)
        assert big.kkt_residual == 2.0**20 * sol.kkt_residual


def test_fcls_recovers_noiseless_mixture():
    rng = np.random.default_rng(20)
    em = EndmemberMatrix(rng.uniform(0.05, 0.95, size=(12, 3)))
    truth = rng.dirichlet(np.ones(3), size=40).T
    y = PixelMatrix(em.values @ truth, 5, 8)
    est = fcls(em, y)
    assert_allclose(est.values, truth, rtol=0, atol=1e-8)


def test_fcls_pixel_independence_is_bitwise():
    # solving a pixel alone must give the bit-identical answer it gets
    # inside a batch, whatever the surrounding pixels are
    rng = np.random.default_rng(21)
    em = EndmemberMatrix(rng.uniform(0.05, 0.95, size=(10, 4)))
    truth = rng.dirichlet(np.ones(4) * 0.7, size=30).T
    y = em.values @ truth + 0.01 * rng.standard_normal((10, 30))
    batch = fcls(em, PixelMatrix(y, 5, 6))
    for j in (0, 7, 29):
        alone = fcls(em, PixelMatrix(y[:, j : j + 1], 1, 1))
        assert_array_equal(alone.values[:, 0], batch.values[:, j])


def _noisy_mixtures(rng, bands, count, pixels):
    em = EndmemberMatrix(rng.uniform(0.05, 0.95, size=(bands, count)))
    truth = rng.dirichlet(np.full(count, 0.5), size=pixels).T
    return em, em.values @ truth + 0.02 * rng.standard_normal((bands, pixels))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 20),
    pixels=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_fcls_is_batch_invariant(count, pixels, seed, data):
    # every pixel gets the same bytes alone, in the full batch and in any
    # sub-batch, whatever free-set patterns its neighbours are grouped into
    # and whether the full-face pass or a sweep settles it
    rng = np.random.default_rng(seed)
    em, y = _noisy_mixtures(rng, count + int(rng.integers(0, 8)), count, pixels)
    batch = fcls(em, PixelMatrix(y, 1, pixels)).values
    sub = data.draw(st.lists(st.integers(0, pixels - 1), min_size=1, unique=True))
    assert_array_equal(fcls(em, PixelMatrix(y, 1, pixels)).values, batch)
    part = fcls(em, PixelMatrix(y[:, sub], 1, len(sub))).values
    assert_array_equal(part, batch[:, sub])
    for j in range(pixels):
        alone = fcls(em, PixelMatrix(y[:, j : j + 1], 1, 1)).values
        assert_array_equal(alone[:, 0], batch[:, j])


def _fcls_scaled(m, y, c):
    # scaled endmembers leave [0, 1] and too few bands warn as usual; any
    # other warning, a QP tolerance miss included, fails the caller
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = fcls(EndmemberMatrix(c * m), PixelMatrix(c * y, 1, y.shape[1]))
    expected = ("endmember values fall outside [0, 1]", "fewer bands than endmembers")
    for w in caught:
        assert str(w.message).startswith(expected), str(w.message)
    return est.values


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 10),
    extra=st.integers(-3, 7),
    pixels=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-20, 20),
    log_c=st.floats(-6.0, 6.0),
)
def test_fcls_is_scale_free(count, extra, pixels, seed, k, log_c):
    # the solver normalises Q by a power of two, so scaling the data by one
    # gives the same bytes, and by any other factor the same answer where
    # it is unique
    bands = max(1, count + extra)
    em, y = _noisy_mixtures(np.random.default_rng(seed), bands, count, pixels)
    base = _fcls_scaled(em.values, y, 1.0)
    assert_array_equal(_fcls_scaled(em.values, y, 2.0**k), base)
    other = _fcls_scaled(em.values, y, 10.0**log_c)
    if bands >= count:
        assert_allclose(other, base, rtol=0, atol=1e-9)


def test_rank_deficient_fcls_is_scale_free():
    # four bands, six endmembers: every face with more than four free
    # variables is singular and takes the one shifted retry, whose shift
    # is in normalised units.  The abundances are not unique here (they
    # move by ~5e-6 at 1e-3); the fitted spectra M a are
    em, y = _noisy_mixtures(np.random.default_rng(30), 4, 6, 1024)
    m = em.values
    base = m @ _fcls_scaled(m, y, 1.0)
    assert_allclose(m @ _fcls_scaled(m, y, 1e-3), base, rtol=0, atol=1e-9)


@functools.lru_cache(maxsize=None)
def _hot_pixel_scene(seed):
    # the CLI tests' tiny scene: 8x8 pixels, 3 materials, 6 bands, 10 dB
    scene = make_scene(SceneSpec(rows=8, cols=8, endmembers=3, bands=6, snr_db=10.0,
                                 seed=seed))
    observed = unfold(scene.noisy)
    return scene.endmembers, observed.values, fcls(scene.endmembers, observed).values


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.integers(0, 32),
    band=st.integers(0, 5),
    pixel=st.integers(0, 63),
    seed=st.integers(0, 1),
    mode=st.sampled_from(["pro-h", "pro-a"]),
    kind=st.sampled_from(["nlm", "gaussian", "tv"]),
)
def test_one_hot_value_keeps_every_column_on_the_simplex(k, band, pixel, seed, mode,
                                                         kind):
    # one value of 10^k dwarfs Q in that pixel's QP, and its face solves
    # lose the sum row to cancellation; the guard puts them back on it, so
    # fcls and the loop finish with exact column sums and no warning, and
    # every other pixel keeps its fcls bytes
    em, y, base = _hot_pixel_scene(seed)
    y = y.copy()
    y[band, pixel] = 10.0**k
    observed = PixelMatrix(y, 8, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = fcls(em, observed).values
        loop = unmix(observed, em, default_config(mode, kind, snr_db=10.0))[0].values
    for a in (est, loop):
        assert a.min() >= 0.0
        assert np.abs(a.sum(axis=0) - 1.0).max() <= qp.FACE_SUM_TOL
    others = np.arange(64) != pixel
    assert_array_equal(est[:, others], base[:, others])


def _warm_starts(rng, count, pixels):
    # simplex points with exact zeros, vertices included, clamped and
    # renormalised so each column sums to 1 to within rounding
    w = rng.dirichlet(np.full(count, 0.5), size=pixels).T
    w[rng.random(w.shape) < 0.4] = 0.0
    empty = ~w.any(axis=0)
    w[rng.integers(0, count, size=pixels)[empty], np.flatnonzero(empty)] = 1.0
    w = w / w.sum(axis=0)
    w = np.maximum(w, 0.0)
    return w / w.sum(axis=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    count=st.integers(2, 9),
    bands=st.integers(1, 12),
    pixels=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    log_rho=st.floats(-16.0, 2.0),
    data=st.data(),
)
def test_warm_started_solves_are_batch_invariant(count, bands, pixels, seed, log_rho,
                                                 data):
    # the loop's A-step: Q = M'M + rho I from warm starts on the simplex.
    # With B < P and a tiny rho a face is singular and takes the shifted
    # retry; every column still gets the same bytes (a, sweeps, converged,
    # shifted) alone and in any sub-batch
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 0.95, size=(bands, count))
    q = m.T @ m + 10.0**log_rho * np.eye(count)
    q = (q + q.T) / 2.0
    fs = -(m.T @ rng.uniform(0.0, 1.0, size=(bands, pixels))
           + rng.standard_normal((count, pixels)))
    a0 = _warm_starts(rng, count, pixels)
    batch = qp._solve_batch(q, fs, a0)
    sub = data.draw(st.lists(st.integers(0, pixels - 1), min_size=1, unique=True))
    for got, want in zip(qp._solve_batch(q, fs, a0), batch):
        assert_array_equal(got, want)
    part = qp._solve_batch(q, fs[:, sub], a0[:, sub])  # a, sweeps, converged, shifted
    for got, want in zip(part, batch):
        assert_array_equal(got, want[..., sub])
    for j in range(pixels):
        alone = qp._solve_batch(q, fs[:, j : j + 1], a0[:, j : j + 1])
        for got, want in zip(alone, batch):
            assert_array_equal(got, want[..., j : j + 1])


def test_the_multiplier_check_is_batch_invariant():
    # P=6 from a warm start with five variables free and the sixth pinned at
    # 0, trace(Q)/P near 1 so the solver's scale is 1, and an interior
    # optimum on the five-variable face.  The pinned variable's f entry is
    # stepped one ulp at a time across the point where its multiplier
    # g_6 + nu reads -QP_TOL, so whether it is released turns on the last
    # bit of (Q a)_6.  Only faces where an einsum forms that entry
    # differently for a lone column and a pair can tell
    a0 = np.r_[np.full(5, 0.2), 0.0][:, None]
    for seed in range(8):
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.05, 0.95, size=(8, 6))
        q = b.T @ b + np.eye(6)
        q = (q + q.T) / 2.0 * 2.0 ** -round(np.log2(np.trace(q) / 6))
        f = np.r_[-(q[:5, :5] @ rng.dirichlet(np.ones(5))), 1e3]
        a = qp._solve_batch(q, f[:, None], a0)[0]  # the face optimum: 6 stays pinned
        lone, pair = (np.einsum("ij,jn->in", q, np.repeat(a, n, axis=1))[5, 0]
                      for n in (1, 2))
        if lone == pair:
            continue
        qa = q @ a[:, 0]
        nu = -np.mean(qa[:5] + f[:5])  # on the face, (Qa + f)_i = -nu for each free i
        edge = -qp.QP_TOL - nu - qa[5]
        for k in range(-30, 31):
            f[5] = edge + k * np.spacing(edge)
            alone = qp._solve_batch(q, f[:, None], a0)
            paired = qp._solve_batch(q, np.repeat(f[:, None], 2, axis=1),
                                     np.repeat(a0, 2, axis=1))
            for got, want in zip(alone, paired):  # a, sweeps, converged, shifted
                assert_array_equal(got, want[..., :1])
                assert_array_equal(got, want[..., 1:])


def test_fcls_batch_invariant_past_64_endmembers():
    # 70 free flags per pixel: grouping must not rely on a 64-bit key
    rng = np.random.default_rng(23)
    em, y = _noisy_mixtures(rng, 80, 70, 6)
    batch = fcls(em, PixelMatrix(y, 2, 3)).values
    assert_array_equal(fcls(em, PixelMatrix(y[:, ::-1], 2, 3)).values, batch[:, ::-1])
    for j in (0, 5):
        alone = fcls(em, PixelMatrix(y[:, j : j + 1], 1, 1)).values
        assert_array_equal(alone[:, 0], batch[:, j])


# An ill-conditioned face that is not singular: Q = M'M for 8 bands and 6
# endmembers, columns 0 and 1 of M parallel to 1e-9 relative and column
# brightness spread over 1e6 (Q's eigenvalues over 1e17).  From this warm
# start the pixel passes the pivot cutoff, is never shifted and releases
# and pins variables without moving for the whole sweep budget.
CYCLE_Q = [
    1322086.4506819607, 1354367.0306888488, 3370.24095117175, 1.0202628642008102,
    6.103126337019398, 185.82353727566203, 1354367.0306888488, 1387435.7859660026,
    3452.5300727421827, 1.0451740014406652, 6.252142657330885, 190.36067745972167,
    3370.24095117175, 3452.5300727421827, 10.6524240029331, 0.002659589514422823,
    0.01771228443400771, 0.5279159440452611, 1.0202628642008102, 1.0451740014406652,
    0.002659589514422823, 9.783635690287827e-07, 4.402363319952626e-06,
    0.0001549438069530404, 6.103126337019398, 6.252142657330885,
    0.01771228443400771, 4.402363319952626e-06, 4.292810060396233e-05,
    0.001001769237224238, 185.82353727566203, 190.36067745972167,
    0.5279159440452611, 0.0001549438069530404, 0.001001769237224238,
    0.03553447213351166,
]
CYCLE_F = [
    -515821.0111346443, -1515267.4607620994, 281689.0408072535, 446069.0563706391,
    -299946.2816057418, 2521899.0352724637,
]
CYCLE_A0 = [0.0931668479182257, 0.87200112803512, 0.0, 0.0348320240466542, 0.0, 0.0]
# the last iterate's bytes, recorded with the platform of the digests below
CYCLE_A_SHA = "d178f405f17be808de0c7add988297f282f27e347004ca9b8796bd056965af86"


def test_an_ill_conditioned_face_cycles_for_the_whole_budget():
    # pinned as it stands: no cycle detection, which would change the
    # result; the last iterate stays feasible and keeps its bytes
    q = np.reshape(CYCLE_Q, (6, 6))
    f, a0 = np.array(CYCLE_F)[:, None], np.array(CYCLE_A0)[:, None]
    a, sweeps, converged, shifted = qp._solve_batch(q, f, a0)
    assert sweeps[0] == qp.QP_MAX_SWEEPS
    assert not converged[0] and not shifted[0]
    assert a.min() >= 0.0 and abs(a.sum() - 1.0) <= 1e-12
    assert hashlib.sha256(a.tobytes()).hexdigest() == CYCLE_A_SHA


def test_stacked_faces_hold_one_chunk_at_a_time(monkeypatch):
    # P=40 on 4096 pixels from warm starts: about as many free-set patterns
    # as pixels.  Stacking all of them would hold 4096 padded 41 x 41
    # systems, 55 MB each for the matrices and the factors; in chunks of
    # 2^16 values (512 KiB) the peak is four (P, N) arrays and eight chunks
    rng = np.random.default_rng(40)
    m = rng.uniform(0.05, 0.95, size=(48, 40))
    q, fs = m.T @ m, -(m.T @ rng.uniform(0.0, 1.0, size=(48, 4096)))
    a0 = _warm_starts(rng, 40, 4096)
    monkeypatch.setattr(qp, "_CHUNK_VALUES", 2**16)
    monkeypatch.setattr(qp, "QP_MAX_SWEEPS", 1)
    tracemalloc.start()
    try:
        qp._solve_batch(q, fs, a0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * fs.nbytes + 8 * 8 * 2**16


# Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.  The solver's
# arithmetic is elementwise, so the digests hold wherever its inputs (the
# scene and M'M) reproduce bit for bit; elsewhere the pin does not apply.
P16_INPUT_SHA = "8d23f4faed221c33c1cc7ce66ab39fa1ee5f55c486ee876df7bcec7e760e89bd"
P16_FCLS_SHA = "0794d409527ef98b9969a99fa5c4fae7aaf355bb3d6bfa92817878a69e0b879c"
P16_UNMIX_SHA = "dd5bf9771bbbddfbf2be9b7a35783449f472626089849f6fdba6c2561022e5fc"
P16_COUNTS_SHA = "022175fc87b95565e78412ea5627594e17148d8ed58c249ce3b2e888adaa1b82"
P5_INPUT_SHA = "f374ce478996188ec8595c721c7ee95a476674eb4b2e1b169cea9bc1bcfa8814"
P5_FCLS_SHA = "6eae5bafa6d056c2052472099ce834282c2ff5f5433dedb41ac6d299af89c7a8"
P5_UNMIX_SHA = "d9bb51983884cf653d65f368eb0869db3fbdcf210d70f800da273b2d5c603aa4"
P5_COUNTS_SHA = "28c138dc29d092de77b2db2c970ea06afe12d3a1799666dbffa587cdf6420010"


def _assert_recorded_bytes(monkeypatch, spec, input_sha, fcls_sha, unmix_sha, counts_sha,
                           max_iter):
    # counts_sha pins the sweep counts: fcls's per-pixel (sweeps, converged,
    # shifted) and each loop record's qp_* fields
    scene = make_scene(spec)
    observed = unfold(scene.noisy)
    m = scene.endmembers.values
    inputs = hashlib.sha256(observed.values.tobytes() + (m.T @ m).tobytes()).hexdigest()
    if inputs != input_sha:
        pytest.skip("scene or M'M bytes differ from the platform the digests come from")

    def digest(est):
        return hashlib.sha256(est.values.tobytes()).hexdigest()

    solve, solved = qp._solve_batch, []

    def recording(*args):  # fcls's solve comes first
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(qp, "_solve_batch", recording)
    assert digest(fcls(scene.endmembers, observed)) == fcls_sha
    cfg = default_config("pro-a", "gaussian", snr_db=spec.snr_db, max_iter=max_iter,
                         stop_tol=0.0)
    est, state = unmix(observed, scene.endmembers, cfg)
    assert digest(est) == unmix_sha
    _, sweeps, converged, shifted = solved[0]
    records = [(r.qp_unconverged, r.qp_sweeps_max, r.qp_sweeps_mean, r.qp_shifted)
               for r in state.iterations]
    counts = [sweeps.tobytes(), converged.tobytes(), shifted.tobytes(), repr(records).encode()]
    assert hashlib.sha256(b"".join(counts)).hexdigest() == counts_sha


def test_grouping_keeps_the_recorded_p16_bytes(monkeypatch):
    # 16 endmembers on 32x32 pixels: up to 824 distinct free-set patterns in
    # one sweep and over 7000 pattern groups across an fcls solve
    spec = SceneSpec(rows=32, cols=32, endmembers=16, bands=48, snr_db=10.0)
    _assert_recorded_bytes(monkeypatch, spec, P16_INPUT_SHA, P16_FCLS_SHA, P16_UNMIX_SHA,
                           P16_COUNTS_SHA, 3)


def test_loop_keeps_the_recorded_p5_bytes(monkeypatch):
    # the benchmark's batch-CLI path at small size: pro-a gaussian with
    # warm starts, where most pixels sit on the full face and the rest
    # form mixed free-set groups within one sweep
    spec = SceneSpec(rows=64, cols=64, endmembers=5, bands=32, snr_db=20.0)
    _assert_recorded_bytes(monkeypatch, spec, P5_INPUT_SHA, P5_FCLS_SHA, P5_UNMIX_SHA,
                           P5_COUNTS_SHA, 5)


def test_fcls_underdetermined_warns_but_solves():
    em = EndmemberMatrix(
        np.array([[0.9, 0.1, 0.5], [0.1, 0.9, 0.5]])
    )  # 2 bands, 3 materials
    y = PixelMatrix(np.array([[0.5], [0.5]]), 1, 1)
    with pytest.warns(UserWarning, match="fewer bands"):
        est = fcls(em, y)
    assert abs(est.values[:, 0].sum() - 1.0) <= 1e-9
    assert est.values.min() >= 0.0


def test_fcls_warns_when_the_sweep_budget_runs_out(monkeypatch):
    monkeypatch.setattr(qp, "QP_MAX_SWEEPS", 1)
    scene = make_scene(SceneSpec(rows=8, cols=8, endmembers=3, bands=16, snr_db=10.0))
    with pytest.warns(UserWarning, match="did not reach the QP tolerance"):
        est = fcls(scene.endmembers, unfold(scene.noisy))
    assert est.values.min() >= 0.0
    assert_allclose(est.values.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_solution_type_fields():
    sol = solve_simplex_qp(QpProblem(np.eye(2), np.zeros(2)))
    assert isinstance(sol, QpSolution)
    assert_allclose(sol.a, [0.5, 0.5], rtol=0, atol=1e-15)
    assert sol.iterations >= 1
    assert not sol.shifted
