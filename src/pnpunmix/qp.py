"""Per-pixel quadratic programs on the unit simplex.

The data-fit step of the unmixing loop decouples into one small strictly
convex QP per pixel,

    min_a  a' Q a / 2 + f' a    s.t.  a >= 0,  sum(a) = 1,

solved with a primal active-set method: on the current free face the
equality-constrained optimum comes from a bordered KKT system; a blocking
ratio test pins variables that would go negative, and a multiplier check
releases the most negative active constraint (lowest index on ties).

Q and every f are first multiplied by the power of two nearest
P / trace(Q).  That is exact, so the caller's problem is unchanged while
QP_TOL, the LU pivot cutoff and FACE_SHIFT measure against the problem's
own scale: data in any units takes the same sweeps, and data scaled by a
power of two gives the same bytes.  A singular face (rank-deficient Q) is
retried once with FACE_SHIFT on its diagonal block, which is then
positive definite for a PSD Q, so the retry always solves.  The batch
solver alone checks each A-step (fcls, the loop's start, every loop
iteration): a Q, trace(Q) or normalised f that is not finite, a
trace(Q)/P too small for a finite power-of-two scale, and a non-finite
or infeasible result raise ComputeError naming the a-step.

Each sweep groups the open pixels by free-set pattern with one stable
lexsort of their free flags packed by np.packbits (ceil(P/8) bytes, so
any P; ascending pixels within a group) and factors once per pattern.  A
face with every variable free pins no multiplier, so its feasible optima
skip the multiplier check.  Substitution runs in place, elementwise across
columns, and the pivot order depends only on the matrix, so every pixel's
arithmetic is bit-identical alone or in any batch; LAPACK's multi-RHS
solve is not, hence the small LU below.  Subproblem vectors use einsum for
the same reason: BLAS matmul results depend on the batch width at the last
ulp.  KKT residuals are computed only for single-pixel solves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cube import PixelMatrix, _as_readonly_f64
from .errors import ComputeError, ShapeError
from .model import ANC_CLAMP, ASC_TOL, AbundanceMatrix, EndmemberMatrix

__all__ = ["QpProblem", "QpSolution", "solve_simplex_qp", "fcls"]

# QpProblem's asymmetry and eigenvalue limits, relative to max|q|
SYM_TOL = 1e-10
EIG_TOL = -1e-10
# KKT residual target and active-set sweep budget of every solve, the
# diagonal shift of a singular face, and the most a face optimum's sum may
# miss 1; fixed settings of the exact A-step, read at call time
QP_TOL = 1e-9
QP_MAX_SWEEPS = 200
FACE_SHIFT = 1e-10
FACE_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QpProblem:
    """One pixel's QP data: symmetric PSD matrix q and linear term f.

    Construction symmetrizes q after checking the asymmetry is within
    1e-10 * max|q| and rejects matrices with an eigenvalue below
    -1e-10 * max|q|, so the checks accept q and c * q alike.
    """

    q: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        q = _as_readonly_f64(self.q, "q", 2)
        f = _as_readonly_f64(self.f, "f", 1)
        if q.shape[0] != q.shape[1]:
            raise ShapeError(f"q must be square, got shape {q.shape}")
        p = q.shape[0]
        if p < 1:
            raise ShapeError("empty problem")
        if f.shape != (p,):
            raise ShapeError(f"f must have shape ({p},), got {f.shape}")
        qmax = float(np.abs(q).max())
        if np.abs(q - q.T).max() > SYM_TOL * qmax:
            raise ValueError(f"q must be symmetric within {SYM_TOL:g} * max|q|")
        q = (q + q.T) / 2.0
        if np.linalg.eigvalsh(q)[0] < EIG_TOL * qmax:
            raise ValueError(
                "q must be positive semidefinite "
                f"(eigenvalue below {EIG_TOL:g} * max|q| found)"
            )
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "f", f)

    @property
    def size(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Solver output for one pixel.

    ``kkt_residual`` is recomputed from scratch at the returned point:
    the max of the stationarity defect on the positive support and the
    multiplier violation on the zero set.  ``shifted`` notes that a
    singular face was solved with FACE_SHIFT on its diagonal.
    """

    a: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool
    shifted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", _as_readonly_f64(self.a, "a", 1))


def _lu_solve_cols(kmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve kmat @ x = rhs for many columns with partial-pivot LU, in place.

    kmat is factored before rhs is touched, so a (near-)zero pivot raises
    LinAlgError with rhs intact; otherwise rhs is overwritten with x.
    Pivots depend only on kmat and every update is elementwise across
    columns, so column j's result is bit-identical to solving it alone.
    """
    u = np.array(kmat, dtype=np.float64)
    n = u.shape[0]
    cutoff = 1e-13 * max(float(np.abs(u).max()), 1.0)
    steps = []
    for k in range(n):
        p = k + int(np.abs(u[k:, k]).argmax())
        if abs(u[p, k]) <= cutoff:
            raise np.linalg.LinAlgError("singular KKT pivot")
        if p != k:
            u[[k, p]] = u[[p, k]]
        mult = u[k + 1 :, k] / u[k, k]
        u[k + 1 :, k + 1 :] -= mult[:, None] * u[k, k + 1 :]
        steps.append((p, mult))
    x, tmp = rhs, np.empty_like(rhs)
    for k, (p, mult) in enumerate(steps):
        if p != k:
            x[[k, p]] = x[[p, k]]
        np.multiply(mult[:, None], x[k], out=tmp[k + 1 :])
        np.subtract(x[k + 1 :], tmp[k + 1 :], out=x[k + 1 :])
    for k in range(n - 1, -1, -1):
        np.multiply(u[k, k + 1 :, None], x[k + 1 :], out=tmp[k + 1 :])
        for j in range(k + 1, n):
            np.subtract(x[k], tmp[j], out=x[k])
        np.divide(x[k], u[k, k], out=x[k])
    return x


def _kkt_residuals(q: np.ndarray, fs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Stationarity + multiplier defect at a, measured on the support of a."""
    g = np.einsum("ij,jn->in", q, a) + fs
    support = a > 0.0
    nu = np.where(support, g, 0.0).sum(axis=0) / support.sum(axis=0)
    stat = np.abs(np.where(support, g - nu, 0.0)).max(axis=0)
    dual = np.where(support, -np.inf, nu - g).max(axis=0, initial=-np.inf)
    return np.maximum(stat, np.maximum(dual, 0.0))


def _solve_batch(q: np.ndarray, fs: np.ndarray, a0: np.ndarray):
    """Active-set solve of min a'Qa/2 + f'a on the simplex, one f per column.

    Returns (a, iterations, converged, shifted).
    All intermediate iterates are feasible; a is returned even for columns
    that hit the QP_MAX_SWEEPS budget, flagged in `converged`.
    """
    p, n = fs.shape
    with np.errstate(over="ignore", invalid="ignore"):
        tr = float(np.trace(q))
        # log2(tr) - log2(p), since tr / p itself can underflow
        e = -round(math.log2(tr) - math.log2(p)) if 0.0 < tr < math.inf else 0
        if e > 1023:  # 2.0**e overflows
            raise ComputeError(f"a-step: trace(Q)/P = 2^{-e} is too small to normalise")
        scale = 2.0**e
        q, nfs = q * scale, fs * -scale  # -f, exactly: the face rhs is one gather of it
    if not (math.isfinite(tr) and np.isfinite(q).all() and np.isfinite(nfs).all()):
        raise ComputeError("a-step: Q or f of the QP is not finite")
    a = np.array(a0, dtype=np.float64)
    free = np.pad(a.T > 0.0, ((0, 0), (0, -p % 8)))  # a row per pixel, whole bytes
    done = np.full(n, p == 1)  # one endmember: a0 = 1 is the only feasible point
    iters = np.zeros(n, dtype=np.int64)
    shifted = np.zeros(n, dtype=bool)

    for _ in range(QP_MAX_SWEEPS):
        todo = np.flatnonzero(~done)
        if todo.size == 0:
            break
        iters += ~done  # one more sweep for every open pixel
        sub = np.take(free, todo, axis=0)
        keys = np.packbits(sub).reshape(todo.size, -1)
        order = np.lexsort(keys.T[::-1])
        cuts = np.flatnonzero(np.diff(keys[order], axis=0).any(axis=1)) + 1
        for grp in np.split(order, cuts):
            fm, px = sub[grp[0], :p], todo[grp]
            fi = np.flatnonzero(fm)
            nf = fi.size
            kmat = np.ones((nf + 1, nf + 1))
            kmat[:nf, :nf] = q[fi[:, None], fi]
            kmat[nf, nf] = 0.0
            rhs = np.empty((nf + 1, px.size))
            if nf == p:
                np.take(nfs, px, axis=1, out=rhs[:nf], mode="clip")
            else:
                rhs[:nf] = nfs[fi[:, None], px]
            rhs[nf] = 1.0
            try:
                x = _lu_solve_cols(kmat, rhs)
            except np.linalg.LinAlgError:
                shifted[px] = True
                kmat[:nf, :nf] += FACE_SHIFT * np.eye(nf)
                x = _lu_solve_cols(kmat, rhs)
            x, nu = x[:nf], x[nf]
            # an f that dwarfs Q costs the sum row its digits: move those
            # columns back onto it along the face
            miss = 1.0 - x.sum(axis=0)
            off = np.abs(miss) > FACE_SUM_TOL
            if off.any():
                x[:, off] += miss[off] / nf
            feas = x.min(axis=0) >= -ANC_CLAMP
            ipx, xw = px[~feas], x[:, ~feas]
            aw = a[:, ipx]  # where the pixels with an infeasible optimum start
            # jump to the face optimum; the infeasible ones are walked below
            np.copyto(x, 0.0, where=x < 0.0)
            if nf == p:
                # no variable is pinned, so no multiplier can be negative
                a[:, px] = x
                ok = True
            else:
                anew = np.zeros((p, px.size))
                anew[fi] = x
                a[:, px] = anew
                # on the face, g = Qa + f = -nu * 1; a pinned variable may
                # stay at zero only if its multiplier g_i + nu is nonnegative
                g = np.einsum("ij,jn->in", q, anew) - nfs[:, px]
                slack = np.where(fm[:, None], np.inf, g + nu)
                ok = slack.min(axis=0) >= -QP_TOL
                rel = feas & ~ok
                free[px[rel], np.argmin(slack[:, rel], axis=0)] = True
            done[px] = feas & ok
            if ipx.size:
                # walk toward the face optimum until a variable hits zero
                acur = aw[fi]
                d = xw - acur
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(d < 0.0, acur / -d, np.inf)
                t = ratio.min(axis=0)
                block = np.argmin(ratio, axis=0)
                anew = acur + t * d
                anew[anew < 0.0] = 0.0
                anew[block, np.arange(ipx.size)] = 0.0
                aw[fi] = anew
                a[:, ipx] = aw
                free[ipx, fi[block]] = False

    if not np.isfinite(a).all():
        raise ComputeError("a-step produced non-finite abundances")
    worst_sum = float(np.abs(a.sum(axis=0) - 1.0).max())
    if worst_sum > ASC_TOL or a.min() < 0.0:
        raise ComputeError(
            f"a-step feasibility violated: sum deviation {worst_sum:.3e}, "
            f"min entry {a.min():.3e}"
        )
    return a, iters, done, shifted


def solve_simplex_qp(
    problem: QpProblem, warm_start: np.ndarray | None = None
) -> QpSolution:
    """Solve one pixel's simplex QP to the KKT tolerance QP_TOL.

    QP_TOL applies to the power-of-two-normalised problem (trace(Q)/P
    within a factor of sqrt(2) of 1), not to the data's units; the
    returned kkt_residual is in the caller's units.
    Hitting the QP_MAX_SWEEPS budget returns the last (always feasible)
    iterate with converged=False; a q too small to normalise raises
    ComputeError.

    Args:
        problem: validated QP data.
        warm_start: optional starting point; must be near the simplex
            (clamped and renormalized), defaults to the barycenter.
    """
    p = problem.size
    if warm_start is None:
        a0 = np.full((p, 1), 1.0 / p)
    else:
        w = np.asarray(warm_start, dtype=np.float64)
        if w.shape != (p,):
            raise ShapeError(f"warm start must have shape ({p},), got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("warm start must be finite")
        if w.min() < -1e-9 or abs(w.sum() - 1.0) > 1e-6:
            raise ValueError("warm start must lie on the unit simplex")
        w = np.maximum(w, 0.0)
        a0 = (w / w.sum())[:, None]
    a, iters, conv, shifted = _solve_batch(problem.q, problem.f[:, None], a0)
    return QpSolution(
        a=a[:, 0],
        kkt_residual=float(_kkt_residuals(problem.q, problem.f[:, None], a)[0]),
        iterations=int(iters[0]),
        converged=bool(conv[0]),
        shifted=bool(shifted[0]),
    )


def _least_squares(endmembers: EndmemberMatrix, observed: PixelMatrix):
    """FCLS from the barycentre, for fcls and the loop: (a, misses, M'M, M'Y)."""
    if observed.channels != endmembers.bands:
        raise ShapeError(
            f"{observed.channels} data channels vs {endmembers.bands} endmember bands"
        )
    m = endmembers.values
    with np.errstate(over="ignore", invalid="ignore"):
        mtm = m.T @ m
        mty = np.einsum("li,ln->in", m, observed.values)
    a, _, conv, _ = _solve_batch(mtm, -mty, np.full(mty.shape, 1.0 / endmembers.count))
    return a, int((~conv).sum()), mtm, mty


def fcls(endmembers: EndmemberMatrix, observed: PixelMatrix) -> AbundanceMatrix:
    """Fully constrained least squares: best simplex abundances per pixel.

    Solves min ||y - M a||^2 independently for every pixel under the
    non-negativity and sum-to-one constraints.  Warns if some pixels do
    not reach QP_TOL within the QP_MAX_SWEEPS budget (their last
    feasible iterate is still returned) and when the problem is
    underdetermined.  Gram products M'M, M'Y outside the float range
    raise ComputeError naming the a-step, as in the loop.
    """
    a, bad, _, _ = _least_squares(endmembers, observed)
    if endmembers.bands < endmembers.count:
        warnings.warn(
            "fewer bands than endmembers; least-squares solution may be non-unique",
            stacklevel=2,
        )
    if bad:
        warnings.warn(
            f"{bad} of {a.shape[1]} pixels did not reach the QP tolerance",
            stacklevel=2,
        )
    return AbundanceMatrix(a, observed.spatial_rows, observed.spatial_cols)
