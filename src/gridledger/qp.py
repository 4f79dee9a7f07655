"""Dense convex QP solver with verifiable optimality residuals.

Solves  min 0.5 x'Px + q'x  subject to equality rows, inequality rows and
variable bounds, for symmetric positive semidefinite P.  The solver is a
primal-dual interior point method (Mehrotra predictor-corrector) on the
condensed KKT system, preceded by a presolve that eliminates fixed
variables and followed by an active-set polish step that sharpens the
returned point to near machine precision.  Everything is deterministic:
same problem, same answer, bit for bit.

``grid_oracle`` is an independent brute-force check for small problems: it
filters an axis-aligned grid for feasibility and returns the best grid
point, sharing no code with the solver path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla

from .energy_model import LinearConstraintSet

__all__ = [
    "Duals",
    "GridSolution",
    "KktResiduals",
    "QpProblem",
    "QpSolution",
    "QpStatus",
    "grid_oracle",
    "kkt_residuals",
    "solve_qp",
]

_PSD_SHIFT = 1e-10


class QpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    primal: float
    complementarity: float

    def worst(self) -> float:
        return max(self.stationarity, self.primal, self.complementarity)


@dataclass
class Duals:
    """Multipliers: equality rows, inequality rows, lower and upper bounds."""

    eq: np.ndarray
    ineq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class QpProblem:
    """Convex QP data; construction checks P for symmetry and PSD-ness."""

    p: np.ndarray
    q: np.ndarray
    constraints: LinearConstraintSet
    layout_tag: str = ""

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        n = self.q.size
        if self.p.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {self.p.shape}")
        scale = max(1.0, float(np.max(np.abs(self.p)))) if n else 1.0
        if n:
            if float(np.max(np.abs(self.p - self.p.T))) > 1e-8 * scale:
                raise ValueError("P must be symmetric")
            try:
                np.linalg.cholesky(0.5 * (self.p + self.p.T)
                                   + _PSD_SHIFT * max(1.0, scale) * np.eye(n))
            except np.linalg.LinAlgError as e:
                raise ValueError("P must be positive semidefinite") from e
        if self.constraints.n_vars != n:
            raise ValueError("constraint set sized for a different variable count")

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.p @ x + self.q @ x)


@dataclass
class QpSolution:
    x: np.ndarray
    duals: Duals
    status: QpStatus
    kkt: KktResiduals
    iterations: int
    value: float = 0.0


# ---------------------------------------------------------------------------
# residuals

def _normalized_ineq(c: LinearConstraintSet) -> Tuple[np.ndarray, np.ndarray]:
    """Inequality rows flipped so that every row reads  g'x <= h."""
    g = np.array(c.a_in, dtype=float, copy=True)
    h = np.array(c.b_in, dtype=float, copy=True)
    for i, sense in enumerate(c.senses):
        if sense == ">=":
            g[i] = -g[i]
            h[i] = -h[i]
        elif sense != "<=":
            raise ValueError(f"unknown sense {sense!r} in row {i}")
    return g, h


def kkt_residuals(problem: QpProblem, x: np.ndarray, duals: Duals) -> KktResiduals:
    """Infinity norms of stationarity, primal violation and complementarity."""
    c = problem.constraints
    g, h = _normalized_ineq(c)
    x = np.asarray(x, dtype=float)

    stat = problem.p @ x + problem.q
    if c.a_eq.shape[0]:
        stat = stat + c.a_eq.T @ duals.eq
    if g.shape[0]:
        stat = stat + g.T @ duals.ineq
    stat = stat - duals.lower + duals.upper
    stationarity = float(np.max(np.abs(stat))) if stat.size else 0.0

    viol = [0.0]
    if c.a_eq.shape[0]:
        viol.append(float(np.max(np.abs(c.a_eq @ x - c.b_eq))))
    if g.shape[0]:
        viol.append(float(np.max(np.maximum(g @ x - h, 0.0))))
    finite_lo = np.isfinite(c.lo)
    finite_hi = np.isfinite(c.hi)
    if finite_lo.any():
        viol.append(float(np.max(np.maximum(c.lo[finite_lo] - x[finite_lo], 0.0))))
    if finite_hi.any():
        viol.append(float(np.max(np.maximum(x[finite_hi] - c.hi[finite_hi], 0.0))))
    primal = max(viol)

    comp = [0.0]
    if g.shape[0]:
        comp.append(float(np.max(np.abs(duals.ineq * (h - g @ x)))))
    if finite_lo.any():
        comp.append(float(np.max(np.abs(duals.lower[finite_lo]
                                        * (x[finite_lo] - c.lo[finite_lo])))))
    if finite_hi.any():
        comp.append(float(np.max(np.abs(duals.upper[finite_hi]
                                        * (c.hi[finite_hi] - x[finite_hi])))))
    return KktResiduals(stationarity=stationarity, primal=primal,
                        complementarity=max(comp))


# ---------------------------------------------------------------------------
# internals

@dataclass
class _Reduced:
    """Problem after presolve: fixed variables substituted out."""

    p: np.ndarray
    q: np.ndarray
    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    h: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    free: np.ndarray          # indices of surviving variables
    fixed_vals: np.ndarray    # full-length; NaN where free
    eq_keep: np.ndarray       # surviving equality row indices
    in_keep: np.ndarray       # surviving inequality row indices


class _Contradiction(Exception):
    pass


def _presolve(problem: QpProblem, feas_tol: float) -> _Reduced:
    c = problem.constraints
    n = problem.q.size
    lo = np.array(c.lo, dtype=float, copy=True)
    hi = np.array(c.hi, dtype=float, copy=True)
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        raise _Contradiction(f"bounds contradict at column {i}: "
                             f"[{lo[i]}, {hi[i]}] is empty")
    fixed = np.isfinite(lo) & np.isfinite(hi) & (hi - lo <= 1e-12)
    free = np.flatnonzero(~fixed)
    fixed_vals = np.full(n, np.nan)
    fixed_vals[fixed] = 0.5 * (lo[fixed] + hi[fixed])

    g, h = _normalized_ineq(c)
    xf = np.where(fixed, np.nan_to_num(fixed_vals), 0.0)
    q_r = problem.q[free] + problem.p[np.ix_(free, np.flatnonzero(fixed))] \
        @ fixed_vals[fixed] if fixed.any() else problem.q[free]
    p_r = problem.p[np.ix_(free, free)]

    def reduce_rows(mat: np.ndarray, rhs: np.ndarray, is_eq: bool
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if mat.shape[0] == 0:
            return mat[:, free], rhs, np.arange(0)
        rhs_r = rhs - mat @ xf
        mat_r = mat[:, free]
        keep = []
        for i in range(mat_r.shape[0]):
            if np.max(np.abs(mat_r[i]), initial=0.0) <= 1e-14:
                if is_eq and abs(rhs_r[i]) > feas_tol:
                    raise _Contradiction(
                        f"equality row {i} became 0 = {rhs_r[i]:.3e} after "
                        f"substituting fixed variables")
                if not is_eq and rhs_r[i] < -feas_tol:
                    raise _Contradiction(
                        f"inequality row {i} became 0 <= {rhs_r[i]:.3e} after "
                        f"substituting fixed variables")
            else:
                keep.append(i)
        keep_idx = np.array(keep, dtype=int)
        return mat_r[keep_idx], rhs_r[keep_idx], keep_idx

    a_r, b_r, eq_keep = reduce_rows(c.a_eq, c.b_eq, True)
    g_r, h_r, in_keep = reduce_rows(g, h, False)
    if a_r.shape[0]:
        # rank-inconsistent equality systems never reach the iteration
        resid = a_r @ np.linalg.lstsq(a_r, b_r, rcond=None)[0] - b_r
        gap = float(np.max(np.abs(resid), initial=0.0))
        if gap > 1e-7 * (1.0 + float(np.max(np.abs(b_r), initial=0.0))):
            raise _Contradiction(
                f"equality rows are mutually inconsistent (residual {gap:.3e})")
    return _Reduced(p=p_r, q=q_r, a=a_r, b=b_r, g=g_r, h=h_r,
                    lo=lo[free], hi=hi[free], free=free,
                    fixed_vals=fixed_vals, eq_keep=eq_keep, in_keep=in_keep)


def _solve_kkt(kmat: np.ndarray, rhs: np.ndarray, reg: float,
               refine: int = 2) -> np.ndarray:
    """Solve a symmetric saddle system via statically regularized LU."""
    m = kmat.shape[0]
    kreg = kmat + reg * np.eye(m)
    lu, piv = sla.lu_factor(kreg, check_finite=False)
    sol = sla.lu_solve((lu, piv), rhs, check_finite=False)
    for _ in range(refine):
        resid = rhs - kmat @ sol
        sol = sol + sla.lu_solve((lu, piv), resid, check_finite=False)
    return sol


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


def _face_step(red: _Reduced, x: np.ndarray, cmat: np.ndarray,
               r: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Step p from x to the objective's minimum on the face cmat @ p = r.

    The step is the minimum-norm solution of the face rows plus the
    Newton step in their null space.  Where the face is flat along a
    direction with nonzero gradient, that direction is added instead and
    the second value is True: the caller follows it as a ray.
    """
    n = red.q.size
    eps = np.finfo(float).eps
    if cmat.shape[0]:
        u_svd, sig, vt = np.linalg.svd(cmat, full_matrices=True)
        cut = sig.max(initial=0.0) * max(cmat.shape) * eps
        rank = int(np.count_nonzero(sig > cut))
        ut_r = u_svd.T @ r
        p0 = vt[:rank].T @ (ut_r[:rank] / sig[:rank]) if rank \
            else np.zeros(n)
        z_ns = vt[rank:].T
    else:
        p0 = np.zeros(n)
        z_ns = np.eye(n)
    if not z_ns.shape[1]:
        return p0, False
    h_red = z_ns.T @ red.p @ z_ns
    rhs_red = -(z_ns.T @ (red.p @ (x + p0) + red.q))
    lam, vec = np.linalg.eigh(h_red)
    lcut = max(lam.max(initial=0.0) * lam.size * eps, 1e-13)
    null = lam <= lcut
    gn = vec[:, null].T @ rhs_red
    if np.max(np.abs(gn), initial=0.0) > 1e-10:
        dirn = z_ns @ (vec[:, null] @ gn)
        return p0 + dirn / np.max(np.abs(dirn)), True
    pos = ~null
    step = vec[:, pos] @ ((vec[:, pos].T @ rhs_red) / lam[pos])
    return p0 + z_ns @ step, False


def _polish(red: _Reduced, x0: np.ndarray, rounds: int
            ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]]:
    """Primal active-set walk from a feasible point; None when it fails.

    Starting at x0 (feasible, typically the interior-point iterate) with
    the tight rows as the working set, each step minimizes the objective
    on the working face and moves along the resulting direction no
    further than the first blocking row, which then joins the set; at a
    face minimum the most negative multiplier leaves the set.  A full step
    that no row blocks ends on the face minimum, so the multipliers are
    checked next without another face solve (Nocedal & Wright, Numerical
    Optimization, Alg. 16.3): on an ill-conditioned face the steps after
    it are rounding noise that need not shrink.  At the start point and
    after a row is dropped, x counts as the face minimum when its face
    step is below 1e-11 * max(1, max|x|); that step is still taken when no
    row outside the working set blocks it.  Feasibility holds throughout,
    so the forced rows can never become mutually inconsistent.  Flat face
    directions with nonzero gradient are followed as rays until blocked.
    ``rounds`` bounds the face steps and multiplier checks together.

    Lower-bound rows are written as -x_i = -lo_i so every recovered
    inequality multiplier must come out nonnegative.
    """
    n = red.q.size

    # inequality rows and finite bounds in one stacked system
    parts: List[np.ndarray] = []
    rhs_parts: List[np.ndarray] = []
    rowmap: List[Tuple[str, int]] = []
    if red.g.shape[0]:
        parts.append(red.g)
        rhs_parts.append(red.h)
        rowmap.extend(("g", j) for j in range(red.g.shape[0]))
    lo_idx = np.flatnonzero(np.isfinite(red.lo))
    if lo_idx.size:
        e = np.zeros((lo_idx.size, n))
        e[np.arange(lo_idx.size), lo_idx] = -1.0
        parts.append(e)
        rhs_parts.append(-red.lo[lo_idx])
        rowmap.extend(("l", int(j)) for j in lo_idx)
    hi_idx = np.flatnonzero(np.isfinite(red.hi))
    if hi_idx.size:
        e = np.zeros((hi_idx.size, n))
        e[np.arange(hi_idx.size), hi_idx] = 1.0
        parts.append(e)
        rhs_parts.append(red.hi[hi_idx])
        rowmap.extend(("u", int(j)) for j in hi_idx)
    g_all = np.vstack(parts) if parts else np.zeros((0, n))
    h_all = np.concatenate(rhs_parts) if rhs_parts else np.zeros(0)
    m_all = g_all.shape[0]
    me = red.a.shape[0]

    x = np.clip(x0, red.lo, red.hi)
    if me and np.max(np.abs(red.a @ x - red.b), initial=0.0) > 1e-6:
        return None
    slack = h_all - g_all @ x
    if m_all and float(slack.min(initial=0.0)) < -1e-6:
        return None
    work = slack <= 1e-7 if m_all else np.zeros(0, bool)

    def ratio_test(x: np.ndarray, p: np.ndarray, is_ray: bool
                   ) -> Tuple[float, int]:
        """Longest step along p (at most 1 unless a ray) and its blocker."""
        alpha = np.inf if is_ray else 1.0
        blocker = -1
        if m_all:
            gp = g_all @ p
            slack = h_all - g_all @ x
            movable = ~work & (gp > 1e-12)
            if movable.any():
                ratios = np.where(movable,
                                  np.maximum(slack, 0.0)
                                  / np.where(movable, gp, 1.0),
                                  np.inf)
                j = int(np.argmin(ratios))
                if ratios[j] < alpha:
                    alpha = float(ratios[j])
                    blocker = j
        return alpha, blocker

    zero_steps = 0
    at_min = False
    for _ in range(rounds):
        wi = np.flatnonzero(work)
        cmat = np.vstack([red.a, g_all[wi]]) if me or wi.size else \
            np.zeros((0, n))
        m = cmat.shape[0]
        if not at_min:
            r = np.concatenate([red.b - (red.a @ x if me else np.zeros(0)),
                                h_all[wi] - g_all[wi] @ x])
            p, is_ray = _face_step(red, x, cmat, r)
            scale_x = max(1.0, float(np.max(np.abs(x), initial=0.0)))
            at_min = not is_ray and np.max(np.abs(p), initial=0.0) \
                <= 1e-11 * scale_x
            if at_min and ratio_test(x, p, False)[1] < 0:
                x = x + p
        if at_min:
            # face minimum: check the multipliers
            grad = red.p @ x + red.q
            if m:
                nu, *_ = np.linalg.lstsq(cmat.T, -grad, rcond=None)
            else:
                nu = np.zeros(0)
            y = nu[:me]
            z_w = nu[me:]
            if z_w.size and float(z_w.min(initial=0.0)) < -1e-9:
                drop = wi[int(np.argmin(z_w))]
                work[drop] = False
                at_min = False
                continue
            zg = np.zeros(red.g.shape[0])
            zl = np.zeros(n)
            zu = np.zeros(n)
            for val, row in zip(z_w, wi):
                kind, j = rowmap[row]
                if kind == "g":
                    zg[j] = val
                elif kind == "l":
                    zl[j] = val
                else:
                    zu[j] = val
            np.clip(zg, 0.0, None, out=zg)
            np.clip(zl, 0.0, None, out=zl)
            np.clip(zu, 0.0, None, out=zu)
            return x, y, zg, zl, zu

        alpha, blocker = ratio_test(x, p, is_ray)
        if not np.isfinite(alpha):
            return None
        x = x + alpha * p
        # a full step that no row blocks ends on the face minimum
        at_min = blocker < 0
        if blocker >= 0:
            work[blocker] = True
        if alpha <= 1e-14:
            zero_steps += 1
            if zero_steps > 50:
                return None
        else:
            zero_steps = 0
    return None


def _expand(problem: QpProblem, red: _Reduced, x_r: np.ndarray, y_r: np.ndarray,
            zg_r: np.ndarray, zl_r: np.ndarray, zu_r: np.ndarray
            ) -> Tuple[np.ndarray, Duals]:
    """Map a reduced-space point back to the full variable space."""
    c = problem.constraints
    n = problem.q.size
    x = np.array(red.fixed_vals, copy=True)
    x[red.free] = x_r
    y = np.zeros(c.a_eq.shape[0])
    y[red.eq_keep] = y_r
    zg = np.zeros(c.a_in.shape[0])
    zg[red.in_keep] = zg_r
    zl = np.zeros(n)
    zu = np.zeros(n)
    zl[red.free] = zl_r
    zu[red.free] = zu_r

    # close the stationarity rows of fixed variables through their bound duals
    fixed = np.flatnonzero(~np.isnan(red.fixed_vals))
    if fixed.size:
        g, _ = _normalized_ineq(c)
        resid = problem.p @ x + problem.q
        if c.a_eq.shape[0]:
            resid += c.a_eq.T @ y
        if g.shape[0]:
            resid += g.T @ zg
        r = resid[fixed]
        zl[fixed] = np.maximum(r, 0.0)
        zu[fixed] = np.maximum(-r, 0.0)
    return x, Duals(eq=y, ineq=zg, lower=zl, upper=zu)


# ---------------------------------------------------------------------------
# main entry point

def solve_qp(problem: QpProblem, tol: float = 1e-8, max_iter: int = 50_000,
             warm_start: Optional[QpSolution] = None) -> QpSolution:
    """Solve the QP to ``tol`` on all three KKT residual norms.

    ``warm_start`` takes a previous solution of a problem with the same
    constraint geometry; its active set is retried first, which typically
    answers in a single factorization when only the linear term changed.
    """
    c = problem.constraints
    n = problem.q.size
    feas_tol = 1e-9

    try:
        red = _presolve(problem, feas_tol)
    except _Contradiction:
        zero = np.zeros(n)
        x0 = np.clip(zero, np.where(np.isfinite(c.lo), c.lo, -np.inf),
                     np.where(np.isfinite(c.hi), c.hi, np.inf))
        duals = Duals(eq=np.zeros(c.a_eq.shape[0]), ineq=np.zeros(c.a_in.shape[0]),
                      lower=np.zeros(n), upper=np.zeros(n))
        return QpSolution(x=x0, duals=duals, status=QpStatus.INFEASIBLE,
                          kkt=kkt_residuals(problem, x0, duals), iterations=0,
                          value=problem.objective(x0))

    scale = 1.0 + max(
        float(np.max(np.abs(red.q), initial=0.0)),
        float(np.max(np.abs(red.b), initial=0.0)),
        float(np.max(np.abs(red.h), initial=0.0)))
    reg = 1e-10 * scale

    def finish(x_r, y_r, zg_r, zl_r, zu_r, status, iters) -> QpSolution:
        x, duals = _expand(problem, red, x_r, y_r, zg_r, zl_r, zu_r)
        kkt = kkt_residuals(problem, x, duals)
        # the residuals decide optimality, whatever the iteration thought
        if status == QpStatus.OPTIMAL and kkt.worst() > tol:
            status = QpStatus.MAX_ITER
        elif status == QpStatus.MAX_ITER and kkt.worst() <= tol:
            status = QpStatus.OPTIMAL
        return QpSolution(x=x, duals=duals, status=status, kkt=kkt,
                          iterations=iters, value=problem.objective(x))

    nr = red.q.size
    if nr == 0:
        return finish(np.zeros(0), np.zeros(red.a.shape[0]),
                      np.zeros(red.g.shape[0]), np.zeros(0), np.zeros(0),
                      QpStatus.OPTIMAL, 0)

    jl = np.isfinite(red.lo)
    ju = np.isfinite(red.hi)
    mi = red.g.shape[0]
    me = red.a.shape[0]
    mc = mi + int(jl.sum()) + int(ju.sum())

    if mc == 0:
        # equality-constrained (or unconstrained): one saddle solve
        kmat = np.zeros((nr + me, nr + me))
        kmat[:nr, :nr] = red.p
        if me:
            kmat[:nr, nr:] = red.a.T
            kmat[nr:, :nr] = red.a
        sol = _solve_kkt(kmat, np.concatenate([-red.q, red.b]), reg)
        return finish(sol[:nr], sol[nr:], np.zeros(0), np.zeros(nr),
                      np.zeros(nr), QpStatus.OPTIMAL, 1)

    # --- warm start: walk from the previous solution, constraints unchanged
    if warm_start is not None and warm_start.x.shape == (n,):
        ws_x = warm_start.x[red.free]
        got = _polish(red, ws_x, rounds=120 if nr <= 500 else 40)
        if got is not None:
            cand = finish(*got, QpStatus.OPTIMAL, 1)
            if cand.status == QpStatus.OPTIMAL:
                return cand

    # --- interior point iteration
    x = np.zeros(nr)
    both = jl & ju
    x[both] = 0.5 * (red.lo[both] + red.hi[both])
    only_lo = jl & ~ju
    x[only_lo] = red.lo[only_lo] + 1.0
    only_hi = ju & ~jl
    x[only_hi] = red.hi[only_hi] - 1.0

    sg = np.maximum(red.h - red.g @ x, 1.0) if mi else np.zeros(0)
    zg = np.ones(mi)
    sl = np.maximum(x[jl] - red.lo[jl], 1.0)
    zl = np.ones(int(jl.sum()))
    su = np.maximum(red.hi[ju] - x[ju], 1.0)
    zu = np.ones(int(ju.sum()))
    y = np.zeros(me)
    jl_idx = np.flatnonzero(jl)
    ju_idx = np.flatnonzero(ju)

    def full_duals() -> Tuple[np.ndarray, np.ndarray]:
        zl_f = np.zeros(nr)
        zl_f[jl_idx] = zl
        zu_f = np.zeros(nr)
        zu_f[ju_idx] = zu
        return zl_f, zu_f

    ipm_cap = int(min(max_iter, 200))
    best = None
    stalls = 0
    status = QpStatus.MAX_ITER
    it = 0
    mu = 1.0
    for it in range(1, ipm_cap + 1):
        zl_f, zu_f = full_duals()
        rd = red.p @ x + red.q + (red.a.T @ y if me else 0.0) \
            + (red.g.T @ zg if mi else 0.0) - zl_f + zu_f
        rp_e = red.a @ x - red.b if me else np.zeros(0)
        rp_g = red.g @ x + sg - red.h if mi else np.zeros(0)
        rp_l = red.lo[jl_idx] - x[jl_idx] + sl
        rp_u = x[ju_idx] + su - red.hi[ju_idx]
        mu = (float(sg @ zg) + float(sl @ zl) + float(su @ zu)) / mc
        res_p = max(
            float(np.max(np.abs(rp_e), initial=0.0)),
            float(np.max(np.abs(rp_g), initial=0.0)),
            float(np.max(np.abs(rp_l), initial=0.0)),
            float(np.max(np.abs(rp_u), initial=0.0)))
        res_d = float(np.max(np.abs(rd), initial=0.0))

        if best is None or max(res_p, res_d) + mu < best[0]:
            best = (max(res_p, res_d) + mu,
                    (x.copy(), y.copy(), zg.copy(), zl.copy(), zu.copy(),
                     sg.copy(), sl.copy(), su.copy(), mu))
        # iterate to the sharpest practical target regardless of the
        # caller's tolerance; tol only gates certification at the end
        target = min(tol, 1e-8)
        if res_p <= 0.5 * target * scale and res_d <= 0.5 * target * scale \
                and mu <= max(1e-12 * scale, 0.01 * target):
            status = QpStatus.OPTIMAL
            break

        dual_norm = max(
            float(np.max(np.abs(y), initial=0.0)),
            float(np.max(zg, initial=0.0)),
            float(np.max(zl, initial=0.0)),
            float(np.max(zu, initial=0.0)))
        if dual_norm > 1e9 * scale and res_p > 100.0 * feas_tol:
            status = QpStatus.INFEASIBLE
            break

        # condensed Newton matrix, bounds folded onto the diagonal
        hmat = red.p.copy()
        if mi:
            wg = zg / sg
            hmat += (red.g * wg[:, None]).T @ red.g
        diag = np.zeros(nr)
        np.add.at(diag, jl_idx, zl / sl)
        np.add.at(diag, ju_idx, zu / su)
        hmat[np.arange(nr), np.arange(nr)] += diag
        kmat = np.zeros((nr + me, nr + me))
        kmat[:nr, :nr] = hmat
        if me:
            kmat[:nr, nr:] = red.a.T
            kmat[nr:, :nr] = red.a
        kreg = kmat + np.diag(np.concatenate(
            [np.full(nr, reg), np.full(me, -reg)])) if me else kmat + reg * np.eye(nr)
        try:
            lu_piv = sla.lu_factor(kreg, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            break

        def newton(rc_g, rc_l, rc_u):
            r1 = -rd.copy()
            if mi:
                r1 -= red.g.T @ ((rc_g + zg * rp_g) / sg)
            tmp_l = (rc_l + zl * rp_l) / sl
            tmp_u = (rc_u + zu * rp_u) / su
            np.add.at(r1, jl_idx, tmp_l)
            np.add.at(r1, ju_idx, -tmp_u)
            rhs = np.concatenate([r1, -rp_e]) if me else r1
            sol = sla.lu_solve(lu_piv, rhs, check_finite=False)
            for _ in range(1):
                resid = (np.concatenate([r1, -rp_e]) if me else r1) - kmat @ sol
                sol = sol + sla.lu_solve(lu_piv, resid, check_finite=False)
            dx = sol[:nr]
            dy = sol[nr:]
            dsg = -rp_g - red.g @ dx if mi else np.zeros(0)
            dzg = (rc_g - zg * dsg) / sg if mi else np.zeros(0)
            dsl = -rp_l + dx[jl_idx]
            dzl = (rc_l - zl * dsl) / sl
            dsu = -rp_u - dx[ju_idx]
            dzu = (rc_u - zu * dsu) / su
            return dx, dy, dsg, dzg, dsl, dzl, dsu, dzu

        # predictor
        aff = newton(-sg * zg if mi else np.zeros(0), -sl * zl, -su * zu)
        dx_a, dy_a, dsg_a, dzg_a, dsl_a, dzl_a, dsu_a, dzu_a = aff
        ap = min(_max_step(sg, dsg_a), _max_step(sl, dsl_a), _max_step(su, dsu_a))
        ad = min(_max_step(zg, dzg_a), _max_step(zl, dzl_a), _max_step(zu, dzu_a))
        mu_aff = (float((sg + ap * dsg_a) @ (zg + ad * dzg_a))
                  + float((sl + ap * dsl_a) @ (zl + ad * dzl_a))
                  + float((su + ap * dsu_a) @ (zu + ad * dzu_a))) / mc
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector
        rc_g = -sg * zg + sigma * mu - dsg_a * dzg_a if mi else np.zeros(0)
        rc_l = -sl * zl + sigma * mu - dsl_a * dzl_a
        rc_u = -su * zu + sigma * mu - dsu_a * dzu_a
        dx, dy, dsg, dzg, dsl, dzl, dsu, dzu = newton(rc_g, rc_l, rc_u)
        tau = 0.995
        ap = tau * min(_max_step(sg, dsg), _max_step(sl, dsl), _max_step(su, dsu))
        ad = tau * min(_max_step(zg, dzg), _max_step(zl, dzl), _max_step(zu, dzu))
        if max(ap, ad) < 1e-11:
            stalls += 1
            if stalls >= 3:
                break
        else:
            stalls = 0
        x += ap * dx
        y += ad * dy
        sg += ap * dsg
        zg += ad * dzg
        sl += ap * dsl
        zl += ad * dzl
        su += ap * dsu
        zu += ad * dzu

    if status == QpStatus.INFEASIBLE:
        zl_f, zu_f = full_duals()
        return finish(x, y, zg, zl_f, zu_f, QpStatus.INFEASIBLE, it)

    if best is not None and status != QpStatus.OPTIMAL:
        _, (x, y, zg, zl, zu, sg, sl, su, mu) = best

    # polish: active-set walk from the interior-point iterate
    zl_f, zu_f = full_duals()
    attempts: List[QpSolution] = []
    got = _polish(red, x, rounds=120 if nr <= 500 else 40)
    if got is not None:
        cand = finish(*got, QpStatus.OPTIMAL, it)
        if cand.status == QpStatus.OPTIMAL:
            return cand
        attempts.append(cand)

    attempts.append(finish(x, y, zg, zl_f, zu_f, status, it))
    return min(attempts, key=lambda c: c.kkt.worst())


# ---------------------------------------------------------------------------
# brute-force oracle

@dataclass(frozen=True)
class GridSolution:
    x: np.ndarray
    value: float


def grid_oracle(problem: QpProblem, box: Optional[Sequence[Tuple[float, float]]] = None,
                resolution: int = 101, feas_tol: float = 1e-9
                ) -> Optional[GridSolution]:
    """Best feasible point on an axis-aligned grid, or None if none is.

    Exhaustively evaluates ``resolution`` points per axis over ``box``
    (default: the variable bounds, which must then be finite), keeps the
    points satisfying every constraint within ``feas_tol`` and returns the
    one with the lowest objective.  Only usable for dimension <= 4.
    """
    c = problem.constraints
    n = problem.q.size
    if n > 4:
        raise ValueError(f"grid oracle limited to dimension <= 4, got {n}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution ** n > 50_000_000:
        raise ValueError("grid too large; lower the resolution")
    if box is None:
        if not (np.all(np.isfinite(c.lo)) and np.all(np.isfinite(c.hi))):
            raise ValueError("variable bounds are unbounded; pass an explicit box")
        box = list(zip(c.lo.tolist(), c.hi.tolist()))
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    g, h = _normalized_ineq(c)

    best_x: Optional[np.ndarray] = None
    best_val = np.inf
    # chunk over the first axis to bound memory on 3- and 4-dim grids
    tail = axes[1:]
    tail_mesh = np.meshgrid(*tail, indexing="ij") if tail else []
    tail_pts = np.stack([m.ravel() for m in tail_mesh], axis=1) \
        if tail else np.zeros((1, 0))
    for v0 in axes[0]:
        pts = np.empty((tail_pts.shape[0], n))
        pts[:, 0] = v0
        if n > 1:
            pts[:, 1:] = tail_pts
        ok = np.ones(pts.shape[0], dtype=bool)
        if c.a_eq.shape[0]:
            ok &= np.all(np.abs(pts @ c.a_eq.T - c.b_eq) <= feas_tol, axis=1)
        if g.shape[0]:
            ok &= np.all(pts @ g.T - h <= feas_tol, axis=1)
        ok &= np.all(pts >= c.lo - feas_tol, axis=1)
        ok &= np.all(pts <= c.hi + feas_tol, axis=1)
        if not ok.any():
            continue
        feas = pts[ok]
        vals = 0.5 * np.einsum("ij,jk,ik->i", feas, problem.p, feas) \
            + feas @ problem.q
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = feas[i].copy()
    if best_x is None:
        return None
    return GridSolution(x=best_x, value=best_val)

