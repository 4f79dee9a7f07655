"""Convex QP solver with verifiable optimality residuals.

Solves  min 0.5 x'Px + q'x  subject to equality rows, inequality rows and
variable bounds (a ``LinearConstraintSet``, whose rows stay sparse CSR up
to the factorizations), for diagonal P >= 0 given as its diagonal.  A
presolve eliminates fixed variables and rejects inconsistent equality
rows.  A primal-dual interior point method (Mehrotra predictor-corrector)
on the condensed KKT system treats inequality rows and finite bounds as
one family C x <= d, with one slack and one multiplier per row, and moves
primal and dual variables by one step length (Nocedal & Wright, Numerical
Optimization, 2nd ed., Alg. 16.4), as with P != 0 unequal lengths leave
(a_p - a_d) P dx in the dual residual.  The polish is a regularised KKT
solve on the active set the interior point points to (Stellato et al.,
"OSQP: an operator splitting solver for quadratic programs", Math. Prog.
Comp. 2020, section 5.2), kept only when its KKT residuals certify it; a
candidate that does not certify repairs the guess, at most three times.
A warm start runs the same polish on the previous solution's active set
first, and reuses the presolve a warm-started solution of the same
``LinearConstraintSet`` object carries.  Each regularised, quasi-definite
saddle system (Vanderbei, SIAM J. Optim. 1995) is factored sparse.  Such
a matrix has an LDL' factor in every symmetric order, so each solve
orders its Newton pattern once and factors every Newton matrix in that
order on the diagonal (``_NewtonOrder``); the polish and presolve
saddles, with only the regularisation on some diagonal entries, keep
threshold pivots (``_kkt_solver``).  The carried presolve keeps the last
polish factor for reuse on the same matrix (Stellato et al. 2020, section
3.1).  ``QpSolution.polish`` says which path produced the answer.
Everything is deterministic: same problem, same answer, bit for bit.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Duals",
    "KktResiduals",
    "LinearConstraintSet",
    "Polish",
    "QpProblem",
    "QpSolution",
    "QpStatus",
    "kkt_residuals",
    "solve_qp",
]

_IPM_CAP = 200
# polish retries after the first active-set guess
_REPAIRS = 3


class QpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    INFEASIBLE = "Infeasible"


class Polish(enum.Enum):
    """Which path produced a solution.

    ``polished``: the KKT solve on the interior point's active set, or on
    that set as repaired from candidates that did not certify; ``warm``:
    the same solve and repairs from the warm start's active set, without
    an interior-point iteration (``iterations`` is 1); ``interior``: the
    interior-point point, because no polish candidate certified or the
    problem is infeasible; ``direct``: no iteration was needed (equality
    rows only, every variable fixed, or bounds or rows that presolve found
    contradictory).
    """

    POLISHED = "polished"
    WARM = "warm"
    INTERIOR = "interior"
    DIRECT = "direct"


@dataclass(frozen=True)
class KktResiduals:
    """Infinity norms; ``dual`` is the largest negative inequality or
    bound multiplier, which a certified point must not have."""

    stationarity: float
    primal: float
    complementarity: float
    dual: float = 0.0

    def worst(self) -> float:
        return max(self.stationarity, self.primal, self.complementarity,
                   self.dual)


@dataclass
class Duals:
    """Multipliers: equality rows, inequality rows, lower and upper bounds."""

    eq: np.ndarray
    ineq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class LinearConstraintSet:
    """Sparse linear constraints: equality rows ``a_eq x = b_eq``, inequality
    rows ``a_in x <= b_in`` and per-column closed bounds, +-inf for absent
    sides.  Rows in any form ``scipy.sparse.csr_array`` takes are held as
    CSR; a field whose shape does not fit ``n_vars`` and the right-hand
    sides raises ValueError naming it."""

    n_vars: int
    a_eq: sp.csr_array
    b_eq: np.ndarray
    a_in: sp.csr_array
    b_in: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        n, m_eq, m_in = self.n_vars, np.size(self.b_eq), np.size(self.b_in)
        for name, shape in (("a_eq", (m_eq, n)), ("a_in", (m_in, n)),
                            ("b_eq", (m_eq,)), ("b_in", (m_in,)),
                            ("lo", (n,)), ("hi", (n,))):
            value = (sp.csr_array if len(shape) == 2 else np.asarray)(
                getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, not {shape}"
                                 f" (n_vars {n}, one row per right-hand side)")
            setattr(self, name, value)

    @functools.cached_property
    def transposes(self) -> Tuple[sp.csc_array, sp.csc_array]:
        """(a_eq.T, a_in.T), made once for the products with multipliers."""
        return self.a_eq.T, self.a_in.T


@dataclass
class QpProblem:
    """Convex QP data; ``p`` is diag(P), which must be nonnegative."""

    p: np.ndarray
    q: np.ndarray
    constraints: LinearConstraintSet
    layout_tag: str = ""

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        n = self.q.size
        if self.p.shape != (n,):
            raise ValueError(f"p must be diag(P), shape ({n},), "
                             f"got {self.p.shape}")
        if not np.all(self.p >= 0):     # NaN fails this too
            raise ValueError("diag(P) must be nonnegative")
        if self.constraints.n_vars != n:
            raise ValueError("constraint set sized for a different variable count")

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x * self.p @ x + self.q @ x)


@dataclass
class QpSolution:
    x: np.ndarray
    duals: Duals
    status: QpStatus
    kkt: KktResiduals
    iterations: int
    polish: Polish
    value: float = 0.0
    # the presolve of a warm-started solve, which the next warm start on
    # the same constraint-set object reuses; None for a cold solve
    _presolved: Optional[_Reduced] = field(default=None, repr=False,
                                           compare=False)


# ---------------------------------------------------------------------------
# residuals

def kkt_residuals(problem: QpProblem, x: np.ndarray, duals: Duals) -> KktResiduals:
    """Stationarity, primal violation, complementarity and multiplier sign."""
    c = problem.constraints
    x = np.asarray(x, dtype=float)
    slack = c.b_in - c.a_in @ x
    lo, hi = np.isfinite(c.lo), np.isfinite(c.hi)

    def top(v: np.ndarray) -> float:
        return float(np.max(v, initial=0.0))

    a_eq_t, a_in_t = c.transposes
    stat = (problem.p * x + problem.q + a_eq_t @ duals.eq
            + a_in_t @ duals.ineq - duals.lower + duals.upper)
    # the leading 0.0 keeps max() of the parts as it always was under NaN
    primal = max([0.0, top(np.abs(c.a_eq @ x - c.b_eq)), top(-slack),
                  top(c.lo[lo] - x[lo]), top(x[hi] - c.hi[hi])])
    comp = max([0.0, top(np.abs(duals.ineq * slack)),
                top(np.abs(duals.lower[lo] * (x[lo] - c.lo[lo]))),
                top(np.abs(duals.upper[hi] * (c.hi[hi] - x[hi])))])
    signed = np.concatenate([duals.ineq, duals.lower, duals.upper])
    return KktResiduals(stationarity=top(np.abs(stat)), primal=primal,
                        complementarity=comp,
                        dual=max(0.0, -float(signed.min(initial=0.0))))


# ---------------------------------------------------------------------------
# internals

@dataclass
class _Reduced:
    """Problem after presolve: fixed variables substituted out."""

    source: LinearConstraintSet   # the rows and bounds this reduces
    p: np.ndarray             # diag(P) over the surviving variables
    q: np.ndarray
    a: sp.csr_array           # surviving rows over the surviving columns
    b: np.ndarray
    g: sp.csr_array
    h: np.ndarray
    at: sp.csc_array          # a.T and g.T, held for the products
    gt: sp.csc_array
    lo: np.ndarray
    hi: np.ndarray
    free: np.ndarray          # indices of surviving variables
    fixed_vals: np.ndarray    # full-length; NaN where free
    eq_keep: np.ndarray       # surviving equality row indices
    in_keep: np.ndarray       # surviving inequality row indices
    # the last polish solver by its matrix, shared by this presolve's reuses
    factor: dict = field(default_factory=dict)


class _Contradiction(Exception):
    pass


def _presolve(problem: QpProblem, feas_tol: float,
              carried: Optional[_Reduced] = None) -> _Reduced:
    """Substitute out fixed variables and check the rows left.

    Everything but ``p`` and ``q`` depends on the constraints alone, so a
    ``carried`` presolve of the same constraint-set object is reused with
    only the objective reduced afresh.
    """
    c = problem.constraints
    if carried is not None and carried.source is c:
        return replace(carried, p=problem.p[carried.free],
                       q=problem.q[carried.free])
    lo, hi = c.lo, c.hi
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        raise _Contradiction(f"bounds contradict at column {i}: "
                             f"[{lo[i]}, {hi[i]}] is empty")
    fixed = np.isfinite(lo) & np.isfinite(hi) & (hi - lo <= 1e-12)
    free = np.flatnonzero(~fixed)
    fixed_vals = np.full(problem.q.size, np.nan)
    fixed_vals[fixed] = 0.5 * (lo[fixed] + hi[fixed])
    xf = np.nan_to_num(fixed_vals)          # 0 on the free columns
    new_col = np.full(lo.size, -1)          # reduced column; -1 if fixed
    new_col[free] = np.arange(free.size)

    def reduce_rows(mat: sp.csr_array, rhs: np.ndarray, is_eq: bool
                    ) -> Tuple[sp.csr_array, np.ndarray, np.ndarray]:
        """Substitute the fixed columns; drop the rows left empty, unless
        their right-hand side contradicts 0 = rhs (or 0 <= rhs).  The
        reduced rows come straight from the matrix's own index arrays,
        entries in their stored order."""
        rhs_r = rhs - mat @ xf
        rows, cols, vals = _triplets(mat)
        col = new_col[cols]
        on_free = col >= 0
        empty = np.bincount(rows[on_free & (np.abs(vals) > 1e-14)],
                            minlength=rhs.size) == 0
        bad = empty & (np.abs(rhs_r) > feas_tol if is_eq
                       else rhs_r < -feas_tol)
        if bad.any():
            i = int(np.argmax(bad))
            kind, rel = ("equality", "=") if is_eq else ("inequality", "<=")
            raise _Contradiction(f"{kind} row {i} became 0 {rel} {rhs_r[i]:.3e}"
                                 f" after substituting fixed variables")
        keep = np.flatnonzero(~empty)
        take = on_free & ~empty[rows]
        counts = np.bincount(rows[take], minlength=rhs.size)[keep]
        mat_r = sp.csr_array((vals[take], col[take],
                              np.concatenate(([0], np.cumsum(counts)))),
                             shape=(keep.size, free.size))
        return mat_r, rhs_r[keep], keep

    a_r, b_r, eq_keep = reduce_rows(c.a_eq, c.b_eq, True)
    g_r, h_r, in_keep = reduce_rows(c.a_in, c.b_in, False)
    red = _Reduced(source=c, p=problem.p[free], q=problem.q[free], a=a_r,
                   b=b_r, g=g_r, h=h_r, at=a_r.T, gt=g_r.T, lo=lo[free],
                   hi=hi[free], free=free, fixed_vals=fixed_vals,
                   eq_keep=eq_keep, in_keep=in_keep)
    if b_r.size:
        # rank-inconsistent equality systems never reach the iteration: the
        # regularised min-norm solve of [[I, A'], [A, -1e-10 I]] leaves a
        # residual only where b has a part outside the range of A
        nf = free.size
        x = _saddle_solver(red, np.arange(nf), np.zeros(h_r.size, dtype=bool),
                           np.ones(nf), 1e-10, 1)(
            np.concatenate([np.zeros(nf), b_r]))[:nf]
        gap = float(np.max(np.abs(a_r @ x - b_r)))
        if gap > 1e-7 * (1.0 + float(np.max(np.abs(b_r)))):
            raise _Contradiction(
                f"equality rows are mutually inconsistent (residual {gap:.3e})")
    return red


def _triplets(mat: sp.csr_array) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, value) of a CSR matrix's entries, row by row."""
    return (np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)),
            mat.indices, mat.data)


def _saddle_pattern(hr: np.ndarray, hc: np.ndarray, r: np.ndarray,
                    c: np.ndarray, n: int, m: int) -> tuple:
    """CSC pattern of [[H, R'], [R, D]] (H at (hr, hc), m x n R at (r, c), D
    diagonal) and each entry's slot for values in order [H, R', R, D]."""
    dual, size = n + np.arange(m), n + m
    keys, slot = np.unique(np.concatenate([hc, n + r, c, dual]) * size
                           + np.concatenate([hr, c, n + r, dual]),
                           return_inverse=True)
    return slot, keys % size, np.searchsorted(keys, np.arange(size + 1) * size)


def _factor(pattern: tuple, vals: np.ndarray, permc_spec: str,
            pivot: float) -> spla.SuperLU:
    """SuperLU factor of the matrix of ``pattern`` with entries summing
    ``vals``, eliminated in the order ``permc_spec`` names and pivoted off
    the diagonal where a pivot falls below ``pivot`` times its column's
    largest entry; a singular matrix raises RuntimeError."""
    slot, indices, indptr = pattern
    size = indptr.size - 1
    mat = sp.csc_matrix((np.bincount(slot, vals, indices.size), indices,
                         indptr), shape=(size, size))
    return spla.splu(mat, permc_spec=permc_spec, diag_pivot_thresh=pivot,
                     options=dict(SymmetricMode=True))


def _refined(solve: Callable[[np.ndarray], np.ndarray],
             mul: Callable[[np.ndarray], np.ndarray],
             refine: int) -> Callable[[np.ndarray], np.ndarray]:
    """``solve`` refined ``refine`` times against ``mul``, the
    unregularised product, so null-space components stay where the first
    solve put them."""
    def refined(rhs: np.ndarray) -> np.ndarray:
        sol = solve(rhs)
        for _ in range(refine):
            sol = sol + solve(rhs - mul(sol))
        return sol
    return refined


def _kkt_solver(pattern: tuple, vals: np.ndarray,
                mul: Callable[[np.ndarray], np.ndarray],
                refine: int) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the saddle matrix of ``pattern`` with entries summing ``vals``
    (+reg on the primal diagonal, -reg on the rest) once; return its solve,
    refined ``refine`` times against ``mul``.  The fixed ordering makes
    equal matrices equal factors; a singular one raises.

    Every saddle here is quasi-definite, so an LDL' factor exists in any
    symmetric order; how accurate it is depends on the diagonal.  The
    interior point's Newton matrices hold p and the slack weights there and
    factor on the diagonal alone (``_NewtonOrder``).  The polish and
    presolve saddles, served here, hold only reg (about 1e-10) on the
    diagonal of columns with p = 0, and keep threshold pivots: factored on
    the diagonal, the saddles of one benchmark distributed run (N=5, T=8,
    48 iterations) took 81 factorizations instead of 63, and one more warm
    start fell back to the interior point."""
    return _refined(_factor(pattern, vals, "MMD_AT_PLUS_A", 0.01).solve,
                    mul, refine)


class _NewtonOrder:
    """One solve's Newton pattern, ordered once by its first factor.

    The first Newton matrix is ordered by MMD on A'+A; its column order
    then permutes the pattern once, so every later matrix is assembled in
    that order and factored as it stands.  No factor pivots off the
    diagonal, where pivots only undid the fill-reducing order (joint TEM
    at N=5, T=8: up to 8,138 entries in L+U against 4,020).  OSQP too
    orders its KKT matrix once and factors it without pivots (Stellato et
    al. 2020, section 3.1).
    """

    def __init__(self, pattern: tuple):
        self.pattern = pattern
        # the first factor's column order, old index -> new, and back
        self.order: Optional[np.ndarray] = None
        self.inverse: Optional[np.ndarray] = None

    def solver(self, vals: np.ndarray, mul: Callable[[np.ndarray], np.ndarray]
               ) -> Callable[[np.ndarray], np.ndarray]:
        """The Newton solve for entries ``vals``, refined once against
        ``mul``; right-hand sides and solutions stay in the original
        order."""
        if self.order is None:
            lu = _factor(self.pattern, vals, "MMD_AT_PLUS_A", 0.0)
            self.order = lu.perm_c.astype(np.int64)
            self.inverse = np.argsort(self.order)
            self.pattern = _permuted(self.pattern, self.order)
            return _refined(lu.solve, mul, 1)
        lu = _factor(self.pattern, vals, "NATURAL", 0.0)
        order, inverse = self.order, self.inverse
        return _refined(lambda rhs: lu.solve(rhs[inverse])[order], mul, 1)


def _permuted(pattern: tuple, order: np.ndarray) -> tuple:
    """``pattern`` with row and column i moved to ``order[i]``; each value
    keeps its slot number, which now points at the entry's new place."""
    slot, indices, indptr = pattern
    size = indptr.size - 1
    keys = (order[np.repeat(np.arange(size), np.diff(indptr))] * size
            + order[indices])
    sort = np.argsort(keys)
    rank = np.empty_like(sort)
    rank[sort] = np.arange(sort.size)
    keys = keys[sort]
    return (rank[slot], keys % size,
            np.searchsorted(keys, np.arange(size + 1) * size))


def _saddle_solver(red: _Reduced, free: np.ndarray, act_g: np.ndarray,
                   pf: np.ndarray, reg: float, refine: int
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """The solver of [[diag(pf), R'], [R, 0]] on the ``free`` columns, R:
    the equality rows over the ``act_g`` inequality rows, read from their
    entries, so no stacked matrix is formed."""
    nf, me, m = free.size, red.b.size, red.b.size + int(act_g.sum())
    col = np.full(red.p.size, -1)
    col[free] = np.arange(nf)
    (ar, ac, av), (gr, gc, gv) = _triplets(red.a), _triplets(red.g)
    in_a, in_g = col[ac] >= 0, act_g[gr] & (col[gc] >= 0)
    r = np.concatenate([ar[in_a], me + np.cumsum(act_g)[gr[in_g]] - 1])
    c = col[np.concatenate([ac[in_a], gc[in_g]])]
    v = np.concatenate([av[in_a], gv[in_g]])
    diag = np.arange(nf)
    return _kkt_solver(_saddle_pattern(diag, diag, r, c, nf, m),
                       np.concatenate([pf + reg, v, v, np.full(m, -reg)]),
                       lambda u: np.concatenate([
                           pf * u[:nf] + np.bincount(c, v * u[nf:][r], nf),
                           np.bincount(r, v * u[c], m)]), refine)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    return float(min(1.0, np.min(-v[neg] / dv[neg], initial=1.0)))


def _polish(red: _Reduced, x0: np.ndarray, y0: np.ndarray, zg0: np.ndarray,
            act_g: np.ndarray, act_l: np.ndarray, act_u: np.ndarray,
            reg: float, certify: Callable[..., QpSolution]
            ) -> Optional[QpSolution]:
    """Regularised KKT solves on a guessed active set (OSQP polish), the
    guess repaired from each candidate that does not certify.

    Columns with an active bound are fixed at it; the other columns, the
    equality rows and the active inequality rows form one saddle system,
    solved for the step from (x0, y0, zg0), not for the point itself, so
    the regularisation keeps flat primal directions and degenerate
    multipliers where the start put them.  The bound multipliers follow
    from stationarity of the fixed columns; inequality multipliers are
    clipped at 0.  ``certify`` maps the candidate (x, y, zg, zl, zu) to a
    solution whose KKT residuals decide.  A candidate that does not
    certify adds the rows and bounds it violates to the guess and drops
    the active ones whose raw multiplier is negative, and the solve is
    repeated from the same start, at most ``_REPAIRS`` times (Stellato et
    al. 2020, section 5.2).  None when no candidate certifies.
    """
    me = red.a.shape[0]
    act_u = act_u & ~act_l
    for _ in range(1 + _REPAIRS):
        x = np.where(act_l, red.lo, np.where(act_u, red.hi, x0))
        free = np.flatnonzero(~(act_l | act_u))
        raw_g = np.where(act_g, zg0, 0.0)     # no active-row matrix formed
        grad = red.p * x + red.q + red.at @ y0 + red.gt @ raw_g
        gap = np.concatenate([red.a @ x - red.b, (red.g @ x - red.h)[act_g]])
        key = (act_g.tobytes(), act_l.tobytes(), act_u.tobytes(),
               red.p[free].tobytes(), reg)
        if key not in red.factor:
            red.factor.clear()
            try:
                red.factor[key] = _saddle_solver(red, free, act_g,
                                                 red.p[free], reg, 3)
            except RuntimeError:        # singular
                return None
        step = red.factor[key](-np.concatenate([grad[free], gap]))
        x[free] += step[:free.size]
        y = y0 + step[free.size:free.size + me]
        raw_g[act_g] += step[free.size + me:]

        grad = red.p * x + red.q + red.at @ y + red.gt @ raw_g
        raw_l = np.where(act_l, grad, 0.0)
        raw_u = np.where(act_u, -grad, 0.0)
        cand = certify(x, y, np.maximum(raw_g, 0.0),
                       np.maximum(raw_l, 0.0), np.maximum(raw_u, 0.0))
        if cand.status is QpStatus.OPTIMAL:
            return cand
        repaired = (np.where(act_g, raw_g >= 0.0, red.g @ x > red.h),
                    np.where(act_l, raw_l >= 0.0, x < red.lo),
                    np.where(act_u, raw_u >= 0.0, x > red.hi))
        if all(map(np.array_equal, repaired, (act_g, act_l, act_u))):
            return None
        act_g, act_l, act_u = repaired
    return None


def _expand(problem: QpProblem, red: _Reduced, x_r: np.ndarray, y_r: np.ndarray,
            zg_r: np.ndarray, zl_r: np.ndarray, zu_r: np.ndarray
            ) -> Tuple[np.ndarray, Duals]:
    """Map a reduced-space point back to the full variable space."""
    c = problem.constraints
    n = problem.q.size
    x = np.array(red.fixed_vals, copy=True)
    y, zg, zl, zu = (np.zeros(k) for k in (c.b_eq.size, c.b_in.size, n, n))
    x[red.free], zl[red.free], zu[red.free] = x_r, zl_r, zu_r
    y[red.eq_keep], zg[red.in_keep] = y_r, zg_r

    # close the stationarity rows of fixed variables through their bound duals
    fixed = np.flatnonzero(~np.isnan(red.fixed_vals))
    if fixed.size:
        a_eq_t, a_in_t = c.transposes
        r = (problem.p * x + problem.q + a_eq_t @ y + a_in_t @ zg)[fixed]
        zl[fixed] = np.maximum(r, 0.0)
        zu[fixed] = np.maximum(-r, 0.0)
    return x, Duals(eq=y, ineq=zg, lower=zl, upper=zu)


# ---------------------------------------------------------------------------
# main entry point

def solve_qp(problem: QpProblem, tol: float = 1e-8,
             warm_start: Optional[QpSolution] = None) -> QpSolution:
    """Solve the QP to ``tol`` on every KKT residual norm.

    The interior point runs to its own sharp target on C x <= d, where
    C = [G; -I_lo; I_hi] stacks the inequality rows and the finite bounds,
    which stay implicit, so the condensed matrix is G'W_gG + diag(p + w).
    The polish then solves one KKT system on the rows whose multiplier
    exceeds their slack, repaired while its point does not certify within
    ``tol`` (``_polish``); if none certifies, the interior-point point is
    returned.  ``warm_start`` takes a previous solution of a problem with
    the same constraint geometry, whose active set (rows with a positive
    multiplier) is polished first.  A warm-started solve carries its
    presolve and last polish factor in the solution; a warm start carrying
    one made on this problem's ``constraints`` object, whose arrays must
    not have changed in place since, reuses it and reduces only ``p`` and
    ``q`` afresh.  ``QpSolution.polish`` records which path answered.
    """
    c = problem.constraints
    n = problem.q.size
    feas_tol = 1e-9

    try:
        red = _presolve(problem, feas_tol, None if warm_start is None
                        else warm_start._presolved)
    except _Contradiction:
        x0 = np.clip(np.zeros(n), np.where(np.isfinite(c.lo), c.lo, -np.inf),
                     np.where(np.isfinite(c.hi), c.hi, np.inf))
        duals = Duals(eq=np.zeros(c.a_eq.shape[0]), ineq=np.zeros(c.a_in.shape[0]),
                      lower=np.zeros(n), upper=np.zeros(n))
        return QpSolution(x=x0, duals=duals, status=QpStatus.INFEASIBLE,
                          kkt=kkt_residuals(problem, x0, duals), iterations=0,
                          value=problem.objective(x0), polish=Polish.DIRECT)

    # only a warm-started solve, one of a sequence, carries its presolve
    # on; a one-off solve keeps no more than its point and multipliers
    carried = None if warm_start is None else red
    scale = 1.0 + max(float(np.max(np.abs(v), initial=0.0))
                      for v in (red.q, red.b, red.h))
    reg = 1e-10 * scale

    def finish(x_r, y_r, zg_r, zl_r, zu_r, status, iters,
               polish) -> QpSolution:
        x, duals = _expand(problem, red, x_r, y_r, zg_r, zl_r, zu_r)
        kkt = kkt_residuals(problem, x, duals)
        # the residuals decide optimality, whatever the iteration thought;
        # a NaN residual certifies nothing
        if status == QpStatus.OPTIMAL and not kkt.worst() <= tol:
            status = QpStatus.MAX_ITER
        elif status == QpStatus.MAX_ITER and kkt.worst() <= tol:
            status = QpStatus.OPTIMAL
        return QpSolution(x=x, duals=duals, status=status, kkt=kkt,
                          iterations=iters, value=problem.objective(x),
                          polish=polish, _presolved=carried)

    nr = red.q.size
    if nr == 0:
        return finish(np.zeros(0), np.zeros(red.a.shape[0]),
                      np.zeros(red.g.shape[0]), np.zeros(0), np.zeros(0),
                      QpStatus.OPTIMAL, 0, Polish.DIRECT)

    jl, ju = np.isfinite(red.lo), np.isfinite(red.hi)
    jl_idx, ju_idx = np.flatnonzero(jl), np.flatnonzero(ju)
    mi, me, nl = red.g.shape[0], red.a.shape[0], jl_idx.size
    mc = mi + nl + ju_idx.size

    if mc == 0:
        # equality-constrained (or unconstrained): one saddle solve
        sol = _saddle_solver(red, np.arange(nr), np.zeros(0, dtype=bool),
                             red.p, reg, 2)(np.concatenate([-red.q, red.b]))
        return finish(sol[:nr], sol[nr:], np.zeros(0), np.zeros(nr),
                      np.zeros(nr), QpStatus.OPTIMAL, 1, Polish.DIRECT)

    # --- warm start: polish on the previous solution's active set
    if warm_start is not None and warm_start.x.shape == (n,):
        wd = warm_start.duals
        zg_w = wd.ineq[red.in_keep]
        cand = _polish(red, warm_start.x[red.free], wd.eq[red.eq_keep], zg_w,
                       zg_w > 0, wd.lower[red.free] > 0,
                       wd.upper[red.free] > 0, reg,
                       lambda *pt: finish(*pt, QpStatus.OPTIMAL, 1,
                                          Polish.WARM))
        if cand is not None:
            return cand

    # --- interior point iteration on C x <= d, C = [G; -I_lo; I_hi]; the
    # bound rows stay implicit in these two products
    d = np.concatenate([red.h, -red.lo[jl_idx], red.hi[ju_idx]])

    def c_mul(v: np.ndarray) -> np.ndarray:
        return np.concatenate([red.g @ v, -v[jl_idx], v[ju_idx]])

    def ct_mul(w: np.ndarray) -> np.ndarray:
        out = red.gt @ w[:mi]
        out[jl_idx] -= w[mi:mi + nl]
        out[ju_idx] += w[mi + nl:]
        return out

    def split(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of C -> (G rows, lower bounds, upper bounds), each bound
        part scattered onto all columns."""
        lower, upper = np.zeros((2, nr), dtype=v.dtype)
        lower[jl_idx], upper[ju_idx] = v[mi:mi + nl], v[mi + nl:]
        return v[:mi], lower, upper

    # one pattern per solve for the Newton matrix [[G'W_gG + diag(p + w) +
    # reg I, A'], [A, -reg I]]: each ordered pair of entries (e, f) in a row
    # r of G adds g_e g_f w_r at (col e, col f); p, w and reg go on the
    # diagonal one after the other, as their one sum would round differently
    gr, gc, gv = _triplets(red.g)
    first = np.searchsorted(gr, gr)
    k = np.searchsorted(gr, gr, side="right") - first
    left = np.repeat(np.arange(gr.size), k)
    right = np.repeat(first - np.cumsum(k) + k, k) + np.arange(left.size)
    diag = np.tile(np.arange(nr), 3)
    ordered = _NewtonOrder(_saddle_pattern(
        np.concatenate([gc[left], diag]), np.concatenate([gc[right], diag]),
        *_triplets(red.a)[:2], nr, me))
    pair_row, pair_prod = gr[left], gv[left] * gv[right]
    tail = np.concatenate([np.full(nr, reg), red.a.data, red.a.data,
                           np.full(me, -reg)])

    # start mid-box, or one unit inside a one-sided bound
    lo, hi = np.where(jl, red.lo, 0.0), np.where(ju, red.hi, 0.0)
    x = np.where(jl & ju, 0.5 * (lo + hi),
                 np.where(jl, lo + 1.0, np.where(ju, hi - 1.0, 0.0)))

    s = np.maximum(d - c_mul(x), 1.0)
    z = np.ones(mc)
    y = np.zeros(me)

    best = None
    stalls = 0
    status = QpStatus.MAX_ITER
    it = 0
    for it in range(1, _IPM_CAP + 1):
        rd = red.p * x + red.q + red.at @ y + ct_mul(z)
        rp_e = red.a @ x - red.b
        rp = c_mul(x) + s - d
        mu = float(s @ z) / mc
        res_p = max(float(np.max(np.abs(rp_e), initial=0.0)),
                    float(np.max(np.abs(rp))))
        res_d = float(np.max(np.abs(rd), initial=0.0))

        if best is None or max(res_p, res_d) + mu < best[0]:
            best = (max(res_p, res_d) + mu,
                    (x.copy(), y.copy(), s.copy(), z.copy()))
        # iterate to the sharpest practical target regardless of the
        # caller's tolerance; tol only gates certification at the end
        target = min(tol, 1e-8)
        if res_p <= 0.5 * target * scale and res_d <= 0.5 * target * scale \
                and mu <= max(1e-12 * scale, 0.01 * target):
            status = QpStatus.OPTIMAL
            break

        dual_norm = max(float(np.max(np.abs(y), initial=0.0)), float(z.max()))
        if dual_norm > 1e9 * scale and res_p > 100.0 * feas_tol:
            status = QpStatus.INFEASIBLE
            break

        w_g, w_l, w_u = split(z / s)
        w_b = w_l + w_u
        vals = np.concatenate([w_g[pair_row] * pair_prod, red.p, w_b, tail])
        try:
            kkt_solve = ordered.solver(vals, lambda v: np.concatenate([
                red.gt @ (w_g * (red.g @ v[:nr])) + red.p * v[:nr]
                + w_b * v[:nr] + red.at @ v[nr:], red.a @ v[:nr]]))
        except RuntimeError:
            break

        def newton(rc):
            sol = kkt_solve(np.concatenate(
                [-rd - ct_mul((rc + z * rp) / s), -rp_e]))
            dx = sol[:nr]
            ds = -rp - c_mul(dx)
            return dx, sol[nr:], ds, (rc - z * ds) / s

        # predictor; its separate lengths only set the centring sigma
        _, _, ds_a, dz_a = newton(-s * z)
        mu_aff = float((s + _max_step(s, ds_a) * ds_a)
                       @ (z + _max_step(z, dz_a) * dz_a)) / mc
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector; one length for primal and dual, since with P != 0 a
        # dual residual left by unequal lengths grows with (a_p - a_d) P dx
        dx, dy, ds, dz = newton(-s * z + sigma * mu - ds_a * dz_a)
        alpha = 0.995 * min(_max_step(s, ds), _max_step(z, dz))
        stalls = stalls + 1 if alpha < 1e-11 else 0
        if stalls >= 3:
            break
        x += alpha * dx
        y += alpha * dy
        s += alpha * ds
        z += alpha * dz

    if status == QpStatus.INFEASIBLE:
        return finish(x, y, *split(z), QpStatus.INFEASIBLE, it,
                      Polish.INTERIOR)

    if best is not None and status != QpStatus.OPTIMAL:
        _, (x, y, s, z) = best

    # polish: a row is active when its multiplier exceeds its slack
    cand = _polish(red, x, y, z[:mi], *split(z > s), reg,
                   lambda *pt: finish(*pt, QpStatus.OPTIMAL, it,
                                      Polish.POLISHED))
    if cand is not None:
        return cand
    return finish(x, y, *split(z), status, it, Polish.INTERIOR)
