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
(a_p - a_d) P dx in the dual residual.  One primal active-set method
(ibid., Alg. 16.3; ``_continue``) polishes, each step a regularised KKT
solve on its working set (Stellato et al., "OSQP: an operator splitting
solver for quadratic programs", Math. Prog. Comp. 2020, section 5.2),
from the interior point's point on the active set it points to, or from
a warm start's point on the constraints that point meets; only an answer
whose KKT residuals certify it is kept.  The active set settles long
before the interior point's sharp target (El-Bakry, Tapia & Zhang, "A
study of indicators for identifying zero variables in interior-point
methods", SIAM Review 1994), so a guess that the predictor's affine point
keeps is polished at once, and a certified answer ends the solve.  A
``LinearConstraintSet`` presolves once, at its first solve, and holds it:
every later solve on the same object reduces only ``p`` and ``q``; its
finite bounds are held for the residuals the same way.  Each regularised,
quasi-definite saddle system (Vanderbei, SIAM J. Optim. 1995) is factored
sparse by SuperLU with unrelaxed supernodes, which suit these very sparse
factors (``_factor``).  Such a matrix has an LDL' factor in every
symmetric order, so each solve orders its Newton pattern once and factors
every Newton matrix in that order on the diagonal (``_NewtonOrder``); the
polish and presolve saddles, with only the regularisation on some
diagonal entries, keep threshold pivots (``_saddle_parts``).  The held
presolve keeps one polish factor per p, and solves the saddles of nearby
active sets through a border on it (``_Border``) rather than refactor.
``QpSolution.polish`` says which path produced the answer.  Everything is
deterministic: the same sequence of solves on a constraint set gives the
same answers, bit for bit.  A polish that borders the held factor depends
on the solves before it on that set, as the factor keeps their active set
and regularisation.
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
# primal feasibility tolerance of presolve and of the infeasibility test
_FEAS_TOL = 1e-9
# entries a polish factor's border holds before a refactor (``_Border``)
# and steps of the active-set method (``_continue``)
_BORDER, _STEPS = 32, 40
# SuperLU factors made so far (``_factor``), for ``QpSolution.factors``
_factored = [0]


class QpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    INFEASIBLE = "Infeasible"


class Polish(enum.Enum):
    """Which path produced a solution.

    The active-set method (``_continue``) answers three of them:
    ``polished``: run from the interior point's point on its active set,
    once the affine point keeps that set or at the end (``iterations``
    counts the Newton factors, not its steps); ``warm``: run from the
    warm start's point, certified at its first KKT solve, without an
    interior-point iteration (``iterations`` is 1); ``continued``: the
    same after more steps, ``iterations`` counting them.  ``interior``:
    the interior-point point, because no polish certified or the problem
    is infeasible; ``direct``: no iteration was needed (equality rows
    only, every variable fixed, or bounds or rows that presolve found
    contradictory).
    """

    POLISHED = "polished"
    WARM = "warm"
    CONTINUED = "continued"
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
            # a NaN bound or right-hand side compares false everywhere, so
            # it would read as no constraint at all
            if len(shape) == 1 and np.isnan(value).any():
                raise ValueError(f"{name} is NaN at index "
                                 f"{int(np.argmax(np.isnan(value)))}")
            setattr(self, name, value)

    @functools.cached_property
    def transposes(self) -> Tuple[sp.csc_array, sp.csc_array]:
        """(a_eq.T, a_in.T), made once for the products with multipliers."""
        return self.a_eq.T, self.a_in.T

    @functools.cached_property
    def finite_bounds(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        """Columns and values of the finite lower bounds, then of the
        finite upper ones, made once for the residuals."""
        jl, ju = np.flatnonzero(np.isfinite(self.lo)), \
            np.flatnonzero(np.isfinite(self.hi))
        return jl, self.lo[jl], ju, self.hi[ju]

    @functools.cached_property
    def _presolved(self) -> _Reduced:
        """The presolve of these rows and bounds, with its polish-factor
        cache, made by the first solve that reaches it and reused by every
        later solve on this object, cold or warm; raises _Contradiction,
        which is not kept, when they contradict."""
        return _presolve(self)


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
        return float(np.sum((0.5 * self.p * x + self.q) * x))


@dataclass
class QpSolution:
    """``iterations`` counts the interior point's Newton factors; an answer
    without one counts its KKT solves: 1 for ``warm`` and the equality-only
    ``direct`` solve, one per step for ``continued``, and 0 when nothing
    was solved; ``factors`` counts every SuperLU factorization the solve
    made."""

    x: np.ndarray
    duals: Duals
    status: QpStatus
    kkt: KktResiduals
    iterations: int
    polish: Polish
    value: float = 0.0
    factors: int = 0


# ---------------------------------------------------------------------------
# residuals

def kkt_residuals(problem: QpProblem, x: np.ndarray, duals: Duals) -> KktResiduals:
    """Stationarity, primal violation, complementarity and multiplier sign."""
    c = problem.constraints
    x = np.asarray(x, dtype=float)
    slack = c.b_in - c.a_in @ x
    jl, lo, ju, hi = c.finite_bounds
    x_lo, x_hi = x[jl], x[ju]

    def top(v: np.ndarray) -> float:
        return float(np.max(v, initial=0.0))

    a_eq_t, a_in_t = c.transposes
    stat = (problem.p * x + problem.q + a_eq_t @ duals.eq
            + a_in_t @ duals.ineq - duals.lower + duals.upper)
    # the leading 0.0 keeps max() of the parts as it always was under NaN
    primal = max([0.0, top(np.abs(c.a_eq @ x - c.b_eq)), top(-slack),
                  top(lo - x_lo), top(x_hi - hi)])
    comp = max([0.0, top(np.abs(duals.ineq * slack)),
                top(np.abs(duals.lower[jl] * (x_lo - lo))),
                top(np.abs(duals.upper[ju] * (hi - x_hi)))])
    signed = np.concatenate([duals.ineq, duals.lower, duals.upper])
    return KktResiduals(stationarity=top(np.abs(stat)), primal=primal,
                        complementarity=comp,
                        dual=max(0.0, -float(signed.min(initial=0.0))))


# ---------------------------------------------------------------------------
# internals

@dataclass
class _Reduced:
    """Problem after presolve: fixed variables substituted out.  A
    constraint set's presolve holds p and q empty; each solve reduces its
    own onto a copy."""

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
    fixed: np.ndarray         # indices of the substituted ones
    fixed_vals: np.ndarray    # full-length; NaN where free
    eq_keep: np.ndarray       # surviving equality row indices
    in_keep: np.ndarray       # surviving inequality row indices
    jl: np.ndarray            # surviving columns with a finite lower bound
    ju: np.ndarray            # ... and with a finite upper bound
    b_max: float              # max |b| and max |h|, for the solve's scale
    h_max: float
    # the polish factor (``_Border``) by p, and what ``_held`` makes,
    # shared by the solves on it
    factor: dict = field(default_factory=dict)
    held: dict = field(default_factory=dict)


class _Contradiction(Exception):
    pass


def _presolve(c: LinearConstraintSet) -> _Reduced:
    """Substitute out fixed variables and check the rows left.  Nothing
    here depends on the objective, so a constraint set presolves once
    (``LinearConstraintSet._presolved``)."""
    lo, hi = c.lo, c.hi
    # no real number lies in [inf, inf] or [-inf, -inf]; every interval
    # left has hi - lo defined
    empty = (lo > hi) | (lo == np.inf) | (hi == -np.inf)
    if np.any(empty):
        i = int(np.argmax(empty))
        raise _Contradiction(f"bounds contradict at column {i}: "
                             f"[{lo[i]}, {hi[i]}] is empty")
    fixed = np.isfinite(lo) & np.isfinite(hi) & (hi - lo <= 1e-12)
    free = np.flatnonzero(~fixed)
    fixed_vals = np.full(c.n_vars, np.nan)
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
        bad = empty & (np.abs(rhs_r) > _FEAS_TOL if is_eq
                       else rhs_r < -_FEAS_TOL)
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
    lo_r, hi_r = lo[free], hi[free]
    red = _Reduced(p=np.zeros(0), q=np.zeros(0), a=a_r, b=b_r, g=g_r,
                   h=h_r, at=a_r.T, gt=g_r.T, lo=lo_r, hi=hi_r, free=free,
                   fixed=np.flatnonzero(fixed), fixed_vals=fixed_vals,
                   eq_keep=eq_keep, in_keep=in_keep,
                   jl=np.flatnonzero(np.isfinite(lo_r)),
                   ju=np.flatnonzero(np.isfinite(hi_r)),
                   b_max=float(np.max(np.abs(b_r), initial=0.0)),
                   h_max=float(np.max(np.abs(h_r), initial=0.0)))
    if b_r.size:
        # rank-inconsistent equality systems never reach the iteration: the
        # regularised min-norm solve of [[I, A'], [A, -1e-10 I]] leaves a
        # residual only where b has a part outside the range of A
        nf = free.size
        x = _refined(*_saddle_parts(red, np.arange(nf), np.zeros(
            h_r.size, dtype=bool), np.ones(nf), 1e-10), 1)(
            np.concatenate([np.zeros(nf), b_r]))[:nf]
        gap = float(np.max(np.abs(a_r @ x - b_r)))
        if gap > 1e-7 * (1.0 + float(np.max(np.abs(b_r)))):
            raise _Contradiction(
                f"equality rows are mutually inconsistent (residual {gap:.3e})")
    return red


def _held(red: _Reduced, name: str) -> object:
    """What the presolve holds under ``name``, made by the first solve that
    needs it, so a presolve that only ever solves cold pays nothing for it:
    ``cols``, a and g by column (``_Border``); ``part``, the component of
    each column, then of each inequality and equality row (``_continue``)."""
    if name not in red.held:
        red.held[name] = (red.a.tocsc(), red.g.tocsc()) if name == "cols" \
            else _components(sp.vstack([red.g, red.a], format="csr"))
    return red.held[name]


def _components(rows: sp.csr_array) -> np.ndarray:
    """Each column's, then each row's component of the graph that joins a
    row to the columns of its entries, named by one of its columns: labels
    spread from columns to rows and back, and jump to their label's label
    (Shiloach & Vishkin, J. Algorithms 1982), until they settle.  Every
    row holds an entry, as presolve drops the empty ones."""
    by_col = rows.tocsc()
    on = np.flatnonzero(np.diff(by_col.indptr))     # columns in some row
    label = np.arange(rows.shape[1])
    while True:
        at_row = np.minimum.reduceat(label[rows.indices], rows.indptr[:-1])
        new = label.copy()
        new[on] = np.minimum(label[on], np.minimum.reduceat(
            at_row[by_col.indices], by_col.indptr[on]))
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            return np.concatenate([label, at_row])
        label = new


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
    largest entry; a singular matrix raises RuntimeError.

    Supernodes are not relaxed and panels are one column wide.  SuperLU's
    defaults (relaxed supernodes of about 8-12 columns, wider panels) are
    tuned for factors whose supernodes are large (Demmel et al., "A
    supernodal approach to sparse partial pivoting", SIAM J. Matrix Anal.
    Appl. 1999); these saddles are very sparse, and relaxed supernodes
    store and update explicit zeros.  Unrelaxed, one joint-modes pass's
    Newton factors took half the time, and the polish factor of joint TEM
    at N=200, T=24 fell from 975k to 479k entries in L+U."""
    _factored[0] += 1
    slot, indices, indptr = pattern
    size = indptr.size - 1
    mat = sp.csc_matrix((np.bincount(slot, vals, indices.size), indices,
                         indptr), shape=(size, size))
    return spla.splu(mat, permc_spec=permc_spec, diag_pivot_thresh=pivot,
                     relax=1, panel_size=1,
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


def _saddle_parts(red: _Reduced, free: np.ndarray, act_g: np.ndarray,
                  pf: np.ndarray, reg: float
                  ) -> Tuple[Callable[[np.ndarray], np.ndarray],
                             Callable[[np.ndarray], np.ndarray]]:
    """The factored solve of [[diag(pf) + reg I, R'], [R, -reg I]] on the
    ``free`` columns, R: the equality rows over the ``act_g`` inequality
    rows, read from their entries, so no stacked matrix is formed; and the
    unregularised product; a singular one raises.

    Every saddle here is quasi-definite, so an LDL' factor exists in any
    symmetric order; how accurate it is depends on the diagonal.  The
    interior point's Newton matrices hold p and the slack weights there and
    factor on the diagonal alone (``_NewtonOrder``).  The polish and
    presolve saddles, made here, hold only reg (about 1e-10) on the
    diagonal of columns with p = 0, and keep threshold pivots: factored on
    the diagonal, the saddles of one benchmark distributed run (N=5, T=8,
    48 iterations) took 54 factorizations instead of 52, and 109 instead
    of 101 on the held-out scenario."""
    nf, me, m = free.size, red.b.size, red.b.size + int(act_g.sum())
    col = np.full(red.lo.size, -1)
    col[free] = np.arange(nf)
    (ar, ac, av), (gr, gc, gv) = _triplets(red.a), _triplets(red.g)
    in_a, in_g = col[ac] >= 0, act_g[gr] & (col[gc] >= 0)
    r = np.concatenate([ar[in_a], me + np.cumsum(act_g)[gr[in_g]] - 1])
    c = col[np.concatenate([ac[in_a], gc[in_g]])]
    v = np.concatenate([av[in_a], gv[in_g]])
    diag = np.arange(nf)
    lu = _factor(_saddle_pattern(diag, diag, r, c, nf, m),
                 np.concatenate([pf + reg, v, v, np.full(m, -reg)]),
                 "MMD_AT_PLUS_A", 0.01)
    return lu.solve, lambda u: np.concatenate([
        pf * u[:nf] + np.bincount(c, v * u[nf:][r], nf),
        np.bincount(r, v * u[c], m)])


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


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    return float(min(1.0, np.min(-v[neg] / dv[neg], initial=1.0)))


class _Border:
    """A polish factor K made on one active set, and the saddles of nearby
    ones as [[K, V], [V', C]] (Bartlett & Biegler, "QPSchur", Optim. Eng.
    2006): a column fixed or row dropped pins its unknown (v = e_i, C = 0),
    one released or added brings its entries.  Each entry held keeps K^-1 v
    and its row of S = C - V'K^-1 V; the dense work is numpy, not BLAS."""

    def __init__(self, red: _Reduced, fixed: np.ndarray, act_g: np.ndarray,
                 reg: float):
        n, me = red.lo.size, red.b.size
        # red without the factor dict that holds this border, and solves
        # that do not hold it either: no cycle keeps a dropped constraint
        # set's factors alive until the garbage collector runs
        self.red = replace(red, factor={})
        self.reg, self.base = reg, np.concatenate([fixed, act_g])
        self.free, self.act = np.flatnonzero(~fixed), np.flatnonzero(act_g)
        nf = self.free.size
        # base position of column j, and of inequality row i at n + i
        self.pos = np.full(self.base.size, -1)
        self.pos[self.free] = np.arange(nf)
        self.pos[n + self.act] = nf + me + np.arange(self.act.size)
        self.size = nf + me + self.act.size
        self.solve, self.mul = _saddle_parts(red, self.free, act_g,
                                             red.p[self.free], reg)
        # entries held: index by entry, (position, value, index) of the
        # nonzeros of V and K^-1 V, and S and C over them
        self.slot = np.full(self.base.size, -1)
        self.v = self.z = (np.zeros(0, int), np.zeros(0), np.zeros(0, int))
        self.s, self.c = np.zeros((2, _BORDER, _BORDER))
        self.held, self.last = 0, (None, None)  # last border, its solve

    def _add(self, e: int) -> None:
        """Hold entry e: column e, or inequality row e - n."""
        red, n, k, g = self.red, self.red.lo.size, self.held, self.red.g
        at, val, near = self.pos[e:e + 1], np.ones(1), np.zeros(0, int)
        nval = near
        if self.pos[e] < 0 and e < n:   # a column's entries on the rows
            a, gc = _held(red, "cols")
            i, j = (slice(m.indptr[e], m.indptr[e + 1]) for m in (a, gc))
            at, val = self.free.size + a.indices[i], a.data[i]
            near, nval = n + gc.indices[j], gc.data[j]
        elif self.pos[e] < 0:           # a row's on the columns
            i = slice(g.indptr[e - n], g.indptr[e - n + 1])
            at, val, near, nval = [], [], g.indices[i], g.data[i]
        if self.pos[e] < 0:             # on the base to V, else to C
            on = self.pos[near] >= 0
            at = np.concatenate([at, self.pos[near[on]]]).astype(int)
            val = np.concatenate([val, nval[on]])
            near, nval = self.slot[near[~on]], nval[~on]
        c = np.zeros(k + 1)
        c[near[near >= 0]] = nval[near >= 0]
        c[k] = red.p[e] if self.pos[e] < 0 and e < n else 0.0
        z = self.solve(np.bincount(at, val, self.size))
        nz = np.flatnonzero(z)
        self.v, self.z = (tuple(map(np.concatenate, zip(t, (i, w, np.full(
            i.size, k))))) for t, i, w in ((self.v, at, val),
                                           (self.z, nz, z[nz])))
        row = c - np.bincount(self.v[2], self.v[1] * z[self.v[0]], k + 1)
        row[k] += 0.0 if self.pos[e] >= 0 else self.reg if e < n else -self.reg
        self.s[k, :k + 1] = self.s[:k + 1, k] = row
        self.c[k, :k + 1] = self.c[:k + 1, k] = c
        self.slot[e], self.held = k, k + 1

    def solver(self, fixed: np.ndarray, act_g: np.ndarray
               ) -> Optional[Callable[..., Tuple[np.ndarray, ...]]]:
        """The solve, (x, y, row multiplier) steps from right-hand sides on
        columns, equality and inequality rows, with bounds ``fixed`` and
        rows ``act_g`` active, refined thrice on the base and once when
        bordered; None past ``_BORDER`` entries held or when S is singular
        or worse conditioned than 1e10."""
        border = np.flatnonzero(np.concatenate([fixed, act_g]) != self.base)
        if border.tobytes() != self.last[0]:
            self.last = (border.tobytes(), self._solver(border))
        return self.last[1]

    def _solver(self, border: np.ndarray) -> Optional[Callable]:
        for e in border[self.slot[border] < 0].tolist():
            if self.held == _BORDER:
                return None
            self._add(e)
        n, nf, size = self.red.lo.size, self.free.size, self.size
        k, ix, pin = border.size, self.slot[border], self.pos[border] >= 0
        base, mul, free, act = self.solve, self.mul, self.free, self.act
        refined = _refined(base, mul, 3)
        if k:
            rank = np.full(self.held, -1)
            rank[ix] = np.arange(k)
            (at, val, own), (zr, zv, zo) = (
                (t[0][i >= 0], t[1][i >= 0], i[i >= 0])
                for t in (self.v, self.z) for i in [rank[t[2]]])
            schur, c0 = self.s[ix[:, None], ix], self.c[ix[:, None], ix]
            # the 1-norm condition number of D S D, D = |diag S|^-1/2
            o = np.abs(np.diag(schur))
            try:    # a zero on the diagonal reads as ill conditioned
                o = 1.0 / np.sqrt(np.maximum(o[:, None] * o, 1e-300))
                inv = np.linalg.inv(schur)
            except np.linalg.LinAlgError:
                return None
            if not (np.abs(schur * o).sum(0).max() * np.abs(
                    inv / o).sum(0).max() <= 1e10):
                return None

            def bordered(r):
                t = base(r[:size])
                w = np.einsum("ij,j->i", inv,
                              r[size:] - np.bincount(own, val * t[at], k))
                return np.concatenate([
                    t - np.bincount(zr, zv * w[zo], size), w])
            refined = _refined(bordered, lambda u: np.concatenate([
                mul(u[:size]) + np.bincount(at, val * u[size:][own], size),
                np.bincount(own, val * u[at], k)
                + np.einsum("ij,j->i", c0, u[size:])]), 1)

        def solve(rx, re, rg):
            u = refined(np.concatenate([rx[free], re, rg[act], np.where(
                pin, 0.0, np.concatenate([rx, rg])[border])]))
            out = np.zeros(n + rg.size)
            out[free], out[n + act] = u[:nf], u[nf + re.size:size]
            out[border] = np.where(pin, 0.0, u[size:])
            return out[:n], u[nf:nf + re.size], out[n:]
        return solve


def _kkt_point(red: _Reduced, x0: np.ndarray, y0: np.ndarray,
               zg0: np.ndarray, act_g: np.ndarray, act_l: np.ndarray,
               act_u: np.ndarray, reg: float) -> Optional[tuple]:
    """The regularised KKT solve on an active set, bound columns fixed at
    their bounds, as (x, y, raw row, lower and upper bound multipliers), or
    None if it is singular.  Columns with an active bound are fixed; the
    other columns, the equality rows and the active inequality rows form
    one saddle system, solved for the step from (x0, y0, zg0), not for the
    point itself, so the regularisation keeps flat primal directions and
    degenerate multipliers where the start put them.  The held factor
    solves it, made anew here, with this reg, if none is held for this p
    or it cannot border this set (``_Border``)."""
    fixed, key = act_l | act_u, red.p.tobytes()
    x = np.where(act_l, red.lo, np.where(act_u, red.hi, x0))
    raw_g = np.where(act_g, zg0, 0.0)     # no active-row matrix formed
    grad = red.p * x + red.q + red.at @ y0 + red.gt @ raw_g
    try:
        solve = key in red.factor and red.factor[key].solver(fixed, act_g)
        if not solve:
            red.factor.clear()
            red.factor[key] = _Border(red, fixed, act_g, reg)
            solve = red.factor[key].solver(fixed, act_g)
        dx, dy, dz = solve(-grad, -(red.a @ x - red.b), -(red.g @ x - red.h))
    except RuntimeError:        # singular
        return None
    x, y, raw_g = (np.where(fixed, x, x + dx), y0 + dy,
                   np.where(act_g, raw_g + dz, 0.0))
    grad = red.p * x + red.q + red.at @ y + red.gt @ raw_g
    return (x, y, raw_g, np.where(act_l, grad, 0.0),
            np.where(act_u, -grad, 0.0))


def _continue(red: _Reduced, x: np.ndarray, y: np.ndarray, zg: np.ndarray,
              work: np.ndarray, reg: float, tol: float,
              certify: Callable[..., QpSolution]) -> Optional[QpSolution]:
    """A primal active-set method (Nocedal & Wright, Alg. 16.3) from x on
    the working set ``work`` (rows, lower, upper bounds), one
    ``_kkt_point`` a step.  x need not be feasible: each step meets the
    equality and working rows and holds the working bounds, and stops in
    each connected component (the objective separates over them) at the
    nearest constraint outside the set that it would cross or leave
    violated, a violated one at length 0, which joins the set.  An
    unblocked step drops multipliers below -``tol``, or else ``certify``
    takes it, multipliers clipped at 0, with the steps made so far and, if
    uncertified, drops the most negative.  None past ``_STEPS`` steps, at
    a singular saddle, or with no negative multiplier left."""
    mi, n = red.h.size, red.lo.size
    act_g, act_l, act_u = work[:mi], work[mi:mi + n], work[mi + n:]
    for step in range(_STEPS):
        x = np.where(act_l, red.lo, np.where(act_u, red.hi, x))
        pt = _kkt_point(red, x, y, zg, act_g, act_l, act_u, reg)
        if pt is None:
            return None
        p, y, zg = pt[0] - x, pt[1], pt[2]
        slack = np.concatenate([red.h - red.g @ x, x - red.lo, red.hi - x])
        move = np.concatenate([red.g @ p, -p, p])
        i = np.flatnonzero(~work & (move > slack + 1e-3 * _FEAS_TOL))
        if i.size:
            ratio = np.maximum(slack[i], 0.0) / np.where(
                slack[i] > 0.0, move[i], 1.0)
            comp = _held(red, "part")       # made once a step blocks
            part = comp[np.where(i < mi, n + i, (i - mi) % n)]
            first = np.lexsort((ratio, part))
            first = first[np.unique(part[first], return_index=True)[1]]
            alpha = np.ones(comp.size)
            alpha[part[first]] = ratio[first]
            x, work[i[first]] = x + alpha[comp[:n]] * p, True
            continue
        raw = np.where(work, np.concatenate(pt[2:]), 0.0)
        if raw.min() >= -tol:
            cand = certify(*pt[:2], *(np.maximum(v, 0.0) for v in pt[2:]),
                           steps=step + 1)
            if cand.status is QpStatus.OPTIMAL or raw.min() >= 0.0:
                return cand if cand.status is QpStatus.OPTIMAL else None
        work[(raw < -tol) | (raw == raw.min())] = False
        x = pt[0]
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
    if red.fixed.size:
        a_eq_t, a_in_t = c.transposes
        r = (problem.p * x + problem.q + a_eq_t @ y + a_in_t @ zg)[red.fixed]
        zl[red.fixed] = np.maximum(r, 0.0)
        zu[red.fixed] = np.maximum(-r, 0.0)
    return x, Duals(eq=y, ineq=zg, lower=zl, upper=zu)


# ---------------------------------------------------------------------------
# main entry point

def solve_qp(problem: QpProblem, tol: float = 1e-8,
             warm_start: Optional[QpSolution] = None) -> QpSolution:
    """Solve the QP to ``tol`` on every KKT residual norm.

    The interior point runs to its own sharp target on C x <= d, where
    C = [G; -I_lo; I_hi] stacks the inequality rows and the finite bounds,
    which stay implicit, so the condensed matrix is G'W_gG + diag(p + w).
    The polish runs the active-set method (``_continue``) from the
    interior point's point on the rows whose multiplier exceeds their
    slack until a point certifies within ``tol``: inside the loop once the
    predictor's affine point keeps that guess (a guess whose polish failed
    is not tried again) and at the end; if none certifies, the
    interior-point point is returned.  ``warm_start`` takes a previous
    solution on the same constraints; from its point, if feasible within
    ``_FEAS_TOL``, the same method answers, else the interior point runs.  A
    warm start sized for other constraints raises ValueError.  The
    presolve and polish factor are held by the ``constraints`` object,
    whose arrays must not change in place once it has been solved.
    ``QpSolution.polish`` records which path answered."""
    c = problem.constraints
    n = problem.q.size
    start = _factored[0]
    if warm_start is not None:
        wd = warm_start.duals
        for name, v, size in (("x", warm_start.x, n),
                              ("eq", wd.eq, c.b_eq.size),
                              ("ineq", wd.ineq, c.b_in.size),
                              ("lower", wd.lower, n), ("upper", wd.upper, n)):
            if np.shape(v) != (size,):
                raise ValueError(f"warm start {name} has shape {np.shape(v)}"
                                 f", not ({size},): another constraint set's")

    try:
        red = c._presolved
    except _Contradiction:
        x0 = np.clip(np.zeros(n), np.where(np.isfinite(c.lo), c.lo, -np.inf),
                     np.where(np.isfinite(c.hi), c.hi, np.inf))
        duals = Duals(eq=np.zeros(c.a_eq.shape[0]), ineq=np.zeros(c.a_in.shape[0]),
                      lower=np.zeros(n), upper=np.zeros(n))
        return QpSolution(x=x0, duals=duals, status=QpStatus.INFEASIBLE,
                          kkt=kkt_residuals(problem, x0, duals), iterations=0,
                          value=problem.objective(x0), polish=Polish.DIRECT,
                          factors=_factored[0] - start)

    red = replace(red, p=problem.p[red.free], q=problem.q[red.free])
    scale = 1.0 + max(float(np.max(np.abs(red.q), initial=0.0)), red.b_max,
                      red.h_max)
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
                          polish=polish, factors=_factored[0] - start)

    nr = red.q.size
    if nr == 0:
        return finish(np.zeros(0), np.zeros(red.a.shape[0]),
                      np.zeros(red.g.shape[0]), np.zeros(0), np.zeros(0),
                      QpStatus.OPTIMAL, 0, Polish.DIRECT)

    jl_idx, ju_idx = red.jl, red.ju
    mi, me, nl = red.g.shape[0], red.a.shape[0], jl_idx.size
    mc = mi + nl + ju_idx.size

    if mc == 0:
        # equality-constrained (or unconstrained): one saddle solve
        sol = _refined(*_saddle_parts(red, np.arange(nr), np.zeros(
            0, dtype=bool), red.p, reg), 2)(np.concatenate([-red.q, red.b]))
        return finish(sol[:nr], sol[nr:], np.zeros(0), np.zeros(nr),
                      np.zeros(nr), QpStatus.OPTIMAL, 1, Polish.DIRECT)

    # --- warm start: the active-set continuation from a feasible previous
    # point, on the constraints it meets or holds a positive multiplier of
    if warm_start is not None:
        x_w, zg_w = warm_start.x[red.free], wd.ineq[red.in_keep]
        gap = np.concatenate([red.g @ x_w - red.h, red.lo - x_w,
                              x_w - red.hi])
        if max(gap.max(), np.abs(red.a @ x_w - red.b).max(initial=0.0)) \
                <= _FEAS_TOL:
            cand = _continue(
                red, x_w, wd.eq[red.eq_keep], zg_w, (gap >= 0) | (
                    np.concatenate([zg_w, wd.lower[red.free],
                                    wd.upper[red.free]]) > 0), reg,
                tol, lambda *pt, steps: finish(
                    *pt, QpStatus.OPTIMAL, steps,
                    Polish.CONTINUED if steps > 1 else Polish.WARM))
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
    jl, ju = np.isfinite(red.lo), np.isfinite(red.hi)
    lo, hi = np.where(jl, red.lo, 0.0), np.where(ju, red.hi, 0.0)
    x = np.where(jl & ju, 0.5 * (lo + hi),
                 np.where(jl, lo + 1.0, np.where(ju, hi - 1.0, 0.0)))

    s = np.maximum(d - c_mul(x), 1.0)
    z = np.ones(mc)
    y = np.zeros(me)

    best = None
    stalls = 0
    status = QpStatus.MAX_ITER
    factors = 0         # Newton matrices factored: the reported iterations
    failed = set()      # active-set guesses whose polish did not certify

    def polish(x, y, z, guess) -> Optional[QpSolution]:
        # its steps are not iterations, which count Newton factors
        act_g, act_l, act_u = split(guess)
        return _continue(red, x, y, z[:mi], np.concatenate(
            [act_g, act_l, act_u & ~act_l]), reg, tol, lambda *pt, steps:
            finish(*pt, QpStatus.OPTIMAL, factors, Polish.POLISHED))

    for _ in range(_IPM_CAP):
        rd = red.p * x + red.q + red.at @ y + ct_mul(z)
        rp_e = red.a @ x - red.b
        rp = c_mul(x) + s - d
        # np.sum, not a BLAS dot product, whose split across threads
        # would make the iterates depend on the thread count
        mu = float(np.sum(s * z)) / mc
        res_p = max(float(np.max(np.abs(rp_e), initial=0.0)),
                    float(np.max(np.abs(rp))))
        res_d = float(np.max(np.abs(rd), initial=0.0))

        if best is None or max(res_p, res_d) + mu < best[0]:
            best = (max(res_p, res_d) + mu,
                    (x.copy(), y.copy(), s.copy(), z.copy()))
        # iterate to the sharpest practical target regardless of the
        # caller's tolerance; tol only gates certification at the end,
        # which reads the largest s z, not their mean mu
        target = min(tol, 1e-8)
        if res_p <= 0.5 * target * scale and res_d <= 0.5 * target * scale \
                and mu <= max(1e-12 * scale, 0.01 * target) \
                and float(np.max(s * z)) <= 0.5 * target:
            status = QpStatus.OPTIMAL
            break

        dual_norm = max(float(np.max(np.abs(y), initial=0.0)), float(z.max()))
        if dual_norm > 1e9 * scale and res_p > 100.0 * _FEAS_TOL:
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
        factors += 1

        def newton(rc):
            sol = kkt_solve(np.concatenate(
                [-rd - ct_mul((rc + z * rp) / s), -rp_e]))
            dx = sol[:nr]
            ds = -rp - c_mul(dx)
            return dx, sol[nr:], ds, (rc - z * ds) / s

        # predictor; its separate lengths only set the centring sigma
        _, _, ds_a, dz_a = newton(-s * z)
        s_aff = s + _max_step(s, ds_a) * ds_a
        z_aff = z + _max_step(z, dz_a) * dz_a
        mu_aff = float(np.sum(s_aff * z_aff)) / mc
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # a guess that the affine point keeps has settled: polish it now,
        # once, rather than iterate to the sharp target first
        guess = z > s
        key = guess.tobytes()
        if key not in failed and np.array_equal(z_aff > s_aff, guess):
            cand = polish(x, y, z, guess)
            if cand is not None:
                return cand
            failed.add(key)

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
        return finish(x, y, *split(z), QpStatus.INFEASIBLE, factors,
                      Polish.INTERIOR)

    if best is not None and status != QpStatus.OPTIMAL:
        _, (x, y, s, z) = best

    # polish: a row is active when its multiplier exceeds its slack
    return polish(x, y, z, z > s) or finish(x, y, *split(z), status,
                                            factors, Polish.INTERIOR)
