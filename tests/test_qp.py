"""QP solver tests: analytic cases, brute-force cross-checks, KKT quality."""

import dataclasses
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gridledger import qp
from gridledger.energy_model import (
    Mode,
    build_user_constraints,
    build_user_objective,
    schedule_from_x,
    user_layout,
)
from gridledger.qp import (
    Duals,
    LinearConstraintSet,
    Polish,
    QpProblem,
    QpStatus,
    _Contradiction,
    _presolve,
    kkt_residuals,
    solve_qp,
)
from gridledger.scenario import generate_synthetic
from gridledger.tem import assemble_problem

# (homes, slots) of the acceptance battery; case i uses generator seed 10 + i
BATTERY_CASES = ((2, 4), (3, 4), (2, 8), (3, 8), (5, 8), (3, 24))


def make_cs(n, a_eq=None, b_eq=None, a_in=None, b_in=None, lo=None, hi=None):
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, float)
    a_in = np.zeros((0, n)) if a_in is None else np.asarray(a_in, float)
    b_in = np.zeros(0) if b_in is None else np.asarray(b_in, float)
    lo = np.full(n, -np.inf) if lo is None else np.asarray(lo, float)
    hi = np.full(n, np.inf) if hi is None else np.asarray(hi, float)
    return LinearConstraintSet(n_vars=n, a_eq=a_eq, b_eq=b_eq, a_in=a_in,
                               b_in=b_in, lo=lo, hi=hi)


@dataclasses.dataclass(frozen=True)
class GridSolution:
    x: np.ndarray
    value: float


def grid_oracle(problem: QpProblem,
                box: Optional[Sequence[Tuple[float, float]]] = None,
                resolution: int = 101, feas_tol: float = 1e-9
                ) -> Optional[GridSolution]:
    """Best feasible point on an axis-aligned grid, or None if none is.

    An independent brute-force check that shares no code with the solver:
    it evaluates ``resolution`` points per axis over ``box`` (default: the
    variable bounds, which must then be finite), keeps the points that
    satisfy every constraint within ``feas_tol`` and returns the one with
    the lowest objective.  Only usable for dimension <= 4.
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
    g, h = c.a_in, c.b_in

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
        vals = 0.5 * (feas ** 2) @ problem.p + feas @ problem.q
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = feas[i].copy()
    if best_x is None:
        return None
    return GridSolution(x=best_x, value=best_val)


class TestProblemValidation:
    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="shape"):
            QpProblem(p=np.eye(2), q=np.zeros(2), constraints=make_cs(2))

    def test_rejects_negative_entry(self):
        for p in ([-1.0, 1.0], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="nonnegative"):
                QpProblem(p=np.array(p), q=np.zeros(2), constraints=make_cs(2))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            QpProblem(p=np.full(2, 1.0), q=np.zeros(2), constraints=make_cs(3))

    @pytest.mark.parametrize("field, rows", [
        ("a_eq", dict(a_eq=np.eye(2), b_eq=[1.0])),
        ("a_eq", dict(a_eq=np.ones((1, 3)), b_eq=[1.0])),
        ("a_in", dict(a_in=np.eye(2), b_in=[1.0, 2.0, 3.0])),
        ("b_eq", dict(a_eq=np.eye(2), b_eq=np.ones((2, 1)))),
        ("lo", dict(lo=np.zeros(3))),
        ("hi", dict(hi=np.zeros(1))),
    ], ids=["rhs-too-short", "too-many-columns", "rhs-too-long",
            "rhs-not-a-vector", "lo-length", "hi-length"])
    def test_rejects_mismatched_rows(self, field, rows):
        """A row matrix must be (len(rhs), n_vars) and the bounds n_vars
        long; a 2x2 a_eq with one right-hand side would otherwise solve by
        broadcasting it."""
        with pytest.raises(ValueError, match=f"^{field} has shape"):
            make_cs(2, **rows)

    def test_objective_value(self):
        prob = QpProblem(p=np.full(1, 2.0), q=np.array([-4.0]),
                         constraints=make_cs(1))
        assert prob.objective(np.array([1.0])) == pytest.approx(-3.0)


class TestAnalyticCases:
    def test_bound_clamp(self):
        # min (x-2)^2 on [0, 1]  ->  x = 1
        prob = QpProblem(p=np.full(1, 2.0), q=np.array([-4.0]),
                         constraints=make_cs(1, lo=[0.0], hi=[1.0]))
        sol = solve_qp(prob)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.value == pytest.approx(-3.0, abs=1e-9)

    def test_equality_projection(self):
        # min x^2 + y^2  s.t.  x + y = 2  ->  (1, 1)
        prob = QpProblem(p=np.full(2, 2.0), q=np.zeros(2),
                         constraints=make_cs(2, a_eq=[[1.0, 1.0]], b_eq=[2.0]))
        sol = solve_qp(prob)
        assert sol.status == QpStatus.OPTIMAL
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-8)

    def test_active_inequality_and_dual(self):
        # min (x-3)^2  s.t.  x <= 1  ->  x = 1, multiplier 4
        prob = QpProblem(p=np.full(1, 2.0), q=np.array([-6.0]),
                         constraints=make_cs(1, a_in=[[1.0]], b_in=[1.0]))
        sol = solve_qp(prob)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.duals.ineq[0] == pytest.approx(4.0, abs=1e-6)

    def test_ge_sense_row(self):
        # min x^2  s.t.  x >= 2, written as the row -x <= -2
        prob = QpProblem(p=np.full(1, 2.0), q=np.zeros(1),
                         constraints=make_cs(1, a_in=[[-1.0]], b_in=[-2.0]))
        sol = solve_qp(prob)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(2.0, abs=1e-8)

    def test_fixed_variable_presolve(self):
        # y pinned to 3 by its bounds; the row 2x + y = 0 couples x to y
        prob = QpProblem(p=np.full(2, 2.0), q=np.zeros(2),
                         constraints=make_cs(2, a_eq=[[2.0, 1.0]], b_eq=[0.0],
                                             lo=[-10.0, 3.0], hi=[10.0, 3.0]))
        sol = solve_qp(prob)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.x[1] == pytest.approx(3.0)
        assert sol.x[0] == pytest.approx(-1.5, abs=1e-8)

    def test_kkt_residuals_hand_values(self):
        prob = QpProblem(p=np.full(1, 2.0), q=np.array([-4.0]),
                         constraints=make_cs(1, lo=[0.0], hi=[1.0]))
        duals = Duals(eq=np.zeros(0), ineq=np.zeros(0),
                      lower=np.zeros(1), upper=np.array([2.0]))
        kkt = kkt_residuals(prob, np.array([1.0]), duals)
        assert kkt.worst() <= 1e-12    # grad 2x-4 = -2 cancelled by upper dual

    def test_kkt_residuals_reject_negative_multiplier(self):
        # min 0.5x^2 - x, x >= 0: x = 0 with lower dual -1 is stationary,
        # feasible and complementary, but the multiplier has the wrong sign
        prob = QpProblem(p=np.full(1, 1.0), q=np.array([-1.0]),
                         constraints=make_cs(1, lo=[0.0]))
        duals = Duals(eq=np.zeros(0), ineq=np.zeros(0),
                      lower=np.array([-1.0]), upper=np.zeros(1))
        kkt = kkt_residuals(prob, np.array([0.0]), duals)
        assert max(kkt.stationarity, kkt.primal, kkt.complementarity) == 0.0
        assert kkt.dual == 1.0
        assert kkt.worst() == 1.0

    @staticmethod
    def _every_family():
        """min x0^2 + x1^2 - 2 x0 with x0 - x1 = 1, x0 + x1 <= 1, x0 in
        [0, 2]: optimal at (1, 0) with every multiplier zero."""
        prob = QpProblem(p=np.full(2, 2.0), q=np.array([-2.0, 0.0]),
                         constraints=make_cs(2, a_eq=[[1.0, -1.0]],
                                             b_eq=[1.0], a_in=[[1.0, 1.0]],
                                             b_in=[1.0], lo=[0.0, -np.inf],
                                             hi=[2.0, np.inf]))
        duals = Duals(eq=np.zeros(1), ineq=np.zeros(1), lower=np.zeros(2),
                      upper=np.zeros(2))
        return prob, np.array([1.0, 0.0]), duals

    @pytest.mark.parametrize("where", ["x", "eq", "ineq", "lower", "upper"])
    def test_kkt_residuals_nan_is_not_certified(self, where):
        prob, x, duals = self._every_family()
        assert kkt_residuals(prob, x, duals).worst() == 0.0
        if where == "x":
            x[1] = np.nan
        else:
            getattr(duals, where)[0] = np.nan
        assert np.isnan(kkt_residuals(prob, x, duals).worst())

    def test_nan_residual_never_certifies_a_solve(self, monkeypatch):
        prob, _, _ = self._every_family()
        assert solve_qp(prob).status is QpStatus.OPTIMAL
        real = qp.kkt_residuals
        monkeypatch.setattr(qp, "kkt_residuals", lambda *a: dataclasses.replace(
            real(*a), stationarity=np.nan))
        sol = solve_qp(prob)
        assert sol.status is QpStatus.MAX_ITER
        assert np.isnan(sol.kkt.worst())

    def test_kkt_residuals_without_rows_or_bounds_are_zero(self):
        # unconstrained: x = -q / p exactly, and every residual is 0.0
        prob = QpProblem(p=np.array([2.0, 4.0]), q=np.array([-4.0, 2.0]),
                         constraints=make_cs(2))
        duals = Duals(eq=np.zeros(0), ineq=np.zeros(0), lower=np.zeros(2),
                      upper=np.zeros(2))
        kkt = kkt_residuals(prob, np.array([2.0, -0.5]), duals)
        assert (kkt.stationarity, kkt.primal, kkt.complementarity,
                kkt.dual) == (0.0, 0.0, 0.0, 0.0)

    def test_kkt_residuals_ignore_infinite_bounds(self):
        # column 0 unbounded both ways, column 1 bounded below only: points
        # far out along an infinite side violate nothing, and a multiplier
        # on an infinite bound adds no complementarity
        prob = QpProblem(p=np.zeros(2), q=np.array([0.5, 0.0]),
                         constraints=make_cs(2, lo=[-np.inf, 0.0],
                                             hi=[np.inf, np.inf]))
        duals = Duals(eq=np.zeros(0), ineq=np.zeros(0),
                      lower=np.array([0.5, 0.0]), upper=np.zeros(2))
        for x in ([-1e300, 1.0], [1e300, 1e300]):
            kkt = kkt_residuals(prob, np.array(x), duals)
            assert (kkt.primal, kkt.complementarity) == (0.0, 0.0)
        # the finite side still counts
        kkt = kkt_residuals(prob, np.array([0.0, -3.0]), duals)
        assert kkt.primal == 3.0


class TestInfeasible:
    def test_crossed_bounds(self):
        prob = QpProblem(p=np.full(1, 2.0), q=np.zeros(1),
                         constraints=make_cs(1, lo=[2.0], hi=[1.0]))
        assert solve_qp(prob).status == QpStatus.INFEASIBLE

    @pytest.mark.parametrize("lo, hi", [([0.0, np.inf], [1.0, np.inf]),
                                        ([0.0, -np.inf], [1.0, -np.inf]),
                                        ([0.0, np.inf], [1.0, 5.0])],
                             ids=["both-plus-inf", "both-minus-inf",
                                  "lower-plus-inf"])
    def test_infinite_empty_bounds(self, lo, hi):
        """A column no real number satisfies is a contradiction named by
        its column, reached without inf - inf."""
        cs = make_cs(2, lo=lo, hi=hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(_Contradiction,
                               match=r"^bounds contradict at column 1: "):
                _presolve(cs)
            sol = solve_qp(QpProblem(p=np.full(2, 2.0), q=np.zeros(2),
                                     constraints=cs))
        assert sol.status == QpStatus.INFEASIBLE

    @pytest.mark.parametrize("field", ["b_eq", "b_in", "lo", "hi"])
    def test_nan_bound_or_rhs_rejected(self, field):
        """A NaN bound or right-hand side raises, naming the field and the
        first NaN's index, instead of reading as no constraint."""
        rows = dict(a_eq=[[1.0, 1.0]] * 2, b_eq=[1.0, 1.0],
                    a_in=[[1.0, 0.0]] * 2, b_in=[2.0, 2.0], lo=[0.0, 0.0],
                    hi=[3.0, 3.0])
        rows[field] = [rows[field][0], np.nan]
        with pytest.raises(ValueError, match=rf"^{field} is NaN at index 1$"):
            make_cs(2, **rows)

    def test_contradictory_equalities(self):
        prob = QpProblem(p=np.full(1, 2.0), q=np.zeros(1),
                         constraints=make_cs(1, a_eq=[[1.0], [1.0]],
                                             b_eq=[0.0, 1.0]))
        assert solve_qp(prob).status == QpStatus.INFEASIBLE

    def test_equality_beyond_bounds(self):
        prob = QpProblem(p=np.full(2, 2.0), q=np.zeros(2),
                         constraints=make_cs(2, a_eq=[[1.0, 1.0]], b_eq=[10.0],
                                             lo=[0.0, 0.0], hi=[1.0, 1.0]))
        assert solve_qp(prob).status == QpStatus.INFEASIBLE

    def test_inequality_against_bound(self):
        prob = QpProblem(p=np.full(1, 2.0), q=np.zeros(1),
                         constraints=make_cs(1, a_in=[[1.0]], b_in=[-1.0],
                                             lo=[0.0], hi=[5.0]))
        assert solve_qp(prob).status == QpStatus.INFEASIBLE

    @pytest.mark.parametrize("rows", [
        dict(a_eq=[[1.0, 0.0]], b_eq=[5.0]),
        dict(a_in=[[1.0, 0.0]], b_in=[0.5]),
    ], ids=["equality", "inequality"])
    def test_row_emptied_by_fixed_column(self, rows):
        # x0 is fixed at 1 by its bounds, so the row reads 0 = 4 (0 <= -0.5)
        prob = QpProblem(p=np.full(2, 2.0), q=np.zeros(2),
                         constraints=make_cs(2, lo=[1.0, -3.0], hi=[1.0, 3.0],
                                             **rows))
        sol = solve_qp(prob)
        assert sol.status == QpStatus.INFEASIBLE
        assert sol.polish is Polish.DIRECT

    def test_duplicated_consistent_rows_still_solve(self):
        prob = QpProblem(p=np.full(2, 2.0), q=np.zeros(2),
                         constraints=make_cs(2, a_eq=[[1.0, 1.0], [2.0, 2.0]],
                                             b_eq=[2.0, 4.0]))
        sol = solve_qp(prob)
        assert sol.status == QpStatus.OPTIMAL
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-8)


def test_presolve_rows_match_row_loop():
    """The vectorised row reduction keeps the rows, and substitutes the
    right-hand sides, that a per-row loop over the fixed columns does."""
    rng = np.random.default_rng(7)
    lo = np.array([1.0, -1.0, 2.0, -2.0, -3.0])
    hi = np.array([1.0, 1.0, 2.0, 2.0, 3.0])      # columns 0 and 2 fixed
    free, xf = [1, 3, 4], np.array([1.0, 0.0, 2.0, 0.0, 0.0])
    a = rng.normal(size=(6, 5))
    a[::2][:, free] = 0.0                          # even rows only see x0, x2
    b = a @ xf + np.where(np.arange(6) % 2 == 0, 0.0, rng.normal(size=6))
    prob = QpProblem(p=np.ones(5), q=np.zeros(5), constraints=make_cs(
        5, a_eq=a[:3], b_eq=b[:3], a_in=a[3:], b_in=b[3:] + 1.0,
        lo=lo, hi=hi))
    red = _presolve(prob.constraints)
    for mat, rhs, keep, got_mat, got_rhs in (
            (a[:3], b[:3], red.eq_keep, red.a, red.b),
            (a[3:], b[3:] + 1.0, red.in_keep, red.g, red.h)):
        rows = [i for i in range(mat.shape[0])
                if np.max(np.abs(mat[i, free])) > 1e-14]
        assert np.array_equal(keep, rows)
        assert np.array_equal(got_mat.toarray(), mat[rows][:, free])
        assert np.array_equal(got_rhs, (rhs - mat @ xf)[rows])


@pytest.mark.parametrize("seed", range(6))
def test_presolve_rows_match_fancy_indexing(seed):
    """The reduced rows built from the CSR index arrays hold the same
    indptr, indices and data as scipy's column-then-row fancy indexing,
    explicit zeros and rows left empty by the fixed columns included."""
    rng = np.random.default_rng(seed)
    m, n = 9, 12
    lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    fixed = rng.permutation(n)[:4]
    lo[fixed] = hi[fixed] = 0.0
    free = np.setdiff1d(np.arange(n), fixed)
    dense = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
    dense[:3][:, free] = 0.0                # rows 0-2 see fixed columns only
    mat = sp.csr_array(dense)
    mat.data[rng.random(mat.nnz) < 0.2] = 0.0      # explicit zeros, stored
    cs = LinearConstraintSet(n_vars=n, a_eq=sp.csr_array((0, n)),
                             b_eq=np.zeros(0), a_in=mat, b_in=np.ones(m),
                             lo=lo, hi=hi)
    red = _presolve(cs)
    keep = np.flatnonzero(np.abs(mat.toarray()[:, free]).max(axis=1)
                          > 1e-14)
    assert keep.min() >= 3 and np.array_equal(red.in_keep, keep)
    want = mat[:, free][keep]
    assert red.g.shape == want.shape
    for field_name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(red.g, field_name),
                              getattr(want, field_name)), field_name


def isotonic_rows(n):
    """Problem factory: min 0.5 |x - c|^2 subject to x_i <= x_{i+1}."""
    a_in = np.eye(n - 1, n) - np.eye(n - 1, n, k=1)
    cs = make_cs(n, a_in=a_in, b_in=np.zeros(n - 1))
    return lambda c: QpProblem(p=np.ones(n), q=-np.asarray(c, dtype=float),
                               constraints=cs)


def _random_problem(rng, n):
    r = rng.normal(size=(n, n))
    p = np.diag(r.T @ r) + 0.1
    q = rng.normal(size=n)
    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)
    a_in = rng.normal(size=(1, n))
    b_in = np.array([rng.uniform(0.5, 2.0)])
    return QpProblem(p=p, q=q,
                     constraints=make_cs(n, a_in=a_in, b_in=b_in, lo=lo, hi=hi))


class TestAgainstGridOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_never_worse_than_grid(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        prob = _random_problem(rng, n)
        sol = solve_qp(prob)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.kkt.worst() <= 1e-8
        oracle = grid_oracle(prob, resolution=101)
        assert oracle is not None
        assert sol.value <= oracle.value + 1e-9

    def test_grid_oracle_exact_on_gridpoint(self):
        # minimizer (1, -1) lies on the 101-point grid over [-2, 2]
        prob = QpProblem(p=np.full(2, 2.0), q=np.array([-2.0, 2.0]),
                         constraints=make_cs(2, lo=[-2.0, -2.0], hi=[2.0, 2.0]))
        oracle = grid_oracle(prob, resolution=101)
        assert isinstance(oracle, GridSolution)
        assert np.allclose(oracle.x, [1.0, -1.0], atol=1e-12)
        sol = solve_qp(prob)
        assert abs(sol.value - oracle.value) <= 1e-9

    def test_grid_oracle_none_when_infeasible(self):
        prob = QpProblem(p=np.full(1, 2.0), q=np.zeros(1),
                         constraints=make_cs(1, a_in=[[1.0]], b_in=[-5.0],
                                             lo=[0.0], hi=[1.0]))
        assert grid_oracle(prob, resolution=11) is None

    def test_grid_oracle_guards(self):
        prob = QpProblem(p=np.full(5, 2.0), q=np.zeros(5),
                         constraints=make_cs(5, lo=np.zeros(5), hi=np.ones(5)))
        with pytest.raises(ValueError, match="dimension"):
            grid_oracle(prob)
        unbounded = QpProblem(p=np.full(1, 2.0), q=np.zeros(1),
                              constraints=make_cs(1))
        with pytest.raises(ValueError, match="bounds"):
            grid_oracle(unbounded)


class TestOnModelProblems:
    def _single_user_problem(self, s, user, mode):
        cs = build_user_constraints(s, [user], mode)
        p_diag, q, _ = build_user_objective(s, [user], mode)
        return QpProblem(p=p_diag, q=q, constraints=cs,
                         layout_tag=f"user{user}-{mode.value}")

    @pytest.mark.parametrize("mode", [Mode.BS1, Mode.TEM])
    def test_home_problem_solves_clean(self, scen_2x4, mode):
        prob = self._single_user_problem(scen_2x4, 0, mode)
        sol = solve_qp(prob)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.kkt.worst() <= 1e-8

    def test_warm_start_consistent(self, scen_2x4):
        prob = self._single_user_problem(scen_2x4, 0, Mode.TEM)
        cold = solve_qp(prob)
        nudged = QpProblem(p=prob.p, q=prob.q + 1e-3, constraints=prob.constraints)
        warm = solve_qp(nudged, warm_start=cold)
        ref = solve_qp(nudged)
        assert warm.status == QpStatus.OPTIMAL
        assert warm.polish is Polish.WARM
        assert warm.value == pytest.approx(ref.value, abs=1e-7)
        assert warm.iterations <= ref.iterations

    def test_warm_start_with_wrong_active_set_falls_back(self):
        # min 0.5x^2 - cx on [0, 1]: c = 2 holds x at 1, c = -2 at 0.  The
        # repair drops the upper bound (multiplier -3), then adds the lower
        # bound that x = -2 violates, and certifies without an iteration
        def box(c):
            return QpProblem(p=np.full(1, 1.0), q=np.array([-c]),
                             constraints=make_cs(1, lo=[0.0], hi=[1.0]))
        first = solve_qp(box(2.0))
        assert first.duals.upper[0] > 0
        sol = solve_qp(box(-2.0), warm_start=first)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.polish is Polish.WARM
        assert sol.iterations == 1
        assert sol.x[0] == 0.0
        assert sol.duals.lower[0] == pytest.approx(2.0, abs=1e-12)

        # an isotonic fit whose warm start holds every row x_i <= x_{i+1}:
        # releasing them frees x to c, and each repair then pools only one
        # more adjacent violator, so four repairs would be needed; past the
        # cap the cold interior point and its polish answer
        iso = isotonic_rows(6)
        first = solve_qp(iso([5.0, 4.0, 3.0, 2.0, 1.0, 0.0]))
        assert np.all(first.duals.ineq > 0)
        sol = solve_qp(iso([0.0, -1.0, -1.0, -1.0, 2.0, 2.0]),
                       warm_start=first)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.polish is Polish.POLISHED
        assert np.allclose(sol.x, [-0.75] * 4 + [2.0, 2.0], atol=1e-12)

    def test_warm_start_one_row_off_is_repaired(self):
        """The warm start has row 0 of the isotonic fit active; the answer
        needs rows 0 and 1.  The first candidate violates row 1, and the
        one repair that adds it certifies as ``warm``."""
        iso = isotonic_rows(6)
        first = solve_qp(iso([0.0, -1.0, 1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(np.flatnonzero(first.duals.ineq > 0), [0])
        sol = solve_qp(iso([0.0, -1.0, -1.0, 2.0, 2.0, 3.0]),
                       warm_start=first)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.polish is Polish.WARM
        assert np.array_equal(np.flatnonzero(sol.duals.ineq > 0), [0, 1])
        assert np.allclose(sol.x, [-2 / 3] * 3 + [2.0, 2.0, 3.0], atol=1e-12)

    def test_warm_start_reuses_presolve_of_same_constraints(self, scen_2x4,
                                                            monkeypatch):
        """The constraint set holds its presolve: the first solve on it,
        cold, presolves, and every later solve on the same object, warm or
        cold, reuses that presolve and answers exactly as a fresh presolve
        does.  An equal but distinct constraint object is presolved anew."""
        prob = self._single_user_problem(scen_2x4, 0, Mode.TEM)
        cs = prob.constraints
        calls = []
        monkeypatch.setattr(qp, "_presolve",
                            lambda *a: calls.append(a[0]) or _presolve(*a))

        def nudged(dq, constraints=cs):
            return QpProblem(p=prob.p, q=prob.q + dq, constraints=constraints)
        cold = solve_qp(prob)
        held = cs._presolved
        assert len(calls) == 1 and calls[0] is cs
        first = solve_qp(nudged(1e-3), warm_start=cold)
        warm = solve_qp(nudged(2e-3), warm_start=first)
        again = solve_qp(nudged(2e-3))
        assert warm.polish is Polish.WARM
        assert cs._presolved is held and len(calls) == 1
        copied = dataclasses.replace(cs)
        fresh = solve_qp(nudged(2e-3, copied), warm_start=first)
        assert len(calls) == 2 and calls[1] is copied
        assert copied._presolved.a is not held.a
        assert np.array_equal(fresh.x, warm.x)
        assert np.array_equal(again.x, solve_qp(nudged(2e-3, copied)).x)

    def test_warm_start_reuses_polish_factor_exactly(self, scen_2x4):
        """A second warm start on the same problem reuses the polish factor
        that the first left in the constraint set's presolve, and its point
        and multipliers are byte-equal to those of a warm start from the
        same solution on a copy of the constraint set, which presolves and
        factors afresh."""
        prob = self._single_user_problem(scen_2x4, 0, Mode.TEM)
        first = solve_qp(prob, warm_start=solve_qp(prob))
        held = prob.constraints._presolved
        factor = dict(held.factor)
        assert len(factor) == 1
        again = solve_qp(prob, warm_start=first)
        copy = dataclasses.replace(
            prob, constraints=dataclasses.replace(prob.constraints))
        fresh = solve_qp(copy, warm_start=first)
        assert again.polish is Polish.WARM and fresh.polish is Polish.WARM
        assert held.factor == factor                  # the same solver
        assert copy.constraints._presolved.factor is not held.factor
        for name in ("eq", "ineq", "lower", "upper"):
            assert (getattr(again.duals, name).tobytes()
                    == getattr(fresh.duals, name).tobytes()), name
        assert again.x.tobytes() == fresh.x.tobytes()

    def test_scaling_invariance(self, scen_2x4):
        """Uniformly scaling the objective scales the value, not the point."""
        prob = self._single_user_problem(scen_2x4, 1, Mode.BS2)
        base = solve_qp(prob)
        scaled = QpProblem(p=10.0 * prob.p, q=10.0 * prob.q,
                           constraints=prob.constraints)
        sol = solve_qp(scaled)
        assert sol.status == QpStatus.OPTIMAL
        assert np.allclose(sol.x, base.x, atol=1e-6)
        assert sol.value == pytest.approx(10.0 * base.value, rel=1e-7)

    @pytest.mark.parametrize("mode,seed,horizon", [
        pytest.param(Mode.BS3, 11, 4, id="Mode.BS3"),
        pytest.param(Mode.TEM, 11, 4, id="Mode.TEM"),
        pytest.param(Mode.BS1, 13, 8, id="Mode.BS1-seed13"),
    ])
    def test_joint_solve_is_polished(self, mode, seed, horizon):
        """The polish must land on the active set's KKT point, which leaves
        the peak rows tight instead of at the interior point's distance
        inside them.  At BS1, seed 13 the interior point is already within
        1e-11 of that point and the polish must still close the gap."""
        s = generate_synthetic(seed=seed, n_users=3, horizon=horizon)
        sol = solve_qp(assemble_problem(s, mode), tol=1e-6)
        assert sol.status == QpStatus.OPTIMAL
        assert sol.kkt.worst() <= 1e-12, sol.kkt
        layout = user_layout(s.n_users, s.grid.horizon, mode)
        for user in range(s.n_users):
            sch = schedule_from_x(sol.x, layout, user)
            assert sch.peak == float(np.max(sch.supply_grid)), user

    @pytest.mark.parametrize("s", [
        *(pytest.param(dict(seed=10 + i, n_users=n, horizon=t),
                       id=f"battery-{n}x{t}")
          for i, (n, t) in enumerate(BATTERY_CASES)),
        *(pytest.param(dict(seed=seed, n_users=5, horizon=8,
                            solar_range=(0, 10), ev_arrival_soc=0.85),
                       id=f"benchmark-seed{seed}") for seed in (3, 0)),
    ])
    def test_joint_solves_report_polished(self, s):
        """Every joint solve of the acceptance battery and of the benchmark
        scenario (default and held-out seed) is answered by the polish.
        The benchmark TEM solve has degenerate rows (``ev_energy`` held by
        both ``ev-full-at-departure`` and its upper bound); their
        multipliers must come out nonnegative and still certify."""
        s = generate_synthetic(**s)
        for mode in Mode:
            sol = solve_qp(assemble_problem(s, mode), tol=1e-6)
            assert sol.status == QpStatus.OPTIMAL, mode
            assert sol.polish is Polish.POLISHED, mode
            assert sol.kkt.worst() <= 1e-12, (mode, sol.kkt)
            d = sol.duals
            assert min(d.ineq.min(initial=0.0), d.lower.min(),
                       d.upper.min()) >= 0.0, mode

    @pytest.mark.parametrize("mode", [Mode.BS3, Mode.TEM])
    def test_joint_iterations_independent_of_home_order(self, mode):
        """Reordering the homes permutes the same problem, so the interior
        point must take as many iterations for every order.  With separate
        primal and dual step lengths the BS3 end-game let the dual residual
        grow, and some orders took 13 to 40 iterations instead of 12."""
        base = generate_synthetic(3, 5, 8, solar_range=(0, 10),
                                  ev_arrival_soc=0.85)
        iterations = set()
        for k in range(1, 11):
            order = np.random.default_rng(k).permutation(base.n_users)
            grid = dataclasses.replace(
                base.grid,
                shift_windows=tuple(base.grid.shift_windows[i] for i in order),
                ev_windows=tuple(base.grid.ev_windows[i] for i in order))
            s = dataclasses.replace(base, grid=grid,
                                    users=tuple(base.users[i] for i in order))
            sol = solve_qp(assemble_problem(s, mode), tol=1e-6)
            assert sol.polish is Polish.POLISHED, k
            iterations.add(sol.iterations)
        assert len(iterations) == 1, iterations


BENCHMARK_SCENARIO = dict(seed=3, n_users=5, horizon=8, solar_range=(0, 10),
                          ev_arrival_soc=0.85)


def recording_splu(monkeypatch):
    """Patch ``splu`` to record (permc_spec, diag_pivot_thresh, factor) of
    every call, each of which must leave supernodes unrelaxed."""
    factors, splu = [], spla.splu

    def record(mat, **kw):
        assert (kw["relax"], kw["panel_size"]) == (1, 1), kw
        lu = splu(mat, **kw)
        factors.append((kw["permc_spec"], kw["diag_pivot_thresh"], lu))
        return lu
    monkeypatch.setattr(spla, "splu", record)
    return factors


def test_newton_pattern_ordered_once_and_factored_on_the_diagonal(
        monkeypatch):
    """In one joint TEM solve at N=5, T=8 the interior point orders its
    Newton pattern by MMD once, with no threshold pivots; every later
    Newton factor keeps that order (``NATURAL``) and pivots on the
    diagonal only, so its fill does not grow.  The polish and presolve
    saddles keep the pivoted MMD factor, and no factor relaxes its
    supernodes.  The solve ends with the polish after a predictor, so it
    factors ``iterations`` Newton matrices and refines one solve fewer
    than two per factor.  Each Newton solve, refined once, leaves
    ||rhs - mul(sol)|| / ||rhs|| below 1e-10 (1.3e-15 measured here; 1.1e-9
    at worst over the battery's and both benchmark scenarios' joint and
    home solves)."""
    residuals = []
    refined = qp._refined
    factors = recording_splu(monkeypatch)

    def checked(solve, mul, refine):
        inner, newton = refined(solve, mul, refine), factors[-1][1] == 0.0

        def run(rhs):
            sol = inner(rhs)
            if newton:
                residuals.append(float(np.linalg.norm(rhs - mul(sol))
                                       / np.linalg.norm(rhs)))
            return sol
        return run

    monkeypatch.setattr(qp, "_refined", checked)
    s = generate_synthetic(**BENCHMARK_SCENARIO)
    sol = solve_qp(assemble_problem(s, Mode.TEM), tol=1e-6)
    assert sol.polish is Polish.POLISHED
    newton = [f for f in factors if f[1] == 0.0]
    assert len(newton) == sol.iterations > 2
    assert newton[0][0] == "MMD_AT_PLUS_A"
    size = newton[0][2].shape[0]
    fill = {f[2].L.nnz + f[2].U.nnz for f in newton}
    assert len(fill) == 1, fill
    for spec, _, lu in newton[1:]:
        assert spec == "NATURAL"
        assert np.array_equal(lu.perm_c, np.arange(size))
        assert np.array_equal(lu.perm_r, np.arange(size))
    assert {f[:2] for f in factors if f[1] != 0.0} == {
        ("MMD_AT_PLUS_A", 0.01)}
    # predictor and corrector per factor, but no corrector after the last
    assert len(residuals) == 2 * sol.iterations - 1
    assert max(residuals) < 1e-10, max(residuals)


def test_joint_solve_polished_once_its_active_set_settles():
    """Joint TEM on the benchmark scenario: the affine point keeps the
    interior point's active-set guess long before the 1e-8 target, and the
    polish of that guess certifies, so the solve ends there (12 iterations
    when only the point at the target was polished)."""
    s = generate_synthetic(**BENCHMARK_SCENARIO)
    sol = solve_qp(assemble_problem(s, Mode.TEM), tol=1e-6)
    assert sol.polish is Polish.POLISHED
    assert sol.iterations <= 10, sol.iterations
    assert sol.kkt.worst() <= 1e-12, sol.kkt


def test_failed_polish_guess_is_not_polished_again(monkeypatch):
    """With every polish failing, the interior point runs to its target.
    Inside the loop each distinct active-set guess is polished at most
    once; the polish after the loop tries the final guess as before, and
    the interior-point point answers."""
    guesses = []

    def failing(red, x0, y0, zg0, act_g, act_l, act_u, reg, certify):
        guesses.append((act_g.tobytes(), act_l.tobytes(), act_u.tobytes()))
        return None
    monkeypatch.setattr(qp, "_polish", failing)
    s = generate_synthetic(**BENCHMARK_SCENARIO)
    for mode in Mode:
        guesses.clear()
        sol = solve_qp(assemble_problem(s, mode), tol=1e-6)
        assert sol.polish is Polish.INTERIOR, mode
        assert sol.status is QpStatus.OPTIMAL, mode
        inside = guesses[:-1]
        assert inside, mode
        assert len(set(inside)) == len(inside), (mode, len(inside))


def test_polish_factor_fill_at_scale(monkeypatch):
    """Joint TEM at N=54, T=24 is the smallest size at which the polish
    saddle, factored with SuperLU's relaxed supernodes, held more than 1.5
    times the entries of a Newton factor in L+U (1.50 here, 2.28 at
    N=200).  With unrelaxed supernodes it stays within 1.5 times."""
    factors = recording_splu(monkeypatch)
    s = generate_synthetic(seed=0, n_users=54, horizon=24)
    sol = solve_qp(assemble_problem(s, Mode.TEM), tol=1e-6)
    assert sol.polish is Polish.POLISHED
    first = next(i for i, f in enumerate(factors) if f[1] == 0.0)
    newton = max(f[2].L.nnz + f[2].U.nnz for f in factors if f[1] == 0.0)
    polish = [f[2].L.nnz + f[2].U.nnz for f in factors[first:]
              if f[1] != 0.0]
    assert polish
    assert max(polish) <= 1.5 * newton, (max(polish), newton)
