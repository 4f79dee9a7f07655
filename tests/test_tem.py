"""Coordination layer tests: closed-form step, digests, joint and split solves."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridledger import tem
from gridledger.energy_model import (Mode, check_schedule, reward_terms,
                                     schedule_from_x, user_layout)
from gridledger.qp import Polish, QpStatus, solve_qp
from gridledger.scenario import generate_synthetic
from gridledger.tem import (
    AdmmParams,
    DualState,
    RhoSchedule,
    SolveFailed,
    advance_iteration,
    assemble_problem,
    assemble_ult,
    dual_state_digest,
    has_converged,
    home_problem,
    new_dual_state,
    run_distributed,
    sct_step,
    solve_centralized,
    split_export,
)
from gridledger.energy_model import (build_user_constraints,
                                     build_user_objective)

small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _state(n=2, t=1, rho=1.0):
    return new_dual_state(n, t, rho)


class TestSctStep:
    def test_hand_oracle(self):
        # aux = (rho*(e01 - e10) - (l01 - l10)) / (2 rho)
        #     = (1*(2 - (-1)) - (0.5 - (-0.5))) / 2 = 1.0
        # l01' = 0.5 + 1*(1 - 2)    = -0.5
        # l10' = -0.5 + 1*(-1 + 1)  = -0.5
        d = _state()
        d.trades[0, 1, 0] = 2.0
        d.trades[1, 0, 0] = -1.0
        d.duals[0, 1, 0] = 0.5
        d.duals[1, 0, 0] = -0.5
        out = sct_step(d)
        assert out.trades_aux[0, 1, 0] == pytest.approx(1.0, abs=1e-15)
        assert out.trades_aux[1, 0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert out.duals[0, 1, 0] == pytest.approx(-0.5, abs=1e-15)
        assert out.duals[1, 0, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_leaves_inputs_and_counter_alone(self):
        d = _state(3, 2)
        d.trades += 1.0
        np.fill_diagonal(d.trades[:, :, 0], 0.0)
        np.fill_diagonal(d.trades[:, :, 1], 0.0)
        before = d.trades.copy()
        out = sct_step(d)
        assert np.array_equal(d.trades, before)
        assert out.iteration == d.iteration
        assert np.array_equal(out.trades, before)

    def test_rejects_nonpositive_rho(self):
        d = _state()
        d.rho = 0.0
        with pytest.raises(ValueError):
            sct_step(d)

    @given(e=hnp.arrays(float, (3, 3, 2), elements=small),
           lam=hnp.arrays(float, (3, 3, 2), elements=small),
           rho=st.floats(min_value=0.05, max_value=20.0))
    @settings(deadline=None, max_examples=60)
    def test_antisymmetry_exact(self, e, lam, rho):
        d = DualState(trades=e, trades_aux=np.zeros_like(e), duals=lam,
                      rho=rho, iteration=0)
        out = sct_step(d)
        aux = out.trades_aux
        # bitwise: the lower triangle is written as the negated upper one
        for i in range(3):
            assert np.all(aux[i, i] == 0.0)
            for j in range(i + 1, 3):
                assert np.array_equal(aux[j, i], -aux[i, j])

    @given(e=hnp.arrays(float, (2, 2, 1), elements=small),
           lam=hnp.arrays(float, (2, 2, 1), elements=small))
    @settings(deadline=None, max_examples=60)
    def test_matches_pairwise_formula(self, e, lam):
        rho = 2.0
        d = DualState(trades=e, trades_aux=np.zeros_like(e), duals=lam,
                      rho=rho, iteration=0)
        out = sct_step(d)
        want = (rho * (e[0, 1, 0] - e[1, 0, 0]) - (lam[0, 1, 0] - lam[1, 0, 0])) \
            / (2.0 * rho)
        assert out.trades_aux[0, 1, 0] == pytest.approx(want, abs=1e-12)
        assert out.duals[0, 1, 0] == pytest.approx(
            lam[0, 1, 0] + rho * (want - e[0, 1, 0]), abs=1e-12)


class TestDigest:
    def test_copy_has_same_digest(self):
        d = _state(3, 4)
        d.trades[0, 1, 2] = 1.25
        assert dual_state_digest(d) == dual_state_digest(d.copy())

    @pytest.mark.parametrize("mutate", [
        lambda d: d.trades.__setitem__((0, 1, 0), 9.0),
        lambda d: d.trades_aux.__setitem__((1, 0, 0), 9.0),
        lambda d: d.duals.__setitem__((0, 1, 0), 9.0),
        lambda d: setattr(d, "rho", 7.0),
        lambda d: setattr(d, "iteration", 5),
    ])
    def test_any_field_changes_digest(self, mutate):
        d = _state(2, 1)
        base = dual_state_digest(d)
        mutate(d)
        assert dual_state_digest(d) != base

    def test_digest_is_hex_sha256(self):
        h = dual_state_digest(_state())
        assert len(h) == 64
        int(h, 16)

    def test_negative_zero_distinct(self):
        d = _state()
        base = dual_state_digest(d)
        d.trades[0, 1, 0] = -0.0
        assert dual_state_digest(d) != base    # bitwise, not numeric, equality


class TestSchedules:
    def test_fixed(self):
        sched = RhoSchedule.fixed(2.5)
        assert sched.rho_at(1) == 2.5
        assert sched.rho_at(100) == 2.5

    def test_reciprocal(self):
        sched = RhoSchedule.reciprocal()
        assert sched.rho_at(1) == 1.0
        assert sched.rho_at(4) == 0.25

    def test_guards(self):
        with pytest.raises(ValueError):
            RhoSchedule.fixed(0.0)
        with pytest.raises(ValueError):
            RhoSchedule.reciprocal().rho_at(0)

    def test_advance_iteration_rolls_rho(self):
        d = _state(rho=1.0)
        nxt = advance_iteration(d, RhoSchedule.reciprocal())
        assert nxt.iteration == 1
        assert nxt.rho == 0.5    # weight the *next* sweep will use
        again = advance_iteration(nxt, RhoSchedule.reciprocal())
        assert again.iteration == 2
        assert again.rho == pytest.approx(1.0 / 3.0)

    def test_admm_params_guards(self):
        with pytest.raises(ValueError):
            AdmmParams(eps=0.0)
        with pytest.raises(ValueError):
            AdmmParams(max_iter=0)


class TestConvergence:
    def test_boundary_is_inclusive(self):
        eps = 0.5
        prev = _state()
        d = prev.copy()
        d.trades_aux[0, 1, 0] = eps    # primal residual exactly eps
        assert has_converged(d, prev, eps)

    def test_just_above_fails(self):
        eps = 0.5
        prev = _state()
        d = prev.copy()
        d.trades_aux[0, 1, 0] = eps + 2.0 ** -20
        assert not has_converged(d, prev, eps)

    def test_dual_movement_blocks(self):
        eps = 1e-6
        prev = _state()
        d = prev.copy()
        d.duals[0, 1, 0] = 1.0
        assert not has_converged(d, prev, eps)


class _PerturbingTransport:
    """Runs the coordination step itself; nudges one dual at iteration ``at``."""

    def __init__(self, at: int):
        self.at = at

    def begin(self, s, params):
        self.schedule = params.rho_schedule
        self.state = new_dual_state(s.n_users, s.grid.horizon,
                                    params.rho_schedule.rho_at(1))

    def read_state(self):
        return self.state.copy()

    def publish(self, user, iteration, export):
        self.state.trades[user] = split_export(self.state, user, export)

    def run_sct(self):
        self.state = advance_iteration(sct_step(self.state), self.schedule)
        if self.state.iteration == self.at:
            self.state.duals[0, 1, 0] += 2.0 ** -40
        return self.state.copy()

    def digest(self):
        return dual_state_digest(self.state)

    def settle(self, s, outcome):
        return None


class TestMirror:
    def test_run_sct_advances(self, scen_2x4):
        out = run_distributed(scen_2x4, AdmmParams(
            eps=1e-12, max_iter=2, rho_schedule=RhoSchedule.reciprocal()))
        assert [rec.iteration for rec in out.history] == [1, 2]
        assert [rec.rho for rec in out.history] == [1.0, 0.5]
        for rec in out.history:
            assert rec.digest_local == rec.digest_transport

    def test_diverging_transport_raises(self, scen_2x4):
        # iteration 1 must pass the digest check, iteration 2 must not
        with pytest.raises(RuntimeError, match="iteration 2"):
            run_distributed(scen_2x4, AdmmParams(eps=1e-12, max_iter=3),
                            _PerturbingTransport(at=2))


class TestUltAssembly:
    def test_penalty_terms(self, scen_2x4):
        s = scen_2x4
        d = new_dual_state(s.n_users, s.grid.horizon, rho=2.0)
        d.trades_aux[0, 1] = 1.5
        d.duals[0, 1] = 0.25
        prob = assemble_ult(home_problem(s, 0, Mode.TEM), 0, d)
        base_p, base_q, _ = build_user_objective(s, 0, Mode.TEM)
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM, users=[0])
        sp = lay.span(0, "export")
        # one peer: curvature rho / (N - 1), centre aux + lam / rho
        assert np.allclose(prob.p[sp], base_p[sp] + 2.0)
        assert np.allclose(prob.q[sp], base_q[sp] - 2.0 * (1.5 + 0.25 / 2.0))
        outside = np.ones(lay.n_vars, dtype=bool)
        outside[sp] = False
        assert np.allclose(prob.p[outside], base_p[outside])
        assert np.allclose(prob.q[outside], base_q[outside])

    def test_split_export_is_penalty_optimal(self):
        rng = np.random.default_rng(3)
        n, t, rho = 4, 5, 0.7
        d = new_dual_state(n, t, rho)
        d.trades_aux[:] = rng.normal(size=(n, n, t))
        d.duals[:] = rng.normal(size=(n, n, t))
        export = rng.normal(size=t)
        row = split_export(d, 1, export)
        assert np.all(row[1] == 0.0)
        assert np.allclose(row.sum(axis=0), export, atol=1e-12)
        # stationarity of the per-peer penalty under the sum constraint
        peers = [0, 2, 3]
        centres = d.trades_aux[1, peers] + d.duals[1, peers] / rho
        grad = rho * (row[peers] - centres)
        assert np.allclose(grad, grad[0], atol=1e-12)

    @pytest.mark.parametrize("n_users", [3, 40])
    def test_home_columns_independent_of_peers(self, n_users):
        s = generate_synthetic(seed=2, n_users=n_users, horizon=4)
        prob = assemble_ult(home_problem(s, 0, Mode.TEM), 0,
                            new_dual_state(n_users, 4, 1.0))
        assert prob.q.size == 12 * 4 + 1

    def test_penalty_leaves_home_problem_alone(self, scen_2x4):
        """Each iteration copies p and q and shares the constraint-set
        object, which is what lets a warm start reuse its presolve."""
        home = home_problem(scen_2x4, 1, Mode.TEM)
        p0, q0 = home.p.copy(), home.q.copy()
        d = new_dual_state(2, scen_2x4.grid.horizon, 3.0)
        d.trades_aux[1, 0] = 0.5
        prob = assemble_ult(home, 1, d)
        assert prob.constraints is home.constraints
        assert not np.array_equal(prob.q, q0)
        assert np.array_equal(home.p, p0) and np.array_equal(home.q, q0)

    def test_home_subproblem_polishes_after_repair(self):
        """Home 1 at iteration 1 of seed 5 (N=5, T=24): the interior-point
        point has a complementarity residual of 2.5e-8, and the first
        active-set guess leaves a row violated by 4.2e-4.  The repaired
        polish certifies, where the interior-point point alone ended
        ``MaxIter`` at tol 1e-8 at one and two BLAS threads."""
        s = generate_synthetic(5, 5, 24)
        prob = assemble_ult(home_problem(s, 1, Mode.TEM), 1,
                            new_dual_state(5, 24, 1.0))
        sol = solve_qp(prob, tol=1e-8)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.polish is Polish.POLISHED
        assert sol.kkt.worst() <= 1e-12, sol.kkt


class TestCentralized:
    def test_solves_and_checks_clean(self, scen_2x4):
        out = solve_centralized(scen_2x4, Mode.BS1)
        assert out.converged
        assert out.mode == "BS1"
        assert out.total_cost == pytest.approx(
            sum(c.net_cost for c in out.costs), abs=1e-12)
        for n, sch in enumerate(out.schedules):
            assert check_schedule(sch, scen_2x4, n, tol=1e-6) == []

    @pytest.mark.parametrize("mode", list(Mode))
    def test_joint_problem_is_block_stack(self, scen_3x8, mode):
        s = scen_3x8
        prob = assemble_problem(s, mode)
        c = prob.constraints
        a_eq, a_in = c.a_eq.toarray(), c.a_in.toarray()
        lay = user_layout(s.n_users, s.grid.horizon, mode)
        t = s.grid.horizon
        eq_home = np.zeros(a_eq.shape, dtype=bool)
        in_home = np.zeros(a_in.shape, dtype=bool)
        r_eq = r_in = 0
        home_nnz = 0
        for n in range(s.n_users):
            cs = build_user_constraints(s, n, mode)
            home_nnz += cs.a_eq.nnz
            p_diag, q, _ = build_user_objective(s, n, mode)
            cols = slice(n * lay.block_size, (n + 1) * lay.block_size)
            rows_eq = slice(r_eq, r_eq + cs.b_eq.size)
            rows_in = slice(r_in, r_in + cs.b_in.size)
            assert np.array_equal(a_eq[rows_eq, cols], cs.a_eq.toarray())
            assert np.array_equal(c.b_eq[rows_eq], cs.b_eq)
            assert np.array_equal(a_in[rows_in, cols], cs.a_in.toarray())
            assert np.array_equal(c.b_in[rows_in], cs.b_in)
            assert np.array_equal(c.lo[cols], cs.lo)
            assert np.array_equal(c.hi[cols], cs.hi)
            assert np.array_equal(prob.p[cols], p_diag)
            assert np.array_equal(prob.q[cols], q)
            eq_home[rows_eq, cols] = True
            in_home[rows_in, cols] = True
            r_eq, r_in = rows_eq.stop, rows_in.stop
        assert r_in == c.b_in.size
        assert np.all(a_in[~in_home] == 0.0)
        assert np.all(a_eq[:r_eq][~eq_home[:r_eq]] == 0.0)
        # the joint rows store the homes' entries and one per home and
        # slot of the clearing rows, nothing more
        trading = mode.has_horizontal and s.n_users > 1
        assert c.a_eq.nnz == home_nnz + trading * s.n_users * t
        # the rows after the home blocks clear the exports, one per slot
        clearing, rhs = a_eq[r_eq:], c.b_eq[r_eq:]
        if not mode.has_horizontal:
            assert clearing.shape[0] == 0
            return
        assert clearing.shape[0] == t
        assert np.all(rhs == 0.0)
        want = np.zeros((t, lay.n_vars))
        for n in range(s.n_users):
            for tt in range(t):
                want[tt, lay.col(n, "export", tt)] = 1.0
        assert np.array_equal(clearing, want)

    def test_joint_rows_stay_sparse_at_scale(self):
        """Assembling and solving joint TEM at N=10 never holds as many bytes
        as one dense copy of the joint equality rows would take."""
        s = generate_synthetic(seed=0, n_users=10, horizon=24)
        tracemalloc.start()
        try:
            prob = assemble_problem(s, Mode.TEM)
            sol = solve_qp(prob, tol=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.status is QpStatus.OPTIMAL
        rows, cols = prob.constraints.a_eq.shape
        assert peak < rows * cols * 8

    def test_mode_ordering_small(self, scen_2x4):
        costs = {m: solve_centralized(scen_2x4, m).total_cost for m in Mode}
        slack = 1e-6
        assert costs[Mode.TEM] <= costs[Mode.BS2] + slack
        assert costs[Mode.TEM] <= costs[Mode.BS3] + slack
        assert costs[Mode.BS2] <= costs[Mode.BS1] + slack
        assert costs[Mode.BS3] <= costs[Mode.BS1] + slack

    def test_trades_clear_exactly(self, scen_2x4):
        out = solve_centralized(scen_2x4, Mode.TEM)
        total = sum(sch.export for sch in out.schedules)
        assert float(np.max(np.abs(total))) <= 1e-6

    def test_joint_outcome_holds_exports_only(self):
        # the joint optimum fixes each home's net export, not its peers
        s = generate_synthetic(seed=11, n_users=3, horizon=4)
        out = solve_centralized(s, Mode.TEM)
        sol = solve_qp(assemble_problem(s, Mode.TEM), tol=1e-6)
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        assert out.trades is None
        assert "trades" not in out.to_json_dict()
        for n, sch in enumerate(out.schedules):
            assert np.array_equal(sch.export, sol.x[lay.span(n, "export")])

    def test_trade_rewards_see_the_clearing(self, scen_2x4):
        # home 0 sells one unit per slot and no home buys it: the rewards
        # price each home's own export, so they do not cancel
        s = scen_2x4
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        x = np.zeros(lay.n_vars)
        x[lay.span(0, "export")] = 1.0
        total = sum(reward_terms(schedule_from_x(x, lay, n), s.prices)
                    .trade_reward for n in range(s.n_users))
        assert float(np.sum(s.prices.trade)) > 0.0
        assert total == pytest.approx(float(np.sum(s.prices.trade)),
                                      abs=1e-12)

    def test_infeasible_raises(self, scen_2x4):
        tariff = dataclasses.replace(scen_2x4.tariff, line_cap=0.001)
        bad = dataclasses.replace(scen_2x4, tariff=tariff)
        with pytest.raises(SolveFailed) as info:
            solve_centralized(bad, Mode.BS1)
        assert info.value.status == QpStatus.INFEASIBLE

    def test_outcome_json_round_trip(self, tmp_path, scen_2x4):
        out = solve_centralized(scen_2x4, Mode.BS2)
        path = tmp_path / "outcome.json"
        out.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "gridledger.outcome.v2"
        assert "trades" not in loaded
        assert loaded["mode"] == "BS2"
        assert loaded["total_cost"] == pytest.approx(out.total_cost)
        assert len(loaded["users"]) == scen_2x4.n_users


class TestDistributed:
    def test_lockstep_digests_and_clearing(self, scen_2x4):
        params = AdmmParams(eps=1e-5, max_iter=300)
        out = run_distributed(scen_2x4, params)
        assert out.converged
        assert out.iterations == len(out.history)
        for rec in out.history:
            assert rec.digest_local == rec.digest_transport
        # cleared trades are exactly antisymmetric across homes, and each
        # home's export is its cleared row
        assert np.array_equal(out.trades[0, 1], -out.trades[1, 0])
        for n, sch in enumerate(out.schedules):
            assert np.array_equal(sch.export, out.trades[n].sum(axis=0))

    def test_tracks_centralized(self, scen_2x4):
        central = solve_centralized(scen_2x4, Mode.TEM)
        out = run_distributed(scen_2x4, AdmmParams(eps=1e-6, max_iter=500))
        rel = abs(out.total_cost - central.total_cost) \
            / max(1.0, abs(central.total_cost))
        assert out.converged
        assert rel <= 1e-4

    def test_residuals_decrease_overall(self, scen_2x4):
        out = run_distributed(scen_2x4, AdmmParams(eps=1e-6, max_iter=500))
        first = out.history[0].primal_residual
        last = out.history[-1].primal_residual
        assert last <= first
        assert last <= 1e-6

    def test_homes_built_once_per_run(self, scen_3x8, monkeypatch):
        calls = {"constraints": 0, "objective": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(tem, "build_user_constraints", counted(
            "constraints", tem.build_user_constraints))
        monkeypatch.setattr(tem, "build_user_objective", counted(
            "objective", tem.build_user_objective))
        out = run_distributed(scen_3x8, AdmmParams(eps=1e-12, max_iter=4))
        assert out.iterations == 4
        assert calls == {"constraints": 3, "objective": 3}

    def test_unconverged_reports_honestly(self, scen_2x4):
        out = run_distributed(scen_2x4, AdmmParams(eps=1e-12, max_iter=1))
        assert not out.converged
        assert out.iterations == 1


# a joint and a distributed TEM run, a joint TEM run at 40 homes (whose
# long vectors a threaded BLAS splits) with its objective value, and the
# residuals of ten 40-home dual states, printed as one sha256
_DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
from gridledger import tem
from gridledger.energy_model import Mode
from gridledger.qp import solve_qp
from gridledger.scenario import generate_synthetic
s = generate_synthetic(seed=3, n_users=3, horizon=24)
h = hashlib.sha256()
s40 = generate_synthetic(seed=0, n_users=40, horizon=24)
for out in (tem.solve_centralized(s, Mode.TEM),
            tem.run_distributed(s, tem.AdmmParams()),
            tem.solve_centralized(s40, Mode.TEM)):
    h.update(json.dumps(out.to_json_dict(), sort_keys=True).encode())
h.update(solve_qp(tem.assemble_problem(s40, Mode.TEM)).value.hex().encode())
rng = np.random.default_rng(0)
for _ in range(10):
    d, prev = (tem.DualState(*rng.standard_normal((3, 40, 40, 24)), 1.0, 1)
               for _ in range(2))
    h.update(np.array(tem.residuals(d, prev)).tobytes())
print(h.hexdigest())
"""


def test_results_independent_of_blas_thread_count():
    """The same runs at one and at two BLAS threads give the same bytes.
    The thread count is fixed when the BLAS library loads, so each count
    gets its own interpreter."""
    src = str(Path(tem.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS":
               threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
