"""Coordination layer tests: closed-form step, digests, joint and split solves."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
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
    new_dual_state,
    residuals,
    run_distributed,
    sct_step,
    sct_step_pairwise,
    solve_centralized,
)
from gridledger.energy_model import (build_user_constraints,
                                     build_user_objective)

small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _state(n=2, t=1, rho=1.0):
    return new_dual_state(n, t, rho)


def _random_state(rng, n, t, rho):
    return DualState(*rng.uniform(-3.0, 3.0, size=(5, n, t)), rho=rho,
                     iteration=0)


def _at_rest(d):
    """``d`` with its previous iterate equal to its current one, so the
    step reads the raw levels and shares."""
    return dataclasses.replace(d, prev_levels=d.levels.copy(),
                               prev_shares=d.shares.copy())


def _start(d):
    """The point a step from ``d`` reads: levels and shares extrapolated
    past their previous iterate by the step's inertia."""
    b = tem._INERTIA
    return (d.levels + b * (d.levels - d.prev_levels),
            d.shares + b * (d.shares - d.prev_shares))


def _tables(levels, shares):
    """The cleared trades and the multipliers of (N, T) levels and shares,
    as (N, N, T) tables with zero diagonals."""
    off = ~np.eye(levels.shape[0], dtype=bool)[:, :, None]
    return ((levels[:, None] - levels[None, :]) * off,
            (shares[:, None] + shares[None, :]) * off)


def _cleared(d):
    """The pair tables a step left in ``d``: its raw levels and shares."""
    return _tables(d.levels, d.shares)


def _pairs(d):
    """The paper's (N, N, T) tables a step from ``d`` starts at (``_start``):
    the proposed trades (each pending export split over the peers as the
    home's penalty prefers: each peer's centre aux + lam / rho plus one
    shared amount), the cleared trades and the multipliers, all with zero
    diagonals."""
    n = d.exports.shape[0]
    off = ~np.eye(n, dtype=bool)[:, :, None]
    aux, lam = _tables(*_start(d))
    centres = aux + lam / d.rho
    e = (centres + ((d.exports - centres.sum(axis=1))
                    / (n - 1))[:, None]) * off
    return e, aux, lam


def _pairwise_residuals(d, prev):
    """The residuals' definitions evaluated pair by pair, from the point
    the step started at (``_start``): each multiplier moves by g[n][m] =
    da[n] + da[m], rho times the gap between the cleared and the proposed
    trade, and each cleared trade by du[n] - du[m]; primal is the sum over
    homes of the norm of their gaps, dual rho times the norm of the
    cleared trades' change."""
    u, a = _start(prev)
    da, du = d.shares - a, d.levels - u
    n = da.shape[0]
    off = ~np.eye(n, dtype=bool)[:, :, None]
    g = (da[:, None] + da[None, :]) * off
    primal = sum(float(np.sqrt(np.sum(g[i] * g[i])))
                 for i in range(n)) / prev.rho
    moved = (du[:, None] - du[None, :]) * off
    return primal, prev.rho * float(np.sqrt(np.sum(moved * moved)))


def _rel(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def _check_step(d, terms=False):
    """``sct_step(d)`` against ``sct_step_pairwise`` at the point the step
    starts from: the cleared trades and the multipliers to 1e-14 of their
    largest magnitude.  With ``terms``, the multipliers to 1e-14 of the
    largest term of their update lam + rho (aux - e): a multiplier is the
    sum of two homes' shares, each rounded at the scale of those terms, so
    on arbitrary states a table whose entries nearly cancel keeps only
    that absolute accuracy."""
    e, _, lam = _pairs(d)
    aux_ref, lam_ref = sct_step_pairwise(e, lam, d.rho)
    aux, lam_new = _cleared(sct_step(d))
    assert _rel(aux, aux_ref) <= 1e-14
    scale = np.max(np.abs(lam_ref))
    if terms:
        scale = max(scale, np.max(np.abs(lam)), d.rho * np.max(np.abs(e)))
    assert float(np.max(np.abs(lam_new - lam_ref))) <= 1e-14 * scale


class TestSctStep:
    def test_hand_oracle(self):
        # N=2, rho=1, a state at rest (previous iterate = current), so the
        # step is the paper's: C[0] = 2*0.5 - 0 + (0 + 0.5) = 1.5, C[1] =
        # -1 + 0.5 = -0.5; step = x - C = (0.5, -0.5); levels += step / 2
        # and shares = -step / 2.  In pairs: aux[0][1] = 0.5 - (-0.5) + 0.5
        # = 1.5 and lam[0][1] = -0.25 + 0.25 = 0
        d = _state()
        d.exports[:, 0] = [2.0, -1.0]
        d.levels[:, 0] = [0.5, -0.5]
        d.shares[:, 0] = [0.5, 0.0]
        d = _at_rest(d)
        out = sct_step(d)
        assert out.levels[:, 0].tolist() == [0.75, -0.75]
        assert out.shares[:, 0].tolist() == [-0.25, 0.25]
        assert out.exports[:, 0].tolist() == [2.0, -1.0]
        e, _, lam = _pairs(d)
        aux_ref, lam_ref = sct_step_pairwise(e, lam, 1.0)
        assert aux_ref[0, 1, 0] == pytest.approx(1.5, abs=1e-15)
        assert lam_ref[0, 1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_inertial_hand_oracle(self):
        # N=2, T=1, rho=1, beta=0.3: the levels moved by (1, -1) in the
        # last step and the shares did not, so the step starts at u = 0.5
        # + 0.3 = 0.8 and -0.8, a = (0.5, 0).  C[0] = 1.6 + 0.5 = 2.1,
        # C[1] = -1.6 + 0.5 = -1.1; step = x - C = (-0.1, 0.1); levels =
        # u + step / 2 = (0.75, -0.75), shares = -step / 2 = (0.05, -0.05).
        # In pairs, from the start: e[0][1] = 2, e[1][0] = -1, aux[0][1] =
        # 1.6 and lam[0][1] = 0.5; the paper's step gives aux[0][1] = (2 +
        # 1) / 2 = 1.5 and lam[0][1] = 0.5 + (1.5 - 2) = 0.  At rest the
        # same state would step to shares (-0.25, 0.25)
        assert tem._INERTIA == 0.3
        d = _state()
        d.exports[:, 0] = [2.0, -1.0]
        d.levels[:, 0] = [0.5, -0.5]
        d.prev_levels[:, 0] = [-0.5, 0.5]
        d.shares[:, 0] = d.prev_shares[:, 0] = [0.5, 0.0]
        out = sct_step(d)
        assert out.levels[:, 0] == pytest.approx([0.75, -0.75], abs=1e-15)
        assert out.shares[:, 0] == pytest.approx([0.05, -0.05], abs=1e-15)
        assert out.prev_levels[:, 0].tolist() == [0.5, -0.5]
        assert out.prev_shares[:, 0].tolist() == [0.5, 0.0]
        assert sct_step(_at_rest(d)).shares[:, 0].tolist() == [-0.25, 0.25]
        e, aux, lam = _pairs(d)
        assert e[:, :, 0][~np.eye(2, dtype=bool)] == pytest.approx(
            [2.0, -1.0], abs=1e-15)
        assert (aux[0, 1, 0], lam[0, 1, 0]) == pytest.approx((1.6, 0.5),
                                                            abs=1e-15)
        aux_ref, lam_ref = sct_step_pairwise(e, lam, 1.0)
        assert aux_ref[0, 1, 0] == pytest.approx(1.5, abs=1e-15)
        assert lam_ref[0, 1, 0] == pytest.approx(0.0, abs=1e-15)
        # residuals from the start: each home's gap aux - e is -0.5, so
        # primal = 2 * 0.5; the cleared trades moved by -0.1 and 0.1
        primal, dual = residuals(out, d)
        assert primal == pytest.approx(1.0, abs=1e-15)
        assert dual == pytest.approx(np.sqrt(0.02), abs=1e-15)

    def test_first_step_is_the_papers(self):
        """From the zero start the previous iterate equals the current one,
        so the first step of a run is the paper's step."""
        rng = np.random.default_rng(4)
        d = new_dual_state(4, 3, 1.5)
        d.exports[:] = rng.uniform(-3.0, 3.0, size=(4, 3))
        assert np.array_equal(_pairs(_at_rest(d))[0], _pairs(d)[0])
        _check_step(d)
        assert dual_state_digest(sct_step(d)) == dual_state_digest(
            sct_step(_at_rest(d)))

    def test_leaves_inputs_and_counter_alone(self):
        d = _random_state(np.random.default_rng(1), 3, 2, 1.0)
        before = d.copy()
        out = sct_step(d)
        assert dual_state_digest(d) == dual_state_digest(before)
        assert out.iteration == d.iteration
        assert np.array_equal(out.exports, before.exports)
        assert out.exports is not d.exports

    def test_rejects_nonpositive_rho(self):
        d = _state()
        d.rho = 0.0
        with pytest.raises(ValueError):
            sct_step(d)
        with pytest.raises(ValueError):
            sct_step_pairwise(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), 0.0)

    def test_lone_home_is_unchanged(self):
        d = _random_state(np.random.default_rng(2), 1, 3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = sct_step(d)
        assert dual_state_digest(out) == dual_state_digest(d)

    @given(e=hnp.arrays(float, (3, 3, 2), elements=small),
           lam=hnp.arrays(float, (3, 3, 2), elements=small),
           rho=st.floats(min_value=0.05, max_value=20.0))
    @settings(deadline=None, max_examples=60)
    def test_antisymmetry_exact(self, e, lam, rho):
        aux, _ = sct_step_pairwise(e, lam, rho)
        # bitwise: rounding is symmetric in sign, so (j, i) negates (i, j)
        for i in range(3):
            assert np.all(aux[i, i] == 0.0)
            for j in range(i + 1, 3):
                assert np.array_equal(aux[j, i], -aux[i, j])

    @given(x=hnp.arrays(float, (2, 1), elements=small),
           u=hnp.arrays(float, (2, 1), elements=small),
           a=hnp.arrays(float, (2, 1), elements=small),
           pu=hnp.arrays(float, (2, 1), elements=small),
           pa=hnp.arrays(float, (2, 1), elements=small))
    @settings(deadline=None, max_examples=60)
    def test_matches_pairwise_formula(self, x, u, a, pu, pa):
        rho = 2.0
        d = DualState(exports=x, levels=u, shares=a, prev_levels=pu,
                      prev_shares=pa, rho=rho, iteration=0)
        e, _, lam = _pairs(d)
        aux, lam_new = _cleared(sct_step(d))
        want = (rho * (e[0, 1, 0] - e[1, 0, 0]) - (lam[0, 1, 0] - lam[1, 0, 0])) \
            / (2.0 * rho)
        assert aux[0, 1, 0] == pytest.approx(want, abs=1e-12)
        assert lam_new[0, 1, 0] == pytest.approx(
            lam[0, 1, 0] + rho * (want - e[0, 1, 0]), abs=1e-12)


class TestPairwiseEquivalence:
    """The (N, T) step and residuals against the paper's pair tables at the
    point the step starts from, the extrapolated one."""

    def test_step_on_random_states(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n, t = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            _check_step(_random_state(rng, n, t,
                                      float(rng.uniform(0.2, 5.0))),
                        terms=True)

    def test_residuals_on_random_states(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            n, t = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            prev = _random_state(rng, n, t, float(rng.uniform(0.2, 5.0)))
            d = _random_state(rng, n, t, prev.rho)
            got, want = residuals(d, prev), _pairwise_residuals(d, prev)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            if n > 1:
                # a real step: the gaps between the cleared and the
                # proposed trades of sct_step_pairwise
                nxt = sct_step(prev)
                e, aux0, lam = _pairs(prev)
                aux, lam_new = sct_step_pairwise(e, lam, prev.rho)
                primal = sum(float(np.sqrt(np.sum((aux[i] - e[i]) ** 2)))
                             for i in range(n))
                dual = prev.rho * float(np.sqrt(np.sum((aux - aux0) ** 2)))
                assert residuals(nxt, prev) == pytest.approx(
                    (primal, dual), rel=1e-12, abs=0.0)

    def test_along_a_run(self, scen_3x8):
        """Every pre-step state of a run to convergence, the last of them
        near the fixed point."""
        transport = _ReplayTransport()
        out = run_distributed(scen_3x8, AdmmParams(eps=1e-8, max_iter=500),
                              transport)
        assert out.converged and len(transport.states) == out.iterations
        for prev in transport.states:
            nxt = sct_step(prev)
            _check_step(prev)
            assert residuals(nxt, prev) == pytest.approx(
                _pairwise_residuals(nxt, prev), rel=1e-12, abs=0.0)
        assert out.history[-1].primal_residual <= 1e-8


class TestDigest:
    def test_copy_has_same_digest(self):
        d = _state(3, 4)
        d.exports[0, 2] = 1.25
        assert dual_state_digest(d) == dual_state_digest(d.copy())

    @pytest.mark.parametrize("mutate", [
        lambda d: d.exports.__setitem__((0, 0), 9.0),
        lambda d: d.levels.__setitem__((1, 0), 9.0),
        lambda d: d.shares.__setitem__((0, 0), 9.0),
        lambda d: d.prev_levels.__setitem__((1, 0), 9.0),
        lambda d: d.prev_shares.__setitem__((0, 0), 9.0),
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
        d.exports[0, 0] = -0.0
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
        for value in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite positive"):
                RhoSchedule.fixed(value)
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
        for eps in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite positive"):
                AdmmParams(eps=eps)
        with pytest.raises(ValueError):
            AdmmParams(max_iter=0)


def _converged(d, prev, eps):
    return AdmmParams(eps=eps).converged(*residuals(d, prev))


class TestConvergence:
    # N=2, rho=1, from the zero state: a change da of the shares moves the
    # one pair's multipliers by g = da[0] + da[1], and primal = 2 |g|; a
    # change du of the levels moves the cleared trades by du[0] - du[1],
    # and dual = sqrt(2) rho |du[0] - du[1]|; the stop rule is
    # AdmmParams.converged, which run_distributed calls

    def test_boundary_is_inclusive(self):
        eps = 0.5
        prev = _state()
        d = prev.copy()
        d.shares[0, 0] = eps / 2    # primal residual exactly eps
        assert residuals(d, prev)[0] == eps
        assert _converged(d, prev, eps)

    def test_just_above_fails(self):
        eps = 0.5
        prev = _state()
        d = prev.copy()
        d.shares[0, 0] = eps / 2 + 2.0 ** -20
        assert not _converged(d, prev, eps)

    def test_dual_movement_blocks(self):
        # cleared trades that move with the multipliers at rest: the
        # primal is zero, the dual still blocks
        eps = 1e-6
        prev = _state(rho=1e9)
        d = prev.copy()
        d.levels[0, 0] = 1.0
        primal, dual = residuals(d, prev)
        assert primal <= eps < dual
        assert dual == np.sqrt(2.0) * 1e9
        assert not _converged(d, prev, eps)


class _ReplayTransport:
    """Runs the coordination step itself and keeps every pre-step state;
    nudges one price share at iteration ``at``."""

    def __init__(self, at=None):
        self.at = at
        self.states = []

    def begin(self, s, params):
        self.schedule = params.rho_schedule
        self.state = new_dual_state(s.n_users, s.grid.horizon,
                                    params.rho_schedule.rho_at(1))

    def read_state(self):
        return self.state.copy()

    def publish(self, user, iteration, export):
        self.state.exports[user] = export

    def run_sct(self):
        self.states.append(self.state.copy())
        self.state = advance_iteration(sct_step(self.state), self.schedule)
        if self.state.iteration == self.at:
            self.state.shares[0, 0] += 2.0 ** -40
        return self.state.copy()

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
                            _ReplayTransport(at=2))


def _sweep(s):
    """The homes' TEM stack without clearing rows, as ``run_distributed``
    builds it."""
    return tem._stack_homes(s, Mode.TEM,
                            user_layout(s.n_users, s.grid.horizon, Mode.TEM),
                            clearing=False)


def _block(prob, s, user):
    """Home ``user``'s own problem with its block of the sweep's penalised
    objective."""
    size = prob.q.size // s.n_users
    cols = slice(user * size, (user + 1) * size)
    return dataclasses.replace(tem.home_problem(s, user, Mode.TEM),
                               p=prob.p[cols], q=prob.q[cols])


def _exports(sol, lay, n_users):
    return sol.x.reshape(n_users, -1)[:, lay["export"]]


class TestUltAssembly:
    def test_penalty_terms(self, scen_2x4):
        s = scen_2x4
        d = new_dual_state(s.n_users, s.grid.horizon, rho=2.0)
        # pairs: aux[0][1] = 0.75 + 0.75 = 1.5, lam[0][1] = 0.25
        d.levels[0], d.levels[1] = 0.75, -0.75
        d.shares[:] = 0.125
        d = _at_rest(d)
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        prob = _block(assemble_ult(_sweep(s), d, lay), s, 0)
        base_p, base_q, _ = build_user_objective(s, [0], Mode.TEM)
        sp = lay["export"]
        # one peer: curvature rho / (N - 1), centre aux + lam / rho
        assert np.allclose(prob.p[sp], base_p[sp] + 2.0)
        assert np.allclose(prob.q[sp], base_q[sp] - 2.0 * (1.5 + 0.25 / 2.0))
        outside = np.ones(lay["peak"].stop, dtype=bool)
        outside[sp] = False
        assert np.allclose(prob.p[outside], base_p[outside])
        assert np.allclose(prob.q[outside], base_q[outside])

    def test_penalty_is_the_best_split(self, scen_3x8):
        """The export penalty equals, up to a constant, the least per-peer
        penalty over the splits of the export: its linear term is the
        summed centre of the home's pair tables."""
        s = scen_3x8
        rng = np.random.default_rng(3)
        d = _random_state(rng, s.n_users, s.grid.horizon, 0.7)
        home = tem.home_problem(s, 1, Mode.TEM)
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        prob = _block(assemble_ult(_sweep(s), d, lay), s, 1)
        _, aux, lam = _pairs(d)
        centre = (aux[1] + lam[1] / d.rho).sum(axis=0)
        sp = lay["export"]
        w = d.rho / (s.n_users - 1)
        assert np.allclose(prob.p[sp], home.p[sp] + w, rtol=0, atol=1e-12)
        assert np.allclose(prob.q[sp], home.q[sp] - w * centre, rtol=0,
                           atol=1e-12)
        # the pairwise penalty of the best split, against w/2 (s - C)^2
        export = rng.normal(size=s.grid.horizon)
        peers = [0, 2]
        c = aux[1, peers] + lam[1, peers] / d.rho
        split = c + (export - c.sum(axis=0)) / 2
        assert np.allclose(split.sum(axis=0), export, atol=1e-12)
        best = 0.5 * d.rho * np.sum((split - c) ** 2, axis=0)
        assert np.allclose(best, 0.5 * w * (export - centre) ** 2, atol=1e-12)

    @pytest.mark.parametrize("n_users", [3, 40])
    def test_home_columns_independent_of_peers(self, n_users):
        s = generate_synthetic(seed=2, n_users=n_users, horizon=4)
        d = new_dual_state(n_users, 4, 1.0)
        prob = assemble_ult(_sweep(s), d, user_layout(n_users, 4, Mode.TEM))
        assert _block(prob, s, 0).q.size == 12 * 4 + 1
        assert prob.q.size == n_users * (12 * 4 + 1)

    def test_penalty_leaves_home_problem_alone(self, scen_2x4):
        """Each iteration copies p and q and shares the constraint-set
        object, which is what lets a warm start reuse its presolve."""
        sweep = _sweep(scen_2x4)
        home = tem.home_problem(scen_2x4, 1, Mode.TEM)
        p0, q0 = sweep.p.copy(), sweep.q.copy()
        hp0, hq0 = home.p.copy(), home.q.copy()
        d = new_dual_state(2, scen_2x4.grid.horizon, 3.0)
        d.levels[1] = 0.5
        prob = assemble_ult(sweep, d,
                            user_layout(2, scen_2x4.grid.horizon, Mode.TEM))
        assert prob.constraints is sweep.constraints
        assert not np.array_equal(_block(prob, scen_2x4, 1).q, hq0)
        assert np.array_equal(sweep.p, p0) and np.array_equal(sweep.q, q0)
        assert np.array_equal(home.p, hp0) and np.array_equal(home.q, hq0)

    def test_home_subproblem_polishes_after_repair(self):
        """Home 1 at iteration 1 of seed 5 (N=5, T=24), solved alone on its
        block of the sweep: the interior-point point has a complementarity
        residual of 2.5e-8, and the KKT solve on its active-set guess
        leaves rows violated by up to 5.3e-3.  The polish's active-set
        steps add one blocking row each and certify at the third, where
        the interior-point point alone ended ``MaxIter`` at tol 1e-8 at one
        and two BLAS threads."""
        s = generate_synthetic(5, 5, 24)
        d = new_dual_state(5, 24, 1.0)
        prob = _block(assemble_ult(_sweep(s), d, user_layout(5, 24, Mode.TEM)),
                      s, 1)
        sol = solve_qp(prob, tol=1e-8)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.polish is Polish.POLISHED
        assert sol.kkt.worst() <= 1e-12, sol.kkt


class TestSweep:
    """A sweep solves all homes' subproblems as one block-diagonal QP; in
    the paper each home solves alone, so the sweep must give each home's
    own answer."""

    def test_sweep_is_each_homes_own_solve(self):
        """On a cold sweep from a random state, and along the first sweeps
        of a run, which are warm from the second on, every home's export
        equals its block solved alone."""
        s = generate_synthetic(seed=1, n_users=5, horizon=24)
        lay = user_layout(5, 24, Mode.TEM)
        sweep = _sweep(s)

        def check(d, warm):
            prob = assemble_ult(sweep, d, lay)
            sol = solve_qp(prob, tol=tem._KKT_TOL, warm_start=warm)
            assert sol.status is QpStatus.OPTIMAL
            own = np.array([solve_qp(_block(prob, s, n),
                                     tol=tem._KKT_TOL).x[lay["export"]]
                            for n in range(5)])
            got = _exports(sol, lay, 5)
            assert np.max(np.abs(got - own)) <= 1e-12 * np.max(np.abs(own))
            return sol

        check(_random_state(np.random.default_rng(0), 5, 24, 1.0), None)
        d, sol = new_dual_state(5, 24, 1.0), None
        # from the second sweep on, the sweeps read extrapolated states
        for _ in range(4):
            sol = check(d, sol)
            d = advance_iteration(sct_step(dataclasses.replace(
                d, exports=_exports(sol, lay, 5).copy())),
                RhoSchedule.fixed(1.0))
        assert sol.polish in (Polish.WARM, Polish.CONTINUED)

    def test_sweep_certifies_past_the_mean_complementarity(self, monkeypatch):
        """Iteration 2 of a 200-home run (generator seed 1, rho = 49.75),
        solved cold: the interior point reaches a mean s z of 1.3e-11 with
        one pair still at 9.8e-8.  Stopped there, no polish certified and
        the run failed; the interior point now also waits for the largest
        pair, and the polish certifies.  Warm, the continuation answers."""
        s = generate_synthetic(seed=1, n_users=200, horizon=24)
        real, problems = tem.solve_qp, []

        def spy(problem, **kwargs):
            problems.append(problem)
            return real(problem, **kwargs)
        monkeypatch.setattr(tem, "solve_qp", spy)
        out = run_distributed(s, AdmmParams(
            max_iter=2, rho_schedule=RhoSchedule.fixed(49.75)))
        assert [rec.polish for rec in out.history] == ["polished",
                                                       "continued"]
        cold = real(problems[1], tol=tem._KKT_TOL)
        assert cold.status is QpStatus.OPTIMAL
        assert cold.polish is Polish.POLISHED

    # scenario seed -> (ADMM iterations, distributed cost before the
    # active-set continuation, when every warm polish refactored and
    # failed sweeps restarted the interior point)
    BENCHMARK = {3: (28, 51.1736626763777), 0: (29, 46.75609897760689)}

    @pytest.mark.parametrize("seed", sorted(BENCHMARK))
    def test_benchmark_sweeps_are_warm_or_continued(self, seed):
        """In the benchmark regime (N=5, T=8, rho=1) every sweep after the
        first is answered from the previous one, without the interior
        point, and the run keeps its iteration count and cost."""
        s = generate_synthetic(seed, 5, 8, solar_range=(0.0, 10.0),
                               ev_arrival_soc=0.85)
        out = run_distributed(s, AdmmParams())
        iters, cost = self.BENCHMARK[seed]
        assert out.iterations == iters
        assert out.total_cost == pytest.approx(cost, rel=1e-9)
        assert {r.polish for r in out.history[1:]} == {"warm", "continued"}
        assert sum(r.factors for r in out.history[1:]) <= 5

    def test_benchmark_seed_3_sweep_3_continues(self, monkeypatch):
        """Sweep 3 at scenario seed 3: the warm guess and three repairs of
        it cycled between active sets of 57/106/8 and 57/107/8 rows, lower
        and upper bounds, against the certified 57/108/8, and the interior
        point restarted; the continuation from the previous point answers
        it without a factorization."""
        s = generate_synthetic(3, 5, 8, solar_range=(0.0, 10.0),
                               ev_arrival_soc=0.85)
        real, sols = tem.solve_qp, []

        def spy(problem, **kwargs):
            sols.append(real(problem, **kwargs))
            return sols[-1]
        monkeypatch.setattr(tem, "solve_qp", spy)
        run_distributed(s, AdmmParams(max_iter=3))
        assert sols[2].polish is Polish.CONTINUED
        assert sols[2].factors == 0
        assert sols[2].kkt.worst() <= tem._KKT_TOL

    def test_one_homes_data_moves_only_its_export(self):
        """Raising home 2's inflexible load changes its own export and
        leaves every other home's export of the sweep unchanged."""
        s = generate_synthetic(seed=1, n_users=5, horizon=24)
        u = s.users[2]
        moved = dataclasses.replace(s, users=(
            *s.users[:2], dataclasses.replace(u, inflexible=u.inflexible + 0.5),
            *s.users[3:]))
        lay = user_layout(5, 24, Mode.TEM)
        d = _random_state(np.random.default_rng(1), 5, 24, 1.0)
        base, other = (_exports(solve_qp(assemble_ult(_sweep(sc), d, lay),
                                         tol=tem._KKT_TOL), lay, 5)
                       for sc in (s, moved))
        rest = [0, 1, 3, 4]
        assert np.max(np.abs(other[rest] - base[rest])) \
            <= 1e-12 * np.max(np.abs(base[rest]))
        assert np.max(np.abs(other[2] - base[2])) > 1e-3

    def test_failed_sweep_names_its_home(self, monkeypatch):
        """Home 2 alone has an empty bound interval: the sweep fails, and
        the error names home 2, the iteration and home 2's own status."""
        real = tem.build_user_constraints

        def broken(s, users, mode):
            c = real(s, users, mode)
            if 2 not in users:
                return c
            size = c.n_vars // len(users)
            first = list(users).index(2) * size
            j = first + int(np.flatnonzero(np.isfinite(
                c.hi[first:first + size]))[0])
            lo = c.lo.copy()
            lo[j] = c.hi[j] + 1.0
            return dataclasses.replace(c, lo=lo)
        monkeypatch.setattr(tem, "build_user_constraints", broken)
        s = generate_synthetic(seed=2, n_users=4, horizon=8)
        with pytest.raises(SolveFailed, match=r"^home 2 subproblem at "
                           r"iteration 1 ended with Infeasible") as err:
            run_distributed(s, AdmmParams(max_iter=3))
        assert err.value.status is QpStatus.INFEASIBLE

    def test_failed_sweep_without_a_failing_home(self, scen_3x8, monkeypatch):
        """A sweep that does not certify although every home's block does
        alone is reported as the sweep's failure, with the sweep's status."""
        real = tem.solve_qp

        def stalled(problem, *args, **kwargs):
            sol = real(problem, *args, **kwargs)
            if ":sweep:" in problem.layout_tag:
                return dataclasses.replace(sol, status=QpStatus.MAX_ITER)
            return sol
        monkeypatch.setattr(tem, "solve_qp", stalled)
        with pytest.raises(SolveFailed, match=r"^sweep at iteration 1 ended "
                           r"with MaxIter, though each home alone") as err:
            run_distributed(scen_3x8, AdmmParams(max_iter=3))
        assert err.value.status is QpStatus.MAX_ITER


def _count_builds(monkeypatch):
    """Count the row and cost builds, through ``tem``'s names."""
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
    return calls


def _check_block_stack(s, mode):
    prob = assemble_problem(s, mode)
    c = prob.constraints
    a_eq, a_in = c.a_eq.toarray(), c.a_in.toarray()
    lay = user_layout(s.n_users, s.grid.horizon, mode)
    t, size = s.grid.horizon, lay["peak"].stop
    eq_home = np.zeros(a_eq.shape, dtype=bool)
    in_home = np.zeros(a_in.shape, dtype=bool)
    r_eq = r_in = 0
    home_nnz = 0
    for n in range(s.n_users):
        home = tem.home_problem(s, n, mode)
        cs = home.constraints
        home_nnz += cs.a_eq.nnz
        cols = slice(n * size, (n + 1) * size)
        rows_eq = slice(r_eq, r_eq + cs.b_eq.size)
        rows_in = slice(r_in, r_in + cs.b_in.size)
        assert np.array_equal(a_eq[rows_eq, cols], cs.a_eq.toarray())
        assert np.array_equal(c.b_eq[rows_eq], cs.b_eq)
        assert np.array_equal(a_in[rows_in, cols], cs.a_in.toarray())
        assert np.array_equal(c.b_in[rows_in], cs.b_in)
        assert np.array_equal(c.lo[cols], cs.lo)
        assert np.array_equal(c.hi[cols], cs.hi)
        assert np.array_equal(prob.p[cols], home.p)
        assert np.array_equal(prob.q[cols], home.q)
        eq_home[rows_eq, cols] = True
        in_home[rows_in, cols] = True
        r_eq, r_in = rows_eq.stop, rows_in.stop
    assert r_in == c.b_in.size
    assert np.all(a_in[~in_home] == 0.0)
    assert np.all(a_eq[:r_eq][~eq_home[:r_eq]] == 0.0)
    # the joint rows store the homes' entries and one per home and slot
    # of the clearing rows, nothing more
    trading = mode.has_horizontal and s.n_users > 1
    assert c.a_eq.nnz == home_nnz + trading * s.n_users * t
    # the rows after the home blocks clear the exports, one per slot
    clearing, rhs = a_eq[r_eq:], c.b_eq[r_eq:]
    if not mode.has_horizontal:
        assert clearing.shape[0] == 0
        return
    assert clearing.shape[0] == t
    assert np.all(rhs == 0.0)
    want = np.zeros((t, s.n_users * size))
    for n in range(s.n_users):
        for tt in range(t):
            want[tt, n * size + lay["export"].start + tt] = 1.0
    assert np.array_equal(clearing, want)


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
        """Home n's diagonal block of the joint problem is ``home_problem``
        of home n, on homes with equal windows and on homes with windows of
        their own."""
        for s in (scen_3x8, _windowed()):
            _check_block_stack(s, mode)

    def test_one_build_per_mode(self, monkeypatch):
        """A joint problem builds its rows and costs once each, for all
        its homes."""
        s = generate_synthetic(seed=1, n_users=40, horizon=24)
        calls = _count_builds(monkeypatch)
        for k, mode in enumerate(Mode, start=1):
            assemble_problem(s, mode)
            assert calls == {"constraints": k, "objective": k}

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
        assert "trades" not in out.to_json_dict()
        for n, sch in enumerate(out.schedules):
            base = n * lay["peak"].stop
            assert np.array_equal(sch.export, sol.x[base + lay["export"].start:
                                                    base + lay["export"].stop])

    def test_trade_rewards_see_the_clearing(self, scen_2x4):
        # home 0 sells one unit per slot and no home buys it: the rewards
        # price each home's own export, so they do not cancel
        s = scen_2x4
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        x = np.zeros(s.n_users * lay["peak"].stop)
        x[lay["export"]] = 1.0    # home 0's block starts at column 0
        total = sum(reward_terms(schedule_from_x(x, lay, n), s.prices)
                    .trade_reward for n in range(s.n_users))
        assert float(np.sum(s.prices.trade)) > 0.0
        assert total == pytest.approx(float(np.sum(s.prices.trade)),
                                      abs=1e-12)

    def test_joint_solve_certifies_at_the_home_tolerance(self, scen_2x4,
                                                         monkeypatch):
        tols = []

        def recording(problem, **kwargs):
            tols.append(kwargs["tol"])
            return solve_qp(problem, **kwargs)
        monkeypatch.setattr(tem, "solve_qp", recording)
        solve_centralized(scen_2x4, Mode.TEM)
        assert tols == [1e-8]

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
        assert loaded["schema"] == "gridledger.outcome.v5"
        assert "trades" not in loaded
        assert loaded["mode"] == "BS2"
        assert loaded["total_cost"] == pytest.approx(out.total_cost)
        assert len(loaded["users"]) == scen_2x4.n_users


def _windowed():
    """Generator seed 2 with per-home shift and plug-in windows of their
    own (an empty shift window, a one-slot plug-in) and a split
    demand-response window."""
    s = generate_synthetic(seed=2, n_users=4, horizon=8)
    grid = dataclasses.replace(
        s.grid, shift_windows=((1, 2, 3), (), (2, 4, 5, 6, 7, 8), (8,)),
        ev_windows=((1, 8), (3, 5), (8, 8), (2, 7)), dr_window=(2, 3, 7))
    return dataclasses.replace(s, grid=grid)


_PINNED_SCENARIOS = {
    # the benchmark's homes, in generator order
    "bench-5x8": lambda: generate_synthetic(
        3, 5, 8, solar_range=(0.0, 10.0), ev_arrival_soc=0.85),
    "seed1-40x24": lambda: generate_synthetic(1, 40, 24),
    "windows-4x8": _windowed,
}

# SHA-256 of each assembled problem's arrays (dtype, shape and bytes) and
# layout tag, made when each home's rows were built and stacked one by one
_PINNED = {
    "bench-5x8": {
        "BS1": "0cada27f2ec20b0570c1f29af4f806f113646467f017cf8664e0abe36c541eca",
        "BS2": "6edcac201dd5941ddda3f17f1ba78909134935263a918e57ae66b12ce08cc31e",
        "BS3": "f18fef1722a6be06a81cf01aeb81957b11f1ba098281ed4288bed8d70fcf8082",
        "TEM": "6d6a96888ac5a5ff423ade1bbdb41346777077a881927ab49488fc556b515e28",
        "sweep": "2c86c394a2930ea265340593b3351003073828409435a3adbddb8f04366dbfdc"},
    "seed1-40x24": {
        "BS1": "f212bff332ab1dcfcb66126eaa9edfed95de825322cb83252f0e920e08b82750",
        "BS2": "3c40f3a07509da782ecd420d9d159b3148506ff11ecabe594a0828cd14a6c94e",
        "BS3": "06cd588596baf3067cc7ebf4fa2612faa5b1583c3f724a250ab71bc1e5226a47",
        "TEM": "dae2bc24efd3a9b5720ed8c9c88c0e3fe9794904e9bd60ee5aa1a58130b945fb",
        "sweep": "367a6f19ea562be644384398d465ed48afe3727194f9f399f8afb146796b15f0"},
    "windows-4x8": {
        "BS1": "5f7a329529deb6fbde46b904dc3a53cb3f2cb20ac2be2c9e37d7e154d229aad0",
        "BS2": "39c1f9d26653316898a40a7748cab79535f245228a685249268b024db71bcb4b",
        "BS3": "faa478c9c09d61cddf1d749c77446450840a8bac585dfa5b4e9439bbfe165902",
        "TEM": "ba503771adfbec66b48400fdb93073708f7b12d3e48ca2a251befa52234edc5d",
        "sweep": "dc9f9800aca4d430694d4c3c495e87c00b570c360816526761ad3d7fbda22a54"},
}


def _problem_digest(prob):
    c = prob.constraints
    h = hashlib.sha256()
    for arr in (c.a_eq.data, c.a_eq.indices, c.a_eq.indptr, c.b_eq,
                c.a_in.data, c.a_in.indices, c.a_in.indptr, c.b_in,
                c.lo, c.hi, prob.p, prob.q):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(prob.layout_tag.encode())
    return h.hexdigest()


class _Captured(Exception):
    pass


def _assembled_digests(s, monkeypatch):
    """The digest of each mode's joint problem and of the distributed
    sweep's stack, caught as the first sweep receives it."""
    out = {mode.value: _problem_digest(assemble_problem(s, mode))
           for mode in Mode}

    def capture(sweep, d, layout):
        out["sweep"] = _problem_digest(sweep)
        raise _Captured
    monkeypatch.setattr(tem, "assemble_ult", capture)
    with pytest.raises(_Captured):
        run_distributed(s, AdmmParams(max_iter=1))
    return out


class TestPinnedAssembly:
    @pytest.mark.parametrize("name", sorted(_PINNED_SCENARIOS))
    def test_assembled_bytes_are_pinned(self, name, monkeypatch):
        got = _assembled_digests(_PINNED_SCENARIOS[name](), monkeypatch)
        assert got == _PINNED[name]


class TestDistributed:
    def test_lockstep_digests_and_clearing(self, scen_2x4):
        params = AdmmParams(eps=1e-5, max_iter=300)
        out = run_distributed(scen_2x4, params)
        assert out.converged
        assert out.iterations == len(out.history)
        for rec in out.history:
            assert rec.digest_local == rec.digest_transport
        # each home's export is its cleared sales, so the exports clear;
        # a distributed outcome has the joint outcome's shape
        total = sum(sch.export for sch in out.schedules)
        assert float(np.max(np.abs(total))) <= 1e-12
        assert "trades" not in out.to_json_dict()

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
        calls = _count_builds(monkeypatch)
        out = run_distributed(scen_3x8, AdmmParams(eps=1e-12, max_iter=4))
        assert out.iterations == 4
        assert calls == {"constraints": 1, "objective": 1}

    def test_one_layout_per_run(self, scen_3x8, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return user_layout(*args)
        monkeypatch.setattr(tem, "user_layout", counted)
        out = run_distributed(scen_3x8, AdmmParams(eps=1e-12, max_iter=4))
        assert out.iterations == 4
        assert calls == [(3, scen_3x8.grid.horizon, Mode.TEM)]

    def test_one_home_converges_at_once(self):
        s = generate_synthetic(seed=3, n_users=1, horizon=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = run_distributed(s, AdmmParams())
        assert out.converged and out.iterations == 1
        assert not out.schedules[0].export.any()

    def test_stop_rule_bounds_the_trades_movement(self):
        """Generator seed 8 of the benchmark's regime at T=24, rho=1.  A
        stop rule whose dual residual was rho times the primal gap again
        stopped here at iteration 61 with the exports still moving, 8.8e-5
        above the joint cost; the change of the cleared trades is bounded
        now, and the run ends at the joint cost."""
        s = generate_synthetic(8, 5, 24, solar_range=(0.0, 10.0),
                               ev_arrival_soc=0.85)
        out = run_distributed(s, AdmmParams(eps=1e-6, max_iter=2000))
        joint = solve_centralized(s, Mode.TEM).total_cost
        assert out.converged
        assert abs(out.total_cost - joint) / max(1.0, abs(joint)) <= 1e-8

    def test_records_name_the_path_of_each_sweep(self, scen_3x8):
        """Each iteration records which path answered its sweep: the first
        sweep is cold, and later ones start warm."""
        out = run_distributed(scen_3x8, AdmmParams(eps=1e-8, max_iter=500))
        paths = [rec.polish for rec in out.history]
        assert paths[0] in (Polish.POLISHED.value, Polish.INTERIOR.value)
        assert set(paths) <= {p.value for p in Polish}
        assert Polish.WARM.value in paths
        assert [r["polish"] for r in out.to_json_dict()["history"]] == paths

    def test_unconverged_reports_honestly(self, scen_2x4):
        out = run_distributed(scen_2x4, AdmmParams(eps=1e-12, max_iter=1))
        assert not out.converged
        assert out.iterations == 1


# a joint and a distributed TEM run, a joint TEM run and a distributed one
# at 40 homes (whose long vectors, a sweep's as well, a threaded BLAS
# splits) with the joint objective value, and the residuals of ten 40-home
# coordination states, printed as one sha256
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
d40 = tem.AdmmParams(rho_schedule=tem.RhoSchedule.fixed(9.75))
for out in (tem.solve_centralized(s, Mode.TEM),
            tem.run_distributed(s, tem.AdmmParams()),
            tem.solve_centralized(s40, Mode.TEM),
            tem.run_distributed(generate_synthetic(seed=1, n_users=40,
                                                   horizon=24), d40),
            tem.run_distributed(generate_synthetic(
                3, 5, 8, solar_range=(0.0, 10.0), ev_arrival_soc=0.85),
                tem.AdmmParams())):
    h.update(json.dumps(out.to_json_dict(), sort_keys=True).encode())
h.update(solve_qp(tem.assemble_problem(s40, Mode.TEM)).value.hex().encode())
rng = np.random.default_rng(0)
for _ in range(10):
    d, prev = (tem.DualState(*rng.standard_normal((5, 40, 24)), 1.0, 1)
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
