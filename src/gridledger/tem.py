"""Joint and decomposed solution of the multi-home scheduling problem.

The joint problem minimizes the sum of all home costs minus all rewards;
in trading modes one clearing row per slot makes the homes' net exports
sum to zero.  The decomposition alternates per-home subproblems (each home
optimizes its own schedule and net export against the latest auxiliary
trades and prices) with a closed-form coordination step that projects the
proposed trades onto the cleared, antisymmetric subspace and adjusts the
per-pair price multipliers.  A home decides and publishes only its net
export per slot; its per-peer proposal follows from that export and the
public coordination state in closed form (``split_export``; the exchange
problem of Boyd et al., Distributed Optimization and Statistical Learning
via ADMM, 2011, section 7.3), so the local mirror and the contract derive
it with the same code.  All homes solve against the same snapshot in
every sweep, so one iteration is a Jacobi round followed by one
coordination step.

An outcome is written here, as JSON (``Outcome.write_json``) and as a
per-slot schedule CSV (``Outcome.write_csv``).  Each home's schedule holds
its net export per slot.  The per-peer trades are written only for a
distributed run, whose cleared trades are coordination state; a joint
solve fixes each home's net export but not who trades with whom.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np
import scipy.sparse as sp

from .energy_model import (SCHEDULE_SERIES, CostBreakdown, Mode, Schedule,
                           build_user_constraints, build_user_objective,
                           combine_costs, home_cost_terms, reward_terms,
                           schedule_from_x, user_layout)
from .qp import (LinearConstraintSet, QpProblem, QpSolution, QpStatus,
                 solve_qp)
from .scenario import Scenario

__all__ = [
    "SCHEMA_OUTCOME",
    "SCHEMA_SCHEDULE",
    "AdmmParams",
    "DualState",
    "IterationRecord",
    "Outcome",
    "RhoSchedule",
    "SolveFailed",
    "Transport",
    "advance_iteration",
    "assemble_problem",
    "assemble_ult",
    "dual_state_digest",
    "has_converged",
    "home_problem",
    "new_dual_state",
    "residuals",
    "run_distributed",
    "sct_step",
    "solve_centralized",
    "split_export",
]


# KKT tolerance of the joint solve and of each home's subproblem
_JOINT_TOL = 1e-6
_HOME_TOL = 1e-8

SCHEMA_OUTCOME = "gridledger.outcome.v2"
SCHEMA_SCHEDULE = "gridledger.schedule.v2"


class SolveFailed(RuntimeError):
    """A subproblem or the joint problem did not reach optimality."""

    def __init__(self, message: str, status: QpStatus):
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------------
# dual state

@dataclass
class DualState:
    """Coordination state shared between homes.

    ``trades[n][m][t]`` is home n's proposed sale to m (negative: purchase),
    ``trades_aux`` the cleared antisymmetric copy, ``duals`` the per-pair
    price multipliers.  ``iteration`` counts completed coordination steps;
    ``rho`` is the penalty weight the next sweep will use.  Diagonals stay
    zero.
    """

    trades: np.ndarray
    trades_aux: np.ndarray
    duals: np.ndarray
    rho: float
    iteration: int

    def copy(self) -> "DualState":
        return DualState(trades=self.trades.copy(),
                         trades_aux=self.trades_aux.copy(),
                         duals=self.duals.copy(),
                         rho=self.rho, iteration=self.iteration)


def new_dual_state(n_users: int, horizon: int, rho: float) -> DualState:
    shape = (n_users, n_users, horizon)
    return DualState(trades=np.zeros(shape), trades_aux=np.zeros(shape),
                     duals=np.zeros(shape), rho=rho, iteration=0)


def dual_state_digest(d: DualState) -> str:
    """Canonical SHA-256 over the full coordination state."""
    n, _, t = d.trades.shape
    h = hashlib.sha256()
    h.update(n.to_bytes(4, "little"))
    h.update(t.to_bytes(4, "little"))
    h.update(int(d.iteration).to_bytes(8, "little"))
    h.update(np.float64(d.rho).tobytes())
    for arr in (d.trades, d.trades_aux, d.duals):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


class RhoKind(enum.Enum):
    FIXED = "fixed"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class RhoSchedule:
    kind: RhoKind
    value: float = 1.0

    @staticmethod
    def fixed(value: float = 1.0) -> "RhoSchedule":
        if value <= 0:
            raise ValueError("penalty weight must be positive")
        return RhoSchedule(RhoKind.FIXED, value)

    @staticmethod
    def reciprocal() -> "RhoSchedule":
        return RhoSchedule(RhoKind.RECIPROCAL)

    def rho_at(self, k: int) -> float:
        if k < 1:
            raise ValueError("iterations are counted from 1")
        if self.kind is RhoKind.FIXED:
            return self.value
        return 1.0 / k


@dataclass(frozen=True)
class AdmmParams:
    eps: float = 1e-6
    max_iter: int = 1000
    rho_schedule: RhoSchedule = field(default_factory=RhoSchedule.fixed)

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("convergence threshold must be positive")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")


# ---------------------------------------------------------------------------
# coordination step

@functools.lru_cache(maxsize=None)
def _pair_indices(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the upper triangle of an n x n pair table, and
    its diagonal, made once per n; read-only, since every caller shares
    them."""
    out = (*np.triu_indices(n, k=1), np.arange(n))
    for a in out:
        a.flags.writeable = False
    return out


def sct_step(d: DualState) -> DualState:
    """Closed-form coordination update.

    For every ordered pair (n, m):

        aux[n][m] = (rho * (e[n][m] - e[m][n]) - (lam[n][m] - lam[m][n]))
                    / (2 * rho)
        lam[n][m] += rho * (aux[n][m] - e[n][m])

    The auxiliary trades are antisymmetric exactly: the lower triangle is
    written as the negated upper triangle.  The iteration counter is left
    unchanged; callers advance it once the step is applied everywhere.
    """
    e = d.trades
    lam = d.duals
    rho = d.rho
    if rho <= 0:
        raise ValueError("penalty weight must be positive")
    diff_e = e - e.transpose(1, 0, 2)
    diff_l = lam - lam.transpose(1, 0, 2)
    aux = (rho * diff_e - diff_l) / (2.0 * rho)
    iu, ju, idx = _pair_indices(e.shape[0])
    aux[ju, iu, :] = -aux[iu, ju, :]
    aux[idx, idx, :] = 0.0
    lam_new = lam + rho * (aux - e)
    lam_new[idx, idx, :] = 0.0
    return DualState(trades=e.copy(), trades_aux=aux, duals=lam_new,
                     rho=rho, iteration=d.iteration)


def advance_iteration(d: DualState, schedule: RhoSchedule) -> DualState:
    """Roll the state to the next iteration after a coordination step."""
    k = d.iteration + 1
    return DualState(trades=d.trades, trades_aux=d.trades_aux, duals=d.duals,
                     rho=schedule.rho_at(k + 1), iteration=k)


def residuals(d: DualState, prev: DualState) -> Tuple[float, float]:
    """Primal and dual residual of the step from ``prev`` to ``d``.

    Primal: the sum over homes of the Euclidean gap between proposed and
    cleared trades.  Dual: the Euclidean change of the multipliers since
    the previous iteration.  The squares are summed by numpy, not by a
    BLAS dot product, whose split across threads changes the last bits.
    """
    def norm(v: np.ndarray) -> float:
        return float(np.sqrt(np.sum(v * v)))

    primal = sum(norm(d.trades_aux[i] - d.trades[i])
                 for i in range(d.trades.shape[0]))
    return primal, norm(d.duals - prev.duals)


def has_converged(d: DualState, prev: DualState, eps: float) -> bool:
    """True when proposals match the cleared trades and prices have settled.

    Both ``residuals`` must be <= eps (inclusive); ``run_distributed``
    stops on the same test.
    """
    primal, dual = residuals(d, prev)
    return primal <= eps and dual <= eps


# ---------------------------------------------------------------------------
# joint problem

def home_problem(s: Scenario, user: int, mode: Mode) -> QpProblem:
    """One home's own QP: its rows, bounds and net cost
    (``build_user_constraints``, ``build_user_objective``), without any
    coupling to the other homes."""
    p_diag, q, _ = build_user_objective(s, user, mode)
    return QpProblem(p=p_diag, q=q,
                     constraints=build_user_constraints(s, user, mode),
                     layout_tag=f"{mode.value}:user={user}:N={s.n_users}:"
                                f"T={s.grid.horizon}")


def _stack_rows(parts: List[Tuple[sp.csr_array, int]],
                n_vars: int) -> sp.csr_array:
    """The rows of ``parts``, (rows, first column) pairs, one under the
    other in one CSR array ``n_vars`` wide: their arrays end to end, each
    one's columns shifted by its first column and its row pointers by the
    entries before it."""
    offsets = np.cumsum([0] + [m.nnz for m, _ in parts])
    return sp.csr_array((
        np.concatenate([m.data for m, _ in parts]),
        np.concatenate([m.indices + first for m, first in parts]),
        np.concatenate([[0]] + [m.indptr[1:] + k
                                for (m, _), k in zip(parts, offsets)])),
        shape=(sum(m.shape[0] for m, _ in parts), n_vars))


def assemble_problem(s: Scenario, mode: Mode) -> QpProblem:
    """Joint QP over all homes: the block-diagonal stack of the home QPs.

    Home n's ``home_problem`` fills the n-th diagonal block; no row couples
    two homes except, in trading modes with more than one home, one
    clearing row per slot appended after the equality blocks, which makes
    the net exports of all homes sum to zero.  Reported costs are
    recomputed from the schedules.
    """
    layout = user_layout(s.n_users, s.grid.horizon, mode)
    t, nv = s.grid.horizon, layout.n_vars
    homes = [home_problem(s, n, mode) for n in range(s.n_users)]
    cons = [h.constraints for h in homes]
    starts = [n * layout.block_size for n in range(s.n_users)]
    a_eq = [(cs.a_eq, first) for cs, first in zip(cons, starts)]
    b_eq = [cs.b_eq for cs in cons]
    if mode.has_horizontal and s.n_users > 1:
        # each clearing row puts a 1 on its slot in every home's export
        # span; home 0's block starts at column 0, so its span is local
        cols = (layout.span(0, "export").start + np.arange(t)[:, None]
                + np.array(starts)).ravel()
        a_eq.append((sp.csr_array((np.ones(cols.size), cols,
                                   s.n_users * np.arange(t + 1)),
                                  shape=(t, nv)), 0))
        b_eq.append(np.zeros(t))
    constraints = LinearConstraintSet(
        n_vars=nv, a_eq=_stack_rows(a_eq, nv), b_eq=np.concatenate(b_eq),
        a_in=_stack_rows([(cs.a_in, first)
                          for cs, first in zip(cons, starts)], nv),
        b_in=np.concatenate([cs.b_in for cs in cons]),
        lo=np.concatenate([cs.lo for cs in cons]),
        hi=np.concatenate([cs.hi for cs in cons]))
    return QpProblem(p=np.concatenate([h.p for h in homes]),
                     q=np.concatenate([h.q for h in homes]),
                     constraints=constraints,
                     layout_tag=f"{mode.value}:joint:N={s.n_users}:T={t}")


# ---------------------------------------------------------------------------
# outcomes

@dataclass
class IterationRecord:
    iteration: int
    rho: float
    primal_residual: float
    dual_residual: float
    digest_local: str
    digest_transport: str


@dataclass
class Outcome:
    """A solved scenario.  ``trades[n][m][t]`` is the cleared sale of home
    n to home m in a distributed run; a joint solve leaves it ``None``."""

    mode: str
    schedules: List[Schedule]
    costs: List[CostBreakdown]
    total_cost: float
    iterations: int
    converged: bool
    history: List[IterationRecord] = field(default_factory=list)
    trades: Optional[np.ndarray] = None

    def to_json_dict(self) -> dict:
        out = {
            "schema": SCHEMA_OUTCOME,
            "mode": self.mode,
            "total_cost": self.total_cost,
            "iterations": self.iterations,
            "converged": self.converged,
            "users": [
                {
                    "costs": vars(c).copy(),
                    "schedule": {
                        **{name: getattr(sch, name).tolist()
                           for name in SCHEDULE_SERIES},
                        "peak": sch.peak,
                    },
                }
                for sch, c in zip(self.schedules, self.costs)
            ],
            "history": [vars(r).copy() for r in self.history],
        }
        if self.trades is not None:
            out["trades"] = self.trades.tolist()
        return out

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    def write_csv(self, path: str | Path) -> None:
        """One row per home and slot: the schedule series, then the peak."""
        lines = [f"# schema: {SCHEMA_SCHEDULE}",
                 ",".join(["user", "slot", *SCHEDULE_SERIES, "peak"])]
        for n, sch in enumerate(self.schedules):
            peak = repr(float(sch.peak))
            columns = [getattr(sch, name).tolist() for name in SCHEDULE_SERIES]
            lines.extend(",".join([str(n), str(t), *map(repr, row), peak])
                         for t, row in enumerate(zip(*columns)))
        Path(path).write_text("\n".join(lines) + "\n")


def _outcome_from_schedules(s: Scenario, mode: Mode, schedules: List[Schedule],
                            iterations: int, converged: bool,
                            history: Optional[List[IterationRecord]] = None,
                            trades: Optional[np.ndarray] = None) -> Outcome:
    costs = []
    for n, sch in enumerate(schedules):
        costs.append(combine_costs(home_cost_terms(sch, s.users[n], s.tariff),
                                   reward_terms(sch, s.prices)))
    total = float(sum(c.net_cost for c in costs))
    return Outcome(mode=mode.value, schedules=schedules, costs=costs,
                   total_cost=total, iterations=iterations,
                   converged=converged, history=history or [], trades=trades)


def solve_centralized(s: Scenario, mode: Mode) -> Outcome:
    """Solve the joint problem; raises SolveFailed unless optimal.

    The returned point is certified to KKT residuals <= 1e-6.  That bound
    also admits the interior-point point, which plateaus near 1e-8 on joint
    problems with several hundred variables, should the polish not certify.
    """
    problem = assemble_problem(s, mode)
    sol = solve_qp(problem, tol=_JOINT_TOL)
    if sol.status is not QpStatus.OPTIMAL:
        raise SolveFailed(f"joint {mode.value} solve ended with "
                          f"{sol.status.value} (kkt={sol.kkt})", sol.status)
    layout = user_layout(s.n_users, s.grid.horizon, mode)
    schedules = [schedule_from_x(sol.x, layout, n) for n in range(s.n_users)]
    return _outcome_from_schedules(s, mode, schedules, sol.iterations, True)


# ---------------------------------------------------------------------------
# per-home subproblem

def _penalty_centres(d: DualState, user: int) -> np.ndarray:
    """c[m] = aux[user][m] + lam[user][m] / rho; the own row stays zero."""
    c = d.trades_aux[user] + d.duals[user] / d.rho
    c[user] = 0.0
    return c


@functools.lru_cache(maxsize=None)
def _export_cols(n_users: int, horizon: int) -> slice:
    """The net-export columns of a one-home TEM problem, which are the same
    for every home of a neighbourhood of ``n_users`` (more than one)."""
    return user_layout(n_users, horizon, Mode.TEM, users=[0]).span(0, "export")


def split_export(d: DualState, user: int, export: np.ndarray) -> np.ndarray:
    """Per-peer trades minimizing the home's penalty for a net export.

    Minimizing sum_m rho/2 * (e[m] - c[m])^2 subject to sum_m e[m] = s
    gives e[m] = c[m] + (s - sum_m c[m]) / (N - 1) for every peer m, so
    rho * (e[m] - c[m]) is the same for all peers.  Returns the (N, T) row
    with a zero own entry.
    """
    c = _penalty_centres(d, user)
    row = c + (np.asarray(export, dtype=float) - c.sum(axis=0)) \
        / (c.shape[0] - 1)
    row[user] = 0.0
    return row


def assemble_ult(home: QpProblem, user: int, d: DualState) -> QpProblem:
    """Home ``user``'s subproblem given the latest coordination state.

    ``home`` is the home's own TEM problem (``home_problem``), built once
    per run.  Objective: its net cost plus, for every peer and slot, the
    penalty rho/2 * (aux - e)^2 - lam * e on its proposed trades, minimized
    over the split of its net export s (``split_export``).  Up to a
    constant that leaves rho / (2 (N-1)) * (s - sum_m c[m])^2 per slot with
    c[m] = aux[m] + lam[m] / rho, added to copies of ``home.p`` and
    ``home.q``.  The constraint set is ``home``'s own object, so every
    solve of the run reuses its presolve; the clearing rows are replaced
    by the penalty.
    """
    n_users, _, horizon = d.trades.shape
    p_diag, q = home.p.copy(), home.q.copy()
    if n_users > 1:
        cols = _export_cols(n_users, horizon)
        w = d.rho / (n_users - 1)
        p_diag[cols] += w
        q[cols] -= w * _penalty_centres(d, user).sum(axis=0)
    return QpProblem(p=p_diag, q=q, constraints=home.constraints,
                     layout_tag=home.layout_tag)


# ---------------------------------------------------------------------------
# transports

class Transport(Protocol):
    """Where the coordination state lives during a distributed run."""

    def begin(self, s: Scenario, params: AdmmParams) -> None: ...

    def read_state(self) -> DualState: ...

    def publish(self, user: int, iteration: int, export: np.ndarray) -> None:
        """Post a home's net export per slot; the receiver derives its
        per-peer row with ``split_export`` against its own state."""

    def run_sct(self) -> DualState: ...

    def settle(self, s: Scenario, outcome: Outcome) -> None: ...


# ---------------------------------------------------------------------------
# distributed driver

def run_distributed(s: Scenario, params: AdmmParams,
                    transport: Optional[Transport] = None) -> Outcome:
    """Jacobi sweeps of per-home solves plus coordination steps.

    Each home's rows, bounds and own cost are built once per run
    (``home_problem``); every sweep adds only the export penalty
    (``assemble_ult``), solves all homes against the same snapshot and
    runs the coordination step on the local state (the mirror).  Each home's net
    export becomes its proposed row through ``split_export``.  With a
    ``transport``, the export is also published through it and its
    coordination step must reproduce the mirror's: a differing digest
    raises ``RuntimeError``.  Without one, the mirror is the only state
    and is recorded as its own transport digest.  A single home has no
    peers and publishes nothing.  The outcome's ``trades`` are the final
    cleared trades, which are antisymmetric exactly, and each schedule's
    export is its home's cleared row summed over peers.
    """
    if transport is not None:
        transport.begin(s, params)
    mirror = new_dual_state(s.n_users, s.grid.horizon,
                            params.rho_schedule.rho_at(1))
    history: List[IterationRecord] = []
    warm: Dict[int, QpSolution] = {}
    layouts = [user_layout(s.n_users, s.grid.horizon, Mode.TEM, users=[n])
               for n in range(s.n_users)]
    homes = [home_problem(s, n, Mode.TEM) for n in range(s.n_users)]
    converged = False
    iterations = 0

    for k in range(1, params.max_iter + 1):
        if transport is not None:
            snap = transport.read_state()
            if snap.iteration != mirror.iteration or snap.rho != mirror.rho:
                raise RuntimeError(f"transport state diverged from the "
                                   f"local mirror before iteration {k}")
        # the sweep writes only mirror.trades, which no home reads
        for n in range(s.n_users):
            problem = assemble_ult(homes[n], n, mirror)
            sol = solve_qp(problem, tol=_HOME_TOL, warm_start=warm.get(n))
            if sol.status is not QpStatus.OPTIMAL:
                raise SolveFailed(
                    f"home {n} subproblem at iteration {k} ended with "
                    f"{sol.status.value}", sol.status)
            warm[n] = sol
            if s.n_users > 1:
                export = sol.x[_export_cols(s.n_users, s.grid.horizon)]
                if transport is not None:
                    transport.publish(n, k, export)
                mirror.trades[n] = split_export(mirror, n, export)
        prev = mirror
        mirror = advance_iteration(sct_step(mirror), params.rho_schedule)
        dl = dr = dual_state_digest(mirror)
        if transport is not None:
            dr = dual_state_digest(transport.run_sct())
            if dr != dl:
                raise RuntimeError(
                    f"transport state diverged from the local mirror at "
                    f"iteration {k}: digest {dr} != {dl}")
        primal, dual = residuals(mirror, prev)
        history.append(IterationRecord(
            iteration=k, rho=prev.rho, primal_residual=primal,
            dual_residual=dual, digest_local=dl, digest_transport=dr))
        iterations = k
        if primal <= params.eps and dual <= params.eps:
            converged = True
            break

    trades = mirror.trades_aux
    schedules = [replace(schedule_from_x(warm[n].x, layouts[n], n),
                         export=trades[n].sum(axis=0))
                 for n in range(s.n_users)]
    outcome = _outcome_from_schedules(s, Mode.TEM, schedules, iterations,
                                      converged, history, trades)
    if transport is not None:
        transport.settle(s, outcome)
    return outcome
