"""Joint and decomposed solution of the multi-home scheduling problem.

The joint problem minimizes the sum of all home costs minus all rewards;
in trading modes one clearing row per slot makes the homes' net exports
sum to zero.  The decomposition alternates per-home subproblems (each home
optimizes its own schedule and net export against the latest coordination
state) with a closed-form coordination step.  The paper's step works on pair
tables of proposed trades, cleared trades and multipliers
(``sct_step_pairwise``; Sorin, Bobo and Pinson, IEEE Trans. Power Syst.
2019), but from the zero start its cleared trades stay u[n] - u[m] and
its multipliers a[n] + a[m].  So the state is the pending net exports,
u and a, and ``sct_step`` updates them in O(N T) (the exchange form of
Boyd et al., Distributed Optimization and Statistical Learning via ADMM,
2011, section 7.3).  The step is inertial (Chen, Chan, Ma and Yang, SIAM
J. Imaging Sci. 2015): the sweep and the step read (u, a) extrapolated
past the previous iterate, which the state keeps too, so the state is
five (N, T) arrays.  A home publishes only its net export per slot.  All homes solve against the same snapshot,
and no term couples two of them, so one iteration is one block-diagonal
QP, whose minimum is each home's own, followed by one coordination step.

An outcome is written here, as JSON (``Outcome.write_json``) and as a
per-slot schedule CSV (``Outcome.write_csv``).  Each home's schedule holds
its net export per slot, in a joint and in a distributed run alike.  A
distributed run's cleared sale of home n to home m is
(export[n] - export[m]) / N, so it is not written.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np
import scipy.sparse as sp

from .energy_model import (SCHEDULE_SERIES, CostBreakdown, Mode, Schedule,
                           build_user_constraints, build_user_objective,
                           combine_costs, home_cost_terms, reward_terms,
                           schedule_from_x, user_layout)
from .qp import QpProblem, QpStatus, solve_qp
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
    "home_problem",
    "new_dual_state",
    "residuals",
    "run_distributed",
    "sct_step",
    "sct_step_pairwise",
    "solve_centralized",
]


# KKT tolerance of every solve, the joint one and each home's subproblem
_KKT_TOL = 1e-8

SCHEMA_OUTCOME = "gridledger.outcome.v4"
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
    """Coordination state shared between homes, five (N, T) arrays.

    ``exports`` holds each home's pending net export, which the next step
    clears.  In the paper's pair tables the cleared sale of n to m is
    ``levels[n] - levels[m]`` and the multiplier ``shares[n] + shares[m]``.
    ``prev_levels`` and ``prev_shares`` are the step's previous iterate,
    from which the next sweep and step extrapolate (``_extrapolated``).
    ``iteration`` counts completed coordination steps; ``rho`` is the
    penalty weight the next sweep will use.
    """

    exports: np.ndarray
    levels: np.ndarray
    shares: np.ndarray
    prev_levels: np.ndarray
    prev_shares: np.ndarray
    rho: float
    iteration: int

    def copy(self) -> "DualState":
        return DualState(exports=self.exports.copy(),
                         levels=self.levels.copy(),
                         shares=self.shares.copy(),
                         prev_levels=self.prev_levels.copy(),
                         prev_shares=self.prev_shares.copy(),
                         rho=self.rho, iteration=self.iteration)


def new_dual_state(n_users: int, horizon: int, rho: float) -> DualState:
    return DualState(*np.zeros((5, n_users, horizon)), rho=rho, iteration=0)


def dual_state_digest(d: DualState) -> str:
    """Canonical SHA-256 over the full coordination state."""
    n, t = d.exports.shape
    h = hashlib.sha256()
    h.update(n.to_bytes(4, "little"))
    h.update(t.to_bytes(4, "little"))
    h.update(int(d.iteration).to_bytes(8, "little"))
    h.update(np.float64(d.rho).tobytes())
    for arr in (d.exports, d.levels, d.shares, d.prev_levels,
                d.prev_shares):
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
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"penalty weight must be a finite positive "
                             f"number (got {value})")
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
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"convergence threshold must be a finite "
                             f"positive number (got {self.eps})")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")

    def converged(self, primal: float, dual: float) -> bool:
        """The stop rule: both ``residuals`` at most eps (inclusive)."""
        return primal <= self.eps and dual <= self.eps


# ---------------------------------------------------------------------------
# coordination step

def sct_step_pairwise(trades: np.ndarray, duals: np.ndarray,
                      rho: float) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's closed-form coordination step on (N, N, T) pair tables.

    For every ordered pair (n, m), with e the proposed trades and lam the
    multipliers:

        aux[n][m] = (rho * (e[n][m] - e[m][n]) - (lam[n][m] - lam[m][n]))
                    / (2 * rho)
        lam[n][m] += rho * (aux[n][m] - e[n][m])

    Returns the cleared trades and the new multipliers.  The cleared
    trades are antisymmetric exactly, since rounding is symmetric in sign
    and so every operation on (m, n) is the negation of the one on (n, m);
    zero diagonals stay zero.  ``sct_step`` runs the same step on the
    (N, T) state; this form is the reference it is tested against.
    """
    if rho <= 0:
        raise ValueError("penalty weight must be positive")
    aux = (rho * (trades - trades.transpose(1, 0, 2))
           - (duals - duals.transpose(1, 0, 2))) / (2.0 * rho)
    return aux, duals + rho * (aux - trades)


# inertia of the coordination step, a constant below the 1/3 under which
# Chen et al. prove inertial ADMM converges
_INERTIA = 0.3


def _extrapolated(d: DualState) -> Tuple[np.ndarray, np.ndarray]:
    """The point the sweep and the step read: (u, a) + beta ((u, a) -
    (prev u, prev a)), beta = ``_INERTIA``.  From the zero start it is the
    raw iterate, so the first step is the paper's."""
    return (d.levels + _INERTIA * (d.levels - d.prev_levels),
            d.shares + _INERTIA * (d.shares - d.prev_shares))


def _centres(u: np.ndarray, a: np.ndarray, rho: float) -> np.ndarray:
    """C[n] = N u[n] - sum(u) + ((N - 2) a[n] + sum(a)) / rho, the sum over
    peers m of home n's penalty centres aux[n][m] + lam[n][m] / rho at the
    levels u and shares a."""
    n = u.shape[0]
    return n * u - u.sum(axis=0) + ((n - 2) * a + a.sum(axis=0)) / rho


def sct_step(d: DualState) -> DualState:
    """Closed-form coordination update on the (N, T) state.

    The step starts at the extrapolated point (u, a) (``_extrapolated``).
    Home n's penalty-optimal split of its pending export x[n] proposes to
    each peer its centre plus step[n] = (x[n] - C[n]) / (N - 1)
    (``_centres`` at (u, a)); ``sct_step_pairwise`` then moves the cleared
    trades by (step[n] - step[m]) / 2 and sets the multipliers to
    -rho (step[n] + step[m]) / 2.  The raw levels and shares become the
    new state's previous iterate.  A lone home's state does not change.
    The iteration counter is left unchanged; callers advance it once the
    step is applied everywhere.
    """
    rho = d.rho
    if rho <= 0:
        raise ValueError("penalty weight must be positive")
    n = d.exports.shape[0]
    if n < 2:
        return d.copy()
    u, a = _extrapolated(d)
    step = (d.exports - _centres(u, a, rho)) / (n - 1)
    return DualState(exports=d.exports.copy(), levels=u + step / 2.0,
                     shares=-rho * step / 2.0, prev_levels=d.levels.copy(),
                     prev_shares=d.shares.copy(), rho=rho,
                     iteration=d.iteration)


def advance_iteration(d: DualState, schedule: RhoSchedule) -> DualState:
    """Roll the state to the next iteration after a coordination step."""
    k = d.iteration + 1
    return replace(d, rho=schedule.rho_at(k + 1), iteration=k)


def residuals(d: DualState, prev: DualState) -> Tuple[float, float]:
    """Primal and dual residual of the step from ``prev`` to ``d``, both
    measured from the point the step started at, ``prev`` extrapolated.

    Each pair multiplier moves by g[n][m] = da[n] + da[m], da the change
    of ``shares``, which is rho times the gap between the cleared and the
    proposed trade.  Primal: the sum over homes n of the norm of g[n] over
    peers and slots, over the step's rho.  Per slot, sum over peers of
    g[n][m]^2 = (N - 4) da[n]^2 + 2 da[n] sum(da) + sum(da^2).  Dual: rho
    times the norm of the change of the cleared trades du[n] - du[m] over
    ordered pairs, du the change of ``levels`` (Boyd et al., section
    3.3); per slot its square is 2 N sum((du - mean(du))^2).  Both take
    O(N T).  numpy sums them, not a BLAS dot product, whose split across
    threads changes the last bits.
    """
    n = d.shares.shape[0]
    if n < 2:    # a lone home has no pairs
        return 0.0, 0.0
    u, a = _extrapolated(prev)
    da, du = d.shares - a, d.levels - u
    s1, s2 = da.sum(axis=0), (da * da).sum(axis=0)
    # rounding can take a row whose exact value is zero just below it
    rows = np.maximum(((n - 4) * da * da + 2.0 * da * s1 + s2).sum(axis=1),
                      0.0)
    primal = float(np.sqrt(rows).sum()) / prev.rho
    # centred on home 0 first, so that a move common to all homes, which
    # moves no trade, leaves no rounding behind
    dc = du - du[0]
    dc -= dc.mean(axis=0)
    return primal, prev.rho * float(np.sqrt(2.0 * n * np.sum(dc * dc)))


# ---------------------------------------------------------------------------
# joint problem

def home_problem(s: Scenario, user: int, mode: Mode) -> QpProblem:
    """One home's own QP: its rows, bounds and net cost, built for home
    ``user`` alone, without any coupling to the other homes."""
    p_diag, q, _ = build_user_objective(s, [user], mode)
    return QpProblem(p=p_diag, q=q,
                     constraints=build_user_constraints(s, [user], mode))


def _stack_homes(s: Scenario, mode: Mode, layout: Dict[str, slice],
                 clearing: bool) -> QpProblem:
    """The homes' block-diagonal QP, home n in the n-th block of ``layout``
    columns, its rows and costs each built once for all homes.
    ``clearing`` appends, where the homes trade, one equality row per slot
    making their net exports sum to zero."""
    t, n = s.grid.horizon, s.n_users
    cons = build_user_constraints(s, range(n), mode)
    p_diag, q, _ = build_user_objective(s, range(n), mode)
    if clearing and "export" in layout:
        # each clearing row puts a 1 on its slot in every home's export span
        cols = (layout["export"].start + np.arange(t)[:, None]
                + layout["peak"].stop * np.arange(n)).ravel()
        cons = replace(cons, b_eq=np.concatenate([cons.b_eq, np.zeros(t)]),
                       a_eq=sp.vstack([cons.a_eq, sp.csr_array(
                           (np.ones(cols.size), cols, n * np.arange(t + 1)),
                           shape=(t, cons.n_vars))], format="csr"))
    kind = "joint" if clearing else "sweep"
    return QpProblem(p=p_diag, q=q, constraints=cons,
                     layout_tag=f"{mode.value}:{kind}:N={n}:T={t}")


def assemble_problem(s: Scenario, mode: Mode) -> QpProblem:
    """Joint QP over all homes: the homes' block-diagonal stack with the
    clearing rows in trading modes with more than one home
    (``_stack_homes``).  Reported costs are recomputed from the schedules."""
    layout = user_layout(s.n_users, s.grid.horizon, mode)
    return _stack_homes(s, mode, layout, clearing=True)


# ---------------------------------------------------------------------------
# outcomes

@dataclass
class IterationRecord:
    iteration: int
    rho: float
    primal_residual: float
    dual_residual: float
    # the path that answered the sweep: QpSolution.polish
    polish: str
    digest_local: str
    digest_transport: str


@dataclass
class Outcome:
    """A solved scenario, joint or distributed."""

    mode: str
    schedules: List[Schedule]
    costs: List[CostBreakdown]
    total_cost: float
    iterations: int
    converged: bool
    history: List[IterationRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
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
                            history: Optional[List[IterationRecord]] = None
                            ) -> Outcome:
    costs = []
    for n, sch in enumerate(schedules):
        costs.append(combine_costs(home_cost_terms(sch, s.users[n], s.tariff),
                                   reward_terms(sch, s.prices)))
    total = float(sum(c.net_cost for c in costs))
    return Outcome(mode=mode.value, schedules=schedules, costs=costs,
                   total_cost=total, iterations=iterations,
                   converged=converged, history=history or [])


def solve_centralized(s: Scenario, mode: Mode) -> Outcome:
    """Solve the joint problem; raises SolveFailed unless optimal.

    The returned point is certified to KKT residuals <= 1e-8, the bound of
    every home's subproblem.
    """
    problem = assemble_problem(s, mode)
    sol = solve_qp(problem, tol=_KKT_TOL)
    if sol.status is not QpStatus.OPTIMAL:
        raise SolveFailed(f"joint {mode.value} solve ended with "
                          f"{sol.status.value} (kkt={sol.kkt})", sol.status)
    layout = user_layout(s.n_users, s.grid.horizon, mode)
    schedules = [schedule_from_x(sol.x, layout, n) for n in range(s.n_users)]
    return _outcome_from_schedules(s, mode, schedules, sol.iterations, True)


# ---------------------------------------------------------------------------
# sweep subproblem

def assemble_ult(sweep: QpProblem, d: DualState,
                 layout: Dict[str, slice]) -> QpProblem:
    """A sweep's subproblem given the latest coordination state ``d``.

    ``sweep`` is the homes' stack without clearing rows (``_stack_homes``)
    and ``layout`` one home's columns.  Home n pays, per peer and slot,
    rho/2 * (aux - e)^2 - lam * e on its proposed trades e; at the best
    split of its net export s that is, up to a constant, rho / (2 (N-1))
    * (s - C[n])^2 per slot, C the centres at the extrapolated point
    (``_centres``, ``_extrapolated``).  It is added to copies
    of ``sweep.p`` and ``sweep.q``, for all homes at once.  The constraint
    set is ``sweep``'s own object, so every solve reuses its presolve.
    """
    p_diag, q = sweep.p.copy(), sweep.q.copy()
    if "export" in layout:
        n = d.exports.shape[0]
        w = d.rho / (n - 1)
        p_diag.reshape(n, -1)[:, layout["export"]] += w
        q.reshape(n, -1)[:, layout["export"]] -= w * _centres(
            *_extrapolated(d), d.rho)
    return QpProblem(p=p_diag, q=q, constraints=sweep.constraints,
                     layout_tag=sweep.layout_tag)


def _failed_home(s: Scenario, sweep: QpProblem, k: int,
                 status: QpStatus) -> SolveFailed:
    """A sweep at iteration ``k`` that did not certify names the first home
    whose block (``home_problem``), solved alone, does not certify."""
    size = sweep.q.size // s.n_users
    for n in range(s.n_users):
        cols = slice(n * size, (n + 1) * size)
        own = solve_qp(replace(home_problem(s, n, Mode.TEM), p=sweep.p[cols],
                               q=sweep.q[cols]), tol=_KKT_TOL)
        if own.status is not QpStatus.OPTIMAL:
            return SolveFailed(f"home {n} subproblem at iteration {k} ended "
                               f"with {own.status.value} (kkt={own.kkt})",
                               own.status)
    return SolveFailed(f"sweep at iteration {k} ended with {status.value}, "
                       f"though each home alone certifies", status)


# ---------------------------------------------------------------------------
# transports

class Transport(Protocol):
    """Where the coordination state lives during a distributed run."""

    def begin(self, s: Scenario, params: AdmmParams) -> None: ...

    def read_state(self) -> DualState: ...

    def publish(self, user: int, iteration: int, export: np.ndarray) -> None:
        """Post a home's net export per slot; the receiver stores it as
        the home's pending export, which the next step clears."""

    def run_sct(self) -> DualState: ...

    def settle(self, s: Scenario, outcome: Outcome) -> None: ...


# ---------------------------------------------------------------------------
# distributed driver

def run_distributed(s: Scenario, params: AdmmParams,
                    transport: Optional[Transport] = None) -> Outcome:
    """Jacobi sweeps of the homes' subproblems plus coordination steps.

    The homes' rows, bounds and own costs are built in one stack once per
    run (``_stack_homes``); every sweep adds the snapshot's export penalty
    (``assemble_ult``), solves all homes in one ``solve_qp`` warm-started
    from the previous sweep, and runs the coordination step on the local
    state (the mirror), whose pending exports are the homes' net exports.
    With a ``transport``, each export is also published through it and
    its coordination step must reproduce the mirror's: a differing digest
    raises ``RuntimeError``.  Without one, the mirror is the only state
    and is recorded as its own transport digest.  A single home has no
    peers and publishes nothing.  Each schedule's export is its home's
    cleared sales summed over peers, N u[n] - sum(u), so the exports clear
    to rounding.
    """
    if transport is not None:
        transport.begin(s, params)
    mirror = new_dual_state(s.n_users, s.grid.horizon,
                            params.rho_schedule.rho_at(1))
    history: List[IterationRecord] = []
    layout = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
    export = layout.get("export")
    sweep = _stack_homes(s, Mode.TEM, layout, clearing=False)
    sol = None

    for k in range(1, params.max_iter + 1):
        if transport is not None:
            snap = transport.read_state()
            if snap.iteration != mirror.iteration or snap.rho != mirror.rho:
                raise RuntimeError(f"transport state diverged from the "
                                   f"local mirror before iteration {k}")
        problem = assemble_ult(sweep, mirror, layout)
        sol = solve_qp(problem, tol=_KKT_TOL, warm_start=sol)
        if sol.status is not QpStatus.OPTIMAL:
            raise _failed_home(s, problem, k, sol.status)
        if export is not None:
            mirror.exports[:] = sol.x.reshape(s.n_users, -1)[:, export]
            if transport is not None:
                for n in range(s.n_users):
                    transport.publish(n, k, mirror.exports[n])
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
            dual_residual=dual, polish=sol.polish.value, digest_local=dl,
            digest_transport=dr))
        if params.converged(primal, dual):
            break

    cleared = s.n_users * mirror.levels - mirror.levels.sum(axis=0)
    schedules = [replace(schedule_from_x(sol.x, layout, n), export=cleared[n])
                 for n in range(s.n_users)]
    outcome = _outcome_from_schedules(s, Mode.TEM, schedules, len(history),
                                      params.converged(primal, dual), history)
    if transport is not None:
        transport.settle(s, outcome)
    return outcome
