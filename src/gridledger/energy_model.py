"""Per-home scheduling model: variables, costs, rewards and constraints.

Each home schedules HVAC, shiftable and curtailable loads, grid and
renewable supply, an EV battery, feed-in and demand-response exports and
(in trading modes) a signed net export to its peers.  The model is a
convex QP: quadratic discomfort terms plus linear grid/reward prices, with
the single peak-draw charge linearised through an epigraph variable.

Four modes control which coordination channels exist:

=====  ==================  ====================
mode   vertical (FIT/DR)   horizontal (trades)
=====  ==================  ====================
TEM    yes                 yes
BS1    no                  no
BS2    yes                 no
BS3    no                  yes
=====  ==================  ====================
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .qp import LinearConstraintSet
from .scenario import GridTariff, Scenario, TransactivePrices, UserScenario

__all__ = [
    "SCHEDULE_SERIES",
    "CostBreakdown",
    "Mode",
    "Schedule",
    "build_user_constraints",
    "build_user_objective",
    "check_schedule",
    "combine_costs",
    "ev_trajectory",
    "home_cost_terms",
    "hvac_trajectory",
    "reward_terms",
    "schedule_from_x",
    "user_layout",
]


class Mode(enum.Enum):
    TEM = "TEM"
    BS1 = "BS1"
    BS2 = "BS2"
    BS3 = "BS3"

    @property
    def has_vertical(self) -> bool:
        return self in (Mode.TEM, Mode.BS2)

    @property
    def has_horizontal(self) -> bool:
        return self in (Mode.TEM, Mode.BS3)


# ---------------------------------------------------------------------------
# schedules and their variable layout

@dataclass
class Schedule:
    """One home's decisions over the horizon."""

    load_hvac: np.ndarray
    load_shift: np.ndarray
    load_curtail: np.ndarray
    supply_grid: np.ndarray
    supply_renewable: np.ndarray
    ev_charge: np.ndarray
    ev_discharge: np.ndarray
    ev_energy: np.ndarray
    temp_in: np.ndarray
    feed_in: np.ndarray
    dr_reduce: np.ndarray
    export: np.ndarray           # net sale to peers (negative: purchase)
    peak: float                  # epigraph value for the highest grid draw


# the per-slot series of a Schedule in field order: all but peak
SCHEDULE_SERIES: Tuple[str, ...] = tuple(
    f.name for f in fields(Schedule) if f.name != "peak")


def user_layout(n_users: int, horizon: int, mode: Mode) -> Dict[str, slice]:
    """One home's columns: a ``horizon``-long slice per schedule series the
    home has, in ``SCHEDULE_SERIES`` order, then the one-column ``peak``,
    so ``layout["peak"].stop`` is the block size.  This is where the mode
    decides the channels: feed-in and demand response with the grid
    (vertical), a net export with peers (horizontal) when there are any.
    A joint problem places home n's block at n times the block size."""
    absent = set() if mode.has_vertical else {"feed_in", "dr_reduce"}
    if not (mode.has_horizontal and n_users > 1):
        absent.add("export")
    names = [name for name in SCHEDULE_SERIES if name not in absent]
    layout = {name: slice(k * horizon, (k + 1) * horizon)
              for k, name in enumerate(names)}
    layout["peak"] = slice(len(names) * horizon, len(names) * horizon + 1)
    return layout


# ---------------------------------------------------------------------------
# trajectories

def hvac_trajectory(load_hvac: np.ndarray, temp_out: np.ndarray,
                    temp_init: float, alpha: float, beta: float) -> np.ndarray:
    """Indoor temperature series implied by an HVAC input series.

    temp[t] = temp[t-1] + alpha * load[t] - beta * (temp[t-1] - out[t]),
    with temp[-1] = temp_init.  Affine in the HVAC input.
    """
    load = np.asarray(load_hvac, dtype=float)
    out = np.asarray(temp_out, dtype=float)
    if load.shape != out.shape:
        raise ValueError("HVAC input and outdoor series differ in length")
    temp = np.empty_like(load)
    prev = float(temp_init)
    for t in range(load.size):
        prev = prev + alpha * load[t] - beta * (prev - out[t])
        temp[t] = prev
    return temp


def ev_trajectory(charge: np.ndarray, discharge: np.ndarray, charge_init: float,
                  eff_charge: float, eff_discharge: float) -> np.ndarray:
    """Battery state of charge over the plug-in window.

    e[t] = e[t-1] + eff_charge * charge[t] - discharge[t] / eff_discharge,
    with e[-1] = charge_init.  Series cover the plug-in window only.
    """
    cha = np.asarray(charge, dtype=float)
    dis = np.asarray(discharge, dtype=float)
    if cha.shape != dis.shape:
        raise ValueError("charge and discharge series differ in length")
    e = np.empty_like(cha)
    prev = float(charge_init)
    for t in range(cha.size):
        prev = prev + eff_charge * cha[t] - dis[t] / eff_discharge
        e[t] = prev
    return e


# ---------------------------------------------------------------------------
# costs

@dataclass
class CostBreakdown:
    shift_cost: float = 0.0
    curtail_cost: float = 0.0
    comfort_cost: float = 0.0
    grid_cost: float = 0.0
    battery_cost: float = 0.0
    home_cost: float = 0.0
    feed_in_reward: float = 0.0
    dr_reward: float = 0.0
    vertical_reward: float = 0.0
    trade_reward: float = 0.0
    net_cost: float = 0.0


def home_cost_terms(sch: Schedule, user: UserScenario,
                    tariff: GridTariff) -> CostBreakdown:
    """Cost side of the breakdown (rewards left at zero)."""
    shift = user.w_shift * float(np.sum((sch.load_shift - user.shift_pref) ** 2))
    curtail = user.w_curtail * float(np.sum((sch.load_curtail - user.curtail_pref) ** 2))
    comfort = user.w_comfort * float(np.sum((sch.temp_in - user.temp_ref) ** 2))
    grid = tariff.price_energy * float(np.sum(sch.supply_grid)) \
        + tariff.price_peak * float(np.max(sch.supply_grid))
    battery = user.ev.w_degrade * float(np.sum(sch.ev_discharge ** 2))
    home = shift + curtail + comfort + grid + battery
    return CostBreakdown(shift_cost=shift, curtail_cost=curtail,
                         comfort_cost=comfort, grid_cost=grid,
                         battery_cost=battery, home_cost=home, net_cost=home)


def reward_terms(sch: Schedule, prices: TransactivePrices) -> CostBreakdown:
    """Reward side of the breakdown (costs left at zero).

    Relies on the schedule invariant that feed-in and demand-response
    exports vanish outside their windows, so unmasked sums equal the
    window-restricted definitions.
    """
    fit = float(np.dot(prices.feed_in, sch.feed_in))
    dr = float(np.dot(prices.dr, sch.dr_reduce))
    trade = float(np.dot(prices.trade, sch.export))
    return CostBreakdown(feed_in_reward=fit, dr_reward=dr,
                         vertical_reward=fit + dr, trade_reward=trade,
                         net_cost=-(fit + dr + trade))


def combine_costs(cost: CostBreakdown, reward: CostBreakdown) -> CostBreakdown:
    return CostBreakdown(
        shift_cost=cost.shift_cost, curtail_cost=cost.curtail_cost,
        comfort_cost=cost.comfort_cost, grid_cost=cost.grid_cost,
        battery_cost=cost.battery_cost, home_cost=cost.home_cost,
        feed_in_reward=reward.feed_in_reward, dr_reward=reward.dr_reward,
        vertical_reward=reward.vertical_reward,
        trade_reward=reward.trade_reward,
        net_cost=cost.home_cost - reward.vertical_reward - reward.trade_reward)


def schedule_from_x(x: np.ndarray, layout: Dict[str, slice],
                    user: int) -> Schedule:
    """Home ``user``'s schedule from a solution vector of ``layout`` blocks,
    one per home (a home's own vector is block 0)."""
    base = user * layout["peak"].stop
    cols = {name: x[base + span.start:base + span.stop]
            for name, span in layout.items()}
    # a channel the mode lacks (feed-in, demand response, export) stays zero
    series = {name: np.array(cols[name], dtype=float) if name in cols
              else np.zeros(cols["load_hvac"].size)
              for name in SCHEDULE_SERIES}
    return Schedule(**series, peak=float(cols["peak"][0]))


def check_schedule(sch: Schedule, s: Scenario, user: int,
                   tol: float = 1e-7) -> List[str]:
    """Verify schedule invariants; returns human-readable findings."""
    out: List[str] = []
    u = s.users[user]
    t = s.grid.horizon
    ev = u.ev

    def expect(ok: bool, msg: str) -> None:
        if not ok:
            out.append(msg)

    # every series but the indoor temperature and the signed export is an
    # amount of energy
    for name in SCHEDULE_SERIES:
        expect(name in ("temp_in", "export")
               or bool(np.all(getattr(sch, name) >= -tol)),
               f"{name} has negative entries")
    expect(bool(np.all(sch.supply_grid <= s.tariff.line_cap + tol)),
           "grid draw exceeds the line capacity")
    expect(sch.peak >= float(np.max(sch.supply_grid)) - tol,
           "peak variable below the actual maximum grid draw")
    shift_mask = s.grid.shift_mask(user)
    expect(bool(np.all(np.abs(sch.load_shift[~shift_mask]) <= tol)),
           "shiftable load scheduled outside its window")
    dr_mask = s.grid.dr_mask()
    expect(bool(np.all(np.abs(sch.dr_reduce[~dr_mask]) <= tol)),
           "demand-response export outside its window")
    ev_mask = s.grid.ev_mask(user)
    for name in ("ev_charge", "ev_discharge", "ev_energy"):
        expect(bool(np.all(np.abs(getattr(sch, name)[~ev_mask]) <= tol)),
               f"{name} nonzero outside the plug-in window")
    expect(bool(np.all(sch.ev_energy <= ev.capacity + tol)),
           "battery energy exceeds capacity")

    span = s.grid.ev_slice(user)
    etraj = ev_trajectory(sch.ev_charge[span], sch.ev_discharge[span],
                          ev.charge_init, ev.eff_charge, ev.eff_discharge)
    expect(float(np.max(np.abs(etraj - sch.ev_energy[span]), initial=0.0)) <= tol,
           "battery series inconsistent with the charge/discharge series")
    ttraj = hvac_trajectory(sch.load_hvac, u.temp_out, u.temp_init,
                            u.hvac_alpha, u.hvac_beta)
    expect(float(np.max(np.abs(ttraj - sch.temp_in))) <= tol,
           "indoor temperature series inconsistent with the HVAC series")
    return out


# ---------------------------------------------------------------------------
# constraint and objective assembly

def _per_home(homes: List[UserScenario], attr: str) -> np.ndarray:
    """A parameter per home, one row each: (N, 1) numbers, (N, T) series."""
    return np.array([attrgetter(attr)(u) for u in homes],
                    dtype=float).reshape(len(homes), -1)


def build_user_constraints(s: Scenario, users: Sequence[int],
                           mode: Mode) -> LinearConstraintSet:
    """All rows and bounds of the homes ``users`` (no cross-home clearing
    rows), the k-th of them in the k-th block of ``user_layout`` columns.
    Each equation family is emitted for all the homes at once as (row,
    column, value) arrays over (N, T), in a fixed range of an (N, R) grid
    of rows of which each home keeps those its windows open; the kept rows
    are numbered home by home, and each row matrix is one lexsort and one
    CSR of the nonzero values."""
    layout = user_layout(s.n_users, s.grid.horizon, mode)
    t, size, nh = s.grid.horizon, layout["peak"].stop, len(users)
    homes = [s.users[n] for n in users]
    tt, lag, home = np.arange(t), np.arange(t - 1), np.arange(nh)[:, None]
    # (N, T) shift and plug-in masks and (N, 1) 0-based plug-in ends; a
    # slot outside the horizon raises ValueError, as in ``slots_to_mask``
    wins = [np.asarray(s.grid.shift_windows[n], dtype=int) - 1 for n in users]
    ends = np.array([s.grid.ev_windows[n] for n in users]).reshape(-1, 2) - 1
    used = np.concatenate([*wins, ends.ravel()])
    bad = used[(used < 0) | (used >= t)]
    if bad.size:
        raise ValueError(f"slot index {bad[0] + 1} outside [1, {t}]")
    shift = np.zeros((nh, t), dtype=bool)
    shift[np.repeat(home[:, 0], [w.size for w in wins]),
          np.concatenate(wins)] = True
    arrive, depart = ends[:, :1], ends[:, 1:]
    ev, dr = (tt >= arrive) & (tt <= depart), s.grid.dr_mask()
    per = functools.partial(_per_home, homes)
    at = {name: span.start for name, span in layout.items()}

    def stack(entries: list, keep: np.ndarray, rhs: np.ndarray
              ) -> Tuple[sp.csr_array, np.ndarray]:
        """CSR of the (grid row, column, value) entries on the grid rows
        that ``keep`` marks, and those rows' right-hand sides."""
        parts = [np.empty((4, *np.broadcast(home, *e).shape)) for e in entries]
        for part, (r, c, v) in zip(parts, entries):
            # home, grid row, column and value; the indices are exact floats
            part[0], part[1], part[2], part[3] = home, r, c, v
        h, r, c, v = np.concatenate([a.reshape(4, -1) for a in parts], axis=1)
        h, r, c = (a[v != 0.0].astype(int) for a in (h, r, c))
        r = (np.cumsum(keep).reshape(keep.shape) - 1)[h, r]
        c, v, m = h * size + c, v[v != 0.0], int(keep.sum())
        order = np.lexsort((c, r))
        return sp.csr_array((v[order], c[order], np.searchsorted(
            r[order], np.arange(m + 1))), shape=(m, nh * size)), rhs[keep]

    # equality grid: balance, shift, thermal, battery and departure rows
    th, bat, dep = t + 1, 2 * t + 1, 3 * t + 1
    # supply must cover demand in every slot
    signs = dict(load_hvac=1.0, load_shift=1.0, load_curtail=1.0,
                 ev_charge=1.0, supply_renewable=-1.0, supply_grid=-1.0,
                 ev_discharge=-1.0, dr_reduce=1.0, export=1.0)
    eq = [(tt, at[name] + tt, sign) for name, sign in signs.items()
          if name in layout]
    beta = per("hvac_beta")
    # the battery enters its plug-in window at charge_init, so the arrival
    # row carries nothing from the slot before; the car leaves full
    eq += [(t, at["load_shift"] + tt, 1.0 * shift),
           (th + tt, at["temp_in"] + tt, 1.0),
           (th + 1 + lag, at["temp_in"] + lag, -(1.0 - beta)),
           (th + tt, at["load_hvac"] + tt, -per("hvac_alpha")),
           (bat + tt, at["ev_energy"] + tt, 1.0 * ev),
           (bat + 1 + lag, at["ev_energy"] + lag,
            -1.0 * (ev[:, 1:] & ev[:, :-1])),
           (bat + tt, at["ev_charge"] + tt, -per("ev.eff_charge") * ev),
           (bat + tt, at["ev_discharge"] + tt,
            ev / per("ev.eff_discharge")),
           (dep, at["ev_energy"] + depart, 1.0)]
    keep_eq, rhs_eq = np.ones((nh, dep + 1), dtype=bool), np.zeros((nh, dep + 1))
    keep_eq[:, bat:dep] = ev
    rhs_eq[:, :t] = -per("inflexible")
    # total shiftable energy is conserved inside the shift window
    rhs_eq[:, t] = [u.shift_pref[m].sum() for u, m in zip(homes, shift)]
    # the indoor temperature enters slot 1 at temp_init
    rhs_eq[:, th:bat] = beta * per("temp_out")
    rhs_eq[:, th] += (1.0 - beta[:, 0]) * per("temp_init")[:, 0]
    rhs_eq[:, bat:dep] = np.where(tt == arrive, per("ev.charge_init"), 0.0)
    rhs_eq[:, dep] = per("ev.capacity")[:, 0]

    # inequality grid: demand-response and renewable-split rows where the
    # mode is vertical, then the peak epigraph, whose peak variable
    # dominates every grid draw
    pk = 2 * t if "feed_in" in layout else 0
    le = [(pk + tt, at["supply_grid"] + tt, 1.0),
          (pk + tt, at["peak"], -1.0)]
    keep_in, rhs_in = np.ones((nh, pk + t), dtype=bool), np.zeros((nh, pk + t))
    if pk:
        # demand response inside its window claims at most the grid draw;
        # feed-in and own use share the renewable output
        le += [(tt, at["dr_reduce"] + tt, 1.0 * dr),
               (tt, at["supply_grid"] + tt, -1.0 * dr),
               (t + tt, at["supply_renewable"] + tt, 1.0),
               (t + tt, at["feed_in"] + tt, 1.0)]
        keep_in[:, :t] = dr
        rhs_in[:, t:pk] = per("renewable_cap")
    a_eq, b_eq = stack(eq, keep_eq, rhs_eq)
    a_in, b_in = stack(le, keep_in, rhs_in)

    cap = per("renewable_cap")
    tops = dict(load_hvac=np.inf, load_shift=np.where(shift, np.inf, 0.0),
                load_curtail=per("curtail_pref"),
                supply_grid=s.tariff.line_cap, supply_renewable=cap,
                ev_charge=np.where(ev, per("ev.charge_max"), 0.0),
                ev_discharge=np.where(ev, per("ev.discharge_max"), 0.0),
                ev_energy=np.where(ev, per("ev.capacity"), 0.0),
                peak=np.inf)
    if pk:
        tops.update(supply_renewable=np.inf, feed_in=cap,
                    dr_reduce=np.where(dr, np.inf, 0.0))
    lo, hi = np.full((nh, size), -np.inf), np.full((nh, size), np.inf)
    for name, top in tops.items():
        lo[:, layout[name]], hi[:, layout[name]] = 0.0, top
    lo[:, layout["temp_in"]] = per("temp_lo")
    hi[:, layout["temp_in"]] = per("temp_hi")
    return LinearConstraintSet(nh * size, a_eq, b_eq, a_in, b_in, lo.ravel(),
                               hi.ravel())


def build_user_objective(s: Scenario, users: Sequence[int],
                         mode: Mode) -> Tuple[np.ndarray, np.ndarray, float]:
    """(p_diag, q, offset) of the homes ``users``, on their columns as
    ``build_user_constraints`` places them: the homes' summed net cost is
    0.5 * x' diag(p_diag) x + q' x + offset."""
    layout = user_layout(s.n_users, s.grid.horizon, mode)
    homes = [s.users[n] for n in users]
    p_diag = np.zeros((len(homes), layout["peak"].stop))
    q, offset = np.zeros_like(p_diag), 0.0
    for name, weight, target in (("load_shift", "w_shift", "shift_pref"),
                                 ("load_curtail", "w_curtail", "curtail_pref"),
                                 ("temp_in", "w_comfort", "temp_ref"),
                                 ("ev_discharge", "ev.w_degrade", None)):
        w = _per_home(homes, weight)
        x = _per_home(homes, target) if target else 0.0
        p_diag[:, layout[name]] += 2.0 * w
        q[:, layout[name]] += -2.0 * w * x
        offset += float(np.sum(w * x ** 2))
    q[:, layout["supply_grid"]] += s.tariff.price_energy
    q[:, layout["peak"]] += s.tariff.price_peak
    if "feed_in" in layout:
        q[:, layout["feed_in"]] -= s.prices.feed_in
        q[:, layout["dr_reduce"]] -= s.prices.dr * s.grid.dr_mask()
    if "export" in layout:
        q[:, layout["export"]] -= s.prices.trade
    return p_diag.ravel(), q.ravel(), offset
