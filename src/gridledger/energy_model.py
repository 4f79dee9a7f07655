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
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

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

def build_user_constraints(s: Scenario, user: int, mode: Mode) -> LinearConstraintSet:
    """All rows and bounds for one home (no cross-user clearing rows); each
    equation family is one block of rows built from (T x T) slot blocks."""
    layout = user_layout(s.n_users, s.grid.horizon, mode)
    t = s.grid.horizon
    u = s.users[user]
    ev = u.ev
    nv = layout["peak"].stop

    def stack(families: list) -> sp.csr_array:
        """CSR rows of the (blocks by segment, right-hand side) families, one
        under the other, each block's nonzeros in its segment's columns."""
        parts, start = [], 0
        for blocks, rhs in families:
            for name, block in blocks.items():
                r, c = np.nonzero(block)
                parts.append((block[r, c], r + start,
                              c + layout[name].start))
            start += len(rhs)
        v, r, c = map(np.concatenate, zip(*parts))
        order = np.lexsort((c, r))
        return sp.csr_array((v[order], c[order], np.searchsorted(
            r[order], np.arange(start + 1))), shape=(start, nv))

    shift_mask = s.grid.shift_mask(user)
    dr_mask = s.grid.dr_mask()
    ev_mask = s.grid.ev_mask(user)
    arrive, depart = s.grid.ev_windows[user]
    eye = np.eye(t)
    lag = np.eye(t, k=-1)           # row tt reads column tt - 1

    # supply must cover demand in every slot
    balance = dict(load_hvac=eye, load_shift=eye, load_curtail=eye,
                   ev_charge=eye, supply_renewable=-eye, supply_grid=-eye,
                   ev_discharge=-eye)
    for name in ("dr_reduce", "export"):
        if name in layout:
            balance[name] = eye
    # the indoor temperature enters slot 1 at temp_init
    thermal_rhs = u.hvac_beta * u.temp_out
    thermal_rhs[0] += (1.0 - u.hvac_beta) * u.temp_init
    # the battery enters its plug-in window at charge_init, so the arrival
    # row carries nothing from the slot before
    carry = lag.copy()
    carry[arrive - 1] = 0.0
    battery_rhs = np.zeros(t)
    battery_rhs[arrive - 1] = ev.charge_init
    # (blocks by segment, right-hand side) per equation family, in row order
    eq = [(balance, -u.inflexible),
          # total shiftable energy is conserved inside the shift window
          (dict(load_shift=shift_mask[None, :].astype(float)),
           [float(u.shift_pref[shift_mask].sum())]),
          (dict(temp_in=eye - (1.0 - u.hvac_beta) * lag,
                load_hvac=-u.hvac_alpha * eye), thermal_rhs),
          (dict(ev_energy=(eye - carry)[ev_mask],
                ev_charge=-ev.eff_charge * eye[ev_mask],
                ev_discharge=eye[ev_mask] / ev.eff_discharge),
           battery_rhs[ev_mask]),
          # the car leaves full
          (dict(ev_energy=eye[[depart - 1]]), [ev.capacity])]
    le = []
    if "feed_in" in layout:
        # demand response inside its window claims at most the grid draw;
        # feed-in and own use share the renewable output
        le += [(dict(dr_reduce=eye[dr_mask], supply_grid=-eye[dr_mask]),
                np.zeros(int(dr_mask.sum()))),
               (dict(supply_renewable=eye, feed_in=eye), u.renewable_cap)]
    # peak epigraph: the peak variable dominates every grid draw
    le.append((dict(supply_grid=eye, peak=-np.ones((t, 1))), np.zeros(t)))

    lo, hi = np.full(nv, -np.inf), np.full(nv, np.inf)

    def set_bounds(name: str, lo_vals, hi_vals) -> None:
        lo[layout[name]], hi[layout[name]] = lo_vals, hi_vals

    set_bounds("load_hvac", 0.0, np.inf)
    set_bounds("load_shift", 0.0, np.where(shift_mask, np.inf, 0.0))
    set_bounds("load_curtail", 0.0, u.curtail_pref)
    set_bounds("supply_grid", 0.0, s.tariff.line_cap)
    if "feed_in" in layout:
        set_bounds("supply_renewable", 0.0, np.inf)
        set_bounds("feed_in", 0.0, u.renewable_cap)
        set_bounds("dr_reduce", 0.0, np.where(dr_mask, np.inf, 0.0))
    else:
        set_bounds("supply_renewable", 0.0, u.renewable_cap)
    set_bounds("ev_charge", 0.0, np.where(ev_mask, ev.charge_max, 0.0))
    set_bounds("ev_discharge", 0.0, np.where(ev_mask, ev.discharge_max, 0.0))
    set_bounds("ev_energy", 0.0, np.where(ev_mask, ev.capacity, 0.0))
    set_bounds("temp_in", u.temp_lo, u.temp_hi)
    set_bounds("peak", 0.0, np.inf)

    return LinearConstraintSet(
        n_vars=nv, a_eq=stack(eq), b_eq=np.concatenate([b for _, b in eq]),
        a_in=stack(le), b_in=np.concatenate([b for _, b in le]), lo=lo, hi=hi)


def build_user_objective(s: Scenario, user: int,
                         mode: Mode) -> Tuple[np.ndarray, np.ndarray, float]:
    """Diagonal quadratic objective for one home.

    Returns (p_diag, q, offset) over the home's ``user_layout`` so that the
    home's net cost equals 0.5 * x' diag(p_diag) x + q' x + offset.
    """
    layout = user_layout(s.n_users, s.grid.horizon, mode)
    u = s.users[user]
    p_diag = np.zeros(layout["peak"].stop)
    q = np.zeros(layout["peak"].stop)
    offset = 0.0

    def quad(name: str, weight: float, target: np.ndarray | float) -> None:
        nonlocal offset
        cols = layout[name]
        p_diag[cols] += 2.0 * weight
        q[cols] += -2.0 * weight * np.asarray(target, dtype=float)
        offset += weight * float(np.sum(np.asarray(target, dtype=float) ** 2))

    quad("load_shift", u.w_shift, u.shift_pref)
    quad("load_curtail", u.w_curtail, u.curtail_pref)
    quad("temp_in", u.w_comfort, u.temp_ref)
    quad("ev_discharge", u.ev.w_degrade, 0.0)
    q[layout["supply_grid"]] += s.tariff.price_energy
    q[layout["peak"]] += s.tariff.price_peak
    if "feed_in" in layout:
        q[layout["feed_in"]] -= s.prices.feed_in
        q[layout["dr_reduce"]] -= s.prices.dr * s.grid.dr_mask()
    if "export" in layout:
        q[layout["export"]] -= s.prices.trade
    return p_diag, q, offset
