"""Scenario data model for multi-home energy scheduling.

A scenario bundles everything the optimizer needs for one horizon: the time
grid with its activity windows, per-home load/renewable/comfort series, the
grid tariff and the transactive price signals.  Slot indices in external
files (config windows, series CSV) are 1-based and inclusive; in-memory
arrays are 0-based numpy arrays.  User ids are 0-based everywhere.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EvParams",
    "GridTariff",
    "Scenario",
    "ScenarioError",
    "TimeGrid",
    "TransactivePrices",
    "UserScenario",
    "Violation",
    "generate_synthetic",
    "load_scenario",
    "slots_to_mask",
    "validate_scenario",
    "write_scenario",
]

SERIES_COLUMNS = ["user", "slot", "L_S", "L_C", "l_I", "S_R", "Tout", "Tref",
                  "p_FIT", "p_DR", "p_T"]


class ScenarioError(Exception):
    """Raised when a scenario file is malformed or violates an invariant."""


def _freeze(a: Sequence[float] | np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.setflags(write=False)
    return out


def slots_to_mask(slots: Sequence[int], horizon: int) -> np.ndarray:
    """Boolean mask over 0-based slots from a 1-based slot index set."""
    mask = np.zeros(horizon, dtype=bool)
    for s in slots:
        if not 1 <= s <= horizon:
            raise ValueError(f"slot index {s} outside [1, {horizon}]")
        mask[s - 1] = True
    return mask


@dataclass(frozen=True)
class TimeGrid:
    """Horizon layout: per-user activity windows (1-based)."""

    horizon: int
    shift_windows: Tuple[Tuple[int, ...], ...]
    dr_window: Tuple[int, ...]
    ev_windows: Tuple[Tuple[int, int], ...]

    def shift_mask(self, user: int) -> np.ndarray:
        return slots_to_mask(self.shift_windows[user], self.horizon)

    def dr_mask(self) -> np.ndarray:
        return slots_to_mask(self.dr_window, self.horizon)

    def ev_mask(self, user: int) -> np.ndarray:
        arrive, depart = self.ev_windows[user]
        return slots_to_mask(range(arrive, depart + 1), self.horizon)

    def ev_slice(self, user: int) -> slice:
        """0-based half-open slice covering the user's EV window."""
        arrive, depart = self.ev_windows[user]
        return slice(arrive - 1, depart)


@dataclass(frozen=True)
class EvParams:
    """Electric vehicle battery parameters for one home."""

    capacity: float          # usable battery size, kWh
    charge_init: float       # state of charge on arrival, kWh
    charge_max: float        # per-slot charge limit, kWh
    discharge_max: float     # per-slot discharge limit, kWh
    eff_charge: float        # charge efficiency in (0, 1]
    eff_discharge: float     # discharge efficiency in (0, 1]
    w_degrade: float         # quadratic discharge degradation weight


@dataclass(frozen=True)
class UserScenario:
    """Per-home series and preferences over the horizon."""

    shift_pref: np.ndarray       # preferred shiftable load per slot, kWh
    curtail_pref: np.ndarray     # preferred curtailable load per slot, kWh
    inflexible: np.ndarray       # must-serve load per slot, kWh
    renewable_cap: np.ndarray    # available renewable generation, kWh
    temp_out: np.ndarray         # outdoor temperature, degC
    temp_ref: np.ndarray         # preferred indoor temperature, degC
    temp_init: float             # indoor temperature entering slot 1, degC
    temp_lo: float
    temp_hi: float
    hvac_alpha: float            # degC gained per kWh of HVAC input
    hvac_beta: float             # fraction of indoor/outdoor gap leaked per slot
    w_shift: float
    w_curtail: float
    w_comfort: float
    ev: EvParams

    def __post_init__(self) -> None:
        for name in ("shift_pref", "curtail_pref", "inflexible",
                     "renewable_cap", "temp_out", "temp_ref"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True)
class GridTariff:
    price_energy: float      # per-kWh grid energy price
    price_peak: float        # price on the single highest grid draw
    line_cap: float          # per-slot grid supply limit, kWh


@dataclass(frozen=True)
class TransactivePrices:
    """Per-slot price signals shared by every home."""

    feed_in: np.ndarray      # paid per kWh exported to the feed-in scheme
    dr: np.ndarray           # paid per kWh of claimed demand reduction
    trade: np.ndarray        # uniform peer-to-peer trade price

    def __post_init__(self) -> None:
        for name in ("feed_in", "dr", "trade"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True)
class Scenario:
    n_users: int
    grid: TimeGrid
    users: Tuple[UserScenario, ...]
    tariff: GridTariff
    prices: TransactivePrices
    rng_seed: int


@dataclass(frozen=True)
class Violation:
    """One validation finding; ``user`` is None for scenario-wide issues."""

    user: Optional[int]
    field: str
    message: str


# ---------------------------------------------------------------------------
# validation

def validate_scenario(s: Scenario) -> List[Violation]:
    """Check every scenario invariant; returns findings instead of raising."""
    out: List[Violation] = []
    t = s.grid.horizon

    def bad(user: Optional[int], fld: str, msg: str) -> None:
        out.append(Violation(user, fld, msg))

    if t < 1:
        bad(None, "horizon", f"horizon must be >= 1, got {t}")
        return out
    if s.n_users < 1:
        bad(None, "n_users", f"need at least one user, got {s.n_users}")
    if len(s.users) != s.n_users:
        bad(None, "users", f"n_users={s.n_users} but {len(s.users)} user entries")
    if len(s.grid.shift_windows) != len(s.users) or len(s.grid.ev_windows) != len(s.users):
        bad(None, "grid", "per-user window count does not match user count")
        return out

    # every comparison with NaN is false, so the range tests below miss it
    values = [(None, f"{group}.{k}", v) for group in ("tariff", "prices")
              for k, v in vars(getattr(s, group)).items()]
    for n, u in enumerate(s.users):
        values += [(n, k, v) for k, v in vars(u).items() if k != "ev"]
        values += [(n, f"ev.{k}", v) for k, v in vars(u.ev).items()]
    for user, fld, v in values:
        if not np.all(np.isfinite(v)):
            bad(user, fld, "values must be finite")

    for name, slots in [("dr_window", s.grid.dr_window)]:
        for sl in slots:
            if not 1 <= sl <= t:
                bad(None, name, f"slot {sl} outside [1, {t}]")

    if s.tariff.price_energy < 0 or s.tariff.price_peak < 0:
        bad(None, "tariff", "grid prices must be nonnegative")
    if s.tariff.line_cap <= 0:
        bad(None, "tariff.line_cap", "grid line capacity must be positive")

    for name in ("feed_in", "dr", "trade"):
        arr = getattr(s.prices, name)
        if arr.shape != (t,):
            bad(None, f"prices.{name}", f"expected length {t}, got {arr.shape}")
        elif np.any(arr < 0):
            bad(None, f"prices.{name}", "price signals must be nonnegative")

    for n, u in enumerate(s.users):
        for fld in ("shift_pref", "curtail_pref", "inflexible", "renewable_cap",
                    "temp_out", "temp_ref"):
            arr = getattr(u, fld)
            if arr.shape != (t,):
                bad(n, fld, f"expected length {t}, got {arr.shape}")
        for fld in ("shift_pref", "curtail_pref", "inflexible", "renewable_cap"):
            if np.any(getattr(u, fld) < 0):
                bad(n, fld, "series must be nonnegative")
        if not u.temp_lo < u.temp_hi:
            bad(n, "temp_lo", f"need temp_lo < temp_hi, got [{u.temp_lo}, {u.temp_hi}]")
        elif not u.temp_lo <= u.temp_init <= u.temp_hi:
            bad(n, "temp_init", f"initial temperature {u.temp_init} outside "
                                f"[{u.temp_lo}, {u.temp_hi}]")
        for fld in ("w_shift", "w_curtail", "w_comfort"):
            if getattr(u, fld) < 0:
                bad(n, fld, "sensitivity weights must be nonnegative")

        for sl in s.grid.shift_windows[n]:
            if not 1 <= sl <= t:
                bad(n, "shift_window", f"slot {sl} outside [1, {t}]")

        ev = u.ev
        arrive, depart = s.grid.ev_windows[n]
        if not (1 <= arrive <= depart <= t):
            bad(n, "ev_window", f"window [{arrive}, {depart}] invalid for horizon {t}")
        if ev.capacity <= 0:
            bad(n, "ev.capacity", "battery capacity must be positive")
        elif not 0 <= ev.charge_init <= ev.capacity:
            bad(n, "ev.charge_init", f"initial charge {ev.charge_init} outside "
                                     f"[0, {ev.capacity}]")
        if ev.charge_max < 0 or ev.discharge_max < 0:
            bad(n, "ev.charge_max", "charge/discharge limits must be nonnegative")
        for fld in ("eff_charge", "eff_discharge"):
            v = getattr(ev, fld)
            if not 0 < v <= 1:
                bad(n, f"ev.{fld}", f"efficiency must be in (0, 1], got {v}")
        if ev.w_degrade < 0:
            bad(n, "ev.w_degrade", "degradation weight must be nonnegative")

    return out


# ---------------------------------------------------------------------------
# synthetic generation

# Home parameters that every synthetic home shares and that a config file
# may leave out, by config.json section; users override per key.
_HOME_DEFAULTS = {
    "hvac": {"alpha": 0.75, "beta": 0.2, "temp_lo": 15.0, "temp_hi": 32.0,
             "temp_init": 24.0},
    "sensitivities": {"shift": 1.0, "curtail": 1.0, "comfort": 1.0},
    "ev": {"charge_max": 50.0, "discharge_max": 10.0, "eff_charge": 0.9,
           "eff_discharge": 0.9, "w_degrade": 0.1},
}


def _home_params(sections: dict, where: str) -> Tuple[dict, dict]:
    """UserScenario and EvParams keywords from sections shaped like
    ``_HOME_DEFAULTS``; a bad value raises ScenarioError naming
    ``where`` and its key."""

    def num(section: str, key: str) -> float:
        return _as_float(sections[section][key], f"{where} {section}.{key}")

    home = dict(temp_init=num("hvac", "temp_init"),
                temp_lo=num("hvac", "temp_lo"),
                temp_hi=num("hvac", "temp_hi"),
                hvac_alpha=num("hvac", "alpha"),
                hvac_beta=num("hvac", "beta"),
                w_shift=num("sensitivities", "shift"),
                w_curtail=num("sensitivities", "curtail"),
                w_comfort=num("sensitivities", "comfort"))
    ev_limits = {key: num("ev", key) for key in _HOME_DEFAULTS["ev"]}
    return home, ev_limits


def generate_synthetic(seed: int, n_users: int, horizon: int, *,
                       solar_range: Tuple[float, float] = (2.0, 6.0),
                       ev_arrival_soc: float = 0.5) -> Scenario:
    """Deterministic synthetic scenario with diurnal load and solar shapes.

    All randomness comes from ``numpy.random.default_rng(seed)``, so equal
    arguments always produce identical scenarios.  Battery sizes are drawn
    uniformly from [30, 50] kWh; cars arrive at ``ev_arrival_soc`` of
    capacity, lifted higher when the plug-in window is too short to reach
    full under the per-slot charge and line limits.  Per-home solar peaks
    are drawn from ``solar_range``; widening it (and raising the arrival
    charge) yields homes with midday surplus next to net importers, which
    makes peer trading and exports bite.  The defaults keep homes close to
    self-sufficient.  Changing either knob leaves every other drawn series
    untouched for a given seed.
    """
    if n_users < 1 or horizon < 1:
        raise ValueError("need n_users >= 1 and horizon >= 1")
    if not 0.0 <= solar_range[0] <= solar_range[1]:
        raise ValueError("solar_range must satisfy 0 <= lo <= hi")
    if not 0.0 < ev_arrival_soc <= 1.0:
        raise ValueError("ev_arrival_soc must be in (0, 1]")
    rng = np.random.default_rng(seed)
    t = horizon
    hours = (np.arange(t) + 0.5) * 24.0 / t    # slot centers mapped onto a day

    def scaled_slot(hour: float) -> int:
        return min(t, max(1, int(hour * t / 24.0 + 0.5)))

    dr_window = tuple(range(scaled_slot(18), scaled_slot(21) + 1))
    ev_arrive = scaled_slot(9)
    ev_depart = max(min(ev_arrive + 1, t), scaled_slot(18))

    tariff = GridTariff(price_energy=0.2, price_peak=0.8, line_cap=20.0)
    feed_in = np.round(rng.uniform(0.05, 0.12, size=t), 6)
    dr_price = np.round(rng.uniform(0.10, 0.18, size=t), 6)
    trade = np.round(rng.uniform(0.10, 0.16, size=t), 6)
    prices = TransactivePrices(feed_in=feed_in, dr=dr_price, trade=trade)

    home, ev_limits = _home_params(_HOME_DEFAULTS, "defaults")
    users = []
    shift_windows = []
    ev_windows = []
    for _ in range(n_users):
        evening = np.exp(-0.5 * ((hours - 19.0) / 2.5) ** 2)
        morning = np.exp(-0.5 * ((hours - 7.5) / 1.8) ** 2)
        inflexible = 0.3 + rng.uniform(0.1, 0.5) + rng.uniform(0.8, 1.6) * evening \
            + rng.uniform(0.3, 0.8) * morning + rng.uniform(0.0, 0.05, size=t)
        shift_pref = rng.uniform(0.4, 1.2) * (morning + evening) \
            + rng.uniform(0.0, 0.2, size=t)
        curtail_pref = rng.uniform(0.3, 0.9) + rng.uniform(0.4, 1.0) * evening \
            + rng.uniform(0.0, 0.1, size=t)
        solar = np.exp(-0.5 * ((hours - 12.5) / 3.0) ** 2)
        renewable_cap = rng.uniform(*solar_range) * solar
        renewable_cap = np.where(renewable_cap < 0.05, 0.0, renewable_cap)
        temp_out = 23.0 + rng.uniform(4.0, 7.0) * np.sin((hours - 9.0) * np.pi / 12.0)
        temp_out = np.clip(temp_out, 16.0, 30.0)
        temp_ref = np.full(t, 24.0)

        capacity = rng.uniform(30.0, 50.0)
        window_len = ev_depart - ev_arrive + 1
        slot_budget = 0.5 * ev_limits["eff_charge"] \
            * min(ev_limits["charge_max"], tariff.line_cap)
        charge_init = max(ev_arrival_soc * capacity,
                          capacity - slot_budget * window_len)
        ev = EvParams(capacity=capacity, charge_init=charge_init, **ev_limits)
        users.append(UserScenario(
            shift_pref=shift_pref, curtail_pref=curtail_pref,
            inflexible=inflexible, renewable_cap=renewable_cap,
            temp_out=temp_out, temp_ref=temp_ref, ev=ev, **home))
        shift_windows.append(tuple(range(1, t + 1)))
        ev_windows.append((ev_arrive, ev_depart))

    grid = TimeGrid(horizon=t, shift_windows=tuple(shift_windows),
                    dr_window=dr_window, ev_windows=tuple(ev_windows))
    scen = Scenario(n_users=n_users, grid=grid, users=tuple(users),
                    tariff=tariff, prices=prices, rng_seed=seed)
    problems = validate_scenario(scen)
    if problems:
        raise ScenarioError(f"synthetic generator produced an invalid scenario: "
                            f"{problems[0]}")
    return scen


# ---------------------------------------------------------------------------
# file round trip

def _window_to_json(slots: Sequence[int]) -> object:
    slots = sorted(slots)
    if slots and slots == list(range(slots[0], slots[-1] + 1)):
        return {"from": slots[0], "to": slots[-1]}
    return list(slots)


def _as_int(value: object, what: str) -> int:
    """An integer config value; NaN (which ``json.loads`` accepts),
    infinities, fractions and non-numeric strings raise, naming ``what``."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ScenarioError(f"{what}: must be an integer, "
                            f"got {value!r}") from e
    if isinstance(value, float) and value != out:
        raise ScenarioError(f"{what}: must be an integer, got {value!r}")
    return out


def _as_float(value: object, what: str) -> float:
    """A numeric config value; null, lists and non-numeric strings raise,
    naming ``what``.  Non-finite values are left to ``validate_scenario``."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ScenarioError(f"{what}: must be a number, got {value!r}") from e


def _window_from_json(obj: object, what: str) -> Tuple[int, ...]:
    if isinstance(obj, dict):
        if "from" not in obj or "to" not in obj:
            raise ScenarioError(f"{what}: range window needs 'from' and 'to'")
        lo = _as_int(obj["from"], f"{what}.from")
        hi = _as_int(obj["to"], f"{what}.to")
        if lo > hi:
            raise ScenarioError(f"{what}: empty window [{lo}, {hi}]")
        return tuple(range(lo, hi + 1))
    if isinstance(obj, list):
        return tuple(_as_int(x, f"{what}[{i}]") for i, x in enumerate(obj))
    raise ScenarioError(f"{what}: window must be a range object or slot list")


def write_scenario(s: Scenario, path: str | Path) -> None:
    """Write ``config.json`` plus the series CSV into directory ``path``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    cfg = {
        "n_users": s.n_users,
        "horizon": s.grid.horizon,
        "rng_seed": s.rng_seed,
        "series_file": "series.csv",
        "tariff": {"price_energy": s.tariff.price_energy,
                   "price_peak": s.tariff.price_peak,
                   "line_cap": s.tariff.line_cap},
        "windows": {"dr": _window_to_json(s.grid.dr_window)},
        "users": [],
    }
    for n, u in enumerate(s.users):
        arrive, depart = s.grid.ev_windows[n]
        cfg["users"].append({
            "windows": {"shift": _window_to_json(s.grid.shift_windows[n]),
                        "ev": {"arrive": arrive, "depart": depart}},
            "hvac": {"alpha": u.hvac_alpha, "beta": u.hvac_beta,
                     "temp_lo": u.temp_lo, "temp_hi": u.temp_hi,
                     "temp_init": u.temp_init},
            "sensitivities": {"shift": u.w_shift, "curtail": u.w_curtail,
                              "comfort": u.w_comfort},
            "ev": {"capacity": u.ev.capacity, "charge_init": u.ev.charge_init,
                   "charge_max": u.ev.charge_max,
                   "discharge_max": u.ev.discharge_max,
                   "eff_charge": u.ev.eff_charge,
                   "eff_discharge": u.ev.eff_discharge,
                   "w_degrade": u.ev.w_degrade},
        })
    (root / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")

    with open(root / "series.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_COLUMNS)
        for n, u in enumerate(s.users):
            for t0 in range(s.grid.horizon):
                w.writerow([n, t0 + 1,
                            repr(float(u.shift_pref[t0])),
                            repr(float(u.curtail_pref[t0])),
                            repr(float(u.inflexible[t0])),
                            repr(float(u.renewable_cap[t0])),
                            repr(float(u.temp_out[t0])),
                            repr(float(u.temp_ref[t0])),
                            repr(float(s.prices.feed_in[t0])),
                            repr(float(s.prices.dr[t0])),
                            repr(float(s.prices.trade[t0]))])


def _require(cfg: dict, key: str, where: str) -> object:
    if key not in cfg:
        raise ScenarioError(f"{where}: missing key '{key}'")
    return cfg[key]


def _section(value: object, kind: type, what: str):
    """A config section, which must be a JSON object (``kind`` dict) or
    array (list); any other type raises, naming ``what``."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ScenarioError(f"{what}: section must be {shape}, "
                            f"got {value!r}")
    return value


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario from a config directory (or its config.json path).

    Raises ScenarioError for structural problems and for any invariant
    violation, naming the offending file, row or field.
    """
    p = Path(path)
    cfg_path = p / "config.json" if p.is_dir() else p
    root = cfg_path.parent
    if not cfg_path.exists():
        raise ScenarioError(f"{cfg_path}: no such config file")
    try:
        cfg = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{cfg_path}: invalid JSON ({e})") from e

    where = str(cfg_path)
    _section(cfg, dict, where)
    n_users = _as_int(_require(cfg, "n_users", where), f"{where}: n_users")
    horizon = _as_int(_require(cfg, "horizon", where), f"{where}: horizon")
    rng_seed = _as_int(cfg.get("rng_seed", 0), f"{where}: rng_seed")
    tariff_cfg = _section(_require(cfg, "tariff", where), dict,
                          f"{where}: tariff")
    tariff = GridTariff(**{
        key: _as_float(_require(tariff_cfg, key, f"{where}: tariff"),
                       f"{where}: tariff.{key}")
        for key in ("price_energy", "price_peak", "line_cap")})
    windows = _section(cfg.get("windows", {}), dict, f"{where}: windows")
    dr_window = _window_from_json(windows.get("dr", []), f"{where}: windows.dr")

    defaults = {key: {**table, **_section(cfg.get(key, {}), dict,
                                          f"{where}: {key}")}
                for key, table in _HOME_DEFAULTS.items()}

    user_cfgs = _section(cfg.get("users", [{} for _ in range(n_users)]),
                         list, f"{where}: users")
    if len(user_cfgs) != n_users:
        raise ScenarioError(f"{where}: n_users={n_users} but "
                            f"{len(user_cfgs)} entries under 'users'")

    series_file = root / str(cfg.get("series_file", "series.csv"))
    if not series_file.exists():
        raise ScenarioError(f"{series_file}: no such series file")
    series = {n: {} for n in range(n_users)}
    price_rows = {}
    with open(series_file, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SERIES_COLUMNS:
            raise ScenarioError(f"{series_file}: header must be exactly "
                                f"{','.join(SERIES_COLUMNS)}")
        for i, row in enumerate(reader, start=2):
            try:
                n = int(row["user"])
                slot = int(row["slot"])
                vals = {k: float(row[k]) for k in SERIES_COLUMNS[2:]}
            except (TypeError, ValueError) as e:
                raise ScenarioError(f"{series_file}:{i}: bad value ({e})") from e
            if not 0 <= n < n_users:
                raise ScenarioError(f"{series_file}:{i}: user {n} outside "
                                    f"[0, {n_users - 1}]")
            if not 1 <= slot <= horizon:
                raise ScenarioError(f"{series_file}:{i}: slot {slot} outside "
                                    f"[1, {horizon}]")
            if slot in series[n]:
                raise ScenarioError(f"{series_file}:{i}: duplicate row for "
                                    f"user {n} slot {slot}")
            series[n][slot] = vals
            pkey = (slot,)
            ptriple = (vals["p_FIT"], vals["p_DR"], vals["p_T"])
            # NaN != NaN, so a NaN price would otherwise read as a mismatch
            for k in ("p_FIT", "p_DR", "p_T"):
                if not np.isfinite(vals[k]):
                    raise ScenarioError(f"{series_file}:{i}: field {k}: "
                                        f"values must be finite, got {vals[k]}")
            if pkey in price_rows and price_rows[pkey] != ptriple:
                raise ScenarioError(f"{series_file}:{i}: price columns differ "
                                    f"between users at slot {slot}; the price "
                                    f"signals must be identical for everyone")
            price_rows[pkey] = ptriple

    for n in range(n_users):
        missing = [t for t in range(1, horizon + 1) if t not in series[n]]
        if missing:
            raise ScenarioError(f"{series_file}: user {n} missing slots "
                                f"{missing[:5]}")

    def col(n: int, key: str) -> np.ndarray:
        return np.array([series[n][t][key] for t in range(1, horizon + 1)])

    prices = TransactivePrices(feed_in=col(0, "p_FIT"), dr=col(0, "p_DR"),
                               trade=col(0, "p_T"))

    users: List[UserScenario] = []
    shift_windows: List[Tuple[int, ...]] = []
    ev_windows: List[Tuple[int, int]] = []
    for n, ucfg in enumerate(user_cfgs):
        ucfg = _section(ucfg, dict, f"{where}: users[{n}]")
        sections = {key: {**table, **_section(ucfg.get(key, {}), dict,
                                              f"{where}: user {n} {key}")}
                    for key, table in defaults.items()}
        evc = sections["ev"]
        uw = {**windows, **_section(ucfg.get("windows", {}), dict,
                                    f"{where}: user {n} windows")}
        if "shift" in uw:
            shift = _window_from_json(uw["shift"], f"{where}: user {n} shift window")
        else:
            shift = tuple(range(1, horizon + 1))
        evw = uw.get("ev")
        if not isinstance(evw, dict) or "arrive" not in evw or "depart" not in evw:
            raise ScenarioError(f"{where}: user {n}: windows.ev needs "
                                f"'arrive' and 'depart'")
        arrive, depart = (_as_int(evw[k], f"{where}: user {n} windows.ev.{k}")
                          for k in ("arrive", "depart"))
        if "capacity" not in evc:
            raise ScenarioError(f"{where}: user {n}: ev.capacity is required")
        capacity = _as_float(evc["capacity"], f"{where}: user {n} ev.capacity")
        charge_init = _as_float(evc.get("charge_init", 0.5 * capacity),
                                f"{where}: user {n} ev.charge_init")
        home, ev_limits = _home_params(sections, f"{where}: user {n}")
        ev = EvParams(capacity=capacity, charge_init=charge_init, **ev_limits)
        users.append(UserScenario(
            shift_pref=col(n, "L_S"), curtail_pref=col(n, "L_C"),
            inflexible=col(n, "l_I"), renewable_cap=col(n, "S_R"),
            temp_out=col(n, "Tout"), temp_ref=col(n, "Tref"), ev=ev, **home))
        shift_windows.append(shift)
        ev_windows.append((arrive, depart))

    grid = TimeGrid(horizon=horizon, shift_windows=tuple(shift_windows),
                    dr_window=dr_window, ev_windows=tuple(ev_windows))
    scen = Scenario(n_users=n_users, grid=grid, users=tuple(users),
                    tariff=tariff, prices=prices, rng_seed=rng_seed)
    problems = validate_scenario(scen)
    if problems:
        v = problems[0]
        who = "scenario" if v.user is None else f"user {v.user}"
        raise ScenarioError(f"{cfg_path}: invalid scenario ({who}, field "
                            f"{v.field}): {v.message}; "
                            f"{len(problems)} violation(s) total")
    return scen
