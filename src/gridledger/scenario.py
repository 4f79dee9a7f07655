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
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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


class ScenarioError(Exception):
    """Raised when a scenario file is malformed or violates an invariant."""


def _freeze(a: Sequence[float] | np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.setflags(write=False)
    return out


def _freeze_series(obj: object) -> None:
    """Replace each ``_SERIES`` array that ``obj`` owns by a read-only copy."""
    for c in _SERIES:
        if isinstance(obj, c.owner):
            object.__setattr__(obj, c.attr, _freeze(getattr(obj, c.attr)))


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
        _freeze_series(self)


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
        _freeze_series(self)


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
# file format: how each value is spelled, and the two field tables

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


def _window_to_json(slots: Sequence[int]) -> object:
    """A slot set in its stored order; an ascending contiguous run is
    written as a range, so that any tuple reads back as itself."""
    slots = list(slots)
    if slots and slots == list(range(slots[0], slots[-1] + 1)):
        return {"from": slots[0], "to": slots[-1]}
    return slots


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


def _ev_window_from_json(obj: object, what: str) -> Tuple[int, int]:
    if not isinstance(obj, dict) or "arrive" not in obj or "depart" not in obj:
        raise ScenarioError(f"{what} needs 'arrive' and 'depart'")
    return _as_int(obj["arrive"], f"{what}.arrive"), \
        _as_int(obj["depart"], f"{what}.depart")


# how a window is written; every other value is written as it is held
_TO_JSON = {_window_from_json: _window_to_json,
            _ev_window_from_json: lambda w: {"arrive": w[0], "depart": w[1]}}
_REQUIRED = object()


def _admits(interval: str, v: float) -> bool:
    """Whether ``v`` lies in ``interval``, written as "[0, 1]" or "(0, inf)"."""
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    return (lo < v if interval[0] == "(" else lo <= v) \
        and (v < hi if interval[-1] == ")" else v <= hi)


class _Key(NamedTuple):
    """One config.json value.  ``attr`` is the attribute path that holds
    it, from the Scenario or, in ``_HOME_KEYS``, from the home ("" if the
    scenario does not keep it); it is also the field that
    ``validate_scenario`` names.  ``default`` is a value, ``_REQUIRED``, or
    a function of the values read before it and the horizon.  A number
    must be finite and inside the interval ``valid``, if one is given."""

    section: str                 # "" at the top level of the file
    key: str
    attr: str
    default: object = _REQUIRED
    read: Callable[[object, str], object] = _as_float
    valid: str = ""

    @property
    def name(self) -> str:
        return f"{self.section}.{self.key}" if self.section else self.key


# the top level of config.json, in file order
_SCENARIO_KEYS = (
    _Key("", "n_users", "n_users", read=_as_int),
    _Key("", "horizon", "grid.horizon", read=_as_int),
    _Key("", "rng_seed", "rng_seed", 0, _as_int),
    _Key("", "series_file", "", "series.csv",
         lambda value, what: str(value)),
    _Key("tariff", "price_energy", "tariff.price_energy", valid="[0, inf)"),
    _Key("tariff", "price_peak", "tariff.price_peak", valid="[0, inf)"),
    _Key("tariff", "line_cap", "tariff.line_cap", valid="(0, inf)"),
    _Key("windows", "dr", "grid.dr_window", [], _window_from_json),
)

# one entry of config.json's "users" list, in file order; a top-level
# section of the same name supplies each key that an entry leaves out
_HOME_KEYS = (
    _Key("windows", "shift", "shift_window",
         lambda got, horizon: list(range(1, horizon + 1)), _window_from_json),
    _Key("windows", "ev", "ev_window", read=_ev_window_from_json),
    _Key("hvac", "alpha", "hvac_alpha", 0.75, valid="[0, inf)"),
    _Key("hvac", "beta", "hvac_beta", 0.2, valid="[0, 1]"),
    _Key("hvac", "temp_lo", "temp_lo", 15.0),
    _Key("hvac", "temp_hi", "temp_hi", 32.0),
    _Key("hvac", "temp_init", "temp_init", 24.0),
    _Key("sensitivities", "shift", "w_shift", 1.0, valid="[0, inf)"),
    _Key("sensitivities", "curtail", "w_curtail", 1.0, valid="[0, inf)"),
    _Key("sensitivities", "comfort", "w_comfort", 1.0, valid="[0, inf)"),
    _Key("ev", "capacity", "ev.capacity", valid="(0, inf)"),
    _Key("ev", "charge_init", "ev.charge_init",
         lambda got, horizon: 0.5 * got["ev"]["capacity"]),
    _Key("ev", "charge_max", "ev.charge_max", 50.0, valid="[0, inf)"),
    _Key("ev", "discharge_max", "ev.discharge_max", 10.0, valid="[0, inf)"),
    _Key("ev", "eff_charge", "ev.eff_charge", 0.9, valid="(0, 1]"),
    _Key("ev", "eff_discharge", "ev.eff_discharge", 0.9, valid="(0, 1]"),
    _Key("ev", "w_degrade", "ev.w_degrade", 0.1, valid="[0, inf)"),
)


# top-level keys that older files carry; the loader accepts and ignores them
_RETIRED_KEYS = ("slot_hours",)


def _reject_unknown(cfg: dict, keys: Sequence[_Key], names: Sequence[str],
                    where: str, who: str = "") -> None:
    """Raise on a key of ``cfg``, or of one of its sections, that neither
    ``keys`` nor ``names`` name; errors name ``where``, ``who`` and the
    key."""
    known: dict = {}
    for k in keys:
        known.setdefault(k.section, set()).add(k.key)
    allowed = known.pop("", set()) | set(known) | set(names)
    for key, value in cfg.items():
        if key not in allowed:
            raise ScenarioError(f"{where}: {who}{key}: unknown key")
        # a section that is not an object is left for _section to name
        for sub in value if key in known and isinstance(value, dict) else ():
            if sub not in known[key]:
                raise ScenarioError(f"{where}: {who}{key}.{sub}: unknown key")


class _Series(NamedTuple):
    """One series.csv column and the per-slot array that holds it."""

    column: str
    owner: type                  # UserScenario or TransactivePrices
    attr: str
    nonnegative: bool = True


_SERIES = (
    _Series("L_S", UserScenario, "shift_pref"),
    _Series("L_C", UserScenario, "curtail_pref"),
    _Series("l_I", UserScenario, "inflexible"),
    _Series("S_R", UserScenario, "renewable_cap"),
    _Series("Tout", UserScenario, "temp_out", nonnegative=False),
    _Series("Tref", UserScenario, "temp_ref", nonnegative=False),
    _Series("p_FIT", TransactivePrices, "feed_in"),
    _Series("p_DR", TransactivePrices, "dr"),
    _Series("p_T", TransactivePrices, "trade"),
)

SERIES_COLUMNS = ["user", "slot", *(c.column for c in _SERIES)]


def _put(d: dict, path: str, value: object) -> None:
    """Store ``value`` at dotted ``path``, one level of nesting at most."""
    head, _, tail = path.rpartition(".")
    (d.setdefault(head, {}) if head else d)[tail] = value


# ---------------------------------------------------------------------------
# validation

def _size_violations(n_users: int, horizon: int) -> List[Violation]:
    return [Violation(None, fld, msg) for fld, wrong, msg in (
        ("horizon", horizon < 1, f"horizon must be >= 1, got {horizon}"),
        ("n_users", n_users < 1, f"need at least one user, got {n_users}"))
        if wrong]


def validate_scenario(s: Scenario) -> List[Violation]:
    """Check every scenario invariant; returns findings instead of raising."""
    t = s.grid.horizon
    out = _size_violations(s.n_users, t)

    def bad(user: Optional[int], fld: str, msg: str) -> None:
        out.append(Violation(user, fld, msg))

    if t < 1:
        return out
    if len(s.users) != s.n_users:
        bad(None, "users", f"n_users={s.n_users} but {len(s.users)} user entries")
    if len(s.grid.shift_windows) != len(s.users) or len(s.grid.ev_windows) != len(s.users):
        bad(None, "grid", "per-user window count does not match user count")
        return out

    # every comparison with NaN is false, so finiteness is tested first
    values = [(None, k, attrgetter(k.attr)(s))
              for k in _SCENARIO_KEYS if k.read is _as_float]
    values += [(n, k, attrgetter(k.attr)(u)) for n, u in enumerate(s.users)
               for k in _HOME_KEYS if k.read is _as_float]
    for user, k, v in values:
        if not np.isfinite(v):
            bad(user, k.attr, "values must be finite")
        elif k.valid and not _admits(k.valid, v):
            bad(user, k.attr, f"must be in {k.valid}, got {v}")
    flagged = {(v.user, v.field) for v in out}

    for c in _SERIES:
        owners = ([(None, f"prices.{c.attr}", s.prices)]
                  if c.owner is TransactivePrices
                  else [(n, c.attr, u) for n, u in enumerate(s.users)])
        for user, fld, obj in owners:
            arr = getattr(obj, c.attr)
            if arr.shape != (t,):
                bad(user, fld, f"expected length {t}, got {arr.shape}")
            elif not np.all(np.isfinite(arr)):
                bad(user, fld, "values must be finite")
            elif c.nonnegative and np.any(arr < 0):
                bad(user, fld, "series must be nonnegative" if user is not None
                    else "price signals must be nonnegative")

    for sl in s.grid.dr_window:
        if not 1 <= sl <= t:
            bad(None, "dr_window", f"slot {sl} outside [1, {t}]")

    for n, u in enumerate(s.users):
        # a band rule reads no value that already has its own finding
        if {(n, "temp_lo"), (n, "temp_hi")} & flagged:
            pass
        elif not u.temp_lo < u.temp_hi:
            bad(n, "temp_lo", f"need temp_lo < temp_hi, got [{u.temp_lo}, {u.temp_hi}]")
        elif (n, "temp_init") not in flagged \
                and not u.temp_lo <= u.temp_init <= u.temp_hi:
            bad(n, "temp_init", f"initial temperature {u.temp_init} outside "
                                f"[{u.temp_lo}, {u.temp_hi}]")

        for sl in s.grid.shift_windows[n]:
            if not 1 <= sl <= t:
                bad(n, "shift_window", f"slot {sl} outside [1, {t}]")

        ev = u.ev
        arrive, depart = s.grid.ev_windows[n]
        if not (1 <= arrive <= depart <= t):
            bad(n, "ev_window", f"window [{arrive}, {depart}] invalid for horizon {t}")
        if (n, "ev.capacity") not in flagged \
                and not 0 <= ev.charge_init <= ev.capacity:
            bad(n, "ev.charge_init", f"initial charge {ev.charge_init} outside "
                                     f"[0, {ev.capacity}]")

    return out


# ---------------------------------------------------------------------------
# synthetic generation

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

    # every synthetic home has the home parameters that a config file may
    # leave out at their defaults
    home: dict = {}
    for k in _HOME_KEYS:
        if isinstance(k.default, float):
            _put(home, k.attr, k.default)
    ev_limits = home.pop("ev")
    users = []
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

    grid = TimeGrid(horizon=t, shift_windows=(tuple(range(1, t + 1)),) * n_users,
                    dr_window=dr_window, ev_windows=((ev_arrive, ev_depart),) * n_users)
    scen = Scenario(n_users=n_users, grid=grid, users=tuple(users),
                    tariff=tariff, prices=prices, rng_seed=seed)
    problems = validate_scenario(scen)
    if problems:
        raise ScenarioError(f"synthetic generator produced an invalid scenario: "
                            f"{problems[0]}")
    return scen


# ---------------------------------------------------------------------------
# file round trip

def _dump(keys: Sequence[_Key], root: object) -> dict:
    """The config object holding ``keys``, each value read from ``root``."""
    cfg: dict = {}
    for k in keys:
        value = attrgetter(k.attr)(root) if k.attr else k.default
        _put(cfg, k.name, _TO_JSON.get(k.read, lambda v: v)(value))
    return cfg


def write_scenario(s: Scenario, path: str | Path) -> None:
    """Write ``config.json`` plus the series CSV into directory ``path``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    cfg = _dump(_SCENARIO_KEYS, s)
    cfg["users"] = [_dump(_HOME_KEYS, SimpleNamespace(
        **vars(u), shift_window=s.grid.shift_windows[n],
        ev_window=s.grid.ev_windows[n])) for n, u in enumerate(s.users)]
    (root / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")

    with open(root / cfg["series_file"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_COLUMNS)
        for n, u in enumerate(s.users):
            arrays = [getattr(u if c.owner is UserScenario else s.prices, c.attr)
                      for c in _SERIES]
            for t0 in range(s.grid.horizon):
                w.writerow([n, t0 + 1, *(repr(float(a[t0])) for a in arrays)])


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


def _read(keys: Sequence[_Key], cfg: dict, where: str, who: str = "",
          horizon: int = 0) -> dict:
    """The values of ``keys`` in ``cfg`` as keyword dicts nested by
    attribute path; errors name ``where``, then ``who`` and the key."""
    got: dict = {}
    for k in keys:
        sec = (_section(cfg.get(k.section, {}), dict,
                        f"{where}: {who}{k.section}") if k.section else cfg)
        if k.key in sec or k.default is _REQUIRED:
            value = _require(sec, k.key, f"{where}: {who}{k.section}"
                             if k.section else where)
        else:
            value = k.default(got, horizon) if callable(k.default) else k.default
        _put(got, k.attr or k.key, k.read(value, f"{where}: {who}{k.name}"))
    return got


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
    _reject_unknown(cfg, _SCENARIO_KEYS + _HOME_KEYS,
                    ("users", *_RETIRED_KEYS), where)
    top = _read(_SCENARIO_KEYS, cfg, where)
    n_users, horizon = top["n_users"], top["grid"]["horizon"]
    sizes = _size_violations(n_users, horizon)
    if sizes:
        raise ScenarioError(f"{where}: {sizes[0].field}: {sizes[0].message}")

    user_cfgs = _section(cfg.get("users", [{} for _ in range(n_users)]),
                         list, f"{where}: users")
    if len(user_cfgs) != n_users:
        raise ScenarioError(f"{where}: n_users={n_users} but "
                            f"{len(user_cfgs)} entries under 'users'")

    series_file = root / top["series_file"]
    if not series_file.exists():
        raise ScenarioError(f"{series_file}: no such series file")
    price_cols = [j for j, c in enumerate(_SERIES)
                  if c.owner is TransactivePrices]
    series = {n: {} for n in range(n_users)}
    price_rows = {}
    with open(series_file, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != SERIES_COLUMNS:
            raise ScenarioError(f"{series_file}: header must be exactly "
                                f"{','.join(SERIES_COLUMNS)}")
        for i, cells in enumerate(reader, start=2):
            if not cells:
                continue                # a blank line
            if len(cells) != len(SERIES_COLUMNS):
                raise ScenarioError(f"{series_file}:{i}: {len(cells)} cells, "
                                    f"but the header has {len(SERIES_COLUMNS)}")
            try:
                n, slot = int(cells[0]), int(cells[1])
                vals = [float(x) for x in cells[2:]]
            except ValueError as e:
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
            # NaN != NaN, so a NaN price would otherwise read as a mismatch
            for j in price_cols:
                if not np.isfinite(vals[j]):
                    raise ScenarioError(f"{series_file}:{i}: field "
                                        f"{_SERIES[j].column}: values must "
                                        f"be finite, got {vals[j]}")
            prices = [vals[j] for j in price_cols]
            if price_rows.setdefault(slot, prices) != prices:
                raise ScenarioError(f"{series_file}:{i}: price columns differ "
                                    f"between users at slot {slot}; the price "
                                    f"signals must be identical for everyone")

    for n in range(n_users):
        missing = [t for t in range(1, horizon + 1) if t not in series[n]]
        if missing:
            raise ScenarioError(f"{series_file}: user {n} missing slots "
                                f"{missing[:5]}")

    def columns(n: int, owner: type) -> dict:
        """Home ``n``'s arrays of ``owner``, by attribute."""
        table = np.array([series[n][t] for t in range(1, horizon + 1)])
        return {c.attr: table[:, j] for j, c in enumerate(_SERIES)
                if c.owner is owner}

    shared = {sec: _section(cfg.get(sec, {}), dict, f"{where}: {sec}")
              for sec in dict.fromkeys(k.section for k in _HOME_KEYS)}
    homes = []
    for n, ucfg in enumerate(user_cfgs):
        ucfg = _section(ucfg, dict, f"{where}: users[{n}]")
        _reject_unknown(ucfg, _HOME_KEYS, (), where, f"user {n} ")
        # a top-level section applies to every home, overridden key by key
        homes.append(_read(_HOME_KEYS, {sec: {**table, **_section(
            ucfg.get(sec, {}), dict, f"{where}: user {n} {sec}")}
            for sec, table in shared.items()}, where, f"user {n} ", horizon))

    grid = TimeGrid(**top["grid"],
                    shift_windows=tuple(h.pop("shift_window") for h in homes),
                    ev_windows=tuple(h.pop("ev_window") for h in homes))
    users = tuple(UserScenario(**columns(n, UserScenario),
                               ev=EvParams(**h.pop("ev")), **h)
                  for n, h in enumerate(homes))
    scen = Scenario(n_users=n_users, grid=grid, users=users,
                    tariff=GridTariff(**top["tariff"]),
                    prices=TransactivePrices(**columns(0, TransactivePrices)),
                    rng_seed=top["rng_seed"])
    problems = validate_scenario(scen)
    if problems:
        v = problems[0]
        who = "scenario" if v.user is None else f"user {v.user}"
        raise ScenarioError(f"{cfg_path}: invalid scenario ({who}, field "
                            f"{v.field}): {v.message}; "
                            f"{len(problems)} violation(s) total")
    return scen
