"""Scenario model tests: generation, validation, masks, file round trip."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridledger.scenario import (
    EvParams,
    ScenarioError,
    Violation,
    generate_synthetic,
    load_scenario,
    slots_to_mask,
    validate_scenario,
    write_scenario,
)


def _series_arrays(s):
    out = []
    for u in s.users:
        out.extend([u.shift_pref, u.curtail_pref, u.inflexible,
                    u.renewable_cap, u.temp_out, u.temp_ref])
    out.extend([s.prices.feed_in, s.prices.dr, s.prices.trade])
    return out


class TestGenerate:
    def test_same_seed_identical(self):
        a = generate_synthetic(seed=7, n_users=3, horizon=8)
        b = generate_synthetic(seed=7, n_users=3, horizon=8)
        for xa, xb in zip(_series_arrays(a), _series_arrays(b)):
            assert np.array_equal(xa, xb)
        assert a.grid == b.grid
        assert a.tariff == b.tariff

    def test_different_seed_differs(self):
        a = generate_synthetic(seed=7, n_users=2, horizon=8)
        b = generate_synthetic(seed=8, n_users=2, horizon=8)
        assert not np.array_equal(a.users[0].inflexible, b.users[0].inflexible)

    def test_generated_is_valid(self, scen_3x8):
        assert validate_scenario(scen_3x8) == []

    def test_shapes(self, scen_2x4):
        t = scen_2x4.grid.horizon
        assert t == 4
        assert len(scen_2x4.users) == 2
        for u in scen_2x4.users:
            assert u.inflexible.shape == (t,)
            assert u.renewable_cap.shape == (t,)
        assert scen_2x4.prices.trade.shape == (t,)

    def test_bad_sizes_raise(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_users=0, horizon=4)
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_users=2, horizon=0)

    def test_series_are_read_only(self, scen_2x4):
        with pytest.raises(ValueError):
            scen_2x4.users[0].inflexible[0] = 99.0


class TestMasks:
    def test_slots_to_mask(self):
        mask = slots_to_mask([1, 3], 4)
        assert mask.tolist() == [True, False, True, False]

    def test_slots_to_mask_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            slots_to_mask([0], 4)
        with pytest.raises(ValueError):
            slots_to_mask([5], 4)

    def test_ev_mask_matches_window(self, scen_3x8):
        g = scen_3x8.grid
        for n in range(scen_3x8.n_users):
            arrive, depart = g.ev_windows[n]
            mask = g.ev_mask(n)
            assert mask.sum() == depart - arrive + 1
            assert mask[arrive - 1] and mask[depart - 1]

    def test_ev_slice_is_half_open_zero_based(self, scen_3x8):
        g = scen_3x8.grid
        for n in range(scen_3x8.n_users):
            arrive, depart = g.ev_windows[n]
            sl = g.ev_slice(n)
            assert sl.start == arrive - 1
            assert sl.stop == depart
            idx = np.arange(g.horizon)[sl]
            assert np.array_equal(idx, np.flatnonzero(g.ev_mask(n)))

    def test_dr_mask_consistent(self, scen_3x8):
        g = scen_3x8.grid
        assert set(np.flatnonzero(g.dr_mask()) + 1) == set(g.dr_window)


class TestValidate:
    def _corrupt_user(self, s, **changes):
        u0 = dataclasses.replace(s.users[0], **changes)
        return dataclasses.replace(s, users=(u0,) + s.users[1:])

    def test_negative_series(self, scen_2x4):
        bad = self._corrupt_user(scen_2x4,
                                 inflexible=-np.abs(scen_2x4.users[0].inflexible) - 1)
        found = validate_scenario(bad)
        assert any(v.field == "inflexible" and v.user == 0 for v in found)

    def test_inverted_temp_band(self, scen_2x4):
        bad = self._corrupt_user(scen_2x4, temp_lo=30.0, temp_hi=20.0)
        found = validate_scenario(bad)
        assert any(v.field == "temp_lo" for v in found)

    def test_temp_init_outside_band(self, scen_2x4):
        bad = self._corrupt_user(scen_2x4, temp_init=90.0)
        found = validate_scenario(bad)
        assert any(v.field == "temp_init" for v in found)

    def test_bad_efficiency(self, scen_2x4):
        ev = dataclasses.replace(scen_2x4.users[0].ev, eff_charge=1.5)
        bad = self._corrupt_user(scen_2x4, ev=ev)
        found = validate_scenario(bad)
        assert any(v.field == "ev.eff_charge" for v in found)

    def test_ev_window_outside_horizon(self, scen_2x4):
        t = scen_2x4.grid.horizon
        grid = dataclasses.replace(
            scen_2x4.grid,
            ev_windows=((1, t + 1),) + scen_2x4.grid.ev_windows[1:])
        found = validate_scenario(dataclasses.replace(scen_2x4, grid=grid))
        assert any(v.field == "ev_window" and v.user == 0 for v in found)

    def test_negative_price_signal(self, scen_2x4):
        prices = dataclasses.replace(scen_2x4.prices,
                                     trade=-scen_2x4.prices.trade - 0.01)
        bad = dataclasses.replace(scen_2x4, prices=prices)
        found = validate_scenario(bad)
        assert any(v.field == "prices.trade" for v in found)

    def test_nonpositive_line_cap(self, scen_2x4):
        tariff = dataclasses.replace(scen_2x4.tariff, line_cap=0.0)
        bad = dataclasses.replace(scen_2x4, tariff=tariff)
        found = validate_scenario(bad)
        assert any(v.field == "tariff.line_cap" for v in found)

    def test_non_finite_values_named(self, scen_2x4):
        ev = dataclasses.replace(scen_2x4.users[0].ev, capacity=np.inf)
        temp_out = scen_2x4.users[0].temp_out.copy()
        temp_out[1] = np.nan
        bad = self._corrupt_user(scen_2x4, ev=ev, w_comfort=np.nan,
                                 temp_out=temp_out)
        dr = scen_2x4.prices.dr.copy()
        dr[0] = np.nan
        bad = dataclasses.replace(
            bad, prices=dataclasses.replace(bad.prices, dr=dr),
            tariff=dataclasses.replace(bad.tariff, price_peak=-np.inf))
        found = {(v.user, v.field) for v in validate_scenario(bad)
                 if v.message == "values must be finite"}
        assert found == {(0, "ev.capacity"), (0, "w_comfort"), (0, "temp_out"),
                         (None, "prices.dr"), (None, "tariff.price_peak")}

    @pytest.mark.parametrize("field, value", [
        ("temp_lo", np.nan), ("temp_hi", np.nan), ("temp_init", np.inf)])
    def test_non_finite_temperature_found_once(self, scen_2x4, field, value):
        """The band rules read a non-finite value only through its own
        finding; NaN fails every comparison and would add a second one."""
        found = validate_scenario(self._corrupt_user(scen_2x4,
                                                     **{field: value}))
        assert found == [Violation(0, field, "values must be finite")]

    def test_charge_init_above_capacity(self, scen_2x4):
        ev0 = scen_2x4.users[0].ev
        ev = dataclasses.replace(ev0, charge_init=ev0.capacity + 1.0)
        bad = self._corrupt_user(scen_2x4, ev=ev)
        found = validate_scenario(bad)
        assert any(v.field == "ev.charge_init" for v in found)


# each value that validate_scenario ranges, with one finite bound of its
# interval and a value just past that bound; an open bound is itself past
_BELOW_ZERO = float(np.nextafter(0.0, -1.0))
_ABOVE_ONE = float(np.nextafter(1.0, 2.0))
_PAST_BOUNDS = [
    ("tariff.price_energy", "[0, inf)", _BELOW_ZERO),
    ("tariff.price_peak", "[0, inf)", _BELOW_ZERO),
    ("tariff.line_cap", "(0, inf)", 0.0),
    ("hvac_alpha", "[0, inf)", _BELOW_ZERO),
    ("hvac_beta", "[0, 1]", _BELOW_ZERO),
    ("hvac_beta", "[0, 1]", _ABOVE_ONE),
    ("w_shift", "[0, inf)", _BELOW_ZERO),
    ("w_curtail", "[0, inf)", _BELOW_ZERO),
    ("w_comfort", "[0, inf)", _BELOW_ZERO),
    ("ev.capacity", "(0, inf)", 0.0),
    ("ev.charge_max", "[0, inf)", _BELOW_ZERO),
    ("ev.discharge_max", "[0, inf)", _BELOW_ZERO),
    ("ev.eff_charge", "(0, 1]", 0.0),
    ("ev.eff_charge", "(0, 1]", _ABOVE_ONE),
    ("ev.eff_discharge", "(0, 1]", 0.0),
    ("ev.eff_discharge", "(0, 1]", _ABOVE_ONE),
    ("ev.w_degrade", "[0, inf)", _BELOW_ZERO),
]


def _with_value(s, field, value):
    """``s`` with the tariff value or home 0's value ``field`` replaced."""
    section, _, name = field.rpartition(".")
    if section == "tariff":
        return dataclasses.replace(s, tariff=dataclasses.replace(
            s.tariff, **{name: value}))
    u0 = s.users[0]
    if section == "ev":
        u0 = dataclasses.replace(u0, ev=dataclasses.replace(
            u0.ev, **{name: value}))
    else:
        u0 = dataclasses.replace(u0, **{name: value})
    return dataclasses.replace(s, users=(u0,) + s.users[1:])


@pytest.mark.parametrize("field,interval,value", _PAST_BOUNDS,
                         ids=[f"{f}={v!r}" for f, _, v in _PAST_BOUNDS])
def test_value_past_its_bound_named(scen_2x4, field, interval, value):
    """A value just outside its range gives one finding, which names that
    value's own field and states the range and the value."""
    found = validate_scenario(_with_value(scen_2x4, field, value))
    user = None if field.startswith("tariff.") else 0
    assert [(v.user, v.field, v.message) for v in found] == \
        [(user, field, f"must be in {interval}, got {value}")]


def test_closed_bounds_admitted(scen_2x4):
    for field, interval, _ in _PAST_BOUNDS:
        lo, hi = interval[1:-1].split(", ")
        for bracket, bound in ((interval[0], lo), (interval[-1], hi)):
            if bracket in "[]":
                s = _with_value(scen_2x4, field, float(bound))
                assert validate_scenario(s) == [], (field, bound)


def _assert_bitwise_equal(a, b):
    """Dataclass trees equal field by field, floats and arrays bit for bit."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_bitwise_equal(x, y)
        elif f.name == "users":
            assert len(x) == len(y)
            for ux, uy in zip(x, y):
                _assert_bitwise_equal(ux, uy)
        elif isinstance(x, (float, np.ndarray)):
            x, y = np.asarray(x), np.asarray(y)
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert x == y, f.name


_HOME_WEIGHTS = ("hvac_alpha", "hvac_beta", "w_shift", "w_curtail", "w_comfort")
_EV_LIMITS = ("charge_max", "discharge_max", "eff_charge", "eff_discharge",
              "w_degrade")


def _windows(horizon):
    """Slot lists in any order, with repeats, gaps, or none at all."""
    return st.lists(st.integers(1, horizon), max_size=horizon + 2).map(tuple)


@st.composite
def _scenarios(draw):
    """Synthetic scenarios with drawn windows, batteries and home weights;
    each drawn value is shared by every home or drawn per home."""
    t = draw(st.integers(1, 6))
    s = generate_synthetic(seed=draw(st.integers(0, 3)),
                           n_users=draw(st.integers(1, 3)), horizon=t)
    shared = draw(st.booleans())
    weight = st.floats(0.01, 1.0)
    shift, ev_windows, users = [], [], []
    for u in s.users:
        if not (shared and users):
            full = tuple(range(1, t + 1))
            window = draw(st.one_of(st.just(full), _windows(t)))
            arrive = draw(st.integers(1, t))
            ev_window = (arrive, draw(st.integers(arrive, t)))
            capacity = draw(st.floats(1.0, 60.0))
            charge_init = draw(st.one_of(st.just(0.5 * capacity),
                                         st.floats(0.0, capacity)))
            home = {k: draw(weight)
                    for k in draw(st.sets(st.sampled_from(_HOME_WEIGHTS)))}
            ev = {k: draw(weight)
                  for k in draw(st.sets(st.sampled_from(_EV_LIMITS)))}
        shift.append(window)
        ev_windows.append(ev_window)
        users.append(dataclasses.replace(u, **home, ev=dataclasses.replace(
            u.ev, capacity=capacity, charge_init=charge_init, **ev)))
    grid = dataclasses.replace(s.grid, shift_windows=tuple(shift),
                               dr_window=draw(_windows(t)),
                               ev_windows=tuple(ev_windows))
    return dataclasses.replace(s, grid=grid, users=tuple(users))


def _is_default(section, key, value, entry, defaults, horizon):
    """Whether a config value is what the loader supplies when it is left
    out: a synthetic home's value, half the battery size for the arrival
    charge, and every slot for the shift window."""
    if (section, key) == ("windows", "shift"):
        return value == {"from": 1, "to": horizon}
    if (section, key) == ("ev", "charge_init"):
        return value == 0.5 * entry["ev"]["capacity"]
    return section != "windows" and key != "capacity" \
        and value == defaults[section][key]


class TestRoundTrip:
    def test_write_load_exact(self, tmp_path, scen_3x8):
        write_scenario(scen_3x8, tmp_path)
        back = load_scenario(tmp_path)
        assert back.n_users == scen_3x8.n_users
        assert back.grid == scen_3x8.grid
        assert back.tariff == scen_3x8.tariff
        assert back.rng_seed == scen_3x8.rng_seed
        for xa, xb in zip(_series_arrays(scen_3x8), _series_arrays(back)):
            assert np.array_equal(xa, xb)    # bitwise, thanks to repr() floats
        for ua, ub in zip(scen_3x8.users, back.users):
            assert ua.ev == ub.ev
            assert (ua.w_shift, ua.w_curtail, ua.w_comfort) == \
                   (ub.w_shift, ub.w_curtail, ub.w_comfort)

    def test_unsorted_windows_round_trip(self, tmp_path, scen_3x8):
        grid = dataclasses.replace(
            scen_3x8.grid, dr_window=(5, 4),
            shift_windows=((3, 1, 2),) + scen_3x8.grid.shift_windows[1:])
        write_scenario(dataclasses.replace(scen_3x8, grid=grid), tmp_path)
        assert load_scenario(tmp_path).grid == grid

    @settings(deadline=None, max_examples=60)
    @given(s=_scenarios(), data=st.data())
    def test_round_trip_property(self, s, data):
        """Writing then loading gives the scenario back bit for bit, also
        when the config leaves defaults out or gives a value once in a
        top-level section for every home."""
        t = s.grid.horizon
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_scenario(generate_synthetic(seed=0, n_users=1, horizon=t),
                           root)
            defaults = json.loads((root / "config.json").read_text())["users"][0]
            write_scenario(s, root)
            cfg = json.loads((root / "config.json").read_text())
            entries = cfg["users"]
            for e in entries:
                for section, table in e.items():
                    for key, value in list(table.items()):
                        if _is_default(section, key, value, e, defaults, t) \
                                and data.draw(st.booleans(), label=f"omit {key}"):
                            del table[key]
            for section, table in entries[0].items():
                for key, value in list(table.items()):
                    if all(e[section].get(key, ...) == value for e in entries) \
                            and data.draw(st.booleans(), label=f"shared {key}"):
                        cfg.setdefault(section, {})[key] = value
                        for e in entries:
                            del e[section][key]
            for key, default in (("rng_seed", 0), ("series_file", "series.csv")):
                if cfg[key] == default and data.draw(st.booleans(), label=key):
                    del cfg[key]
            (root / "config.json").write_text(json.dumps(cfg))
            _assert_bitwise_equal(load_scenario(root), s)

    def test_load_ignores_retired_slot_hours(self, tmp_path, scen_2x4):
        # config files written before the slot width was dropped carry it
        write_scenario(scen_2x4, tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        cfg["slot_hours"] = 0.5
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert load_scenario(tmp_path).grid == scen_2x4.grid

    @pytest.mark.parametrize("edit,name", [
        (lambda cfg: cfg.update(hvca={"alpha": 9.0}), ": hvca"),
        (lambda cfg: cfg["users"][1].update(hvca={"alpha": 9.0}),
         ": user 1 hvca"),
        (lambda cfg: cfg["users"][0]["ev"].update(w_degrad=7.0),
         ": user 0 ev.w_degrad"),
        (lambda cfg: cfg["tariff"].update(line_capp=9.0), ": tariff.line_capp"),
    ], ids=["top-section", "user-section", "user-key", "top-key"])
    def test_unknown_key_named(self, tmp_path, scen_2x4, edit, name):
        # a misspelt name would otherwise load silently with the default
        write_scenario(scen_2x4, tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        edit(cfg)
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        with pytest.raises(ScenarioError, match=f"{name}: unknown key$"):
            load_scenario(tmp_path)

    def test_load_defaults_match_synthetic(self, tmp_path, scen_2x4):
        # users that give only a battery size and the EV window get the
        # home parameters every synthetic home has
        write_scenario(scen_2x4, tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        cfg["users"] = [{"windows": {"ev": u["windows"]["ev"]},
                         "ev": {"capacity": u["ev"]["capacity"]}}
                        for u in cfg["users"]]
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        back = load_scenario(tmp_path)
        for ua, ub in zip(scen_2x4.users, back.users):
            for name in ("hvac_alpha", "hvac_beta", "temp_lo", "temp_hi",
                         "temp_init", "w_shift", "w_curtail", "w_comfort"):
                assert getattr(ub, name) == getattr(ua, name), name
            for name in ("charge_max", "discharge_max", "eff_charge",
                         "eff_discharge", "w_degrade"):
                assert getattr(ub.ev, name) == getattr(ua.ev, name), name

    def test_load_accepts_config_path(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        back = load_scenario(tmp_path / "config.json")
        assert back.n_users == 2

    def test_missing_config(self, tmp_path):
        with pytest.raises(ScenarioError, match="no such config"):
            load_scenario(tmp_path / "nope")

    def test_invalid_json_names_file(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        (tmp_path / "config.json").write_text("{not json")
        with pytest.raises(ScenarioError, match="config.json"):
            load_scenario(tmp_path)

    def test_missing_required_key(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        del cfg["tariff"]
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        with pytest.raises(ScenarioError, match="tariff"):
            load_scenario(tmp_path)

    def test_missing_series_file(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        (tmp_path / "series.csv").unlink()
        with pytest.raises(ScenarioError, match="series.csv"):
            load_scenario(tmp_path)

    def test_bad_header(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        lines[0] = lines[0].replace("l_I", "load")
        (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match="header"):
            load_scenario(tmp_path)

    def test_bad_value_names_row(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        parts = lines[3].split(",")
        parts[4] = "oops"
        lines[3] = ",".join(parts)
        (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match=r"series\.csv:4"):
            load_scenario(tmp_path)

    @pytest.mark.parametrize("cells", [12, 10])
    def test_row_with_wrong_cell_count_names_row(self, tmp_path, scen_2x4,
                                                  cells):
        write_scenario(scen_2x4, tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        lines[3] = ",".join((lines[3].split(",") + ["0.5"])[:cells])
        (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match=rf"series\.csv:4: {cells} "
                                                rf"cells, but the header has 11"):
            load_scenario(tmp_path)

    def test_missing_slot_detected(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        del lines[2]
        (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match="missing slots"):
            load_scenario(tmp_path)

    def test_duplicate_row_detected(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        lines.append(lines[1])
        (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(tmp_path)

    def test_diverging_prices_rejected(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        # price columns of user 1, slot 1 no longer match user 0's row
        parts = lines[1 + scen_2x4.grid.horizon].split(",")
        parts[-1] = "0.999"
        lines[1 + scen_2x4.grid.horizon] = ",".join(parts)
        (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match="price"):
            load_scenario(tmp_path)

    def test_invalid_scenario_on_load_names_field(self, tmp_path, scen_2x4):
        write_scenario(scen_2x4, tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        cfg["users"][1]["ev"]["eff_charge"] = 2.0
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        with pytest.raises(ScenarioError, match="eff_charge"):
            load_scenario(tmp_path)


def test_ev_params_plain_dataclass():
    ev = EvParams(capacity=40.0, charge_init=20.0, charge_max=50.0,
                  discharge_max=10.0, eff_charge=0.9, eff_discharge=0.9,
                  w_degrade=0.1)
    assert dataclasses.replace(ev, charge_init=30.0).charge_init == 30.0
    assert ev.charge_init == 20.0
