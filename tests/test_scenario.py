"""Scenario model tests: generation, validation, masks, file round trip."""

import dataclasses
import json

import numpy as np
import pytest

from gridledger.scenario import (
    EvParams,
    ScenarioError,
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

    def test_charge_init_above_capacity(self, scen_2x4):
        ev0 = scen_2x4.users[0].ev
        ev = dataclasses.replace(ev0, charge_init=ev0.capacity + 1.0)
        bad = self._corrupt_user(scen_2x4, ev=ev)
        found = validate_scenario(bad)
        assert any(v.field == "ev.charge_init" for v in found)


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

    def test_load_ignores_retired_slot_hours(self, tmp_path, scen_2x4):
        # config files written before the slot width was dropped carry it
        write_scenario(scen_2x4, tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        cfg["slot_hours"] = 0.5
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert load_scenario(tmp_path).grid == scen_2x4.grid

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
