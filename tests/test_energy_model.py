"""Energy model tests against hand-computed oracles plus invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridledger.energy_model import (
    SCHEDULE_SERIES,
    Mode,
    Schedule,
    build_user_constraints,
    build_user_objective,
    check_schedule,
    combine_costs,
    ev_trajectory,
    home_cost_terms,
    hvac_trajectory,
    reward_terms,
    schedule_from_x,
    user_layout,
)
from gridledger.scenario import (
    EvParams,
    GridTariff,
    Scenario,
    TimeGrid,
    TransactivePrices,
    UserScenario,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _mini_user(horizon=3):
    """Hand-sized user for cost arithmetic; values chosen for easy sums."""
    ev = EvParams(capacity=10.0, charge_init=5.0, charge_max=4.0,
                  discharge_max=3.0, eff_charge=0.9, eff_discharge=0.8,
                  w_degrade=0.1)
    z = np.zeros(horizon)
    return UserScenario(
        shift_pref=np.array([2.0, 2.0, 0.0]), curtail_pref=np.array([1.0, 0.0, 0.0]),
        inflexible=z, renewable_cap=z, temp_out=np.full(horizon, 30.0),
        temp_ref=np.full(horizon, 24.0), temp_init=24.0,
        temp_lo=15.0, temp_hi=32.0, hvac_alpha=0.5, hvac_beta=0.25,
        w_shift=0.5, w_curtail=1.0, w_comfort=2.0, ev=ev)


def _schedule(horizon=3, **overrides):
    z = np.zeros(horizon)
    fields = dict(load_hvac=z, load_shift=z, load_curtail=z, supply_grid=z,
                  supply_renewable=z, ev_charge=z, ev_discharge=z,
                  ev_energy=z, temp_in=z, feed_in=z, dr_reduce=z, export=z,
                  peak=0.0)
    fields.update({k: np.asarray(v, dtype=float) if k != "peak" else v
                   for k, v in overrides.items()})
    return Schedule(**fields)


class TestTrajectories:
    def test_hvac_hand_oracle(self):
        # T1 = 20 + 0.5*2 - 0.25*(20-30) = 23.5
        # T2 = 23.5 + 0   - 0.25*(23.5-30) = 25.125
        temp = hvac_trajectory(np.array([2.0, 0.0]), np.array([30.0, 30.0]),
                               temp_init=20.0, alpha=0.5, beta=0.25)
        assert temp.tolist() == [23.5, 25.125]

    def test_ev_hand_oracle(self):
        # e1 = 5 + 0.9*2           = 6.8
        # e2 = 6.8 - 1/0.8         = 5.55
        e = ev_trajectory(np.array([2.0, 0.0]), np.array([0.0, 1.0]),
                          charge_init=5.0, eff_charge=0.9, eff_discharge=0.8)
        assert np.allclose(e, [6.8, 5.55], atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hvac_trajectory(np.zeros(3), np.zeros(4), 20.0, 0.5, 0.25)
        with pytest.raises(ValueError):
            ev_trajectory(np.zeros(3), np.zeros(2), 5.0, 0.9, 0.9)

    def test_no_load_relaxes_to_outdoor(self):
        out = np.full(200, 30.0)
        temp = hvac_trajectory(np.zeros(200), out, 20.0, 0.75, 0.2)
        assert abs(temp[-1] - 30.0) < 1e-6

    @given(a=hnp.arrays(float, 4, elements=finite),
           b=hnp.arrays(float, 4, elements=finite),
           lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None)
    def test_hvac_affine_in_load(self, a, b, lam):
        out = np.array([25.0, 28.0, 30.0, 26.0])
        mix = hvac_trajectory(lam * a + (1 - lam) * b, out, 22.0, 0.6, 0.3)
        sep = lam * hvac_trajectory(a, out, 22.0, 0.6, 0.3) \
            + (1 - lam) * hvac_trajectory(b, out, 22.0, 0.6, 0.3)
        assert np.allclose(mix, sep, atol=1e-9)

    @given(ca=hnp.arrays(float, 3, elements=finite),
           cb=hnp.arrays(float, 3, elements=finite),
           lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None)
    def test_ev_affine_in_flows(self, ca, cb, lam):
        dis = np.array([0.5, 0.0, 1.0])
        mix = ev_trajectory(lam * ca + (1 - lam) * cb, dis, 5.0, 0.9, 0.8)
        sep = lam * ev_trajectory(ca, dis, 5.0, 0.9, 0.8) \
            + (1 - lam) * ev_trajectory(cb, dis, 5.0, 0.9, 0.8)
        assert np.allclose(mix, sep, atol=1e-9)


class TestCosts:
    tariff = GridTariff(price_energy=0.2, price_peak=0.8, line_cap=20.0)

    def test_grid_cost_hand_oracle(self):
        # 0.2*(3+5+2) + 0.8*5 = 6.0
        sch = _schedule(supply_grid=[3.0, 5.0, 2.0], peak=5.0)
        bd = home_cost_terms(sch, _mini_user(), self.tariff)
        assert bd.grid_cost == pytest.approx(6.0, abs=1e-12)

    def test_shift_cost_hand_oracle(self):
        # 0.5*((1-2)^2 + (3-2)^2 + 0) = 1.0
        sch = _schedule(load_shift=[1.0, 3.0, 0.0],
                        temp_in=[24.0, 24.0, 24.0], load_curtail=[1.0, 0.0, 0.0])
        bd = home_cost_terms(sch, _mini_user(), self.tariff)
        assert bd.shift_cost == pytest.approx(1.0, abs=1e-12)

    def test_full_breakdown_hand_oracle(self):
        user = _mini_user()
        sch = _schedule(load_shift=[1.0, 3.0, 0.0],        # 0.5*2       = 1.0
                        load_curtail=[0.0, 0.0, 0.0],      # 1.0*1       = 1.0
                        temp_in=[24.0, 25.0, 24.0],        # 2.0*1       = 2.0
                        supply_grid=[3.0, 5.0, 2.0],       # 2.0 + 4.0   = 6.0
                        ev_discharge=[0.0, 2.0, 0.0])      # 0.1*4       = 0.4
        bd = home_cost_terms(sch, user, self.tariff)
        assert bd.curtail_cost == pytest.approx(1.0, abs=1e-12)
        assert bd.comfort_cost == pytest.approx(2.0, abs=1e-12)
        assert bd.battery_cost == pytest.approx(0.4, abs=1e-12)
        assert bd.home_cost == pytest.approx(10.4, abs=1e-12)
        assert bd.net_cost == pytest.approx(10.4, abs=1e-12)

    def test_reward_hand_oracle(self):
        prices = TransactivePrices(feed_in=np.array([0.1, 0.2, 0.1]),
                                   dr=np.array([0.2, 0.2, 0.2]),
                                   trade=np.array([0.5, 0.5, 0.5]))
        sch = _schedule(feed_in=[1.0, 2.0, 0.0], dr_reduce=[0.0, 1.0, 0.0],
                        export=[1.0, -2.0, 0.0])
        bd = reward_terms(sch, prices)
        assert bd.feed_in_reward == pytest.approx(0.5, abs=1e-12)
        assert bd.dr_reward == pytest.approx(0.2, abs=1e-12)
        assert bd.vertical_reward == pytest.approx(0.7, abs=1e-12)
        assert bd.trade_reward == pytest.approx(-0.5, abs=1e-12)

    def test_combine_nets_out(self):
        user = _mini_user()
        prices = TransactivePrices(feed_in=np.array([0.1, 0.2, 0.1]),
                                   dr=np.array([0.2, 0.2, 0.2]),
                                   trade=np.array([0.5, 0.5, 0.5]))
        sch = _schedule(load_shift=[1.0, 3.0, 0.0], temp_in=[24.0, 25.0, 24.0],
                        supply_grid=[3.0, 5.0, 2.0], ev_discharge=[0.0, 2.0, 0.0],
                        feed_in=[1.0, 2.0, 0.0], dr_reduce=[0.0, 1.0, 0.0],
                        export=[1.0, -2.0, 0.0])
        bd = combine_costs(home_cost_terms(sch, user, self.tariff),
                           reward_terms(sch, prices))
        assert bd.net_cost == pytest.approx(10.4 - 0.7 + 0.5, abs=1e-12)

    def test_grid_cost_monotone_in_draw(self):
        user = _mini_user()
        lo = _schedule(supply_grid=[1.0, 2.0, 1.0])
        hi = _schedule(supply_grid=[1.0, 4.0, 1.0])
        assert home_cost_terms(lo, user, self.tariff).grid_cost \
            <= home_cost_terms(hi, user, self.tariff).grid_cost

    @given(s=hnp.arrays(float, 3, elements=st.floats(0.0, 10.0)),
           bump=st.floats(0.0, 5.0), idx=st.integers(0, 2))
    @settings(deadline=None)
    def test_grid_cost_monotone_property(self, s, bump, idx):
        user = _mini_user()
        raised = s.copy()
        raised[idx] += bump
        a = home_cost_terms(_schedule(supply_grid=s), user, self.tariff).grid_cost
        b = home_cost_terms(_schedule(supply_grid=raised), user, self.tariff).grid_cost
        assert b >= a - 1e-12


def _cols(layout, user, name):
    """Home ``user``'s ``name`` columns in a joint vector of ``layout``
    blocks."""
    base = user * layout["peak"].stop
    return slice(base + layout[name].start, base + layout[name].stop)


class TestLayout:
    def test_mode_channels(self):
        assert Mode.TEM.has_vertical and Mode.TEM.has_horizontal
        assert not Mode.BS1.has_vertical and not Mode.BS1.has_horizontal
        assert Mode.BS2.has_vertical and not Mode.BS2.has_horizontal
        assert not Mode.BS3.has_vertical and Mode.BS3.has_horizontal

    def test_block_sizes(self):
        t, n = 8, 3
        # nine per-slot series plus the scalar peak, then per-mode extras
        assert user_layout(n, t, Mode.BS1)["peak"].stop == 9 * t + 1
        assert user_layout(n, t, Mode.BS2)["peak"].stop == 11 * t + 1
        # trading adds one net-export series, whatever the number of homes
        assert user_layout(n, t, Mode.BS3)["peak"].stop == 10 * t + 1
        assert user_layout(n, t, Mode.TEM)["peak"].stop == 12 * t + 1
        sp = user_layout(n, t, Mode.TEM)["export"]
        assert sp.stop - sp.start == t
        # a lone home has nobody to trade with
        assert user_layout(1, t, Mode.TEM)["peak"].stop == 11 * t + 1

    def test_single_user_layout(self):
        """A home's own problem is block 0 of the joint layout: its vector
        reads as home n's block of the joint vector, peak last."""
        lay = user_layout(3, 4, Mode.TEM)
        size = lay["peak"].stop
        assert list(lay)[-1] == "peak" and lay["peak"].start == size - 1
        joint = np.arange(3 * size, dtype=float)
        for n in range(3):
            own = joint[n * size:(n + 1) * size]
            a, b = schedule_from_x(joint, lay, n), schedule_from_x(own, lay, 0)
            for name in SCHEDULE_SERIES:
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert a.peak == b.peak == own[-1]

    def test_spans_partition_block(self):
        lay = user_layout(2, 4, Mode.TEM)
        covered = np.zeros(lay["peak"].stop, dtype=int)
        for span in lay.values():
            covered[span] += 1
        assert np.all(covered == 1)

    def test_span_covers_horizon(self):
        lay = user_layout(2, 4, Mode.TEM)
        sp = lay["supply_grid"]
        assert sp.stop - sp.start == 4
        assert lay["load_curtail"].stop <= sp.start
        with pytest.raises(KeyError):
            lay["no-such-segment"]

    def test_schedule_from_x_round_trip(self):
        lay = user_layout(3, 4, Mode.TEM)
        x = np.arange(3 * lay["peak"].stop, dtype=float)
        exports = np.array([[1.0, -2.0, 0.5, 0.0],
                            [2.0, 1.0, -1.5, 3.0],
                            [-3.0, 1.0, 1.0, -3.0]])    # cleared: columns sum to 0
        for u in range(3):
            x[_cols(lay, u, "export")] = exports[u]
        for u in range(3):
            sch = schedule_from_x(x, lay, u)
            assert np.array_equal(sch.supply_grid,
                                  x[_cols(lay, u, "supply_grid")])
            assert np.array_equal(sch.feed_in, x[_cols(lay, u, "feed_in")])
            assert sch.peak == x[_cols(lay, u, "peak")][0]
            assert np.array_equal(sch.export, exports[u])

    def test_one_home_layout_reads_its_export(self):
        lay = user_layout(3, 4, Mode.TEM)
        x = np.arange(lay["peak"].stop, dtype=float)
        sch = schedule_from_x(x, lay, 0)
        assert np.array_equal(sch.export, x[lay["export"]])
        assert sch.peak == x[lay["peak"]][0]

    def test_schedule_from_x_fills_absent_channels(self):
        lay = user_layout(2, 4, Mode.BS1)
        x = np.arange(2 * lay["peak"].stop, dtype=float)
        sch = schedule_from_x(x, lay, 0)
        assert np.all(sch.feed_in == 0.0)
        assert np.all(sch.dr_reduce == 0.0)
        assert np.all(sch.export == 0.0)


class TestConstraints:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_shapes(self, scen_2x4, mode):
        s = scen_2x4
        cs = build_user_constraints(s, [0], mode)
        nv = user_layout(s.n_users, s.grid.horizon, mode)["peak"].stop
        assert cs.n_vars == nv
        assert cs.a_eq.shape == (cs.b_eq.size, nv)
        assert cs.a_in.shape == (cs.b_in.size, nv)
        assert cs.b_eq.shape == (cs.b_eq.size,)
        assert cs.b_in.shape == (cs.b_in.size,)
        assert cs.lo.shape == cs.hi.shape == (nv,)

    def test_bounds_respect_windows(self, scen_2x4):
        s = scen_2x4
        cs = build_user_constraints(s, [1], Mode.TEM)
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        assert np.array_equal(cs.hi[lay["load_curtail"]],
                              s.users[1].curtail_pref)
        assert np.all(cs.hi[lay["supply_grid"]] == s.tariff.line_cap)
        ev_mask = s.grid.ev_mask(1)
        hi_cha = cs.hi[lay["ev_charge"]]
        assert np.all(hi_cha[~ev_mask] == 0.0)
        assert np.all(hi_cha[ev_mask] == s.users[1].ev.charge_max)
        dr_hi = cs.hi[lay["dr_reduce"]]
        assert np.all(dr_hi[~s.grid.dr_mask()] == 0.0)

    def test_renewable_cap_moves_with_mode(self, scen_2x4):
        s = scen_2x4
        lay_bs1 = user_layout(s.n_users, s.grid.horizon, Mode.BS1)
        cs_bs1 = build_user_constraints(s, [0], Mode.BS1)
        # without a feed-in split the renewable series is capped directly
        assert np.array_equal(cs_bs1.hi[lay_bs1["supply_renewable"]],
                              s.users[0].renewable_cap)
        # with one, a row per slot caps renewable use plus feed-in instead
        lay_tem = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        cs_tem = build_user_constraints(s, [0], Mode.TEM)
        assert np.all(cs_tem.hi[lay_tem["supply_renewable"]] == np.inf)
        a_in = cs_tem.a_in.toarray()
        split = (a_in[:, lay_tem["supply_renewable"]] == 1.0) \
            & (a_in[:, lay_tem["feed_in"]] == 1.0)
        rows, slots = np.nonzero(split)
        assert np.array_equal(slots, np.arange(s.grid.horizon))
        assert np.array_equal(cs_tem.b_in[rows], s.users[0].renewable_cap)

    @pytest.mark.parametrize("windows", [
        dict(shift_windows=((1, 2), (0, 3))),
        dict(ev_windows=((1, 4), (2, 5))),
    ], ids=["shift", "plug-in"])
    def test_window_outside_horizon_raises(self, scen_2x4, windows):
        """A window slot outside the horizon is refused, not wrapped onto
        the other end of it."""
        s = dataclasses.replace(
            scen_2x4, grid=dataclasses.replace(scen_2x4.grid, **windows))
        with pytest.raises(ValueError,
                           match=r"^slot index [05] outside \[1, 4\]$"):
            build_user_constraints(s, [0, 1], Mode.TEM)

    def test_homes_objective_is_their_summed_cost(self, scen_2x4):
        """Over two homes' blocks the objective is the sum of their net
        costs."""
        s = scen_2x4
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        size = lay["peak"].stop
        p_diag, q, offset = build_user_objective(s, [0, 1], Mode.TEM)
        x = np.random.default_rng(6).uniform(0.0, 3.0, size=2 * size)
        total = 0.0
        for n in range(2):
            block = x[n * size:(n + 1) * size]
            block[lay["peak"]] = np.max(block[lay["supply_grid"]])
            block[lay["dr_reduce"]][~s.grid.dr_mask()] = 0.0
            sch = schedule_from_x(x, lay, n)
            total += combine_costs(home_cost_terms(sch, s.users[n], s.tariff),
                                   reward_terms(sch, s.prices)).net_cost
        value = 0.5 * float(x @ (p_diag * x)) + float(q @ x) + offset
        assert value == pytest.approx(total, abs=1e-9)

    def test_balance_row_count(self, scen_2x4):
        s = scen_2x4
        cs = build_user_constraints(s, [0], Mode.TEM)
        lay = user_layout(s.n_users, s.grid.horizon, Mode.TEM)
        t = s.grid.horizon
        # a balance row serves its slot's HVAC load from its grid draw
        a_eq, a_in = cs.a_eq.toarray(), cs.a_in.toarray()
        balance = (a_eq[:, lay["load_hvac"]] == 1.0) \
            & (a_eq[:, lay["supply_grid"]] == -1.0)
        rows, slots = np.nonzero(balance)
        assert np.array_equal(slots, np.arange(t))
        assert np.unique(rows).size == t
        # an epigraph row holds its slot's grid draw under the peak column
        peak = a_in[:, lay["peak"]] == -1.0
        epigraph = peak & (a_in[:, lay["supply_grid"]] == 1.0)
        rows, slots = np.nonzero(epigraph)
        assert np.array_equal(slots, np.arange(t))
        assert np.unique(rows).size == t

    @given(data=st.data(), t=st.integers(1, 12), mode=st.sampled_from(Mode))
    @settings(deadline=None, max_examples=60)
    def test_dynamics_rows_hold_on_trajectories(self, data, t, mode):
        """Thermal and battery rows vanish on the series that the
        trajectory recurrences produce, whatever the inputs."""
        arrive = data.draw(st.integers(1, t), label="arrive")
        unit = st.floats(0.05, 1.0)
        series = hnp.arrays(float, t, elements=st.floats(0.0, 10.0))
        ev = EvParams(capacity=500.0, charge_init=data.draw(st.floats(0, 50)),
                      charge_max=10.0, discharge_max=10.0,
                      eff_charge=data.draw(unit), eff_discharge=data.draw(unit),
                      w_degrade=0.1)
        z = np.zeros(t)
        u = UserScenario(
            shift_pref=z, curtail_pref=z, inflexible=z, renewable_cap=z,
            temp_out=data.draw(hnp.arrays(float, t, elements=st.floats(-10, 40))),
            temp_ref=z, temp_init=data.draw(st.floats(15, 30)), temp_lo=0.0,
            temp_hi=50.0, hvac_alpha=data.draw(unit), hvac_beta=data.draw(unit),
            w_shift=1.0, w_curtail=1.0, w_comfort=1.0, ev=ev)
        s = Scenario(
            n_users=1, grid=TimeGrid(horizon=t, shift_windows=((),),
                                     dr_window=(), ev_windows=((arrive, t),)),
            users=(u,), tariff=GridTariff(0.2, 0.8, 20.0),
            prices=TransactivePrices(feed_in=z, dr=z, trade=z), rng_seed=0)
        lay = user_layout(1, t, mode)
        window = s.grid.ev_slice(0)
        x = np.zeros(lay["peak"].stop)
        hvac, cha, dis = (data.draw(series) for _ in range(3))
        x[lay["load_hvac"]] = hvac
        x[lay["temp_in"]] = hvac_trajectory(
            hvac, u.temp_out, u.temp_init, u.hvac_alpha, u.hvac_beta)
        # slots outside the window hold junk, which no window row may read
        energy = data.draw(series)
        energy[window] = ev_trajectory(cha[window], dis[window], ev.charge_init,
                                       ev.eff_charge, ev.eff_discharge)
        x[lay["ev_energy"]] = energy
        x[lay["ev_charge"]][window] = cha[window]
        x[lay["ev_discharge"]][window] = dis[window]

        cs = build_user_constraints(s, [0], mode)
        a_eq = cs.a_eq.toarray()
        touches = {name: np.any(a_eq[:, lay[name]] != 0.0, axis=1)
                   for name in ("temp_in", "ev_energy", "ev_charge")}
        thermal = touches["temp_in"]
        battery = touches["ev_energy"] & touches["ev_charge"]
        assert thermal.sum() == t
        assert battery.sum() == t - arrive + 1
        residual = cs.a_eq @ x - cs.b_eq
        assert np.max(np.abs(residual[thermal | battery])) <= 1e-12

    def test_objective_matches_breakdown(self, scen_2x4):
        """Algebraic objective equals the schedule-level cost arithmetic."""
        s = scen_2x4
        mode = Mode.TEM
        lay = user_layout(s.n_users, s.grid.horizon, mode)
        p_diag, q, offset = build_user_objective(s, [0], mode)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 3.0, size=lay["peak"].stop)
        sp = lay["supply_grid"]
        x[lay["peak"]] = np.max(x[sp])    # epigraph tight at this point
        dr = x[lay["dr_reduce"]]
        dr[~s.grid.dr_mask()] = 0.0               # reward identity needs the window
        value = 0.5 * float(x @ (p_diag * x)) + float(q @ x) + offset
        sch = schedule_from_x(x, lay, 0)
        bd = combine_costs(home_cost_terms(sch, s.users[0], s.tariff),
                           reward_terms(sch, s.prices))
        assert value == pytest.approx(bd.net_cost, abs=1e-9)


class TestCheckSchedule:
    def _consistent(self, s, user):
        t = s.grid.horizon
        u = s.users[user]
        temp = hvac_trajectory(np.zeros(t), u.temp_out, u.temp_init,
                               u.hvac_alpha, u.hvac_beta)
        energy = np.zeros(t)
        energy[s.grid.ev_mask(user)] = u.ev.charge_init
        return _schedule(horizon=t, temp_in=temp,
                         ev_energy=energy, supply_grid=np.ones(t), peak=1.0)

    def test_clean_schedule_passes(self, scen_2x4):
        assert check_schedule(self._consistent(scen_2x4, 0), scen_2x4, 0) == []

    def test_negative_series_flagged(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        sch.load_shift = sch.load_shift - 1.0
        found = check_schedule(sch, scen_2x4, 0)
        assert any("load_shift" in m for m in found)

    def test_line_cap_flagged(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        sch.supply_grid = np.full(scen_2x4.grid.horizon,
                                  scen_2x4.tariff.line_cap + 1.0)
        sch.peak = float(sch.supply_grid.max())
        found = check_schedule(sch, scen_2x4, 0)
        assert any("line capacity" in m for m in found)

    def test_low_peak_flagged(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        sch.peak = 0.0
        found = check_schedule(sch, scen_2x4, 0)
        assert any("peak" in m for m in found)

    def test_dr_outside_window_flagged(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        outside = ~scen_2x4.grid.dr_mask()
        assert outside.any()
        sch.dr_reduce = outside.astype(float)
        found = check_schedule(sch, scen_2x4, 0)
        assert any("demand-response" in m for m in found)

    def test_ev_outside_window_flagged(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        outside = ~scen_2x4.grid.ev_mask(0)
        assert outside.any()
        sch.ev_charge = outside.astype(float)
        found = check_schedule(sch, scen_2x4, 0)
        assert any("plug-in window" in m for m in found)

    def test_capacity_flagged(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        mask = scen_2x4.grid.ev_mask(0)
        energy = np.zeros(scen_2x4.grid.horizon)
        energy[mask] = scen_2x4.users[0].ev.capacity + 5.0
        sch.ev_energy = energy
        found = check_schedule(sch, scen_2x4, 0)
        assert any("capacity" in m for m in found)

    def test_signed_export_passes(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        sch.export = np.linspace(-2.0, 2.0, scen_2x4.grid.horizon)
        assert check_schedule(sch, scen_2x4, 0) == []

    def test_inconsistent_temperature_flagged(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        sch.temp_in = sch.temp_in + 0.5
        found = check_schedule(sch, scen_2x4, 0)
        assert any("temperature" in m for m in found)

    def test_inconsistent_battery_flagged(self, scen_2x4):
        sch = self._consistent(scen_2x4, 0)
        mask = scen_2x4.grid.ev_mask(0)
        cha = np.zeros(scen_2x4.grid.horizon)
        cha[mask] = 1.0
        sch.ev_charge = cha    # energy series still flat, so inconsistent
        found = check_schedule(sch, scen_2x4, 0)
        assert any("battery series" in m for m in found)
