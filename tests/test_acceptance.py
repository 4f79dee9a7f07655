"""Release gates: one test per attainment target, at its stated tolerance.

Every test prints a single summary line with the measured margin once its
assertions hold, so a verbose run reads as a pass/fail checklist.  The
scenario battery and the replicated run are built once per module; the
consensus gates build their own clusters.
"""

import dataclasses
import random
import struct
import time
from typing import Dict, List, Tuple

import numpy as np
import pytest

from gridledger.chain import (
    ConsensusMode,
    HorizontalTrade,
    SctCompute,
    VerticalTrade,
    block_digest,
    decode_tx,
)
from gridledger.chain.cluster import (
    live_above,
    run_to_height,
    start_cluster,
    tally,
)
from gridledger.chain_transport import (
    ChainTransport,
    committed_tx_bytes,
)
from gridledger.energy_model import (
    Mode,
    ev_trajectory,
    hvac_trajectory,
)
from gridledger.netsim import LivenessTimeout, NetConfig, Network
from gridledger.qp import (
    QpProblem,
    QpStatus,
    solve_qp,
)
from gridledger.scenario import Scenario, generate_synthetic
from gridledger.tem import (
    AdmmParams,
    Outcome,
    RhoSchedule,
    run_distributed,
    sct_step_pairwise,
    solve_centralized,
)
from tests.test_qp import BATTERY_CASES, grid_oracle, make_cs


def _report(text: str) -> None:
    print(f"PASS {text}")


# ---------------------------------------------------------------------------
# scenario battery shared by the optimization gates

@dataclasses.dataclass
class BatteryEntry:
    scenario: Scenario
    by_mode: Dict[Mode, Outcome]
    distributed: Outcome
    distributed_seconds: float


@pytest.fixture(scope="module")
def battery() -> List[BatteryEntry]:
    entries = []
    for i, (n, t) in enumerate(BATTERY_CASES):
        s = generate_synthetic(seed=10 + i, n_users=n, horizon=t)
        by_mode = {m: solve_centralized(s, m) for m in Mode}
        t0 = time.perf_counter()
        dist = run_distributed(s, AdmmParams(
            eps=1e-6, max_iter=2000, rho_schedule=RhoSchedule.fixed(1.0)))
        dt = time.perf_counter() - t0
        entries.append(BatteryEntry(s, by_mode, dist, dt))
    return entries


def test_c01_distributed_matches_centralized(battery):
    assert len(battery) >= 5
    assert {e.scenario.n_users for e in battery} == {2, 3, 5}
    assert {e.scenario.grid.horizon for e in battery} == {4, 8, 24}
    worst_rel, worst_s = 0.0, 0.0
    for e in battery:
        ref = e.by_mode[Mode.TEM].total_cost
        rel = abs(e.distributed.total_cost - ref) / max(1.0, abs(ref))
        assert e.distributed.converged
        assert rel <= 1e-4, (e.scenario.n_users, e.scenario.grid.horizon, rel)
        assert e.distributed_seconds < 60.0
        worst_rel = max(worst_rel, rel)
        worst_s = max(worst_s, e.distributed_seconds)
    _report(f"01 distributed vs centralized: {len(battery)} scenarios, "
            f"worst rel gap {worst_rel:.2e} (<=1e-4), "
            f"slowest {worst_s:.1f}s (<60s)")


def test_c02_coordination_step_closed_form():
    rng = np.random.default_rng(2024)
    worst_analytic, worst_parabola = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        t = int(rng.integers(1, 11))
        rho = float(rng.uniform(0.2, 5.0))
        e = rng.uniform(-3.0, 3.0, size=(n, n, t))
        lam = rng.uniform(-3.0, 3.0, size=(n, n, t))
        for i in range(n):
            e[i, i] = 0.0
            lam[i, i] = 0.0
        aux, lam_out = sct_step_pairwise(e, lam, rho)

        # the cleared matrix must be antisymmetric with no tolerance at all
        assert np.array_equal(aux, -aux.transpose(1, 0, 2))
        assert not aux.diagonal().any()

        e_t = e.transpose(1, 0, 2)
        lam_t = lam.transpose(1, 0, 2)
        stationary = (rho * (e - e_t) - (lam - lam_t)) / (2.0 * rho)
        gap = float(np.max(np.abs(aux - stationary)))
        assert gap <= 1e-12
        worst_analytic = max(worst_analytic, gap)

        # independent cross-check: vertex of the pairwise objective sampled
        # at three points, exact for quadratics
        iu = np.triu_indices(n, k=1)
        e_up, e_dn = e[iu], e_t[iu]
        l_up, l_dn = lam[iu], lam_t[iu]

        def f(x: float) -> np.ndarray:
            return (0.5 * rho * ((x - e_up) ** 2 + (-x - e_dn) ** 2)
                    + l_up * (x - e_up) + l_dn * (-x - e_dn))

        fm, f0, fp = f(-1.0), f(0.0), f(1.0)
        vertex = (fm - fp) / (2.0 * (fm - 2.0 * f0 + fp))
        gap2 = float(np.max(np.abs(aux[iu] - vertex)))
        assert gap2 <= 1e-9
        worst_parabola = max(worst_parabola, gap2)

        # the dual update is the standard ascent step on the cleared values
        lam_next = lam + rho * (aux - e)
        assert float(np.max(np.abs(lam_out - lam_next))) <= 1e-12
    _report(f"02 coordination closed form: 1000 states, worst analytic gap "
            f"{worst_analytic:.2e} (<=1e-12), parabola cross-check "
            f"{worst_parabola:.2e} (<=1e-9), antisymmetry exact")


def test_c03_mode_cost_ordering(battery):
    tol = 1e-6
    for e in battery:
        c = {m: e.by_mode[m].total_cost for m in Mode}
        key = (e.scenario.n_users, e.scenario.grid.horizon)
        assert c[Mode.TEM] <= c[Mode.BS2] + tol, key
        assert c[Mode.BS2] <= c[Mode.BS1] + tol, key
        assert c[Mode.TEM] <= c[Mode.BS3] + tol, key
        assert c[Mode.BS3] <= c[Mode.BS1] + tol, key
    _report(f"03 mode ordering TEM <= BS2,BS3 <= BS1 on {len(battery)} "
            f"scenarios at 1e-6")


def test_c04_trading_is_zero_sum(battery):
    worst = 0.0
    for e in battery:
        for out in (e.by_mode[Mode.TEM], e.by_mode[Mode.BS3], e.distributed):
            total = abs(sum(c.trade_reward for c in out.costs))
            assert total <= 1e-8, (out.mode, total)
            worst = max(worst, total)
    _report(f"04 zero-sum trading: worst |sum of trade revenues| "
            f"{worst:.2e} (<=1e-8)")


# ---------------------------------------------------------------------------
# solver soundness against exhaustive search

def _box_problem(n: int, seed: int) -> QpProblem:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    p = np.diag(m @ m.T) + 0.05
    q = rng.normal(size=n)
    lo = rng.uniform(-3.0, -1.0, size=n)
    hi = rng.uniform(1.0, 3.0, size=n)
    a_in, b_in = None, None
    # the cut is the only coupling between variables, since P is diagonal
    if n >= 2:
        a = rng.normal(size=(1, n))
        # keep the cut through the middle of the box so the grid stays rich
        b_in = np.array([float(a[0] @ ((lo + hi) / 2.0)) + 0.5])
        a_in = a
    return QpProblem(p=p, q=q, constraints=make_cs(
        n, a_in=a_in, b_in=b_in, lo=lo, hi=hi))


def test_c05_qp_beats_grid_oracle():
    checked = 0
    worst_kkt, worst_margin = 0.0, -np.inf
    plans = [(1, s) for s in range(6)]
    plans += [(2, s) for s in range(6)]
    plans += [(3, s) for s in range(4)]
    for n, seed in plans:
        prob = _box_problem(n, seed)
        sol = solve_qp(prob, tol=1e-8)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.kkt.worst() <= 1e-8
        ref = grid_oracle(prob, resolution=201)
        assert ref is not None
        assert sol.value <= ref.value + 1e-9, (n, seed)
        checked += 1
        worst_kkt = max(worst_kkt, sol.kkt.worst())
        worst_margin = max(worst_margin, sol.value - ref.value)
    assert checked == 16
    _report(f"05 qp vs grid oracle: {checked} fixtures (dims 1-3, "
            f"resolution 201), worst KKT {worst_kkt:.2e} (<=1e-8), "
            f"solver-minus-oracle {worst_margin:.2e} (<=1e-9)")


def test_c06_dynamics_conservation(battery):
    # residual kind -> (worst value, the outcome, size and home it came from)
    worst = {k: (0.0, "") for k in ("hvac", "ev", "terminal", "peak")}

    def note(kind: str, value: float, where: str) -> None:
        if value > worst[kind][0]:
            worst[kind] = (value, where)

    for e in battery:
        s = e.scenario
        outs = [(m.value, e.by_mode[m]) for m in Mode] \
            + [("distributed", e.distributed)]
        for label, out in outs:
            for u, sch in enumerate(out.schedules):
                where = (f"{label} N={s.n_users} T={s.grid.horizon} "
                         f"home {u}")
                usr = s.users[u]
                temp = hvac_trajectory(sch.load_hvac, usr.temp_out,
                                       usr.temp_init, usr.hvac_alpha,
                                       usr.hvac_beta)
                note("hvac", float(np.max(np.abs(temp - sch.temp_in))), where)
                w = s.grid.ev_slice(u)
                ev = ev_trajectory(sch.ev_charge[w], sch.ev_discharge[w],
                                   usr.ev.charge_init, usr.ev.eff_charge,
                                   usr.ev.eff_discharge)
                note("ev", float(np.max(np.abs(ev - sch.ev_energy[w]))), where)
                note("terminal", abs(float(sch.ev_energy[w][-1])
                                     - usr.ev.capacity), where)
                note("peak", abs(sch.peak - float(np.max(sch.supply_grid))),
                     where)
    for name, (value, where) in worst.items():
        assert value <= 1e-9, f"{name} residual {value:.3e} > 1e-9 at {where}"
    _report("06 dynamics conservation: worst residuals "
            + ", ".join(f"{k} {v:.2e}" for k, (v, _) in worst.items())
            + " (all <=1e-9)")


# ---------------------------------------------------------------------------
# consensus gates

def _ledger_prefixes_agree(net: Network) -> None:
    ledgers = [st.ledger for st in net.states.values()]
    for i in range(len(ledgers)):
        for j in range(i + 1, len(ledgers)):
            depth = min(len(ledgers[i]), len(ledgers[j]))
            for h in range(depth):
                assert (block_digest(ledgers[i][h].block)
                        == block_digest(ledgers[j][h].block)), (i, j, h)


def _crash_run(seed: int) -> Tuple[int, bool]:
    rng = random.Random(seed)
    net = Network(NetConfig(latency_ms=(1.0, 10.0), serialize_gap_ms=0.01),
                  seed=seed)
    start_cluster(net, 4, ConsensusMode.MODIFIED)
    n_crashes = rng.randint(0, 2)
    for v in rng.sample(range(4), n_crashes):
        net.crash(v, rng.uniform(0.0, 200.0))

    reached = True
    try:
        net.run(until=lambda nw: live_above(nw, 10), until_ms=20_000.0,
                max_events=400_000)
    except LivenessTimeout:
        reached = False
    net.check_conservation()
    _ledger_prefixes_agree(net)
    return n_crashes, reached


def test_c07_consensus_safety_under_crashes():
    by_crashes = {0: 0, 1: 0, 2: 0}
    for seed in range(200):
        n_crashes, reached = _crash_run(seed)
        by_crashes[n_crashes] += 1
        if n_crashes <= 1:
            assert reached, f"seed {seed} stalled with {n_crashes} crash(es)"
    assert by_crashes[2] > 0 and by_crashes[0] + by_crashes[1] > 0
    _report(f"07 consensus safety: 200 seeded runs (crashes {by_crashes}), "
            f"no conflicting commits, height 10 reached whenever <=1 crashed")


def test_c08_message_complexity():
    blocks = 4
    ratios = []
    for n in (4, 7, 10, 13):
        per = {}
        for mode in ConsensusMode:
            net = Network(NetConfig(latency_ms=(0.5, 2.0)), seed=5)
            start_cluster(net, n, mode)
            run_to_height(net, blocks)
            per[mode] = {h: t.msgs for h, t in tally(net).items()
                         if 1 <= h <= blocks}
        per_mod = per[ConsensusMode.MODIFIED]
        per_cls = per[ConsensusMode.CLASSIC]
        assert per_mod == {h: 5 * (n - 1) for h in range(1, blocks + 1)}, n
        for h in range(1, blocks + 1):
            assert per_cls[h] >= 2 * n * (n - 1), (n, h, per_cls[h])
        ratios.append(sum(per_mod.values()) / sum(per_cls.values()))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    _report("08 message complexity: per-height counts exactly 5(n-1) "
            "aggregated vs >=2n(n-1) all-to-all for n in (4,7,10,13); "
            "ratio shrinks " + " > ".join(f"{r:.3f}" for r in ratios))


# ---------------------------------------------------------------------------
# replicated transport gates

@pytest.fixture(scope="module")
def chain_run():
    s = generate_synthetic(seed=2, n_users=3, horizon=8)
    params = AdmmParams(eps=1e-6, max_iter=500,
                        rho_schedule=RhoSchedule.fixed(1.0))
    chain = ChainTransport(n_validators=4, seed=7)
    via_chain = run_distributed(s, params, chain)
    via_local = run_distributed(s, params)
    return s, chain, via_chain, via_local


def test_c09_transport_equivalence(chain_run):
    _, _, via_chain, via_local = chain_run
    assert via_chain.converged and via_local.converged
    assert via_chain.iterations == via_local.iterations > 0
    worst = 0.0
    fields = ("load_hvac", "load_shift", "load_curtail", "supply_grid",
              "supply_renewable", "ev_charge", "ev_discharge", "ev_energy",
              "temp_in", "feed_in", "dr_reduce", "export")
    for a, b in zip(via_chain.schedules, via_local.schedules):
        for name in fields:
            diff = float(np.max(np.abs(getattr(a, name) - getattr(b, name)),
                                initial=0.0))
            assert diff <= 1e-9, name
            worst = max(worst, diff)
    for rec_c, rec_l in zip(via_chain.history, via_local.history):
        assert rec_c.digest_local == rec_c.digest_transport
        assert rec_c.digest_transport == rec_l.digest_transport
    _report(f"09 transport equivalence: {via_chain.iterations} iterations, "
            f"worst schedule gap {worst:.2e} (<=1e-9), replicated digest "
            f"matches the local mirror at every iteration")


def _private_floats(s: Scenario) -> List[float]:
    vals: List[float] = []
    for u in s.users:
        for arr in (u.shift_pref, u.curtail_pref, u.inflexible,
                    u.renewable_cap, u.temp_out, u.temp_ref):
            vals.extend(float(v) for v in arr)
        vals.extend((u.temp_init, u.temp_lo, u.temp_hi, u.hvac_alpha,
                     u.hvac_beta, u.w_shift, u.w_curtail, u.w_comfort))
        ev = u.ev
        vals.extend((ev.capacity, ev.charge_init, ev.charge_max,
                     ev.discharge_max, ev.eff_charge, ev.eff_discharge,
                     ev.w_degrade))
    return vals


def test_c10_privacy_boundary(chain_run):
    s, chain, _, _ = chain_run
    raw = committed_tx_bytes(chain._ref())
    assert raw
    allowed = {
        HorizontalTrade: {"user", "iteration", "export"},
        SctCompute: {"iteration"},
        VerticalTrade: {"user", "feed_in", "dr_reduce"},
    }
    for blob in raw:
        payload = decode_tx(blob).payload
        names = {f.name for f in dataclasses.fields(payload)}
        assert type(payload) in allowed, type(payload)
        assert names == allowed[type(payload)]

    public = {float(v) for arr in (s.prices.feed_in, s.prices.dr,
                                   s.prices.trade) for v in arr}
    public |= {s.tariff.price_energy, s.tariff.price_peak, s.tariff.line_cap,
               0.0, 1.0, -1.0}
    patterns = {struct.pack("<d", v) for v in _private_floats(s)
                if v not in public}
    assert len(patterns) > 50
    wire = b"".join(raw)
    leaked = [p for p in patterns if wire.find(p) != -1]
    assert not leaked
    _report(f"10 privacy boundary: {len(raw)} committed transactions carry "
            f"only trade/coordination/settlement fields; none of the "
            f"{len(patterns)} private input values appears on the wire")


def test_c11_reciprocal_rho_budget():
    iters = {}
    for n in (5, 10):
        s = generate_synthetic(seed=40 + n, n_users=n, horizon=8)
        out = run_distributed(s, AdmmParams(
            eps=1e-6, max_iter=500, rho_schedule=RhoSchedule.reciprocal()))
        assert out.converged
        assert out.iterations <= 500
        iters[n] = out.iterations
    _report(f"11 reciprocal rho budget: converged at eps=1e-6 in "
            f"{iters[5]} iterations (N=5) and {iters[10]} (N=10), "
            f"both <=500")
