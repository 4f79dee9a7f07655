"""The three benchmark workloads.

Each workload builds its inputs from the seed (``build``, timed as set-up,
including one validator cluster), runs one timed pass over them on a
freshly built cluster (``timed``), checks that pass's outputs
(``check``, untimed) and, once all passes are done, runs any check that
needs a reference result (``finish``).  Every call into the library goes
through a module attribute (``tem.assemble_problem``, not a name imported
here), so the traced run's wrappers see it.

The scenario is the ``compare_modes.py`` regime: five homes, eight slots,
a wide rooftop-solar spread and cars arriving nearly full.  Its generator
seed is fixed per run (``SCENARIO_SEED`` unless ``--scenario-seed`` says
otherwise); the run seed draws the order of the homes and seeds the
network simulator.  Drawing the whole scenario from the run seed would
change the work itself three-fold from seed to seed (the joint TEM solve
takes 1.7 to 7.2 s and the distributed run 6 to 50 iterations over
generator seeds 0-24), which no bound on run-to-run spread survives.  A
reordered neighbourhood is the same optimisation problem, so every seed
does comparable work and the costs it reaches must agree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from gridledger import chain_transport, energy_model, netsim, qp, scenario, tem
from gridledger.chain import blocks, contract, node

from tracing import Tracer, maybe_span

# generator seed: the slow case in which the trade-mode polish fails
SCENARIO_SEED = 3
N_USERS = 5
HORIZON = 8
MODES = (energy_model.Mode.BS1, energy_model.Mode.BS2,
         energy_model.Mode.BS3, energy_model.Mode.TEM)
JOINT_TOL = 1e-6
ORDER_TOL = 1e-6
ZERO_SUM_TOL = 1e-8
GAP_TOL = 1e-4


@dataclass
class PassResult:
    """One timed pass: its duration, operation counts and checked outputs."""

    seconds: float
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    # values that must repeat exactly for equal inputs
    fingerprint: Dict[str, object] = field(default_factory=dict)
    # workload-specific end-to-end values of this pass
    values: Dict[str, float] = field(default_factory=dict)
    # per-operation samples of successful operations
    samples: Dict[str, List[float]] = field(default_factory=dict)
    # layer counts read from the library's own state after the pass
    layer: Dict[str, float] = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def neighbourhood(seed: int, scenario_seed: int) -> scenario.Scenario:
    """The workload scenario with its homes in the order the seed draws."""
    base = scenario.generate_synthetic(
        scenario_seed, N_USERS, HORIZON, solar_range=(0.0, 10.0),
        ev_arrival_soc=0.85)
    order = [int(i) for i in
             np.random.default_rng(seed % 2 ** 64).permutation(base.n_users)]
    grid = dataclasses.replace(
        base.grid,
        shift_windows=tuple(base.grid.shift_windows[i] for i in order),
        ev_windows=tuple(base.grid.ev_windows[i] for i in order))
    s = dataclasses.replace(base, grid=grid,
                            users=tuple(base.users[i] for i in order))
    bad = scenario.validate_scenario(s)
    if bad:
        raise scenario.ScenarioError(f"reordered scenario invalid: {bad[0]}")
    return s


def _home_costs(s: scenario.Scenario, schedules) -> List:
    return [energy_model.combine_costs(
        energy_model.home_cost_terms(sch, s.users[n], s.tariff),
        energy_model.reward_terms(sch, s.prices))
        for n, sch in enumerate(schedules)]


# ---------------------------------------------------------------------------
# joint-modes

class JointModes:
    name = "joint-modes"

    def __init__(self, seed: int, scenario_seed: int):
        self.seed = seed
        self.scenario_seed = scenario_seed
        self.s: Optional[scenario.Scenario] = None

    def build(self) -> None:
        self.s = neighbourhood(self.seed, self.scenario_seed)

    def timed(self, tracer: Optional[Tracer]):
        s = self.s
        solved = []
        with maybe_span(tracer, "bench.pass"):
            t0 = perf_counter()
            for mode in MODES:
                a = perf_counter()
                problem = tem.assemble_problem(s, mode)
                sol = qp.solve_qp(problem, tol=JOINT_TOL)
                b = perf_counter()
                layout = energy_model.user_layout(s.n_users, s.grid.horizon,
                                                  mode)
                schedules = [energy_model.schedule_from_x(sol.x, layout, n)
                             for n in range(s.n_users)]
                solved.append((mode, sol, schedules, b - a))
            seconds = perf_counter() - t0
        return seconds, solved

    def check(self, raw) -> PassResult:
        seconds, solved = raw
        s = self.s
        res = PassResult(seconds=seconds, attempted=len(solved))
        totals: Dict[energy_model.Mode, float] = {}
        bad_ops = set()
        for mode, sol, schedules, _ in solved:
            if sol.status is not qp.QpStatus.OPTIMAL \
                    or sol.kkt.worst() > JOINT_TOL:
                bad_ops.add(mode)
                res.problems.append(f"{mode.value}: status {sol.status.value}"
                                    f", kkt {sol.kkt.worst():.3e}")
            for n, sch in enumerate(schedules):
                findings = energy_model.check_schedule(sch, s, n)
                if findings:
                    bad_ops.add(mode)
                    res.problems.append(f"{mode.value} home {n}: "
                                        f"{findings[0]}")
            costs = _home_costs(s, schedules)
            totals[mode] = float(sum(c.net_cost for c in costs))
            if mode.has_horizontal:
                trade = abs(sum(c.trade_reward for c in costs))
                if trade > ZERO_SUM_TOL:
                    bad_ops.add(mode)
                    res.problems.append(f"{mode.value}: trade rewards sum "
                                        f"to {trade:.3e}")
        m = energy_model.Mode
        for lo, hi in ((m.TEM, m.BS2), (m.BS2, m.BS1), (m.TEM, m.BS3),
                       (m.BS3, m.BS1)):
            if totals[lo] > totals[hi] + ORDER_TOL:
                bad_ops.update(MODES)
                res.problems.append(f"cost ordering: {lo.value} "
                                    f"{totals[lo]:.9f} > {hi.value} "
                                    f"{totals[hi]:.9f}")
        res.failed = len(bad_ops)
        by_mode = {mode: (sol, t) for mode, sol, _, t in solved}
        res.values = {
            "joint_trade_s": by_mode[m.BS3][1] + by_mode[m.TEM][1],
            "joint_local_s": by_mode[m.BS1][1] + by_mode[m.BS2][1],
        }
        res.fingerprint = {
            "qp.solve_qp.ipm_iterations": sum(sol.iterations
                                              for sol, _ in by_mode.values()),
            "outcome_sha256": _sha(b"".join(
                np.ascontiguousarray(by_mode[md][0].x, dtype="<f8").tobytes()
                for md in MODES)),
        }
        for mode in MODES:
            res.fingerprint[f"ipm_iterations.{mode.value}"] = \
                by_mode[mode][0].iterations
            res.fingerprint[f"total_cost.{mode.value}"] = repr(totals[mode])
        return res

    def finish(self, passes: List[PassResult]) -> None:
        pass


# ---------------------------------------------------------------------------
# admm-chain

ADMM_PARAMS = tem.AdmmParams(eps=1e-6,
                             rho_schedule=tem.RhoSchedule.fixed(1.0))


class TimingTransport:
    """Delegates every transport call to a ChainTransport and times it.

    ``stamps`` holds the clock at each ``read_state`` (the start of an
    iteration) and at ``settle`` (the end of the last one).
    """

    def __init__(self, inner: chain_transport.ChainTransport,
                 tracer: Optional[Tracer]):
        self.inner = inner
        self.tracer = tracer
        self.stamps: List[float] = []
        self.step_events: List[int] = []

    def begin(self, s, params) -> None:
        with maybe_span(self.tracer, "chain_transport.begin"):
            self.inner.begin(s, params)

    def read_state(self):
        self.stamps.append(perf_counter())
        with maybe_span(self.tracer, "chain_transport.read_state"):
            return self.inner.read_state()

    def publish(self, user, iteration, trades_row) -> None:
        with maybe_span(self.tracer, "chain_transport.publish"):
            self.inner.publish(user, iteration, trades_row)

    def run_sct(self):
        before = self.inner.network.events
        with maybe_span(self.tracer, "chain_transport.run_sct"):
            state = self.inner.run_sct()
        self.step_events.append(self.inner.network.events - before)
        return state

    def digest(self) -> str:
        with maybe_span(self.tracer, "chain_transport.digest"):
            return self.inner.digest()

    def settle(self, s, outcome) -> None:
        self.stamps.append(perf_counter())
        with maybe_span(self.tracer, "chain_transport.settle"):
            self.inner.settle(s, outcome)


class AdmmChain:
    name = "admm-chain"

    def __init__(self, seed: int, scenario_seed: int):
        self.seed = seed
        self.scenario_seed = scenario_seed
        self.s: Optional[scenario.Scenario] = None

    def build(self) -> None:
        self.s = neighbourhood(self.seed, self.scenario_seed)
        self.cluster(None)

    def cluster(self, tracer: Optional[Tracer]) -> TimingTransport:
        return TimingTransport(
            chain_transport.ChainTransport(n_validators=4, seed=self.seed),
            tracer)

    def timed(self, tracer: Optional[Tracer]):
        transport = self.cluster(tracer)
        with maybe_span(tracer, "bench.pass"):
            t0 = perf_counter()
            out = tem.run_distributed(self.s, ADMM_PARAMS, transport)
            seconds = perf_counter() - t0
        return seconds, out, transport

    def check(self, raw) -> PassResult:
        seconds, out, transport = raw
        chain = transport.inner
        res = PassResult(seconds=seconds, attempted=len(out.history))
        iter_ms = np.diff(transport.stamps) * 1e3
        ok_ms = []
        for rec, ms in zip(out.history, iter_ms):
            if rec.digest_local != rec.digest_transport:
                res.failed += 1
                res.problems.append(f"iteration {rec.iteration}: transport "
                                    f"digest differs from the local mirror")
            else:
                ok_ms.append(float(ms))
        if not out.converged:
            res.failed = res.attempted
            res.problems.append(f"no convergence in {out.iterations} "
                                f"iterations")
        net = chain.network
        states = [net.states[v] for v in chain.validators if net.alive(v)]
        digests = {contract.contract_digest(st.contract) for st in states}
        if len(digests) != 1:
            res.failed = res.attempted
            res.problems.append("validators disagree on the contract state")
        ref = net.states[chain.reference]
        res.samples = {"iter_ms": ok_ms}
        res.values = {"total_cost": out.total_cost}
        res.fingerprint = {
            "admm_iterations": out.iterations,
            "netsim.events": net.events,
            "outcome_sha256": _sha(json.dumps(out.to_json_dict(),
                                              sort_keys=True).encode()),
            "contract_digest": sorted(digests)[0],
        }
        res.layer = {
            "netsim.events": net.events,
            "netsim.sends": net.counters["sends"],
            "netsim.timers": net.counters["timers"],
            "netsim.trace_len": len(net.trace),
            "chain.node.views": max(st.view for st in states),
            "blocks": len(ref.ledger),
            "chain_transport.events_per_step":
                float(np.mean(transport.step_events)),
            "chain_transport.tx_bytes":
                sum(len(b) for b in chain_transport.committed_tx_bytes(ref)),
        }
        return res

    def finish(self, passes: List[PassResult]) -> None:
        """c01: the distributed cost matches the joint TEM optimum."""
        joint = tem.solve_centralized(self.s, energy_model.Mode.TEM)
        for res in passes:
            got = res.values.get("total_cost")
            if got is None:  # the pass raised before it had a cost
                continue
            rel = abs(got - joint.total_cost) / max(1.0, abs(joint.total_cost))
            if rel > GAP_TOL:
                res.failed = res.attempted
                res.problems.append(f"distributed cost {got:.9f} is {rel:.2e}"
                                    f" from the joint {joint.total_cost:.9f}")


# ---------------------------------------------------------------------------
# consensus-crash

N_VALIDATORS = 13
HEIGHT = 1500
CRASHED, CRASH_AT_MS = 2, 50.0
OBSERVER = 0
STEP_EVENTS = 50_000
EMPTY_CONTRACT = contract.ContractConfig(
    n_users=1, horizon=1, rho_schedule=tem.RhoSchedule.fixed(1.0),
    price_feed_in=(0.0,), price_dr=(0.0,))


class ConsensusCrash:
    name = "consensus-crash"

    def __init__(self, seed: int, scenario_seed: int):
        self.seed = seed

    def build(self) -> None:
        self.cluster()

    def cluster(self) -> netsim.Network:
        validators = tuple(range(N_VALIDATORS))
        g = contract.genesis(EMPTY_CONTRACT)
        net = netsim.Network(netsim.NetConfig(latency_ms=(1.0, 10.0)),
                             seed=self.seed)
        for v in validators:
            cfg = node.NodeConfig(v, validators,
                                  mode=node.ConsensusMode.MODIFIED,
                                  produce_empty=True)
            net.add_node(v, node.new_node(cfg, g), node.handle)
            net.client_send(v, node.Start(), at_ms=0.0)
        net.crash(CRASHED, CRASH_AT_MS)
        return net

    def timed(self, tracer: Optional[Tracer]):
        # built per pass, untimed; a traced pass's nodes get the wrapped
        # handler this way
        net = self.cluster()
        commits: List[float] = []
        stalled: Optional[str] = None

        def all_live_above(n: netsim.Network) -> bool:
            return all(st.height > HEIGHT for v, st in n.states.items()
                       if n.alive(v))

        with maybe_span(tracer, "bench.pass"):
            t0 = perf_counter()
            try:
                for h in range(1, HEIGHT + 1):
                    net.run(until=lambda n, h=h: n.states[OBSERVER].height > h,
                            max_events=net.events + STEP_EVENTS)
                    commits.append(net.now)
                net.run(until=all_live_above,
                        max_events=net.events + STEP_EVENTS)
            except netsim.LivenessTimeout as e:
                stalled = f"LivenessTimeout at height {len(commits) + 1}: {e}"
            seconds = perf_counter() - t0
        return seconds, net, commits, stalled

    def check(self, raw) -> PassResult:
        seconds, net, commits, stalled = raw
        res = PassResult(seconds=seconds, attempted=HEIGHT)
        live = [st for v, st in net.states.items() if net.alive(v)]

        def agreed(h: int) -> bool:
            # every live validator holds block h; a crashed one may lag but
            # never disagrees on what it holds
            if any(len(st.ledger) < h for st in live):
                return False
            return len({blocks.block_digest(st.ledger[h - 1].block)
                        for st in net.states.values()
                        if len(st.ledger) >= h}) == 1

        failed = set(range(len(commits) + 1, HEIGHT + 1))
        if stalled:
            res.problems.append(stalled)
        split = [h for h in range(1, len(commits) + 1) if not agreed(h)]
        if split:
            failed.update(split)
            res.problems.append(f"validators disagree at {len(split)} "
                                f"heights, first {split[0]}")
        try:
            net.check_conservation()
        except AssertionError as e:
            failed.update(range(1, HEIGHT + 1))
            res.problems.append(str(e))
        res.failed = len(failed)
        gaps = np.diff(np.asarray([0.0] + commits))
        msgs = net.counters["sends"] / HEIGHT
        observer = net.states[OBSERVER]
        res.values = {"blocks_per_s": HEIGHT / seconds}
        res.samples = {"commit_sim_ms": [float(g) for g in gaps]}
        res.fingerprint = {
            "msgs_per_block": msgs,
            "commit_sim_ms": _sha(np.asarray(gaps, dtype="<f8").tobytes()),
            "stall_sim_ms": float(gaps.max()) if gaps.size else 0.0,
            "netsim.events": net.events,
            "head_digest": observer.head.hex(),
            "contract_digest": contract.contract_digest(observer.contract),
        }
        res.layer = {
            "netsim.events": net.events,
            "netsim.sends": net.counters["sends"],
            "netsim.timers": net.counters["timers"],
            "netsim.trace_len": len(net.trace),
            "chain.node.views": max(st.view for st in live),
            "blocks": len(observer.ledger),
        }
        return res

    def finish(self, passes: List[PassResult]) -> None:
        pass


WORKLOADS = {w.name: w for w in (JointModes, AdmmChain, ConsensusCrash)}

