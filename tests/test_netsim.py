"""Event simulator tests: determinism, drop accounting, faults, budgets."""

import pytest

from gridledger.chain import Send, SetTimer
from gridledger.netsim import (
    CLIENT,
    LivenessTimeout,
    NetConfig,
    Network,
)


def flood_handler(state, src, msg, now):
    state["got"].append((src, msg, now))
    if isinstance(msg, int) and msg > 0:
        return [Send(d, msg - 1) for d in state["peers"]]
    return []


def build_flood(n=3, config=None, seed=0, **kwargs):
    net = Network(config or NetConfig(latency_ms=(1.0, 10.0)), seed=seed,
                  **kwargs)
    for i in range(n):
        peers = [j for j in range(n) if j != i]
        net.add_node(i, {"peers": peers, "got": []}, flood_handler)
    return net


def trace_tuples(net):
    return [(e.time_ms, e.kind, e.src, e.dst, e.msg, e.note)
            for e in net.trace]


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        runs = []
        for _ in range(2):
            net = build_flood(seed=42)
            net.client_send(0, 3)
            net.run()
            runs.append(trace_tuples(net))
        assert runs[0] == runs[1]
        assert len(runs[0]) > 10

    def test_different_seed_differs(self):
        traces = []
        for seed in (1, 2):
            net = build_flood(seed=seed)
            net.client_send(0, 2)
            net.run()
            traces.append(trace_tuples(net))
        assert traces[0] != traces[1]

    def test_trace_kept_by_default_and_optional(self):
        kept, bare = build_flood(seed=42), build_flood(seed=42,
                                                       keep_trace=False)
        for net in (kept, bare):
            net.client_send(0, 3)
            net.run()
        # no timer and no crash: every event leaves one trace event
        assert len(kept.trace) == kept.events > 10
        assert bare.trace == []
        assert (bare.events, bare.counters, bare.now) == \
            (kept.events, kept.counters, kept.now)
        assert [st["got"] for st in bare.states.values()] == \
            [st["got"] for st in kept.states.values()]

    def test_fixed_latency_is_exact(self):
        net = build_flood(config=NetConfig(latency_ms=2.5))
        net.client_send(0, 1)
        net.run()
        delivers = [e for e in net.trace if e.kind == "deliver" and e.src != CLIENT]
        assert delivers and all(e.time_ms == 2.5 for e in delivers)


class TestConservation:
    def test_mid_run_conservation_counts_in_flight(self):
        net = build_flood(config=NetConfig(latency_ms=50.0))
        net.client_send(0, 1)
        net.run(until_ms=10.0)    # sends emitted, deliveries still queued
        assert net.in_flight() == 2
        net.check_conservation()

    def test_client_ledger_separate(self):
        net = build_flood()
        net.client_send(0, 0, at_ms=3.0)
        net.run()
        c = net.counters
        assert c["client"] == c["client_delivers"] == 1
        assert c["sends"] == 0
        deliver = [e for e in net.trace if e.kind == "deliver"][0]
        assert deliver.src == CLIENT
        assert deliver.time_ms == 3.0    # ideal link, no latency draw


class TestFaults:
    def test_crashed_destination_drops(self):
        net = build_flood(config=NetConfig(latency_ms=5.0))
        net.crash(1, at_ms=2.0)
        net.client_send(0, 1)    # sends to 1 and 2 at t=0, arriving t=5
        net.run()
        net.check_conservation()
        assert net.counters["drop:crashed-dest"] == 1
        assert net.counters["delivers"] == 1

    def test_crash_mid_broadcast_cuts_serialization_window(self):
        def spray(state, src, msg, now):
            return [Send(d, "payload") for d in (1, 2, 3)]

        net = Network(NetConfig(latency_ms=1.0, serialize_gap_ms=5.0))
        net.add_node(0, {}, spray)
        for i in (1, 2, 3):
            net.add_node(i, {"got": [], "peers": []}, flood_handler)
        net.client_send(0, "go", at_ms=1.0)    # emits at t = 1, 6, 11
        net.crash(0, at_ms=8.0)
        net.run()
        net.check_conservation()
        assert net.counters["delivers"] == 2
        assert net.counters["drop:crashed-src"] == 1

    def test_partition_blocks_across_groups_only(self):
        net = build_flood(config=NetConfig(latency_ms=1.0))
        net.partition([[0, 1], [2]], start_ms=0.0, end_ms=100.0)
        net.client_send(0, 1)
        net.run()
        net.check_conservation()
        assert net.counters["drop:partitioned"] == 1
        got = [e for e in net.trace if e.kind == "deliver" and e.dst == 1
               and e.src == 0]
        assert got

    def test_partition_heals(self):
        net = build_flood(config=NetConfig(latency_ms=1.0))
        net.partition([[0], [1, 2]], start_ms=0.0, end_ms=50.0)
        net.client_send(0, 1, at_ms=60.0)    # after the cut ends
        net.run()
        assert net.counters.get("drop:partitioned", 0) == 0
        assert net.counters["delivers"] == 2

    def test_crash_keeps_earliest_time(self):
        net = build_flood()
        net.crash(0, at_ms=50.0)
        net.crash(0, at_ms=80.0)
        assert not net.alive(0, at_ms=60.0)

    def test_crashed_timer_never_fires(self):
        def arm(state, src, msg, now):
            if msg == "arm":
                return [SetTimer(10.0, "tick")]
            state["ticks"] = state.get("ticks", 0) + 1
            return []

        net = Network(NetConfig(latency_ms=1.0))
        state = {}
        net.add_node(0, state, arm)
        net.client_send(0, "arm")
        net.crash(0, at_ms=5.0)
        net.run()
        assert net.counters["timers"] == 1    # armed, never fired
        assert state.get("ticks", 0) == 0


class TestTimers:
    def test_timer_fires_after_delay(self):
        seen = []

        def arm(state, src, msg, now):
            if msg == "arm":
                return [SetTimer(7.5, "tick")]
            seen.append(now)
            return []

        net = Network(NetConfig(latency_ms=1.0))
        net.add_node(0, {}, arm)
        net.client_send(0, "arm", at_ms=2.0)
        net.run()
        assert seen == [9.5]


class TestRunControl:
    def test_until_predicate_stops_early(self):
        net = build_flood(config=NetConfig(latency_ms=1.0))
        net.client_send(0, 10)
        net.run(until=lambda n: n.counters["delivers"] >= 4)
        assert net.counters["delivers"] >= 4
        assert net._heap    # work left undone, as requested

    def test_until_ms_without_predicate_returns(self):
        net = build_flood(config=NetConfig(latency_ms=10.0))
        net.client_send(0, 3)
        net.run(until_ms=5.0)
        assert net.now == 5.0

    def test_until_ms_with_unmet_predicate_raises(self):
        # deliveries sit beyond the deadline, so the clock hits it first
        net = build_flood(config=NetConfig(latency_ms=50.0))
        net.client_send(0, 1)
        with pytest.raises(LivenessTimeout) as info:
            net.run(until=lambda n: False, until_ms=30.0)
        assert info.value.sim_time_ms == 30.0
        assert info.value.counters["sends"] == 2

    def test_drained_queue_with_false_predicate_raises(self):
        net = build_flood(config=NetConfig(latency_ms=1.0))
        net.client_send(0, 1)
        with pytest.raises(LivenessTimeout, match="drained"):
            net.run(until=lambda n: False)

    def test_event_budget_raises_without_losing_messages(self):
        net = build_flood(config=NetConfig(latency_ms=1.0))
        net.client_send(0, 50)
        with pytest.raises(LivenessTimeout, match="budget"):
            net.run(until=lambda n: False, max_events=20)
        net.check_conservation()    # the unprocessed event is still pending


class TestValidation:
    def test_config_guards(self):
        with pytest.raises(ValueError):
            NetConfig(latency_ms=-1.0)
        with pytest.raises(ValueError):
            NetConfig(latency_ms=(5.0, 1.0))
        with pytest.raises(ValueError):
            NetConfig(serialize_gap_ms=-0.1)

    def test_topology_guards(self):
        net = Network()
        net.add_node(0, {}, lambda *a: [])
        with pytest.raises(ValueError, match="duplicate"):
            net.add_node(0, {}, lambda *a: [])
        with pytest.raises(ValueError, match="reserved"):
            net.add_node(CLIENT, {}, lambda *a: [])
        with pytest.raises(ValueError, match="unknown"):
            net.crash(9, at_ms=1.0)
        with pytest.raises(ValueError, match="unknown"):
            net.client_send(9, "x")
