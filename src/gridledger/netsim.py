"""Deterministic discrete-event network for the validator nodes.

Nodes are plain state objects plus a handler callable; the simulator
owns every source of nondeterminism (latency draws, event order)
behind one seeded ``random.Random``.  Events are totally ordered by
``(time, seq)`` with ``seq`` assigned at scheduling time, so two runs
with the same seed produce byte-identical traces.  The trace, one
``TraceEvent`` per emit, drop, delivery and timer, is kept unless the
network is made with ``keep_trace=False``; the counters are kept either
way.

Sends from one handler invocation are emitted ``serialize_gap_ms``
apart.  A crash that lands inside that window cuts the broadcast short,
which is how the partial-commit scenarios are produced.  Every send
attempt ends up in exactly one bucket: delivered, dropped (by a crash
or a partition; links lose nothing on their own), or still in flight,
and ``check_conservation`` asserts it.  Client injections share the
delivery path, on an ideal link, and keep their own ``client*`` counters.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .chain.node import Send, SetTimer

__all__ = [
    "CLIENT",
    "LivenessTimeout",
    "NetConfig",
    "Network",
    "TraceEvent",
]

CLIENT = -1

_KIND_EMIT = 0
_KIND_DELIVER = 1
_KIND_TIMER = 2
# crash time of a node that has not crashed
_NEVER = float("inf")


@dataclass(frozen=True)
class NetConfig:
    """Link behaviour.

    ``latency_ms`` is either one number or an inclusive uniform range.
    """

    latency_ms: Union[float, Tuple[float, float]] = (1.0, 10.0)
    serialize_gap_ms: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.latency_ms, tuple):
            lo, hi = self.latency_ms
            if not 0 <= lo <= hi:
                raise ValueError("latency range must satisfy 0 <= lo <= hi")
        elif self.latency_ms < 0:
            raise ValueError("latency must be non-negative")
        if self.serialize_gap_ms < 0:
            raise ValueError("serialize_gap_ms must be non-negative")


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    time_ms: float
    kind: str
    src: int
    dst: int
    msg: str
    note: str = ""
    payload: object = None


class LivenessTimeout(RuntimeError):
    """The event budget ran out before the stop condition held."""

    def __init__(self, message: str, sim_time_ms: float, events: int,
                 counters: Dict[str, int]):
        super().__init__(message)
        self.sim_time_ms = sim_time_ms
        self.events = events
        self.counters = dict(counters)


Handler = Callable[[object, int, object, float], List[object]]


@dataclass
class _Partition:
    start_ms: float
    end_ms: float
    groups: Tuple[frozenset, ...]


class Network:
    def __init__(self, config: NetConfig = NetConfig(), seed: int = 0,
                 keep_trace: bool = True):
        self.config = config
        self.rng = random.Random(seed)
        self.states: Dict[int, object] = {}
        self.handlers: Dict[int, Handler] = {}
        self.keep_trace = keep_trace
        self.trace: List[TraceEvent] = []
        self.counters: Dict[str, int] = {
            "sends": 0, "delivers": 0, "drops": 0, "timers": 0,
            "client": 0, "client_delivers": 0, "client_drops": 0}
        self.now = 0.0
        self.events = 0
        self._heap: List[tuple] = []
        self._seq = 0
        self._crash_time: Dict[int, float] = {}
        self._partitions: List[_Partition] = []

    # -- topology -----------------------------------------------------------

    def add_node(self, node_id: int, state: object, handler: Handler) -> None:
        if node_id in self.states:
            raise ValueError(f"duplicate node {node_id}")
        if node_id == CLIENT:
            raise ValueError("node id reserved for the client")
        self.states[node_id] = state
        self.handlers[node_id] = handler

    def alive(self, node_id: int, at_ms: Optional[float] = None) -> bool:
        t = self.now if at_ms is None else at_ms
        return self._crash_time.get(node_id, _NEVER) > t

    def crash(self, node_id: int, at_ms: float) -> None:
        if node_id not in self.states:
            raise ValueError(f"unknown node {node_id}")
        prev = self._crash_time.get(node_id, _NEVER)
        self._crash_time[node_id] = min(prev, at_ms)

    def partition(self, groups: Sequence[Sequence[int]], start_ms: float,
                  end_ms: float) -> None:
        self._partitions.append(_Partition(
            start_ms, end_ms, tuple(frozenset(g) for g in groups)))

    def _cut(self, src: int, dst: int, at_ms: float) -> bool:
        for p in self._partitions:
            if not p.start_ms <= at_ms < p.end_ms:
                continue
            gs = gd = None
            for i, g in enumerate(p.groups):
                if src in g:
                    gs = i
                if dst in g:
                    gd = i
            if gs is not None and gd is not None and gs != gd:
                return True
        return False

    # -- scheduling ---------------------------------------------------------

    def _push(self, time_ms: float, kind: int, a: int, b: int,
              msg: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_ms, self._seq, kind, a, b, msg))

    def _record(self, kind: str, src: int, dst: int, msg: object,
                note: str = "") -> None:
        self._seq += 1
        if self.keep_trace:
            self.trace.append(TraceEvent(self._seq, self.now, kind, src, dst,
                                         type(msg).__name__, note, msg))

    def client_send(self, dest: int, msg: object, at_ms: float = 0.0) -> None:
        """Inject a message on an ideal link from outside the validator set."""
        if dest not in self.states:
            raise ValueError(f"unknown node {dest}")
        self._push(at_ms, _KIND_DELIVER, CLIENT, dest, msg)
        self.counters["client"] += 1

    def _latency(self) -> float:
        lat = self.config.latency_ms
        if isinstance(lat, tuple):
            return self.rng.uniform(lat[0], lat[1])
        return float(lat)

    def _emit(self, src: int, dst: int, msg: object) -> None:
        self.counters["sends"] += 1
        self.counters[f"sent:{type(msg).__name__}"] = \
            self.counters.get(f"sent:{type(msg).__name__}", 0) + 1
        if not self.alive(src):
            self._drop(src, dst, msg, "crashed-src")
            return
        if self._cut(src, dst, self.now):
            self._drop(src, dst, msg, "partitioned")
            return
        self._record("emit", src, dst, msg)
        self._push(self.now + self._latency(), _KIND_DELIVER, src, dst, msg)

    def _drop(self, src: int, dst: int, msg: object, reason: str) -> None:
        key = "client_drops" if src == CLIENT else "drops"
        self.counters[key] += 1
        self.counters[f"drop:{reason}"] = \
            self.counters.get(f"drop:{reason}", 0) + 1
        self._record("drop", src, dst, msg, reason)

    def _deliver(self, src: int, dst: int, msg: object) -> None:
        if not self.alive(dst):
            self._drop(src, dst, msg, "crashed-dest")
            return
        if src == CLIENT:
            self.counters["client_delivers"] += 1
        else:
            self.counters["delivers"] += 1
        self._record("deliver", src, dst, msg)
        actions = self.handlers[dst](self.states[dst], src, msg, self.now)
        self._apply_actions(dst, actions)

    def _apply_actions(self, node_id: int, actions: Sequence[object]) -> None:
        lane = 0
        for act in actions:
            if isinstance(act, Send):
                if act.dest not in self.states:
                    raise ValueError(f"send to unknown node {act.dest}")
                at = self.now + lane * self.config.serialize_gap_ms
                lane += 1
                self._push(at, _KIND_EMIT, node_id, act.dest, act.msg)
            elif isinstance(act, SetTimer):
                self.counters["timers"] += 1
                self._push(self.now + act.delay_ms, _KIND_TIMER, node_id,
                           node_id, act.msg)
            else:
                raise TypeError(f"unknown action {type(act).__name__}")

    def _fire_timer(self, node_id: int, msg: object) -> None:
        if not self.alive(node_id):
            return
        self._record("timer", node_id, node_id, msg)
        actions = self.handlers[node_id](self.states[node_id], node_id, msg,
                                         self.now)
        self._apply_actions(node_id, actions)

    # -- execution ----------------------------------------------------------

    def _on_wire(self, client: bool) -> int:
        return sum(1 for e in self._heap
                   if e[2] == _KIND_DELIVER and (e[3] == CLIENT) == client)

    def in_flight(self) -> int:
        """Validator messages on the wire: sent but not yet delivered."""
        return self._on_wire(False)

    def check_conservation(self) -> None:
        """Every send attempt is delivered, dropped, or still on the wire,
        and so is every client injection.

        Queued outbox entries are not send attempts yet, so they sit
        outside the identity.
        """
        for client, keys, text in (
                (False, ("sends", "delivers", "drops"), "conservation "
                 "violated: sends={} delivers={} drops={} in_flight={}"),
                (True, ("client", "client_delivers", "client_drops"),
                 "client conservation violated: injected={} delivered={} "
                 "dropped={} in_flight={}")):
            sent, delivered, dropped = (self.counters[k] for k in keys)
            wire = self._on_wire(client)
            if sent != delivered + dropped + wire:
                raise AssertionError(text.format(sent, delivered, dropped,
                                                 wire))

    def run(self, *, until: Optional[Callable[["Network"], bool]] = None,
            until_ms: Optional[float] = None,
            max_events: int = 200_000) -> None:
        """Process events until the predicate holds or time/budget runs out.

        Raises ``LivenessTimeout`` if the budget is exhausted while a
        predicate is still false.
        """
        while self._heap:
            if until is not None and until(self):
                return
            if self.events >= max_events:
                raise LivenessTimeout(
                    f"event budget {max_events} exhausted",
                    self.now, self.events, self.counters)
            entry = self._heap[0]
            if until_ms is not None and entry[0] > until_ms:
                self.now = until_ms
                if until is not None:
                    raise LivenessTimeout(
                        f"no progress by t={until_ms}ms",
                        self.now, self.events, self.counters)
                return
            heapq.heappop(self._heap)
            time_ms, _, kind, a, b, msg = entry
            self.now = max(self.now, time_ms)
            self.events += 1
            if kind == _KIND_EMIT:
                self._emit(a, b, msg)
            elif kind == _KIND_DELIVER:
                self._deliver(a, b, msg)
            else:
                self._fire_timer(a, msg)
        if until is not None and not until(self):
            raise LivenessTimeout("event queue drained without progress",
                                  self.now, self.events, self.counters)
