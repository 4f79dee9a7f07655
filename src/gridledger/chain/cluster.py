"""Empty-block validator clusters on the simulated network.

Shared by every consensus measurement: start validators that produce
empty blocks over a one-home contract, run them until every live
validator has passed a height, and tally each height's traffic.  The
caller builds the ``Network`` (latency, seed, faults).  A message counts
once, when it is sent: emitted onto the wire or dropped before reaching
it.  A drop at a crashed destination was already counted at its emit,
so the tally agrees with the network's ``sends`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..netsim import Network
from ..tem import RhoSchedule
from .blocks import encode_block, encode_proof, encode_vote
from .contract import ContractConfig, genesis
from .node import (AggregatedCommit, AggregatedPrepare, CommitVote,
                   ConsensusMode, NodeConfig, PrePrepare, PrepareVote, Start,
                   handle, message_height, new_node)

__all__ = ["HeightTally", "live_above", "message_bytes", "message_height",
           "run_to_height", "start_cluster", "tally"]

_EMPTY_CONTRACT = ContractConfig(n_users=1, horizon=1,
                                 rho_schedule=RhoSchedule.fixed(1.0),
                                 price_feed_in=(0.0,), price_dr=(0.0,))


def start_cluster(net: Network, n: int, mode: ConsensusMode) -> None:
    """Add validators ``0..n-1`` to ``net`` and start them at t=0."""
    validators = tuple(range(n))
    g = genesis(_EMPTY_CONTRACT)
    for v in validators:
        net.add_node(v, new_node(NodeConfig(v, validators, mode=mode,
                                            produce_empty=True), g), handle)
        net.client_send(v, Start(), at_ms=0.0)


def live_above(net: Network, height: int) -> bool:
    """Every validator still alive has committed ``height``."""
    live = [st.height for v, st in net.states.items() if net.alive(v)]
    return bool(live) and min(live) > height


def run_to_height(net: Network, height: int) -> None:
    """Run until ``live_above(net, height)``; raises ``LivenessTimeout``."""
    net.run(until=lambda nw: live_above(nw, height),
            max_events=4000 * height + 40_000)
    net.check_conservation()


def message_bytes(msg: object) -> int:
    """Encoded size of a message that carries a height, in bytes."""
    if isinstance(msg, PrePrepare):
        return len(encode_block(msg.block))
    if isinstance(msg, (PrepareVote, CommitVote)):
        return len(encode_vote(msg.vote))
    if isinstance(msg, AggregatedPrepare):
        # height, round and block digest, then the votes
        return 8 + 8 + 32 + sum(len(encode_vote(v)) for v in msg.votes)
    if isinstance(msg, AggregatedCommit):
        return len(encode_proof(msg.proof))
    raise TypeError(f"no encoded size for {type(msg).__name__}")


@dataclass
class HeightTally:
    """One height's sends, their bytes, and first send to last delivery."""

    msgs: int
    bytes: int
    first_ms: float
    last_ms: float

    @property
    def latency_ms(self) -> float:
        return self.last_ms - self.first_ms


def tally(net: Network) -> Dict[int, HeightTally]:
    """Per-height totals over the messages in ``net.trace`` with a height;
    raises ValueError on a network that keeps no trace."""
    if not net.keep_trace:
        raise ValueError("tally reads the network trace, and this network "
                         "keeps none (made with keep_trace=False)")
    out: Dict[int, HeightTally] = {}
    for ev in net.trace:
        h = message_height(ev.payload)
        if h is None:
            continue
        t = out.setdefault(h, HeightTally(0, 0, ev.time_ms, ev.time_ms))
        if ev.kind == "emit" or (ev.kind == "drop"
                                 and ev.note != "crashed-dest"):
            t.msgs += 1
            t.bytes += message_bytes(ev.payload)
        elif ev.kind == "deliver":
            t.last_ms = ev.time_ms
    return out
