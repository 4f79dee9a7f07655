"""Coordination transport backed by the replicated contract.

Implements the transport interface of ``tem.run_distributed``: every
publish becomes a signed transaction carrying one home's net export per
slot, submitted at once; the coordination step is a transaction executed
by the contract on all validators, and reads come back from a reference
validator's committed state.  An iteration's submissions all reach the
validators in one instant, and the leader proposes only after that
instant, so each coordination step commits as one block: the homes'
trades, then the step, since blocks order transactions by sender and
``COORDINATOR`` sorts after every home.  The step can never run ahead of
the trades it settles.  The settlement commits as one more block.

The contract stores each home's export as its pending export and runs
the same coordination-step code as the local mirror, so the two states,
five (N, T) arrays each, stay bitwise identical and their digests can
be compared per iteration.  Reads copy those arrays from the reference
validator.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .chain.blocks import (HorizontalTrade, MockSigner, SctCompute, SignedTx,
                           VerticalTrade, encode_tx, sign_tx)
from .chain.contract import (COORDINATOR, ContractConfig, contract_digest,
                             genesis)
from .chain.node import (NodeConfig, NodeState, Start, SubmitTx, handle,
                         new_node)
from .netsim import NetConfig, Network
from .scenario import Scenario
# dual_state_digest is not called here; perfbench's tracer wraps this name
from .tem import AdmmParams, DualState, Outcome, dual_state_digest

__all__ = [
    "COORDINATOR",
    "ChainTransport",
    "committed_tx_bytes",
]

# event budget for one coordination step or the settlement to commit
_EVENTS_PER_STEP = 50_000


def committed_tx_bytes(state: NodeState) -> List[bytes]:
    """Canonical bytes of every transaction in a validator's ledger."""
    out: List[bytes] = []
    for committed in state.ledger:
        for tx in committed.block.txs:
            out.append(encode_tx(tx))
    return out


class ChainTransport:
    """Runs the coordination state as a replicated contract."""

    # the validator reads come from while it is live
    reference = 0

    def __init__(self, n_validators: int = 4, seed: int = 0):
        if n_validators < 4:
            raise ValueError("need at least 4 validators to survive a fault")
        self.validators = tuple(range(n_validators))
        self.seed = seed
        self.network: Optional[Network] = None
        self._nonces: Dict[int, int] = {}
        self._iteration = 0

    # -- helpers ------------------------------------------------------------

    def _next_nonce(self, sender: int) -> int:
        nxt = self._nonces.get(sender, 0) + 1
        self._nonces[sender] = nxt
        return nxt

    def _node(self, validator: int) -> NodeState:
        assert self.network is not None
        return self.network.states[validator]  # type: ignore[return-value]

    def _live(self) -> List[int]:
        assert self.network is not None
        return [v for v in self.validators if self.network.alive(v)]

    def _ref(self) -> NodeState:
        live = self._live()
        if self.reference in live:
            return self._node(self.reference)
        if not live:
            raise RuntimeError("every validator has crashed")
        return self._node(live[0])

    def _submit(self, tx: SignedTx) -> None:
        assert self.network is not None
        for v in self.validators:
            self.network.client_send(v, SubmitTx(tx), at_ms=self.network.now)

    def _run_until(self, reached: Callable[[NodeState], bool]) -> None:
        """Run the network until every live validator has ``reached``;
        raises ``LivenessTimeout`` if the step's event budget runs out or
        the queue drains first.

        The stop test runs after every event, so it holds the validators'
        states once and asks the network about liveness inline.
        """
        net = self.network
        assert net is not None
        nodes = [(v, self._node(v)) for v in self.validators]

        def done(net: Network) -> bool:
            return all(reached(st) for v, st in nodes if net.alive(v))

        net.run(until=done, max_events=net.events + _EVENTS_PER_STEP)

    def _check_agreement(self) -> None:
        digests = {contract_digest(self._node(v).contract)
                   for v in self._live()}
        if len(digests) != 1:
            raise RuntimeError("validators disagree on the contract state")

    # -- transport interface ------------------------------------------------

    def begin(self, s: Scenario, params: AdmmParams) -> None:
        if self.network is not None:
            raise RuntimeError("transport already started")
        horizon = s.grid.horizon
        config = ContractConfig(
            n_users=s.n_users, horizon=horizon,
            rho_schedule=params.rho_schedule,
            price_feed_in=tuple(float(p) for p in s.prices.feed_in),
            price_dr=tuple(float(p) for p in s.prices.dr))
        g = genesis(config)
        # nothing here reads the trace; the counters are kept
        self.network = Network(NetConfig(latency_ms=1.0), seed=self.seed,
                               keep_trace=False)
        for v in self.validators:
            node = new_node(NodeConfig(v, self.validators), g)
            self.network.add_node(v, node, handle)
            self.network.client_send(v, Start(), at_ms=0.0)

    def read_state(self) -> DualState:
        return self._ref().contract.dual.copy()

    def publish(self, user: int, iteration: int, export: np.ndarray) -> None:
        if iteration != self._iteration + 1:
            raise ValueError(f"decision for iteration {iteration} but the "
                             f"contract accepts {self._iteration + 1}")
        payload = HorizontalTrade(user=user, iteration=iteration,
                                  export=tuple(float(v) for v in export))
        self._submit(sign_tx(MockSigner(user), user, self._next_nonce(user),
                             payload))

    def run_sct(self) -> DualState:
        assert self.network is not None
        k = self._iteration + 1
        step = SctCompute(iteration=k)
        self._submit(sign_tx(MockSigner(COORDINATOR), COORDINATOR,
                             self._next_nonce(COORDINATOR), step))
        self._run_until(lambda st: st.contract.dual.iteration >= k)
        self._check_agreement()
        self._iteration = k
        return self._ref().contract.dual.copy()

    def settle(self, s: Scenario, outcome: Outcome) -> None:
        assert self.network is not None
        for user in range(s.n_users):
            sch = outcome.schedules[user]
            payload = VerticalTrade(
                user=user,
                feed_in=tuple(max(0.0, float(v)) for v in sch.feed_in),
                dr_reduce=tuple(max(0.0, float(v)) for v in sch.dr_reduce))
            tx = sign_tx(MockSigner(user), user, self._next_nonce(user),
                         payload)
            self._submit(tx)
        want = {u: nn for u, nn in self._nonces.items() if u != COORDINATOR}

        def applied(st: NodeState) -> bool:
            return all(st.contract.nonces.get(u, 0) >= nn
                       for u, nn in want.items())

        self._run_until(applied)
        self._check_agreement()
