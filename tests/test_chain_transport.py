"""Replicated transport tests: lockstep with the local mirror."""

import numpy as np
import pytest

from gridledger.chain import (
    HorizontalTrade,
    SctCompute,
    VerticalTrade,
    decode_tx,
)
from gridledger.chain.cluster import tally
from gridledger.chain_transport import COORDINATOR, ChainTransport, committed_tx_bytes
from gridledger.netsim import LivenessTimeout
from gridledger.scenario import generate_synthetic
from gridledger.tem import (
    AdmmParams,
    RhoSchedule,
    run_distributed,
)


@pytest.fixture(scope="module")
def small_run():
    """One distributed solve over the chain and one on the mirror alone."""
    s = generate_synthetic(seed=3, n_users=2, horizon=4)
    params = AdmmParams(eps=1e-5, max_iter=120,
                        rho_schedule=RhoSchedule.fixed(1.0))
    chain = ChainTransport(n_validators=4, seed=11)
    via_chain = run_distributed(s, params, chain)
    via_local = run_distributed(s, params)
    return s, chain, via_chain, via_local


class TestLockstep:
    def test_transports_bitwise_identical(self, small_run):
        _, _, via_chain, via_local = small_run
        assert via_chain.converged and via_local.converged
        assert via_chain.iterations == via_local.iterations
        for a, b in zip(via_chain.schedules, via_local.schedules):
            assert np.array_equal(a.export, b.export)
            assert np.array_equal(a.supply_grid, b.supply_grid)
        assert via_chain.total_cost == via_local.total_cost

    def test_digests_match_every_iteration(self, small_run):
        _, _, via_chain, via_local = small_run
        for rec_c, rec_l in zip(via_chain.history, via_local.history):
            assert rec_c.digest_local == rec_c.digest_transport
            assert rec_c.digest_transport == rec_l.digest_transport

    def test_validators_agree_on_contract(self, small_run):
        _, chain, _, _ = small_run
        from gridledger.chain import contract_digest
        live = [v for v in chain.network.states if chain.network.alive(v)]
        digests = {contract_digest(chain.network.states[v].contract)
                   for v in live}
        assert len(digests) == 1

    def test_committed_payload_kinds_and_order(self, small_run):
        s, chain, via_chain, _ = small_run
        txs = [decode_tx(b) for b in committed_tx_bytes(chain._ref())]
        assert txs, "chain committed no transactions"
        kinds = {type(tx.payload) for tx in txs}
        assert kinds <= {HorizontalTrade, SctCompute, VerticalTrade}
        # each coordination step follows the trades that feed it
        sct_iters = []
        seen_trades = {}
        for tx in txs:
            if isinstance(tx.payload, HorizontalTrade):
                # one net export per slot, whatever the number of homes
                assert len(tx.payload.export) == s.grid.horizon
                seen_trades.setdefault(tx.payload.iteration, set()).add(
                    tx.payload.user)
            elif isinstance(tx.payload, SctCompute):
                assert seen_trades.get(tx.payload.iteration) == set(range(2))
                sct_iters.append(tx.payload.iteration)
        assert sct_iters == list(range(1, via_chain.iterations + 1))
        verticals = [tx for tx in txs if isinstance(tx.payload, VerticalTrade)]
        assert {tx.payload.user for tx in verticals} == {0, 1}
        for tx in verticals:
            assert min(tx.payload.feed_in) >= 0.0
            assert min(tx.payload.dr_reduce) >= 0.0

    def test_one_block_per_step(self, small_run):
        s, chain, via_chain, _ = small_run
        ledger = chain._ref().ledger
        assert len(ledger) == via_chain.iterations + 1
        homes = list(range(s.n_users))
        for k, committed in enumerate(ledger[:-1], start=1):
            txs = committed.block.txs
            assert [tx.sender for tx in txs] == homes + [COORDINATOR]
            assert all(tx.payload.iteration == k for tx in txs)
        settlement = ledger[-1].block.txs
        assert [tx.sender for tx in settlement] == homes
        assert all(isinstance(tx.payload, VerticalTrade) for tx in settlement)

    def test_coordinator_identity(self, small_run):
        _, chain, _, _ = small_run
        txs = [decode_tx(b) for b in committed_tx_bytes(chain._ref())]
        for tx in txs:
            if isinstance(tx.payload, SctCompute):
                assert tx.sender == COORDINATOR
            else:
                assert 0 <= tx.sender < 2


class TestNoTrace:
    def test_chain_network_keeps_no_trace(self, small_run):
        net = small_run[1].network
        assert net.trace == []
        # every event still runs and counts: 172 for this run's four
        # blocks (three steps and the settlement), as when the trace was
        # kept
        assert net.events == 172

    def test_tally_names_the_missing_trace(self, small_run):
        with pytest.raises(ValueError, match="network trace.*keeps none"):
            tally(small_run[1].network)


class TestGuards:
    def test_requires_four_validators(self):
        with pytest.raises(ValueError):
            ChainTransport(n_validators=3)

    def test_publish_checks_iteration(self):
        s = generate_synthetic(seed=3, n_users=2, horizon=4)
        tr = ChainTransport(n_validators=4, seed=0)
        tr.begin(s, AdmmParams())
        export = np.zeros(4)
        tr.publish(0, 1, export)
        with pytest.raises(ValueError):
            tr.publish(1, 2, export)

    def test_lost_quorum_times_out(self):
        # two of four validators crash as soon as the cluster starts, so
        # the first coordination step can never commit
        class LosesQuorum(ChainTransport):
            def begin(self, s, params):
                super().begin(s, params)
                for v in (2, 3):
                    self.network.crash(v, at_ms=0.0)

        s = generate_synthetic(seed=3, n_users=2, horizon=4)
        with pytest.raises(LivenessTimeout):
            run_distributed(s, AdmmParams(max_iter=5),
                            LosesQuorum(n_validators=4, seed=0))
