"""Chain stack tests: codec, transactions, blocks, contract, agreement."""

import dataclasses
import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridledger.chain import (
    COORDINATOR,
    AggregatedCommit,
    AggregatedPrepare,
    CatchUpRequest,
    CodecError,
    CommitVote,
    ConsensusMode,
    ConsensusProof,
    ContractConfig,
    GENESIS_PARENT,
    GRID_ACCOUNT,
    HorizontalTrade,
    MockSigner,
    NodeConfig,
    PHASE_COMMIT,
    PHASE_PREPARE,
    PrePrepare,
    PrepareVote,
    ProposalDue,
    Reader,
    SctCompute,
    Send,
    SetTimer,
    SignedTx,
    Start,
    SubmitTx,
    VerticalTrade,
    ViewChange,
    Writer,
    block_digest,
    compute_tx_root,
    contract_digest,
    decode_tx,
    encode_tx,
    execute_transactions,
    fault_tolerance,
    genesis,
    handle,
    leader_for,
    make_block,
    make_vote,
    new_node,
    quorum_size,
    sign_tx,
    tx_digest,
    verify_proof,
    verify_tx,
    verify_vote,
)
from gridledger.chain.blocks import encode_block, encode_header, encode_vote
from gridledger.chain.cluster import (message_bytes, message_height,
                                     run_to_height, start_cluster, tally)
from gridledger.chain.node import _validate_proposal
from gridledger.netsim import CLIENT, NetConfig, Network
from gridledger.tem import (RhoSchedule, advance_iteration, dual_state_digest,
                            sct_step)

floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _config(n_users=2, horizon=2):
    return ContractConfig(n_users=n_users, horizon=horizon,
                          rho_schedule=RhoSchedule.fixed(1.0),
                          price_feed_in=tuple([0.1] * horizon),
                          price_dr=tuple([0.2] * horizon))


def _tx(sender, nonce, payload):
    return sign_tx(MockSigner(sender), sender, nonce, payload)


def _step(nonce, iteration=1):
    return _tx(COORDINATOR, nonce, SctCompute(iteration=iteration))


# multiples of 1/4 against dyadic prices keep every settlement exact
quarters = st.integers(-20, 20).map(lambda k: k / 4)


def _random_txs(data, n):
    """Publishes, steps and settlements for ``n`` homes, some of them
    stale, early, from the wrong sender, with a bad nonce or forged."""
    nonces = {}
    txs = []
    for _ in range(data.draw(st.integers(0, 24), label="length")):
        kind = data.draw(st.sampled_from(["publish", "step", "settle"]))
        user = data.draw(st.integers(0, n - 1))
        fault = data.draw(st.sampled_from(
            [None, None, None, "sender", "nonce", "forged"]))
        iteration = data.draw(st.integers(1, 2))
        if kind == "publish":
            owner = user
            payload = HorizontalTrade(user=user, iteration=iteration, export=(
                data.draw(quarters), data.draw(quarters)))
        elif kind == "step":
            owner = COORDINATOR
            payload = SctCompute(iteration=iteration)
        else:
            owner = user
            amounts = st.tuples(quarters, quarters).map(
                lambda q: tuple(abs(v) for v in q))
            payload = VerticalTrade(user=user, feed_in=data.draw(amounts),
                                    dr_reduce=data.draw(amounts))
        sender = (user + 1) % n if fault == "sender" else owner
        expected = nonces.get(sender, 0) + 1
        nonce = expected + 2 if fault == "nonce" else expected
        tx = _tx(sender, nonce, payload)
        if fault == "forged":
            tx = dataclasses.replace(tx, payload=SctCompute(iteration=99))
        else:
            nonces[sender] = nonce if fault is None else nonces.get(sender, 0)
        txs.append(tx)
    return txs


class TestCodecPrimitives:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 64 - 1), floats,
           st.binary(max_size=40), st.text(max_size=20),
           st.lists(floats, max_size=8))
    @settings(deadline=None, max_examples=80)
    def test_round_trip(self, a, b, f, blob, text, fl):
        # a lone f64 behind a count of 1 reads back as a one-entry list
        w = Writer()
        w.u32(a).u64(b).u32(1).f64(f).blob(blob).text(text).f64_list(fl)
        r = Reader(w.take())
        assert r.u32() == a
        assert r.u64() == b
        (got,) = r.f64_list()
        assert got == f or (np.isnan(got) and np.isnan(f))
        assert r.blob() == blob
        assert r.blob().decode("utf-8") == text
        back = r.f64_list()
        assert len(back) == len(fl) and all(x == y for x, y in zip(back, fl))
        r.done()

    def test_range_checks(self):
        with pytest.raises(CodecError):
            Writer().u8(256)
        with pytest.raises(CodecError):
            Writer().u32(-1)
        with pytest.raises(CodecError):
            Writer().u64(2 ** 64)

    def test_truncation_detected(self):
        data = Writer().u64(7).take()
        with pytest.raises(CodecError, match="truncated"):
            Reader(data[:-1]).u64()

    def test_trailing_bytes_detected(self):
        r = Reader(Writer().u32(1).take() + b"\x00")
        r.u32()
        with pytest.raises(CodecError, match="trailing"):
            r.done()

    def test_negative_zero_preserved(self):
        r = Reader(Writer().u32(2).f64(-0.0).f64(np.nan).take())
        zero, nan = r.f64_list()
        assert np.signbit(zero) and np.isnan(nan)


class TestSigner:
    def test_sign_verify(self):
        s = MockSigner(3)
        sig = s.sign(b"payload")
        assert MockSigner.verify(3, b"payload", sig)
        assert not MockSigner.verify(4, b"payload", sig)
        assert not MockSigner.verify(3, b"payloae", sig)
        assert not MockSigner.verify(3, b"payload", sig[:-1])

    def test_deterministic(self):
        assert MockSigner(1).sign(b"x") == MockSigner(1).sign(b"x")
        assert MockSigner(1).sign(b"x") != MockSigner(2).sign(b"x")


payloads = st.one_of(
    st.builds(HorizontalTrade, user=st.integers(0, 10),
              iteration=st.integers(0, 1000),
              export=st.lists(floats, max_size=12).map(tuple)),
    st.builds(SctCompute, iteration=st.integers(0, 1000)),
    st.builds(VerticalTrade, user=st.integers(0, 10),
              feed_in=st.lists(floats, max_size=8).map(tuple),
              dr_reduce=st.lists(floats, max_size=8).map(tuple)),
)


class TestTransactions:
    @given(sender=st.integers(0, 2 ** 32 - 1), nonce=st.integers(1, 2 ** 32),
           payload=payloads)
    @settings(deadline=None, max_examples=80)
    def test_encode_decode_round_trip(self, sender, nonce, payload):
        tx = _tx(sender, nonce, payload)
        back = decode_tx(encode_tx(tx))
        assert back == tx
        assert verify_tx(back)
        assert tx_digest(back) == tx_digest(tx)

    def test_tampered_payload_fails_verification(self):
        tx = _tx(0, 1, VerticalTrade(user=0, feed_in=(5.0,), dr_reduce=(0.0,)))
        forged = SignedTx(sender=tx.sender, nonce=tx.nonce,
                          payload=VerticalTrade(user=0, feed_in=(50.0,),
                                                dr_reduce=(0.0,)),
                          signature=tx.signature)
        assert not verify_tx(forged)

    def test_wrong_sender_fails_verification(self):
        tx = _tx(0, 1, VerticalTrade(user=0, feed_in=(5.0,), dr_reduce=(0.0,)))
        forged = SignedTx(sender=2, nonce=tx.nonce, payload=tx.payload,
                          signature=tx.signature)
        assert not verify_tx(forged)

    def test_truncated_tx_rejected(self):
        data = encode_tx(_tx(0, 1, SctCompute(iteration=1)))
        with pytest.raises(CodecError):
            decode_tx(data[:-3])
        with pytest.raises(CodecError):
            decode_tx(data + b"\x01")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """Canonical bytes pinned to fixed values, so a cached encoding can
    never drift from the one built field by field."""

    TXS = (
        (HorizontalTrade(user=1, iteration=2, export=(1.5, -0.25, 0.0, -0.0)),
         1, 3, "9c7bfa7538f8c1c10a741c2f52af8ffd"
               "9e0c77b6990d8d486999a831c472f9a8"),
        (SctCompute(iteration=2), COORDINATOR, 7,
         "ceae8a02b4c6fa3625922f9c8b41a773"
         "882516e7472c2c101b8b591e91a49020"),
        (VerticalTrade(user=2, feed_in=(0.5, 2.0), dr_reduce=(0.0, 1.25)),
         2, 4, "35f4fdbcf95b1fda2879e1b7e3aebfa7"
               "fa04f419eb06af30aee62a916f39725b"),
    )
    HEADER = ("0217acf89926dcc1920e53a1312349c4"
              "75e2bb06711917b34b220237646e298c")
    VOTE = "8c0e629cd3c205689d3ab09bc46e648734bc619d0ad384bf2126be5e334ec818"
    BLOCK = "c7717f3e6483af0c44425f06c91d1bef37dcdf7989899fdd7b2e8d65d4f7ef95"

    def _txs(self):
        return [_tx(sender, nonce, payload)
                for payload, sender, nonce, _ in self.TXS]

    def test_transactions(self):
        for tx, (_, _, _, want) in zip(self._txs(), self.TXS):
            data = encode_tx(tx)
            assert _sha(data) == want
            assert tx_digest(tx).hex() == want
            assert encode_tx(tx) == data and tx_digest(tx).hex() == want
            back = decode_tx(data)
            assert back is not tx
            assert encode_tx(back) == data and tx_digest(back).hex() == want

    def test_header_vote_and_block(self):
        block = make_block(height=3, parent=bytes(range(32)),
                           timestamp_ms=1234, proposer=1, round=0,
                           txs=self._txs())
        assert _sha(encode_header(block.header)) == self.HEADER
        assert block_digest(block).hex() == self.HEADER
        assert block_digest(block.header).hex() == self.HEADER
        vote = make_vote(MockSigner(2), PHASE_COMMIT, 3, 0,
                         block_digest(block))
        assert _sha(encode_vote(vote)) == self.VOTE
        assert verify_vote(vote)
        assert _sha(encode_vote(vote)) == self.VOTE
        assert _sha(encode_block(block)) == self.BLOCK
        assert _sha(encode_block(block)) == self.BLOCK


class TestForgedTwin:
    """A transaction equal to a verified one in sender, nonce and payload
    but carrying a wrong signature is a new object: nothing known about
    the genuine one lets it through."""

    def _pair(self):
        genuine = _tx(0, 1, HorizontalTrade(user=0, iteration=1,
                                            export=(1.0, -1.0)))
        # the genuine transaction is encoded and verified first
        assert tx_digest(genuine).hex() == _sha(encode_tx(genuine))
        assert verify_tx(genuine)
        twin = SignedTx(sender=genuine.sender, nonce=genuine.nonce,
                        payload=genuine.payload,
                        signature=MockSigner(3).sign(genuine.signing_bytes))
        assert tx_digest(twin) != tx_digest(genuine)
        return genuine, twin

    def _node(self):
        return new_node(NodeConfig(node_id=0, validators=(0, 1, 2, 3)),
                        genesis(_config()))

    def test_submit_drops_it(self):
        genuine, twin = self._pair()
        st = self._node()
        assert handle(st, CLIENT, SubmitTx(twin), 0.0) == []
        assert st.mempool == {}
        handle(st, CLIENT, SubmitTx(genuine), 0.0)
        assert list(st.mempool.values()) == [genuine]

    def test_proposal_holding_it_is_refused(self):
        genuine, twin = self._pair()
        st = self._node()

        def proposal(txs):
            # height 1, view 0 belongs to validator 1
            return make_block(height=1, parent=GENESIS_PARENT,
                              timestamp_ms=0, proposer=1, round=0, txs=txs)

        assert _validate_proposal(st, 1, proposal([genuine]))
        assert not _validate_proposal(st, 1, proposal([twin]))
        assert not _validate_proposal(st, 1, proposal([genuine, twin]))

    def test_contract_rejects_it(self):
        genuine, twin = self._pair()
        out, recs = execute_transactions(genesis(_config()), [twin, genuine])
        assert [r.status for r in recs] == ["bad-signature", "applied"]
        assert recs[0].tx == tx_digest(twin).hex()
        assert out.nonces[0] == 1

    def test_verified_digest_does_not_cover_it(self):
        genuine, twin = self._pair()
        out, recs = execute_transactions(genesis(_config()), [twin, genuine],
                                         verified={tx_digest(genuine)})
        assert [r.status for r in recs] == ["bad-signature", "applied"]
        assert out.nonces[0] == 1


class TestBlocks:
    def _block(self, txs=(), height=1, round=0):
        return make_block(height=height, parent=GENESIS_PARENT,
                          timestamp_ms=123, proposer=0, round=round,
                          txs=list(txs))

    def test_tx_root_binds_transactions(self):
        a = self._block([_tx(0, 1, HorizontalTrade(user=0, iteration=1,
                                                   export=(1.0,)))])
        b = self._block([_tx(0, 1, HorizontalTrade(user=0, iteration=1,
                                                   export=(2.0,)))])
        assert a.header.tx_root != b.header.tx_root
        assert block_digest(a) != block_digest(b)
        assert compute_tx_root(list(a.txs)) == a.header.tx_root

    def test_header_fields_change_digest(self):
        base = self._block()
        other = make_block(height=2, parent=GENESIS_PARENT, timestamp_ms=123,
                           proposer=0, round=0, txs=[])
        assert block_digest(base) != block_digest(other)


class TestVotesAndProofs:
    def _commit_votes(self, digest, voters, height=1, round=0):
        return tuple(make_vote(MockSigner(v), PHASE_COMMIT, height, round,
                               digest) for v in voters)

    def test_vote_signature(self):
        v = make_vote(MockSigner(2), PHASE_PREPARE, 1, 0, bytes(32))
        assert verify_vote(v)
        bad = make_vote(MockSigner(2), PHASE_PREPARE, 1, 0, bytes(32))
        object.__setattr__(bad, "height", 9)
        assert not verify_vote(bad)

    def test_quorum_arithmetic(self):
        assert [fault_tolerance(n) for n in (4, 7, 10, 13)] == [1, 2, 3, 4]
        assert [quorum_size(n) for n in (4, 7, 10, 13)] == [3, 5, 7, 9]

    def test_proof_accepts_quorum(self):
        d = bytes(32)
        proof = ConsensusProof(height=1, round=0, block_digest=d,
                               votes=self._commit_votes(d, [0, 1, 2]))
        assert verify_proof(proof, [0, 1, 2, 3], 3)

    def test_proof_rejects_subquorum(self):
        d = bytes(32)
        proof = ConsensusProof(height=1, round=0, block_digest=d,
                               votes=self._commit_votes(d, [0, 1]))
        assert not verify_proof(proof, [0, 1, 2, 3], 3)

    def test_proof_rejects_duplicate_voter(self):
        d = bytes(32)
        votes = self._commit_votes(d, [0, 1]) + self._commit_votes(d, [1])
        proof = ConsensusProof(height=1, round=0, block_digest=d, votes=votes)
        assert not verify_proof(proof, [0, 1, 2, 3], 3)

    def test_proof_rejects_wrong_phase(self):
        d = bytes(32)
        votes = tuple(make_vote(MockSigner(v), PHASE_PREPARE, 1, 0, d)
                      for v in (0, 1, 2))
        proof = ConsensusProof(height=1, round=0, block_digest=d, votes=votes)
        assert not verify_proof(proof, [0, 1, 2, 3], 3)

    def test_proof_rejects_outside_voter(self):
        d = bytes(32)
        proof = ConsensusProof(height=1, round=0, block_digest=d,
                               votes=self._commit_votes(d, [0, 1, 9]))
        assert not verify_proof(proof, [0, 1, 2, 3], 3)

    def test_proof_rejects_mismatched_height(self):
        d = bytes(32)
        proof = ConsensusProof(height=2, round=0, block_digest=d,
                               votes=self._commit_votes(d, [0, 1, 2], height=1))
        assert not verify_proof(proof, [0, 1, 2, 3], 3)

    @pytest.mark.parametrize("rounds,accepted", [((0, 0, 0), True),
                                                 ((0, 1, 0), False)],
                             ids=["one-round", "mixed-rounds"])
    def test_prepare_certificate_needs_one_round(self, rounds, accepted):
        # height 1, view 0 belongs to validator 1, which proposes to node 0
        st = new_node(NodeConfig(node_id=0, validators=(0, 1, 2, 3)),
                      genesis(_config()))
        block = make_block(height=1, parent=GENESIS_PARENT, timestamp_ms=0,
                           proposer=1, round=0, txs=[])
        handle(st, 1, PrePrepare(block), 0.0)
        assert st.candidate == block
        d = block_digest(block)
        votes = tuple(make_vote(MockSigner(v), PHASE_PREPARE, 1, r, d)
                      for v, r in zip((1, 2, 3), rounds))
        acts = handle(st, 1, AggregatedPrepare(1, 0, d, votes), 0.0)
        assert st.prepared is accepted
        assert any(isinstance(a, Send) and isinstance(a.msg, CommitVote)
                   for a in acts) is accepted


def _sent(acts, kind):
    """(destination, message) of each send of ``kind`` among ``acts``."""
    return [(a.dest, a.msg) for a in acts
            if isinstance(a, Send) and isinstance(a.msg, kind)]


class TestLookAhead:
    """Node 0 of four (quorum 3) driven through ``handle`` alone: early
    messages wait in its look-ahead buffer and are handed back when the
    node gets there.  The leader of height h at view v is (h + v) % 4."""

    VALIDATORS = (0, 1, 2, 3)

    def _node(self, me=0):
        return new_node(NodeConfig(node_id=me, validators=self.VALIDATORS),
                        genesis(_config()))

    def _block(self, height, proposer, round=0, parent=GENESIS_PARENT,
               txs=()):
        return make_block(height=height, parent=parent, timestamp_ms=0,
                          proposer=proposer, round=round, txs=list(txs))

    def _votes(self, phase, height, round, block, voters=(1, 2, 3)):
        return tuple(make_vote(MockSigner(v), phase, height, round,
                               block_digest(block)) for v in voters)

    def _view_change(self, st, new_view, voters=(1, 2, 3)):
        acts = []
        for v in voters:
            acts += handle(st, v, ViewChange(st.height, new_view, v, None, ()),
                           0.0)
        assert st.view == new_view
        return acts

    def test_next_height_proposal_is_accepted_after_the_commit(self):
        st = self._node()
        b1 = self._block(1, proposer=1)
        handle(st, 1, PrePrepare(b1), 0.0)
        b2 = self._block(2, proposer=2, parent=block_digest(b1))
        assert handle(st, 2, PrePrepare(b2), 0.0) == []
        assert st.candidate == b1
        handle(st, 1, AggregatedPrepare(
            1, 0, block_digest(b1), self._votes(PHASE_PREPARE, 1, 0, b1)), 0.0)
        proof = ConsensusProof(1, 0, block_digest(b1),
                               self._votes(PHASE_COMMIT, 1, 0, b1))
        acts = handle(st, 1, AggregatedCommit(proof), 0.0)
        assert st.height == 2 and st.candidate == b2
        assert [(d, m.vote.height) for d, m in _sent(acts, PrepareVote)] \
            == [(2, 2)]
        assert st.future == {}

    def test_later_round_proposal_waits_for_its_view(self):
        st = self._node()
        later = self._block(1, proposer=2, round=1)    # view 1's leader
        assert handle(st, 2, PrePrepare(later), 0.0) == []
        # accepting view 0's proposal replays the buffer: still too early
        now = self._block(1, proposer=1)
        acts = handle(st, 1, PrePrepare(now), 0.0)
        assert [(d, m.vote.round) for d, m in _sent(acts, PrepareVote)] \
            == [(1, 0)]
        assert st.candidate == now
        acts = self._view_change(st, 1)
        assert st.candidate == later
        assert [(d, m.vote.round) for d, m in _sent(acts, PrepareVote)] \
            == [(2, 1)]

    def test_held_reproposal_is_accepted_when_the_view_skips_its_round(self):
        # view 2's leader (3) re-proposes a block certified at round 1
        # (proposer 2); the node jumps from view 0 to view 2 and handles
        # the held proposal as it would a fresh one
        st = self._node()
        certified = self._block(1, proposer=2, round=1)
        assert handle(st, 3, PrePrepare(certified), 0.0) == []
        acts = self._view_change(st, 2)
        assert st.candidate == certified
        assert [(d, m.vote.round) for d, m in _sent(acts, PrepareVote)] \
            == [(3, 2)]

    def test_prepare_certificate_before_its_proposal_is_replayed(self):
        st = self._node()
        block = self._block(1, proposer=1)
        cert = AggregatedPrepare(1, 0, block_digest(block),
                                 self._votes(PHASE_PREPARE, 1, 0, block))
        assert handle(st, 1, cert, 0.0) == []
        assert not st.prepared
        acts = handle(st, 1, PrePrepare(block), 0.0)
        assert st.prepared and st.prepared_votes == cert.votes
        kinds = [type(m) for _, m in _sent(acts, (PrepareVote, CommitVote))]
        assert kinds == [PrepareVote, CommitVote]

    def test_only_the_first_executable_transaction_schedules_a_proposal(self):
        st = self._node(me=1)    # the leader of height 1 at view 0

        def due(acts):
            return [a.msg for a in acts if isinstance(a, SetTimer)
                    and isinstance(a.msg, ProposalDue)]

        ahead = _tx(0, 2, VerticalTrade(user=0, feed_in=(0.0, 0.0),
                                        dr_reduce=(0.0, 0.0)))
        assert handle(st, CLIENT, SubmitTx(ahead), 0.0) == []
        first = _tx(0, 1, VerticalTrade(user=0, feed_in=(1.0, 0.0),
                                        dr_reduce=(0.0, 0.0)))
        assert due(handle(st, CLIENT, SubmitTx(first), 0.0)) \
            == [ProposalDue(1, 0)]
        second = _tx(1, 1, VerticalTrade(user=1, feed_in=(1.0, 0.0),
                                         dr_reduce=(0.0, 0.0)))
        assert handle(st, CLIENT, SubmitTx(second), 0.0) == []
        assert len(st.mempool) == 3

    def test_idle_leader_takes_submissions_in_linear_time(self, monkeypatch):
        """Deciding whether an idle leader already holds executable work
        does not sort the mempool: M submissions from distinct senders
        hash each transaction a bounded number of times and schedule one
        proposal."""
        import gridledger.chain.node as node_mod
        st = self._node(me=1)
        m = 1000
        txs = [_tx(sender, 1, VerticalTrade(user=0, feed_in=(0.0, 0.0),
                                            dr_reduce=(0.0, 0.0)))
               for sender in range(m)]
        hashed = []

        def counting(tx):
            hashed.append(tx)
            return tx_digest(tx)
        monkeypatch.setattr(node_mod, "tx_digest", counting)
        acts = [a for tx in txs for a in handle(st, CLIENT, SubmitTx(tx), 0.0)]
        assert len(hashed) <= 2 * m
        assert [a.msg for a in acts if isinstance(a, SetTimer)
                and isinstance(a.msg, ProposalDue)] == [ProposalDue(1, 0)]
        assert len(st.mempool) == m


class TestContract:
    def test_genesis_balances(self):
        state = genesis(_config())
        assert state.balances[0] == state.balances[1] == 1000.0
        assert state.balances[GRID_ACCOUNT] == 1e9
        assert state.dual.iteration == 0

    def test_horizontal_applies(self):
        state = genesis(_config())
        tx = _tx(0, 1, HorizontalTrade(user=0, iteration=1,
                                       export=(1.0, -2.0)))
        out, recs = execute_transactions(state, [tx])
        assert recs[0].status == "applied"
        assert out.dual.exports[0].tolist() == [1.0, -2.0]
        assert out.nonces[0] == 1

    def test_horizontal_stores_export_against_state(self):
        state = genesis(ContractConfig(
            n_users=3, horizon=2, rho_schedule=RhoSchedule.fixed(0.5),
            price_feed_in=(0.1, 0.1), price_dr=(0.2, 0.2)))
        rng = np.random.default_rng(5)
        state.dual.levels[:] = rng.normal(size=(3, 2))
        state.dual.shares[:] = rng.normal(size=(3, 2))
        export = (1.25, -0.5)
        out, recs = execute_transactions(
            state, [_tx(1, 1, HorizontalTrade(user=1, iteration=1,
                                              export=export))])
        assert recs[0].status == "applied"
        # the export is stored as published; the step state waits for the
        # coordination step
        assert out.dual.exports[1].tolist() == list(export)
        assert not out.dual.exports[[0, 2]].any()
        assert np.array_equal(out.dual.levels, state.dual.levels)
        assert np.array_equal(out.dual.shares, state.dual.shares)

    def test_horizontal_needs_peers(self):
        state = genesis(_config(n_users=1))
        out, recs = execute_transactions(
            state, [_tx(0, 1, HorizontalTrade(user=0, iteration=1,
                                              export=(1.0, 2.0)))])
        assert recs[0].status == "no-peers"
        assert out.nonces[0] == 1    # consumed: no replay later
        assert dual_state_digest(out.dual) == dual_state_digest(state.dual)

    def test_stale_iteration_counted_and_nonce_used(self):
        state = genesis(_config())
        tx = _tx(0, 1, HorizontalTrade(user=0, iteration=5,
                                       export=(0.0, 0.0)))
        out, recs = execute_transactions(state, [tx])
        assert recs[0].status == "stale-iteration"
        assert out.stale_rejections == 1
        assert out.nonces[0] == 1    # consumed: replaying cannot re-apply

    def test_replay_rejected(self):
        state = genesis(_config())
        tx = _tx(0, 1, HorizontalTrade(user=0, iteration=1,
                                       export=(1.0, 0.0)))
        out, _ = execute_transactions(state, [tx])
        out2, recs = execute_transactions(out, [tx])
        assert recs[0].status == "bad-nonce"
        assert contract_digest(out2) == contract_digest(out)

    def test_bad_signature_keeps_nonce(self):
        state = genesis(_config())
        good = _tx(0, 1, SctCompute(iteration=1))
        forged = SignedTx(sender=good.sender, nonce=good.nonce,
                          payload=SctCompute(iteration=2),
                          signature=good.signature)
        out, recs = execute_transactions(state, [forged])
        assert recs[0].status == "bad-signature"
        assert 0 not in out.nonces

    def test_sct_matches_reference_step(self):
        state = genesis(_config())
        txs = [_tx(0, 1, HorizontalTrade(user=0, iteration=1,
                                         export=(2.0, 0.0))),
               _tx(1, 1, HorizontalTrade(user=1, iteration=1,
                                         export=(-1.0, 0.0))),
               _tx(COORDINATOR, 1,
                   SctCompute(iteration=1))]
        out, recs = execute_transactions(state, txs)
        assert all(r.status == "applied" for r in recs)
        ref = state.dual.copy()
        ref.exports[0] = [2.0, 0.0]
        ref.exports[1] = [-1.0, 0.0]
        ref = advance_iteration(sct_step(ref), state.config.rho_schedule)
        assert dual_state_digest(out.dual) == dual_state_digest(ref)

    @pytest.mark.parametrize("field", ["prev_levels", "prev_shares"])
    def test_previous_iterate_in_digests(self, field):
        """The step extrapolates from the previous iterate, so validators
        must agree on it: changing it alone changes both digests."""
        state = genesis(_config())
        moved = state.copy()
        getattr(moved.dual, field)[1, 0] = 0.5
        assert dual_state_digest(moved.dual) != dual_state_digest(state.dual)
        assert contract_digest(moved) != contract_digest(state)

    def test_vertical_settlement_arithmetic(self):
        state = genesis(_config())
        tx = _tx(1, 1, VerticalTrade(user=1, feed_in=(1.0, 2.0),
                                     dr_reduce=(0.0, 3.0)))
        out, recs = execute_transactions(state, [tx])
        assert recs[0].status == "applied"
        # 0.1*(1+2) + 0.2*3 = 0.9
        assert out.balances[1] == pytest.approx(1000.9)
        assert out.balances[GRID_ACCOUNT] == pytest.approx(1e9 - 0.9)

    def test_vertical_pays_once_per_home(self):
        state = genesis(_config())
        settle = VerticalTrade(user=0, feed_in=(1.0, 2.0),
                               dr_reduce=(0.0, 3.0))
        out, recs = execute_transactions(
            state, [_tx(0, 1, settle), _tx(0, 2, settle)])
        assert [r.status for r in recs] == ["applied", "applied"]
        assert out.balances[0] == pytest.approx(1000.9)
        assert out.balances[GRID_ACCOUNT] == pytest.approx(1e9 - 0.9)
        # a revised settlement pays only the change in reward
        smaller = VerticalTrade(user=0, feed_in=(1.0, 0.0),
                                dr_reduce=(0.0, 0.0))
        out, recs = execute_transactions(out, [_tx(0, 3, smaller)])
        assert recs[0].status == "applied"
        assert out.balances[0] == pytest.approx(1000.1)
        assert out.balances[GRID_ACCOUNT] == pytest.approx(1e9 - 0.1)
        # a home that cannot repay the difference is refused
        out.balances[0] = 0.05
        out, recs = execute_transactions(out, [
            _tx(0, 4, VerticalTrade(user=0, feed_in=(0.0, 0.0),
                                    dr_reduce=(0.0, 0.0)))])
        assert [r.status for r in recs] == ["insufficient-balance"]
        assert out.feed_in[0].tolist() == [1.0, 0.0]

    def test_payload_must_belong_to_sender(self):
        state = genesis(_config())
        txs = [_tx(1, 1, HorizontalTrade(user=0, iteration=1,
                                         export=(5.0, 5.0))),
               _tx(1, 2, VerticalTrade(user=0, feed_in=(1.0, 1.0),
                                       dr_reduce=(0.0, 0.0))),
               _tx(0, 1, SctCompute(iteration=1))]
        out, recs = execute_transactions(state, txs)
        assert [r.status for r in recs] == ["wrong-sender"] * 3
        assert "belongs to 0" in recs[0].detail
        assert str(COORDINATOR) in recs[2].detail
        assert out.dual.iteration == 0
        assert not out.dual.exports.any()
        assert out.balances[0] == 1000.0 and not out.feed_in.any()
        assert out.nonces == {0: 1, 1: 2}    # consumed: no replay later

    def test_vertical_rejects_negative(self):
        state = genesis(_config())
        tx = _tx(0, 1, VerticalTrade(user=0, feed_in=(-1.0, 0.0),
                                     dr_reduce=(0.0, 0.0)))
        _, recs = execute_transactions(state, [tx])
        assert recs[0].status == "bad-amount"

    def test_execution_is_pure(self):
        state = genesis(_config())
        before = contract_digest(state)
        execute_transactions(state, [
            _tx(0, 1, HorizontalTrade(user=0, iteration=1, export=(1.0, 1.0))),
            _tx(0, 2, VerticalTrade(user=0, feed_in=(1.0, 0.0),
                                    dr_reduce=(0.0, 0.0)))])
        assert contract_digest(state) == before

    def test_step_waits_for_every_home(self):
        state = genesis(_config(n_users=3))
        publish = [_tx(u, 1, HorizontalTrade(user=u, iteration=1,
                                             export=(1.0, -1.0)))
                   for u in (0, 2)]
        partial, _ = execute_transactions(state, publish)
        out, recs = execute_transactions(partial, [_step(1)])
        assert recs[0].status == "missing-publish"
        assert "homes [1]" in recs[0].detail
        assert out.nonces[COORDINATOR] == 1    # consumed: no replay later
        assert out.dual.iteration == 0
        assert dual_state_digest(out.dual) == dual_state_digest(partial.dual)
        assert out.published == {0, 2}
        assert contract_digest(out) != contract_digest(
            dataclasses.replace(out, published=frozenset({0})))
        out, recs = execute_transactions(out, [
            _tx(1, 1, HorizontalTrade(user=1, iteration=1,
                                      export=(0.5, 0.5))),
            _step(2)])
        assert [r.status for r in recs] == ["applied", "applied"]
        assert out.dual.iteration == 1
        assert out.published == frozenset()

    def test_lone_home_steps_without_publishing(self):
        out, recs = execute_transactions(genesis(_config(n_users=1)),
                                         [_step(1)])
        assert recs[0].status == "applied"
        assert out.dual.iteration == 1

    @given(data=st.data(), n=st.integers(2, 3))
    @settings(deadline=None, max_examples=60)
    def test_random_interleavings(self, data, n):
        """Any split into blocks gives the same state; settlements conserve
        the balances; the step never runs while a home is missing."""
        state = genesis(ContractConfig(
            n_users=n, horizon=2, rho_schedule=RhoSchedule.fixed(1.0),
            price_feed_in=(0.125, 0.25), price_dr=(0.25, 0.5)))
        txs = _random_txs(data, n)
        whole, _ = execute_transactions(state, txs)
        cuts = sorted(data.draw(st.sets(st.integers(0, len(txs))),
                                label="cuts"))
        split = state
        for lo, hi in zip([0] + cuts, cuts + [len(txs)]):
            split, _ = execute_transactions(split, txs[lo:hi])
        assert contract_digest(split) == contract_digest(whole)
        total = sum(state.balances.values())
        one_by_one = state
        for tx in txs:
            nxt, _ = execute_transactions(one_by_one, [tx])
            if nxt.dual.iteration != one_by_one.dual.iteration:
                assert one_by_one.published == frozenset(range(n))
                assert not nxt.published
            assert sum(nxt.balances.values()) == total
            one_by_one = nxt
        assert contract_digest(one_by_one) == contract_digest(whole)

    def test_bad_shape_detected(self):
        state = genesis(_config())
        _, recs = execute_transactions(
            state, [_tx(0, 1, HorizontalTrade(user=0, iteration=1,
                                              export=(1.0,)))])
        assert recs[0].status == "bad-shape"


# ---------------------------------------------------------------------------
# synchronous agreement harness (no simulated network; FIFO delivery)

class SyncCluster:
    def __init__(self, n, mode, crashed=()):
        self.validators = tuple(range(n))
        self.crashed = set(crashed)
        contract = genesis(_config())
        self.nodes = {
            v: new_node(NodeConfig(node_id=v, validators=self.validators,
                                   mode=mode, produce_empty=True), contract.copy())
            for v in self.validators}
        self.queue = deque()
        self.timers = {v: [] for v in self.validators}
        self.now = 0.0
        self.sent = []            # (src, msg) for every delivered Send
        for v in self.validators:
            self._dispatch(v, v, Start())

    def _dispatch(self, dest, src, msg):
        if dest in self.crashed:
            return
        for act in handle(self.nodes[dest], src, msg, self.now):
            if isinstance(act, Send):
                self.sent.append((dest, act.msg))
                if dest not in self.crashed:
                    self.queue.append((act.dest, dest, act.msg))
            elif isinstance(act, SetTimer):
                self.timers[dest].append(act.msg)

    def drain(self, stop=None, limit=100_000):
        for _ in range(limit):
            if stop is not None and stop():
                return
            if not self.queue:
                return
            dest, src, msg = self.queue.popleft()
            if src in self.crashed:
                continue
            self._dispatch(dest, src, msg)
        raise AssertionError("message budget exhausted")

    def fire_timers(self):
        for v in self.validators:
            pending, self.timers[v] = self.timers[v], []
            for msg in pending:
                self._dispatch(v, v, msg)

    def run_to_height(self, target, max_rounds=50):
        done = lambda: self.min_live_height() > target
        for _ in range(max_rounds):
            self.drain(stop=done)
            if done():
                return
            self.now += 200.0
            self.fire_timers()
        raise AssertionError(f"cluster stuck below height {target}")

    def min_live_height(self):
        return min(self.nodes[v].height for v in self.validators
                   if v not in self.crashed)

    def ledgers_agree(self, upto):
        live = [v for v in self.validators if v not in self.crashed]
        for h in range(upto):
            digs = {block_digest(self.nodes[v].ledger[h].block) for v in live}
            assert len(digs) == 1, f"fork at height {h + 1}: {digs}"
        states = {contract_digest(self.nodes[v].contract) for v in live}
        assert len(states) == 1


class TestAgreement:
    def test_leader_rotation_oracle(self):
        cluster = SyncCluster(4, ConsensusMode.MODIFIED)
        node = cluster.nodes[0]
        node.height = 5
        node.view = 0
        assert leader_for(node, 5) == 1    # (5 + 0) % 4
        node.view = 2
        assert leader_for(node, 5) == 3    # (5 + 2) % 4

    @pytest.mark.parametrize("mode,per_block", [
        (ConsensusMode.MODIFIED, 15),     # 5(n-1) with n = 4
        (ConsensusMode.CLASSIC, 24),      # 2n(n-1) with n = 4
    ])
    def test_exact_message_counts(self, mode, per_block):
        heights = 5
        cluster = SyncCluster(4, mode)
        cluster.run_to_height(heights)
        counts = {}
        for _, msg in cluster.sent:
            h = message_height(msg)
            if h is not None and 1 <= h <= heights:
                counts[h] = counts.get(h, 0) + 1
        assert counts == {h: per_block for h in range(1, heights + 1)}
        cluster.ledgers_agree(heights)

    @pytest.mark.parametrize("mode", list(ConsensusMode))
    def test_commit_proofs_verify(self, mode):
        cluster = SyncCluster(4, mode)
        cluster.run_to_height(3)
        node = cluster.nodes[0]
        for cb in node.ledger[:3]:
            assert verify_proof(cb.proof, cluster.validators,
                                quorum_size(4))
            assert cb.proof.block_digest == block_digest(cb.block)
        # parent links chain correctly
        assert node.ledger[0].block.header.parent == GENESIS_PARENT
        for prev, cur in zip(node.ledger, node.ledger[1:]):
            assert cur.block.header.parent == block_digest(prev.block)

    def test_view_change_replaces_crashed_leader(self):
        # height 2, view 0 belongs to validator 2; crash it up front
        cluster = SyncCluster(4, ConsensusMode.MODIFIED, crashed={2})
        cluster.run_to_height(4)
        node = cluster.nodes[0]
        h2 = node.ledger[1].block
        assert h2.header.proposer != 2
        assert h2.header.round >= 1
        cluster.ledgers_agree(4)

    def test_safety_holds_with_f_crashes(self):
        for crashed in ({0}, {1}, {3}):
            cluster = SyncCluster(4, ConsensusMode.MODIFIED, crashed=crashed)
            cluster.run_to_height(3)
            cluster.ledgers_agree(3)

    def test_crashed_node_catches_up_after_heal(self):
        cluster = SyncCluster(4, ConsensusMode.MODIFIED, crashed={3})
        cluster.run_to_height(3)
        assert cluster.nodes[3].height == 1
        cluster.crashed = set()
        cluster.run_to_height(5)
        assert cluster.nodes[3].height >= 5
        cluster.ledgers_agree(4)

    def test_partitioned_node_catches_up_on_network(self):
        net = Network(NetConfig(latency_ms=(1.0, 10.0)), seed=1)
        start_cluster(net, 4, ConsensusMode.MODIFIED)
        net.partition([[0, 1, 2], [3]], 0.0, 300.0)
        net.run(until_ms=300.0)
        assert [net.states[v].height for v in range(4)] == [6, 6, 6, 1]
        run_to_height(net, 8)
        assert all(st.height >= 9 for st in net.states.values())
        assert net.counters["sent:CatchUpRequest"] >= 1
        assert net.counters["sent:CommittedBlockMsg"] >= 1
        ledgers = {tuple(block_digest(cb.block) for cb in st.ledger[:8])
                   for st in net.states.values()}
        assert len(ledgers) == 1
        states = {contract_digest(st.contract) for st in net.states.values()}
        assert len(states) == 1

    def test_submitted_tx_lands_in_block(self):
        cluster = SyncCluster(4, ConsensusMode.MODIFIED)
        tx = _tx(0, 1, VerticalTrade(user=0, feed_in=(1.0, 2.0),
                                     dr_reduce=(0.0, 3.0)))
        for v in cluster.validators:
            cluster._dispatch(v, -1, SubmitTx(tx))
        cluster.run_to_height(2)
        node = cluster.nodes[0]
        packed = [t for cb in node.ledger for t in cb.block.txs]
        assert tx in packed
        assert node.contract.balances[0] == pytest.approx(1000.9)


def _settle(nonce):
    return _tx(0, nonce, VerticalTrade(user=0, feed_in=(1.0, 2.0),
                                       dr_reduce=(0.0, 3.0)))


class TestTransactionRounds:
    """Validators that produce blocks only for submitted transactions."""

    validators = (0, 1, 2, 3)

    def _network(self, latency_ms=(1.0, 10.0), crashed=()):
        net = Network(NetConfig(latency_ms=latency_ms), seed=0)
        g = genesis(_config())
        for v in self.validators:
            net.add_node(v, new_node(NodeConfig(v, self.validators), g),
                         handle)
            net.client_send(v, Start(), at_ms=0.0)
        for v in crashed:
            net.crash(v, 0.0)
        return net

    def _submit(self, net, tx, at_ms):
        for v in self.validators:
            net.client_send(v, SubmitTx(tx), at_ms=at_ms)

    def _live(self, net):
        return [net.states[v] for v in self.validators if net.alive(v)]

    def test_one_instant_commits_one_block_in_sender_order(self):
        net = self._network()
        trades = [_tx(u, 1, HorizontalTrade(user=u, iteration=1,
                                            export=(1.0, -1.0)))
                  for u in (0, 1)]
        # the step is submitted first and still runs after both trades
        for tx in [_step(1)] + trades[::-1]:
            self._submit(net, tx, at_ms=5.0)
        net.run()
        for st in self._live(net):
            assert len(st.ledger) == 1
            assert st.ledger[0].block.txs == (trades[0], trades[1], _step(1))
            assert [r.status for r in st.receipts[0]] == ["applied"] * 3
            assert st.contract.dual.iteration == 1
            assert st.mempool == {}

    def test_each_signature_checked_once_per_validator(self, monkeypatch):
        import gridledger.chain.contract as contract_mod
        import gridledger.chain.node as node_mod
        checked = []

        def counting(tx):
            checked.append(tx_digest(tx))
            return verify_tx(tx)

        monkeypatch.setattr(node_mod, "verify_tx", counting)
        monkeypatch.setattr(contract_mod, "verify_tx", counting)
        net = self._network()
        txs = [_settle(1), _settle(2), _step(1)]
        for tx in txs:
            self._submit(net, tx, at_ms=5.0)
        net.run()
        assert all(st.height == 2 for st in self._live(net))
        assert sorted(checked) == sorted([tx_digest(tx) for tx in txs] * 4)

    def test_transaction_during_a_round_commits_in_the_next_block(self):
        net = self._network(latency_ms=1.0)
        first, second = _settle(1), _settle(2)
        self._submit(net, first, at_ms=5.0)
        # one hop after the proposal left; the leader commits at 9 ms
        self._submit(net, second, at_ms=6.5)
        net.run(until_ms=6.5)
        leader = net.states[leader_for(net.states[0], 1)]
        assert leader.candidate is not None
        net.run()
        for st in self._live(net):
            assert [cb.block.txs for cb in st.ledger] == [(first,), (second,)]

    def test_nonce_ahead_waits_for_the_nonces_before_it(self):
        """A transaction two nonces ahead neither commits nor arms a timer:
        the cluster stays idle until nonces 1 and 2 arrive, and then all
        three commit in one block, none as ``bad-nonce``."""
        net = self._network()
        third = _settle(3)
        self._submit(net, third, at_ms=5.0)
        net.run(until_ms=1000.0)
        assert net.counters["timers"] == 0
        for st in self._live(net):
            assert st.ledger == [] and list(st.mempool.values()) == [third]
        self._submit(net, _settle(1), at_ms=1000.0)
        self._submit(net, _settle(2), at_ms=1000.0)
        net.run()
        for st in self._live(net):
            assert [cb.block.txs for cb in st.ledger] == [
                (_settle(1), _settle(2), third)]
            assert [r.status for r in st.receipts[0]] == ["applied"] * 3
            assert st.contract.nonces[0] == 3 and st.mempool == {}

    def test_submissions_do_not_postpone_a_view_change(self):
        # validator 1 leads height 1 at view 0 and is down from the start;
        # a fresh transaction reaches every validator every 50 ms
        net = self._network(crashed=(1,))
        for k in range(10):
            self._submit(net, _settle(k + 1), at_ms=10.0 + 50.0 * k)
        net.run(until_ms=500.0)
        live = self._live(net)
        assert all(st.height > 1 for st in live)
        assert live[0].ledger[0].block.header.round >= 1
        heads = {block_digest(st.ledger[0].block) for st in live}
        assert len(heads) == 1


class TestCluster:
    def test_tally_counts_each_send_once(self):
        # validator 2 crashes mid-run, so messages to it are dropped on
        # arrival after being counted at their emit
        net = Network(NetConfig(latency_ms=(1.0, 10.0)), seed=0)
        start_cluster(net, 4, ConsensusMode.MODIFIED)
        net.crash(2, 50.0)
        run_to_height(net, 5)
        assert net.counters["drop:crashed-dest"] > 0
        per_height = tally(net)
        assert [per_height[h].msgs for h in range(1, 6)] == [15, 29, 13, 13, 13]
        heightless = sum(v for k, v in net.counters.items()
                         if k in ("sent:ViewChange", "sent:CatchUpRequest",
                                  "sent:CommittedBlockMsg"))
        assert (sum(t.msgs for t in per_height.values()) + heightless
                == net.counters["sends"])

    def test_message_bytes_rejects_heightless_kinds(self):
        with pytest.raises(TypeError, match="CatchUpRequest"):
            message_bytes(CatchUpRequest(1))
