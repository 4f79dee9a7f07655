"""Replicated block agreement for a small fixed validator set.

Two wire protocols share one node implementation:

* ``MODIFIED``: votes flow through the round leader, which broadcasts
  aggregated certificates.  A fault-free block costs exactly ``5(n-1)``
  network sends: the proposal, one vote lane to the leader and one
  aggregate broadcast per phase.
* ``CLASSIC``: every vote is broadcast, costing ``2n(n-1)`` sends per
  block.

Faults are crash-stop only.  Signatures are deterministic integrity
tags, not authentication, so any node may reconstruct the vote implied
by a leader's own proposal.  Stalled rounds are resolved by view
changes that carry prepared certificates; the new leader re-proposes
the certified block byte for byte, which keeps its digest stable.  A
node that discovers it is behind asks the sender for committed blocks
and replays them through proof verification; that request is the only
message answered with history, and stale phase messages are ignored.
Early messages (anything for the next height, a proposal for a later
round, phase traffic that beats its proposal) wait in one look-ahead
buffer, keyed by height, and go back through ``handle`` in arrival order
whenever the node's height, view or candidate moves, so each is judged
as a fresh arrival would be at that point.

A leader proposes as it enters a round holding transactions (at
``Start``, after a commit, after a view change), or, when a transaction
reaches it idle, from a zero-delay ``ProposalDue`` timer.  That timer
fires after every message already queued for the same instant, so all
the transactions submitted together commit in one block; an empty-block
cluster never waits on it.  A view timer is armed on progress (a
proposal, a prepare certificate, a commit, a view change) and once per
(height, view) when work arrives with no timer live.  A submission is
not progress: further ones leave the timer alone, so a stalled round
still times out while transactions keep coming.

The mempool holds only transactions whose signatures this node has
checked, keyed by digest, which covers the signature; proposal checks
and execution skip the check for exactly those digests.  Only each
sender's run of consecutive nonces from the contract's next one is
proposed or arms a view timer.  A transaction whose nonce is ahead
waits in the mempool for the ones before it: proposed early, it would
only commit as ``bad-nonce``, again after every commit.

Handlers mutate the node state in place and return the network actions
to perform; all nondeterminism lives in the surrounding scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

from .blocks import (Block, CommittedBlock, ConsensusProof, MockSigner,
                     PHASE_COMMIT, PHASE_PREPARE, SignedTx, Vote,
                     block_digest, compute_tx_root, make_block, make_vote,
                     tx_digest, verify_proof, verify_tx, verify_vote)
from .contract import ContractState, Receipt, execute_transactions

__all__ = [
    "Action",
    "AggregatedCommit",
    "AggregatedPrepare",
    "CatchUpRequest",
    "CommitVote",
    "CommittedBlockMsg",
    "ConsensusMode",
    "GENESIS_PARENT",
    "NodeConfig",
    "NodeState",
    "PrePrepare",
    "PrepareVote",
    "ProposalDue",
    "Send",
    "SetTimer",
    "Start",
    "SubmitTx",
    "ViewChange",
    "ViewTimeout",
    "fault_tolerance",
    "handle",
    "leader_for",
    "message_height",
    "new_node",
    "quorum_size",
]

GENESIS_PARENT = bytes(32)
# a round with no progress for this long triggers a view change
VIEW_TIMEOUT_MS = 100.0


class ConsensusMode(Enum):
    MODIFIED = "modified"
    CLASSIC = "classic"


# ---------------------------------------------------------------------------
# wire messages


@dataclass(frozen=True)
class Start:
    pass


@dataclass(frozen=True)
class SubmitTx:
    tx: SignedTx


@dataclass(frozen=True)
class PrePrepare:
    block: Block


@dataclass(frozen=True)
class PrepareVote:
    vote: Vote


@dataclass(frozen=True)
class AggregatedPrepare:
    height: int
    round: int
    block_digest: bytes
    votes: Tuple[Vote, ...]


@dataclass(frozen=True)
class CommitVote:
    vote: Vote


@dataclass(frozen=True)
class AggregatedCommit:
    proof: ConsensusProof


@dataclass(frozen=True)
class ViewChange:
    height: int
    new_view: int
    voter: int
    prepared_block: Optional[Block]
    prepared_votes: Tuple[Vote, ...]


@dataclass(frozen=True)
class CatchUpRequest:
    height: int


@dataclass(frozen=True)
class CommittedBlockMsg:
    committed: CommittedBlock


@dataclass(frozen=True)
class ViewTimeout:
    height: int
    view: int
    epoch: int


@dataclass(frozen=True)
class ProposalDue:
    height: int
    view: int


Message = Union[Start, SubmitTx, PrePrepare, PrepareVote, AggregatedPrepare,
                CommitVote, AggregatedCommit, ViewChange, CatchUpRequest,
                CommittedBlockMsg, ViewTimeout, ProposalDue]


# ---------------------------------------------------------------------------
# actions returned to the scheduler


@dataclass(frozen=True)
class Send:
    dest: int
    msg: Message


@dataclass(frozen=True)
class SetTimer:
    delay_ms: float
    msg: Message


Action = Union[Send, SetTimer]


def fault_tolerance(n_validators: int) -> int:
    return (n_validators - 1) // 3


def quorum_size(n_validators: int) -> int:
    return 2 * fault_tolerance(n_validators) + 1


@dataclass(frozen=True)
class NodeConfig:
    node_id: int
    validators: Tuple[int, ...]
    mode: ConsensusMode = ConsensusMode.MODIFIED
    produce_empty: bool = False

    def __post_init__(self) -> None:
        if self.node_id not in self.validators:
            raise ValueError("node_id must be one of the validators")
        if len(set(self.validators)) != len(self.validators):
            raise ValueError("duplicate validator ids")


@dataclass
class NodeState:
    config: NodeConfig
    contract: ContractState
    height: int = 1
    view: int = 0
    head: bytes = GENESIS_PARENT
    ledger: List[CommittedBlock] = field(default_factory=list)
    receipts: List[List[Receipt]] = field(default_factory=list)
    mempool: Dict[bytes, SignedTx] = field(default_factory=dict)
    candidate: Optional[Block] = None
    prepared_votes: Tuple[Vote, ...] = ()
    prepare_votes: Dict[int, Vote] = field(default_factory=dict)
    commit_votes: Dict[int, Vote] = field(default_factory=dict)
    view_changes: Dict[int, Dict[int, ViewChange]] = field(default_factory=dict)
    future: Dict[int, List[Tuple[int, "Message"]]] = field(default_factory=dict)
    timer_epoch: int = 0
    # (height, view) the live view timer was armed for; None when cancelled
    timer_round: Optional[Tuple[int, int]] = None
    next_catchup_ok: float = 0.0

    @property
    def me(self) -> int:
        return self.config.node_id

    @property
    def quorum(self) -> int:
        return quorum_size(len(self.config.validators))

    @property
    def prepared(self) -> bool:
        """The candidate holds a prepare certificate."""
        return bool(self.prepared_votes)


def leader_for(state: NodeState, height: int) -> int:
    vals = state.config.validators
    return vals[(height + state.view) % len(vals)]


def new_node(config: NodeConfig, contract: ContractState) -> NodeState:
    return NodeState(config=config, contract=contract.copy())


# ---------------------------------------------------------------------------
# helpers


def _others(st: NodeState) -> List[int]:
    return [v for v in st.config.validators if v != st.me]


def _broadcast(st: NodeState, msg: Message) -> List[Action]:
    return [Send(v, msg) for v in _others(st)]


def _arm_timer(st: NodeState, acts: List[Action]) -> None:
    st.timer_epoch += 1
    st.timer_round = (st.height, st.view)
    acts.append(SetTimer(VIEW_TIMEOUT_MS,
                         ViewTimeout(st.height, st.view, st.timer_epoch)))


def _signer(st: NodeState) -> MockSigner:
    return MockSigner(st.me)


def _own_vote(st: NodeState, phase: int, digest: bytes) -> Vote:
    return make_vote(_signer(st), phase, st.height, st.view, digest)


def _implied_leader_vote(st: NodeState, block: Block) -> Vote:
    """The prepare vote a proposal stands for.

    Signatures here are unkeyed integrity tags, so any node can
    reconstruct the proposer's vote without a wire message.
    """
    proposer = block.header.proposer
    return make_vote(MockSigner(proposer), PHASE_PREPARE, st.height,
                     st.view, block_digest(block))


def _pending_txs(st: NodeState) -> List[SignedTx]:
    """The mempool's transactions that can execute next, in block order:
    each sender's run of consecutive nonces from the contract's next one.
    A transaction whose nonce is ahead of that run waits in the mempool."""
    txs = sorted(st.mempool.values(),
                 key=lambda tx: (tx.sender, tx.nonce, tx_digest(tx)))
    run: List[SignedTx] = []
    sender, nxt = None, 0
    for tx in txs:
        if tx.sender != sender:
            sender, nxt = tx.sender, st.contract.nonces.get(tx.sender, 0) + 1
        if tx.nonce <= nxt:
            run.append(tx)
            nxt = max(nxt, tx.nonce + 1)
    return run


def _has_pending(st: NodeState) -> bool:
    """Whether ``_pending_txs`` is non-empty, without sorting: the mempool
    holds no nonce below its sender's next one, so a run exists exactly
    when some transaction carries its sender's next nonce."""
    nonces = st.contract.nonces
    return any(tx.nonce == nonces.get(tx.sender, 0) + 1
               for tx in st.mempool.values())


def _sorted_quorum(votes: Dict[int, Vote], quorum: int) -> Tuple[Vote, ...]:
    picked = sorted(votes.values(), key=lambda v: v.voter)[:quorum]
    return tuple(picked)


def _reset_round(st: NodeState) -> None:
    st.candidate = None
    st.prepared_votes = ()
    st.prepare_votes = {}
    st.commit_votes = {}


def _maybe_propose(st: NodeState, now: float, acts: List[Action],
                   forced: Optional[Block] = None) -> None:
    if st.candidate is not None or leader_for(st, st.height) != st.me:
        return
    if forced is None:
        txs = _pending_txs(st)
        if not txs and not st.config.produce_empty:
            return
        block = make_block(st.height, st.head, int(now), st.me, st.view, txs)
    else:
        block = forced
    st.candidate = block
    st.prepare_votes = {st.me: _implied_leader_vote(st, block)}
    st.commit_votes = {}
    acts.extend(_broadcast(st, PrePrepare(block)))
    _arm_timer(st, acts)


def _validate_proposal(st: NodeState, sender: int, block: Block) -> bool:
    h = block.header
    if sender != leader_for(st, st.height):
        return False
    if h.height != st.height or h.parent != st.head:
        return False
    if h.round > st.view:
        return False
    vals = st.config.validators
    original_leader = vals[(h.height + h.round) % len(vals)]
    if h.proposer != original_leader:
        return False
    if h.tx_root != compute_tx_root(block.txs):
        return False
    return all(tx_digest(tx) in st.mempool or verify_tx(tx)
               for tx in block.txs)


def _commit(st: NodeState, committed: CommittedBlock, now: float,
            acts: List[Action]) -> None:
    block = committed.block
    st.contract, receipts = execute_transactions(st.contract, block.txs,
                                                 verified=st.mempool)
    st.ledger.append(committed)
    st.receipts.append(receipts)
    st.head = block_digest(block)
    st.height += 1
    for d, tx in list(st.mempool.items()):
        if tx.nonce <= st.contract.nonces.get(tx.sender, 0):
            del st.mempool[d]
    _reset_round(st)
    st.view_changes = {}
    if st.config.produce_empty or _has_pending(st):
        _arm_timer(st, acts)
    else:
        st.timer_epoch += 1
        st.timer_round = None
    _maybe_propose(st, now, acts)
    _replay(st, now, acts)


def _replay(st: NodeState, now: float, acts: List[Action]) -> None:
    """Hand the messages held for the current height back to ``handle``
    in arrival order; the ones still early go back into the buffer.
    Heights already passed are dropped."""
    for h in [h for h in st.future if h < st.height]:
        del st.future[h]
    for sender, msg in st.future.pop(st.height, []):
        acts.extend(handle(st, sender, msg, now))


def message_height(msg: object) -> Optional[int]:
    """Height a proposal or phase message argues about; None for others."""
    if isinstance(msg, PrePrepare):
        return msg.block.header.height
    if isinstance(msg, (PrepareVote, CommitVote)):
        return msg.vote.height
    if isinstance(msg, AggregatedPrepare):
        return msg.height
    if isinstance(msg, AggregatedCommit):
        return msg.proof.height
    return None


def _request_catchup(st: NodeState, sender: int, now: float,
                     acts: List[Action]) -> None:
    if now >= st.next_catchup_ok:
        st.next_catchup_ok = now + VIEW_TIMEOUT_MS / 2
        acts.append(Send(sender, CatchUpRequest(st.height)))


# ---------------------------------------------------------------------------
# phase handlers


def _on_preprepare(st: NodeState, sender: int, block: Block, now: float,
                   acts: List[Action]) -> None:
    h = block.header
    if h.height < st.height:
        return
    if h.height > st.height:
        _request_catchup(st, sender, now, acts)
        return
    if st.candidate is not None or not _validate_proposal(st, sender, block):
        return
    st.candidate = block
    digest = block_digest(block)
    st.prepare_votes = {h.proposer: _implied_leader_vote(st, block)}
    st.commit_votes = {}
    mine = _own_vote(st, PHASE_PREPARE, digest)
    st.prepare_votes[st.me] = mine
    if st.config.mode is ConsensusMode.MODIFIED:
        acts.append(Send(sender, PrepareVote(mine)))
    else:
        acts.extend(_broadcast(st, PrepareVote(mine)))
    _arm_timer(st, acts)
    _check_prepared(st, now, acts)
    _replay(st, now, acts)


def _check_prepared(st: NodeState, now: float, acts: List[Action]) -> None:
    if st.prepared or st.candidate is None:
        return
    if len(st.prepare_votes) < st.quorum:
        return
    st.prepared_votes = _sorted_quorum(st.prepare_votes, st.quorum)
    digest = block_digest(st.candidate)
    mine = _own_vote(st, PHASE_COMMIT, digest)
    st.commit_votes[st.me] = mine
    if st.config.mode is ConsensusMode.MODIFIED:
        acts.extend(_broadcast(
            st, AggregatedPrepare(st.height, st.view, digest,
                                  st.prepared_votes)))
    else:
        acts.extend(_broadcast(st, CommitVote(mine)))
    _check_committed(st, now, acts)


def _check_committed(st: NodeState, now: float, acts: List[Action]) -> None:
    if st.candidate is None or len(st.commit_votes) < st.quorum:
        return
    digest = block_digest(st.candidate)
    proof = ConsensusProof(st.height, st.view, digest,
                           _sorted_quorum(st.commit_votes, st.quorum))
    committed = CommittedBlock(st.candidate, proof)
    if st.config.mode is ConsensusMode.MODIFIED:
        acts.extend(_broadcast(st, AggregatedCommit(proof)))
    _commit(st, committed, now, acts)


def _on_vote(st: NodeState, vote: Vote, phase: int, now: float,
             acts: List[Action]) -> None:
    """A prepare or commit vote, by ``phase``, on the current candidate."""
    if (st.candidate is None or vote.height != st.height
            or vote.round != st.view or vote.phase != phase):
        return
    if vote.block_digest != block_digest(st.candidate):
        return
    if vote.voter not in st.config.validators or not verify_vote(vote):
        return
    if st.config.mode is ConsensusMode.MODIFIED \
            and leader_for(st, st.height) != st.me:
        return
    if phase == PHASE_PREPARE:
        st.prepare_votes.setdefault(vote.voter, vote)
        _check_prepared(st, now, acts)
    else:
        st.commit_votes.setdefault(vote.voter, vote)
        if st.prepared:
            _check_committed(st, now, acts)


def _on_aggregated_prepare(st: NodeState, sender: int, msg: AggregatedPrepare,
                           now: float, acts: List[Action]) -> None:
    if st.config.mode is not ConsensusMode.MODIFIED:
        return
    if msg.height > st.height:
        _request_catchup(st, sender, now, acts)
        return
    if (st.candidate is None or msg.height != st.height
            or msg.round != st.view or st.prepared):
        return
    digest = block_digest(st.candidate)
    if msg.block_digest != digest:
        return
    if not verify_proof(ConsensusProof(msg.height, msg.round, digest,
                                       msg.votes),
                        st.config.validators, st.quorum, PHASE_PREPARE):
        return
    st.prepared_votes = msg.votes
    mine = _own_vote(st, PHASE_COMMIT, digest)
    st.commit_votes[st.me] = mine
    acts.append(Send(sender, CommitVote(mine)))
    _arm_timer(st, acts)
    _replay(st, now, acts)


def _on_aggregated_commit(st: NodeState, sender: int, msg: AggregatedCommit,
                          now: float, acts: List[Action]) -> None:
    if st.config.mode is not ConsensusMode.MODIFIED:
        return
    proof = msg.proof
    if proof.height > st.height:
        _request_catchup(st, sender, now, acts)
        return
    if proof.height != st.height:
        return
    if st.candidate is None or proof.block_digest != block_digest(st.candidate):
        _request_catchup(st, sender, now, acts)
        return
    if not st.prepared:
        # the prepare certificate is still in flight; finish that phase
        # first so every replica casts its commit vote
        st.future.setdefault(st.height, []).append((sender, msg))
        return
    if not verify_proof(proof, st.config.validators, st.quorum):
        return
    _commit(st, CommittedBlock(st.candidate, proof), now, acts)


def _on_view_timeout(st: NodeState, msg: ViewTimeout, now: float,
                     acts: List[Action]) -> None:
    if (msg.epoch != st.timer_epoch or msg.height != st.height
            or msg.view != st.view):
        return
    nv = st.view + 1
    block = st.candidate if st.prepared else None
    vc = ViewChange(st.height, nv, st.me, block, st.prepared_votes)
    st.view_changes.setdefault(nv, {})[st.me] = vc
    acts.extend(_broadcast(st, vc))
    _arm_timer(st, acts)
    _check_view_quorum(st, nv, now, acts)


def _on_view_change(st: NodeState, sender: int, vc: ViewChange, now: float,
                    acts: List[Action]) -> None:
    if vc.height < st.height:
        return
    if vc.height > st.height:
        _request_catchup(st, sender, now, acts)
        return
    if vc.new_view <= st.view or vc.voter not in st.config.validators:
        return
    st.view_changes.setdefault(vc.new_view, {})[vc.voter] = vc
    _check_view_quorum(st, vc.new_view, now, acts)


def _check_view_quorum(st: NodeState, nv: int, now: float,
                       acts: List[Action]) -> None:
    group = st.view_changes.get(nv, {})
    if len(group) < st.quorum or nv <= st.view:
        return
    st.view = nv
    _reset_round(st)
    st.view_changes = {k: v for k, v in st.view_changes.items() if k > nv}
    certified: Optional[Block] = None
    best = (-1, "")
    for vc in group.values():
        if vc.prepared_block is None or not vc.prepared_votes:
            continue
        digest = block_digest(vc.prepared_block)
        cert = ConsensusProof(st.height, vc.prepared_votes[0].round, digest,
                              vc.prepared_votes)
        if not verify_proof(cert, st.config.validators, st.quorum,
                            PHASE_PREPARE):
            continue
        rank = (cert.round, digest.hex())
        if rank > best:
            best = rank
            certified = vc.prepared_block
    _arm_timer(st, acts)
    if leader_for(st, st.height) == st.me:
        _maybe_propose(st, now, acts, forced=certified)
    _replay(st, now, acts)


def _on_catchup_request(st: NodeState, sender: int, msg: CatchUpRequest,
                        acts: List[Action]) -> None:
    """The one catch-up path: answer with the committed block asked for."""
    if 1 <= msg.height < st.height:
        acts.append(Send(sender, CommittedBlockMsg(st.ledger[msg.height - 1])))


def _on_committed_block(st: NodeState, sender: int, msg: CommittedBlockMsg,
                        now: float, acts: List[Action]) -> None:
    committed = msg.committed
    block = committed.block
    if block.header.height != st.height or block.header.parent != st.head:
        return
    if committed.proof.block_digest != block_digest(block):
        return
    if not verify_proof(committed.proof, st.config.validators, st.quorum):
        return
    st.next_catchup_ok = 0.0
    _commit(st, committed, now, acts)
    # the sender may hold more; ask until it stops answering
    acts.append(Send(sender, CatchUpRequest(st.height)))


def _on_submit(st: NodeState, tx: SignedTx, now: float,
               acts: List[Action]) -> None:
    digest = tx_digest(tx)
    if digest in st.mempool:
        return
    nxt = st.contract.nonces.get(tx.sender, 0) + 1
    if tx.nonce < nxt or not verify_tx(tx):
        return
    # only a transaction with its sender's next nonce makes work executable
    head = st.candidate is None and tx.nonce == nxt
    # an idle leader holding executable transactions already has a
    # proposal due, so only the one that makes them executable schedules it
    due = head and leader_for(st, st.height) == st.me and not _has_pending(st)
    st.mempool[digest] = tx
    if not head:
        return
    if st.timer_round != (st.height, st.view):
        _arm_timer(st, acts)
    if due:
        acts.append(SetTimer(0.0, ProposalDue(st.height, st.view)))


def handle(st: NodeState, sender: int, msg: Message, now: float
           ) -> List[Action]:
    """Advance the node with one delivered message; returns sends/timers."""
    acts: List[Action] = []
    bh = message_height(msg)
    if bh is not None and (bh == st.height + 1 or bh == st.height and (
            msg.block.header.round > st.view if isinstance(msg, PrePrepare)
            else st.candidate is None)):
        # nodes commit and change views at slightly different times, so a
        # message for the next height, a proposal for a later round and
        # phase traffic for a proposal still in flight are held and
        # replayed instead of lost
        st.future.setdefault(bh, []).append((sender, msg))
        return acts
    if isinstance(msg, Start):
        if st.config.produce_empty:
            _arm_timer(st, acts)
        _maybe_propose(st, now, acts)
    elif isinstance(msg, SubmitTx):
        _on_submit(st, msg.tx, now, acts)
    elif isinstance(msg, PrePrepare):
        _on_preprepare(st, sender, msg.block, now, acts)
    elif isinstance(msg, PrepareVote):
        _on_vote(st, msg.vote, PHASE_PREPARE, now, acts)
    elif isinstance(msg, AggregatedPrepare):
        _on_aggregated_prepare(st, sender, msg, now, acts)
    elif isinstance(msg, CommitVote):
        _on_vote(st, msg.vote, PHASE_COMMIT, now, acts)
    elif isinstance(msg, AggregatedCommit):
        _on_aggregated_commit(st, sender, msg, now, acts)
    elif isinstance(msg, ViewChange):
        _on_view_change(st, sender, msg, now, acts)
    elif isinstance(msg, CatchUpRequest):
        _on_catchup_request(st, sender, msg, acts)
    elif isinstance(msg, CommittedBlockMsg):
        _on_committed_block(st, sender, msg, now, acts)
    elif isinstance(msg, ViewTimeout):
        _on_view_timeout(st, msg, now, acts)
    elif isinstance(msg, ProposalDue):
        if (msg.height, msg.view) == (st.height, st.view):
            _maybe_propose(st, now, acts)
    else:
        raise TypeError(f"unknown message {type(msg).__name__}")
    return acts
