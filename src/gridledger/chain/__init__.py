"""Block agreement layer: canonical encoding, transactions, contract, nodes."""

from .codec import CodecError, Reader, Writer, digest, hexdigest
from .blocks import (Block, BlockHeader, CommittedBlock, ConsensusProof,
                     HorizontalTrade, MockSigner, PHASE_COMMIT, PHASE_PREPARE,
                     SctCompute, SignedTx, VerticalTrade, Vote, block_digest,
                     compute_tx_root, decode_tx, encode_block,
                     encode_committed, encode_tx, make_block, make_vote,
                     sign_tx, tx_digest, verify_proof, verify_tx, verify_vote)
from .contract import (COORDINATOR, ContractConfig, ContractState,
                       GRID_ACCOUNT, Receipt, contract_digest,
                       execute_transactions, genesis)
from .node import (Action, AggregatedCommit, AggregatedPrepare,
                   CatchUpRequest, CommitVote, CommittedBlockMsg,
                   ConsensusMode, GENESIS_PARENT, NodeConfig, NodeState,
                   PrePrepare, PrepareVote, ProposalDue, Send, SetTimer,
                   Start, SubmitTx, ViewChange, ViewTimeout, fault_tolerance,
                   handle, leader_for, new_node, quorum_size)

__all__ = [
    "Action", "AggregatedCommit", "AggregatedPrepare", "Block", "BlockHeader",
    "COORDINATOR", "CatchUpRequest", "CodecError", "CommitVote",
    "CommittedBlock", "CommittedBlockMsg", "ConsensusMode", "ConsensusProof",
    "ContractConfig",
    "ContractState", "GENESIS_PARENT", "GRID_ACCOUNT", "HorizontalTrade",
    "MockSigner", "NodeConfig", "NodeState", "PHASE_COMMIT", "PHASE_PREPARE",
    "PrePrepare", "PrepareVote", "ProposalDue", "Reader", "Receipt",
    "SctCompute", "Send",
    "SetTimer", "SignedTx", "Start", "SubmitTx", "VerticalTrade",
    "ViewChange", "ViewTimeout", "Vote", "Writer",
    "block_digest", "compute_tx_root", "contract_digest", "decode_tx",
    "digest", "encode_block",
    "encode_committed", "encode_tx", "execute_transactions",
    "fault_tolerance", "genesis", "handle", "hexdigest", "leader_for",
    "make_block", "make_vote", "new_node", "quorum_size", "sign_tx",
    "tx_digest", "verify_proof", "verify_tx", "verify_vote",
]
