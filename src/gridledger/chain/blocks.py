"""Transactions, blocks and vote certificates.

Every structure has one canonical encoding (see codec) and is digested
with SHA-256 over those bytes; a signed structure encodes as its signing
bytes followed by its remaining fields.  Signatures come from the mock
scheme (``MockSigner``), which is deterministic, 64 bytes, and binds the
signing key id into the digest so distinct validators never collide.

Every frozen value encodes once: a transaction's signing bytes, encoding
and digest, a header's digest and a vote's signing bytes are built on
first use and kept on the object.  Changing a field through
``object.__setattr__`` after that point is not supported; a changed
value is a new object.  Only bytes are kept, never a verification
result, so every ``verify_*`` call still checks its signature.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple, Union

from .codec import CodecError, Reader, Writer, digest

__all__ = [
    "Block",
    "BlockHeader",
    "CommittedBlock",
    "ConsensusProof",
    "HorizontalTrade",
    "MockSigner",
    "PHASE_COMMIT",
    "PHASE_PREPARE",
    "SctCompute",
    "SignedTx",
    "VerticalTrade",
    "Vote",
    "block_digest",
    "compute_tx_root",
    "decode_tx",
    "encode_block",
    "encode_committed",
    "encode_header",
    "encode_tx",
    "make_block",
    "make_vote",
    "sign_tx",
    "tx_digest",
    "verify_proof",
    "verify_tx",
    "verify_vote",
]

SIGNATURE_SIZE = 64

PHASE_PREPARE = 1
PHASE_COMMIT = 2


class MockSigner:
    """Deterministic stand-in signature scheme.

    sign(payload) = d || sha256(d) with d = sha256(key_id || payload).
    Verification recomputes both halves; there is no secrecy, which is
    fine for simulated validators that can crash but not forge.
    """

    def __init__(self, key_id: int):
        self.key_id = int(key_id)

    def sign(self, payload: bytes) -> bytes:
        d = hashlib.sha256(self.key_id.to_bytes(4, "little") + payload).digest()
        return d + hashlib.sha256(d).digest()

    @staticmethod
    def verify(key_id: int, payload: bytes, signature: bytes) -> bool:
        if len(signature) != SIGNATURE_SIZE:
            return False
        d = hashlib.sha256(int(key_id).to_bytes(4, "little") + payload).digest()
        return signature == d + hashlib.sha256(d).digest()


# ---------------------------------------------------------------------------
# transaction payloads

@dataclass(frozen=True)
class HorizontalTrade:
    """One home's decision for one iteration.

    ``export`` holds the home's net sale per slot (``horizon`` values;
    negative: net purchase), which the contract stores as its pending
    export.
    """

    user: int
    iteration: int
    export: Tuple[float, ...]


@dataclass(frozen=True)
class SctCompute:
    """Request to run the coordination step for one iteration; the
    contract takes it only from ``COORDINATOR``, the transaction's sender."""

    iteration: int


@dataclass(frozen=True)
class VerticalTrade:
    """A home's accepted feed-in and demand-response quantities."""

    user: int
    feed_in: Tuple[float, ...]
    dr_reduce: Tuple[float, ...]


TxPayload = Union[HorizontalTrade, SctCompute, VerticalTrade]

_TAG_HORIZONTAL = 1
_TAG_SCT = 2
_TAG_VERTICAL = 3


@dataclass(frozen=True)
class SignedTx:
    sender: int
    nonce: int
    payload: TxPayload
    signature: bytes

    @cached_property
    def signing_bytes(self) -> bytes:
        return _tx_signing_bytes(self.sender, self.nonce, self.payload)

    @cached_property
    def encoded(self) -> bytes:
        return Writer().raw(self.signing_bytes).blob(self.signature).take()

    @cached_property
    def digest(self) -> bytes:
        return digest(self.encoded)


def _encode_payload(w: Writer, payload: TxPayload) -> None:
    if isinstance(payload, HorizontalTrade):
        w.u8(_TAG_HORIZONTAL)
        w.u32(payload.user)
        w.u64(payload.iteration)
        w.f64_list(payload.export)
    elif isinstance(payload, SctCompute):
        w.u8(_TAG_SCT)
        w.u64(payload.iteration)
    elif isinstance(payload, VerticalTrade):
        w.u8(_TAG_VERTICAL)
        w.u32(payload.user)
        w.f64_list(payload.feed_in)
        w.f64_list(payload.dr_reduce)
    else:
        raise CodecError(f"unknown payload type {type(payload).__name__}")


def _decode_payload(r: Reader) -> TxPayload:
    tag = r.u8()
    if tag == _TAG_HORIZONTAL:
        return HorizontalTrade(user=r.u32(), iteration=r.u64(),
                               export=tuple(r.f64_list()))
    if tag == _TAG_SCT:
        return SctCompute(iteration=r.u64())
    if tag == _TAG_VERTICAL:
        return VerticalTrade(user=r.u32(), feed_in=tuple(r.f64_list()),
                             dr_reduce=tuple(r.f64_list()))
    raise CodecError(f"unknown transaction tag {tag}")


def _tx_signing_bytes(sender: int, nonce: int, payload: TxPayload) -> bytes:
    w = Writer()
    w.u32(sender)
    w.u64(nonce)
    _encode_payload(w, payload)
    return w.take()


def sign_tx(signer: MockSigner, sender: int, nonce: int,
            payload: TxPayload) -> SignedTx:
    sig = signer.sign(_tx_signing_bytes(sender, nonce, payload))
    return SignedTx(sender=sender, nonce=nonce, payload=payload,
                    signature=sig)


def verify_tx(tx: SignedTx) -> bool:
    return MockSigner.verify(tx.sender, tx.signing_bytes, tx.signature)


def encode_tx(tx: SignedTx) -> bytes:
    return tx.encoded


def decode_tx(data: bytes) -> SignedTx:
    r = Reader(data)
    sender = r.u32()
    nonce = r.u64()
    payload = _decode_payload(r)
    sig = r.blob()
    if len(sig) != SIGNATURE_SIZE:
        raise CodecError(f"signature must be {SIGNATURE_SIZE} bytes, "
                         f"got {len(sig)}")
    r.done()
    return SignedTx(sender=sender, nonce=nonce, payload=payload,
                    signature=sig)


def tx_digest(tx: SignedTx) -> bytes:
    return tx.digest


# ---------------------------------------------------------------------------
# blocks

@dataclass(frozen=True)
class BlockHeader:
    height: int
    parent: bytes
    timestamp_ms: int
    tx_root: bytes
    proposer: int
    round: int

    @cached_property
    def digest(self) -> bytes:
        return digest(encode_header(self))


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    txs: Tuple[SignedTx, ...]


def compute_tx_root(txs: Sequence[SignedTx]) -> bytes:
    return digest(b"".join(tx_digest(tx) for tx in txs))


def encode_header(header: BlockHeader) -> bytes:
    w = Writer()
    w.u64(header.height)
    w.raw(header.parent)
    w.u64(header.timestamp_ms)
    w.raw(header.tx_root)
    w.u32(header.proposer)
    w.u64(header.round)
    return w.take()


def block_digest(block_or_header: Union[Block, BlockHeader]) -> bytes:
    header = block_or_header.header if isinstance(block_or_header, Block) \
        else block_or_header
    return header.digest


def make_block(height: int, parent: bytes, timestamp_ms: int, proposer: int,
               round: int, txs: Sequence[SignedTx]) -> Block:
    header = BlockHeader(height=height, parent=parent,
                         timestamp_ms=timestamp_ms,
                         tx_root=compute_tx_root(txs), proposer=proposer,
                         round=round)
    return Block(header=header, txs=tuple(txs))


def encode_block(block: Block) -> bytes:
    w = Writer()
    w.raw(encode_header(block.header))
    w.u32(len(block.txs))
    for tx in block.txs:
        w.blob(encode_tx(tx))
    return w.take()


# ---------------------------------------------------------------------------
# votes and certificates

@dataclass(frozen=True)
class Vote:
    phase: int
    height: int
    round: int
    block_digest: bytes
    voter: int
    signature: bytes

    @cached_property
    def signing_bytes(self) -> bytes:
        return vote_payload(self.phase, self.height, self.round,
                            self.block_digest)


def vote_payload(phase: int, height: int, round: int,
                 block_dig: bytes) -> bytes:
    w = Writer()
    w.u8(phase)
    w.u64(height)
    w.u64(round)
    w.raw(block_dig)
    return w.take()


def make_vote(signer: MockSigner, phase: int, height: int, round: int,
              block_dig: bytes) -> Vote:
    sig = signer.sign(vote_payload(phase, height, round, block_dig))
    return Vote(phase=phase, height=height, round=round,
                block_digest=block_dig, voter=signer.key_id, signature=sig)


def verify_vote(vote: Vote) -> bool:
    return MockSigner.verify(vote.voter, vote.signing_bytes, vote.signature)


def encode_vote(vote: Vote) -> bytes:
    w = Writer()
    w.raw(vote.signing_bytes)
    w.u32(vote.voter)
    w.blob(vote.signature)
    return w.take()


@dataclass(frozen=True)
class ConsensusProof:
    """Quorum certificate: a quorum of votes of one phase on one block
    digest, height and round.  A committed block carries its commit votes;
    a prepare certificate is checked in the same form."""

    height: int
    round: int
    block_digest: bytes
    votes: Tuple[Vote, ...]


def verify_proof(proof: ConsensusProof, validators: Sequence[int],
                 quorum: int, phase: int = PHASE_COMMIT) -> bool:
    """True when ``proof`` holds validly signed ``phase`` votes on its
    digest, height and round from at least ``quorum`` distinct
    ``validators``, and no other vote."""
    voters = set()
    vset = set(validators)
    for vote in proof.votes:
        if vote.phase != phase:
            return False
        if (vote.height, vote.round) != (proof.height, proof.round):
            return False
        if vote.block_digest != proof.block_digest:
            return False
        if vote.voter not in vset or vote.voter in voters:
            return False
        if not verify_vote(vote):
            return False
        voters.add(vote.voter)
    return len(voters) >= quorum


def encode_proof(proof: ConsensusProof) -> bytes:
    w = Writer()
    w.u64(proof.height)
    w.u64(proof.round)
    w.raw(proof.block_digest)
    w.u32(len(proof.votes))
    for vote in proof.votes:
        w.blob(encode_vote(vote))
    return w.take()


@dataclass(frozen=True)
class CommittedBlock:
    """A block plus its commit certificate, shippable for catch-up."""

    block: Block
    proof: ConsensusProof


def encode_committed(cb: CommittedBlock) -> bytes:
    w = Writer()
    w.blob(encode_block(cb.block))
    w.blob(encode_proof(cb.proof))
    return w.take()
