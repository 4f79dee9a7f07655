"""Deterministic coordination contract executed on every validator.

The contract holds the shared trading state: each home's pending net
export, the cleared levels and price shares of the coordination step
and their previous iterate (``tem.DualState``, five (N, T) arrays), token
balances and per-sender nonces.  Applying the same transactions in the same order to the same
state always yields the same state; validators compare state digests to
prove it.

A home publishes its net export per slot, which the contract stores as
the home's pending export; the coordination step is ``tem.sct_step``,
the code the local mirror runs.  A home may only publish its own export
and settle its own grid quantities (the transaction's sender must be the
payload's user), and only ``COORDINATOR`` may request the coordination
step.  With two or more homes the step runs only once every home has
published for its iteration, so it never settles a stale export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, FrozenSet, List, Tuple

import numpy as np

from ..tem import (DualState, RhoSchedule, advance_iteration,
                   dual_state_digest, new_dual_state, sct_step)
from .codec import Writer, hexdigest
from .blocks import (HorizontalTrade, SctCompute, SignedTx, VerticalTrade,
                     tx_digest, verify_tx)

__all__ = [
    "COORDINATOR",
    "ContractConfig",
    "ContractState",
    "GRID_ACCOUNT",
    "Receipt",
    "contract_digest",
    "execute_transactions",
    "genesis",
]

GRID_ACCOUNT = 2 ** 32 - 1
COORDINATOR = 2 ** 32 - 2
INITIAL_BALANCE = 1000.0
GRID_BALANCE = 1e9


@dataclass(frozen=True)
class ContractConfig:
    n_users: int
    horizon: int
    rho_schedule: RhoSchedule
    price_feed_in: Tuple[float, ...]
    price_dr: Tuple[float, ...]


@dataclass
class ContractState:
    config: ContractConfig
    dual: DualState
    balances: Dict[int, float]
    nonces: Dict[int, int]
    feed_in: np.ndarray
    dr_reduce: np.ndarray
    stale_rejections: int = 0
    # homes that have published for the pending iteration
    published: FrozenSet[int] = frozenset()

    def copy(self) -> "ContractState":
        return ContractState(config=self.config, dual=self.dual.copy(),
                             balances=dict(self.balances),
                             nonces=dict(self.nonces),
                             feed_in=self.feed_in.copy(),
                             dr_reduce=self.dr_reduce.copy(),
                             stale_rejections=self.stale_rejections,
                             published=self.published)


@dataclass(frozen=True)
class Receipt:
    tx: str
    status: str
    detail: str = ""


def genesis(config: ContractConfig) -> ContractState:
    dual = new_dual_state(config.n_users, config.horizon,
                          config.rho_schedule.rho_at(1))
    balances = {u: INITIAL_BALANCE for u in range(config.n_users)}
    balances[GRID_ACCOUNT] = GRID_BALANCE
    return ContractState(
        config=config, dual=dual, balances=balances, nonces={},
        feed_in=np.zeros((config.n_users, config.horizon)),
        dr_reduce=np.zeros((config.n_users, config.horizon)))


def contract_digest(state: ContractState) -> str:
    """Canonical digest of everything consensus must agree on."""
    w = Writer()
    w.u32(state.config.n_users)
    w.u32(state.config.horizon)
    w.text(dual_state_digest(state.dual))
    for account in sorted(state.balances):
        w.u64(account)
        w.f64(state.balances[account])
    for sender in sorted(state.nonces):
        w.u64(sender)
        w.u64(state.nonces[sender])
    w.raw(np.ascontiguousarray(state.feed_in, dtype="<f8").tobytes())
    w.raw(np.ascontiguousarray(state.dr_reduce, dtype="<f8").tobytes())
    w.u64(state.stale_rejections)
    w.u32(len(state.published))
    for user in sorted(state.published):
        w.u32(user)
    return hexdigest(w.take())


def _wrong_sender(sender: int, owner: int) -> Receipt:
    return Receipt("", "wrong-sender", f"sender {sender}, payload belongs "
                                       f"to {owner}")


def _apply_horizontal(state: ContractState, sender: int,
                      p: HorizontalTrade) -> Receipt:
    n = state.config.n_users
    t = state.config.horizon
    if not 0 <= p.user < n:
        return Receipt("", "unknown-user", f"user {p.user}")
    if sender != p.user:
        return _wrong_sender(sender, p.user)
    if n < 2:
        return Receipt("", "no-peers", "a one-home contract has no trades")
    if len(p.export) != t:
        return Receipt("", "bad-shape",
                       f"expected {t} export values, got {len(p.export)}")
    if p.iteration != state.dual.iteration + 1:
        state.stale_rejections += 1
        return Receipt("", "stale-iteration",
                       f"iteration {p.iteration}, contract accepts "
                       f"{state.dual.iteration + 1}")
    export = np.asarray(p.export, dtype=float)
    if not np.all(np.isfinite(export)):
        return Receipt("", "bad-shape", "non-finite export value")
    state.dual.exports[p.user] = export
    state.published |= {p.user}
    return Receipt("", "applied")


def _apply_sct(state: ContractState, sender: int, p: SctCompute) -> Receipt:
    if sender != COORDINATOR:
        return _wrong_sender(sender, COORDINATOR)
    if p.iteration != state.dual.iteration + 1:
        state.stale_rejections += 1
        return Receipt("", "stale-iteration",
                       f"iteration {p.iteration}, contract accepts "
                       f"{state.dual.iteration + 1}")
    missing = sorted(set(range(state.config.n_users)) - state.published)
    if state.config.n_users > 1 and missing:
        return Receipt("", "missing-publish",
                       f"homes {missing} have not published iteration "
                       f"{p.iteration}")
    state.dual = advance_iteration(sct_step(state.dual),
                                   state.config.rho_schedule)
    state.published = frozenset()
    return Receipt("", "applied")


def _apply_vertical(state: ContractState, sender: int,
                    p: VerticalTrade) -> Receipt:
    n = state.config.n_users
    t = state.config.horizon
    if not 0 <= p.user < n:
        return Receipt("", "unknown-user", f"user {p.user}")
    if sender != p.user:
        return _wrong_sender(sender, p.user)
    if len(p.feed_in) != t or len(p.dr_reduce) != t:
        return Receipt("", "bad-shape",
                       f"need {t} slots in both series")
    feed = np.asarray(p.feed_in, dtype=float)
    dr = np.asarray(p.dr_reduce, dtype=float)
    if not (np.all(np.isfinite(feed)) and np.all(np.isfinite(dr))):
        return Receipt("", "bad-shape", "non-finite quantity")
    if feed.min(initial=0.0) < 0 or dr.min(initial=0.0) < 0:
        return Receipt("", "bad-amount", "negative quantity")

    def reward(feed: np.ndarray, dr: np.ndarray) -> float:
        return float(np.dot(np.asarray(state.config.price_feed_in), feed)
                     + np.dot(np.asarray(state.config.price_dr), dr))

    # the new quantities replace the standing ones, so only the change in
    # their reward is paid: settling the same quantities twice pays once
    delta = reward(feed, dr) - reward(state.feed_in[p.user],
                                      state.dr_reduce[p.user])
    if state.balances[GRID_ACCOUNT] < delta:
        return Receipt("", "insufficient-balance", "grid account exhausted")
    if state.balances[p.user] < -delta:
        return Receipt("", "insufficient-balance",
                       f"user {p.user} cannot repay {-delta:.6f}")
    state.feed_in[p.user] = feed
    state.dr_reduce[p.user] = dr
    state.balances[GRID_ACCOUNT] -= delta
    state.balances[p.user] += delta
    return Receipt("", "applied")


def execute_transactions(state: ContractState,
                         txs: List[SignedTx],
                         verified: Container[bytes] = ()
                         ) -> Tuple[ContractState, List[Receipt]]:
    """Apply a block's transactions in order; pure, returns a new state.

    A transaction with the correct next nonce consumes it whatever the
    payload outcome, so replays can never apply twice.  Signature and
    nonce failures consume nothing.  ``verified`` holds the digests of
    transactions whose signatures the caller has already checked; a
    digest covers the signature, so a forged twin is never among them,
    and every other transaction is checked here.
    """
    out = state.copy()
    receipts: List[Receipt] = []
    for tx in txs:
        tx_dig = tx_digest(tx)
        txid = tx_dig.hex()
        if tx_dig not in verified and not verify_tx(tx):
            receipts.append(Receipt(txid, "bad-signature"))
            continue
        expected = out.nonces.get(tx.sender, 0) + 1
        if tx.nonce != expected:
            receipts.append(Receipt(txid, "bad-nonce",
                                    f"expected {expected}, got {tx.nonce}"))
            continue
        out.nonces[tx.sender] = tx.nonce
        p = tx.payload
        if isinstance(p, HorizontalTrade):
            rec = _apply_horizontal(out, tx.sender, p)
        elif isinstance(p, SctCompute):
            rec = _apply_sct(out, tx.sender, p)
        elif isinstance(p, VerticalTrade):
            rec = _apply_vertical(out, tx.sender, p)
        else:
            rec = Receipt("", "bad-shape", f"payload {type(p).__name__}")
        receipts.append(Receipt(txid, rec.status, rec.detail))
    return out, receipts
