"""Span recorder and the layer wrappers of the traced run.

A span is one call across a layer boundary: name, start, end, the span
that was open when it began (its parent) and the workload pass it belongs
to.  Spans are appended to flat arrays while the run measures and are
reduced and written out only after it, so recording costs a few array
appends per call.  Self time is a span's duration minus the durations of
its direct children; because calls nest strictly in one thread, the self
times of every span in a pass add up to the pass's duration exactly.

``instrument`` swaps the module attributes through which the layers call
each other for timing wrappers and puts the originals back on exit.  No
file of the program is edited: the wrappers live here, and a layer only
sees them through the attribute it already looks up at call time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

# Layer names as reported, longest prefix first so "chain.node" wins over
# "chain".  "bench" is the benchmark's own code: the pass span itself.
LAYERS = ("scenario", "energy_model", "tem", "qp", "netsim", "chain.node",
          "chain.blocks", "chain.contract", "chain_transport", "bench")


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no layer")


class Tracer:
    """In-memory span store plus the counters measured at the same calls.

    Spans are numbered in the order they begin.  The spans of one pass are
    contiguous, so a pass is stored as the index of its first span.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ix = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self.pass_first: List[Tuple[int, int]] = [(0, 0)]
        # additive counters and running maxima, keyed by metric name
        self.counts: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        # action lists returned by node handlers, sized after each pass
        self.actions: List[list] = []

    def name_id(self, name: str) -> int:
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
        return ix

    def begin_pass(self, pass_no: int) -> None:
        self.pass_first.append((pass_no, len(self.end)))

    def begin(self, name: str) -> int:
        i = len(self.end)
        self.name_ix.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- reduction ---------------------------------------------------------

    def pass_of_span(self) -> np.ndarray:
        out = np.zeros(len(self.end), dtype=np.int64)
        for pass_no, first in self.pass_first:
            out[first:] = pass_no
        return out

    def by_name(self, passes: List[int]) -> Dict[str, Dict[str, float]]:
        """calls, total and self seconds per span name, summed over passes.

        A span's self time is its duration minus its direct children's.
        """
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        has = parent >= 0
        own = dur - np.bincount(parent[has], weights=dur[has],
                                minlength=dur.size)
        names = np.asarray(self.name_ix)
        keep = np.isin(self.pass_of_span(), passes)
        k = len(self.names)
        calls = np.bincount(names[keep], minlength=k)
        total = np.bincount(names[keep], weights=dur[keep], minlength=k)
        selfs = np.bincount(names[keep], weights=own[keep], minlength=k)
        return {name: {"calls": float(calls[ix]), "total": float(total[ix]),
                       "self": float(selfs[ix])}
                for ix, name in enumerate(self.names) if calls[ix]}

    def save(self, path) -> None:
        """Write every span as compressed arrays; names index ``names``."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name_ix),
            pass_no=self.pass_of_span(), parent=np.asarray(self.parent),
            start=np.asarray(self.start), end=np.asarray(self.end))


# ---------------------------------------------------------------------------
# wrappers

def _timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    # Tracer.begin/finish inlined: these wrappers sit on the hottest calls
    ix = tracer.name_id(name)
    name_append, parent_append = tracer.name_ix.append, tracer.parent.append
    start_append, end_append = tracer.start.append, tracer.end.append
    end, stack = tracer.end, tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = len(end)
        name_append(ix)
        parent_append(stack[-1])
        end_append(0.0)
        stack.append(i)
        start_append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            end[i] = perf_counter()
            stack.pop()
    return wrapper


def _counted(tracer: Tracer, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(key)
        return fn(*args, **kwargs)
    return wrapper


def _solve_qp(tracer: Tracer, fn: Callable) -> Callable:
    """solve_qp split by start (cold/warm) and, for joint solves, by mode."""
    @functools.wraps(fn)
    def wrapper(problem, *args, **kwargs):
        warm = kwargs.get("warm_start") is not None
        mode = problem.layout_tag.split(":", 1)[0]
        joint = ":joint:" in problem.layout_tag
        name = "qp.solve_qp.warm" if warm else \
            f"qp.solve_qp.cold.{mode if joint else 'home'}"
        i = tracer.begin(name)
        try:
            sol = fn(problem, *args, **kwargs)
        finally:
            tracer.finish(i)
        if warm:
            tracer.add("qp.solve_qp.warm.hits", sol.iterations == 1)
        else:
            tracer.add("qp.solve_qp.ipm_iterations", sol.iterations)
            if joint:
                tracer.peak(f"qp.solve_qp.kkt_worst.max.{mode}",
                            sol.kkt.worst())
        return sol
    return wrapper


def _assemble_problem(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(s, mode, *args, **kwargs):
        i = tracer.begin(f"tem.assemble_problem.{mode.value}")
        try:
            return fn(s, mode, *args, **kwargs)
        finally:
            tracer.finish(i)
    return wrapper


def _execute_transactions(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(state, txs, *args, **kwargs):
        i = tracer.begin("chain.contract.execute_transactions")
        try:
            new_state, receipts = fn(state, txs, *args, **kwargs)
        finally:
            tracer.finish(i)
        tracer.add("chain.contract.execute_transactions.txs", len(txs))
        tracer.add("chain.contract.execute_transactions.rejected",
                   sum(r.status != "applied" for r in receipts))
        return new_state, receipts
    return wrapper


def _handle(tracer: Tracer, fn: Callable) -> Callable:
    """Node handler.  Keeps the action lists of outermost calls for sizing
    after the pass; a replayed proposal's actions are already folded into
    its caller's list."""
    depth = [0]

    @functools.wraps(fn)
    def wrapper(st, sender, msg, now):
        depth[0] += 1
        i = tracer.begin("chain.node.handle")
        try:
            acts = fn(st, sender, msg, now)
        finally:
            tracer.finish(i)
            depth[0] -= 1
        if depth[0] == 0:
            tracer.actions.append(acts)
        return acts
    return wrapper


def drain_send_bytes(tracer: Tracer) -> int:
    """Encoded bytes of every send the handlers returned since last asked."""
    from gridledger.chain.node import Send
    total = sum(message_bytes(a.msg) for acts in tracer.actions
                for a in acts if isinstance(a, Send))
    tracer.actions.clear()
    return total


def message_bytes(msg: object) -> int:
    """Encoded size of one consensus message, in bytes.

    Block, vote, proof and committed-block parts use the chain codec; the
    remaining fields count at their codec widths.  Unlike the CLI's private
    sizer, no message kind falls back to a fixed guess.
    """
    from gridledger.chain import blocks, node
    if isinstance(msg, node.PrePrepare):
        return len(blocks.encode_block(msg.block))
    if isinstance(msg, (node.PrepareVote, node.CommitVote)):
        return len(blocks.encode_vote(msg.vote))
    if isinstance(msg, node.AggregatedPrepare):
        # height, round, digest, then the votes
        return 8 + 8 + 32 + sum(len(blocks.encode_vote(v))
                                for v in msg.votes)
    if isinstance(msg, node.AggregatedCommit):
        return len(blocks.encode_proof(msg.proof))
    if isinstance(msg, node.ViewChange):
        size = 8 + 8 + 4 + sum(len(blocks.encode_vote(v))
                               for v in msg.prepared_votes)
        if msg.prepared_block is not None:
            size += len(blocks.encode_block(msg.prepared_block))
        return size
    if isinstance(msg, node.CommittedBlockMsg):
        return len(blocks.encode_committed(msg.committed))
    if isinstance(msg, node.CatchUpRequest):
        return 8
    raise TypeError(f"no size for {type(msg).__name__}")


# (module, attribute, span name) for the plain timing wrappers.  Several
# attributes share a span name when one function is reached through more
# than one importing module.
_PLAIN: Tuple[Tuple[str, str, str], ...] = (
    ("gridledger.scenario", "generate_synthetic",
     "scenario.generate_synthetic"),
    ("gridledger.tem", "build_user_constraints",
     "energy_model.build_user_constraints"),
    ("gridledger.tem", "build_user_objective",
     "energy_model.build_user_objective"),
    ("gridledger.energy_model", "schedule_from_x",
     "energy_model.schedule_from_x"),
    ("gridledger.tem", "schedule_from_x", "energy_model.schedule_from_x"),
    ("gridledger.tem", "assemble_ult", "tem.assemble_ult"),
    ("gridledger.tem", "run_distributed", "tem.run_distributed"),
    ("gridledger.tem", "sct_step", "tem.sct_step"),
    ("gridledger.chain.contract", "sct_step", "tem.sct_step"),
    ("gridledger.tem", "dual_state_digest", "tem.dual_state_digest"),
    ("gridledger.chain.contract", "dual_state_digest",
     "tem.dual_state_digest"),
    ("gridledger.chain_transport", "dual_state_digest",
     "tem.dual_state_digest"),
    ("gridledger.qp", "kkt_residuals", "qp.kkt_residuals"),
    ("gridledger.chain.node", "verify_vote", "chain.blocks.verify"),
    ("gridledger.chain.node", "verify_tx", "chain.blocks.verify"),
    ("gridledger.chain.node", "verify_proof", "chain.blocks.verify"),
    ("gridledger.chain.blocks", "verify_vote", "chain.blocks.verify"),
    ("gridledger.chain.contract", "verify_tx", "chain.blocks.verify"),
    ("gridledger.chain.node", "block_digest", "chain.blocks.encode"),
    ("gridledger.chain.node", "compute_tx_root", "chain.blocks.encode"),
    ("gridledger.chain.node", "make_block", "chain.blocks.encode"),
    ("gridledger.chain.node", "make_vote", "chain.blocks.encode"),
    ("gridledger.chain.node", "tx_digest", "chain.blocks.encode"),
    ("gridledger.chain.contract", "tx_digest", "chain.blocks.encode"),
    ("gridledger.chain_transport", "encode_tx", "chain.blocks.encode"),
    ("gridledger.chain_transport", "sign_tx", "chain.blocks.encode"),
    ("gridledger.chain_transport", "contract_digest",
     "chain.contract.contract_digest"),
)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route the layers' calls to each other through timing wrappers."""
    from gridledger.netsim import Network

    patches: List[Tuple[object, str, Callable]] = []
    for mod, attr, name in _PLAIN:
        patches.append((importlib.import_module(mod), attr,
                        lambda fn, n=name: _timed(tracer, n, fn)))
    for mod in ("gridledger.qp", "gridledger.tem"):
        patches.append((importlib.import_module(mod), "solve_qp",
                        lambda fn: _solve_qp(tracer, fn)))
    patches.append((importlib.import_module("gridledger.tem"),
                    "assemble_problem",
                    lambda fn: _assemble_problem(tracer, fn)))
    patches.append((importlib.import_module("gridledger.chain.node"),
                    "execute_transactions",
                    lambda fn: _execute_transactions(tracer, fn)))
    for mod in ("gridledger.chain.node", "gridledger.chain_transport"):
        patches.append((importlib.import_module(mod), "handle",
                        lambda fn: _handle(tracer, fn)))
    patches.append((importlib.import_module("gridledger.chain.blocks"),
                    "digest",
                    lambda fn: _counted(tracer, "chain.codec.digest.calls",
                                        fn)))
    patches.append((Network, "run",
                    lambda fn: _timed(tracer, "netsim.Network.run", fn)))

    saved: List[Tuple[object, str, Callable]] = []
    try:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def maybe_span(tracer: Optional[Tracer], name: str):
    """A span when tracing, otherwise a context that records nothing."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)
