"""Command line driver: run scenarios, compare modes, demo the chain.

Exit codes are a stable contract: 0 success, 1 usage error, 2 the
problem is infeasible, 3 convergence or liveness timed out, or the mode
costs of ``compare`` break the ordering TEM <= BS2,BS3 <= BS1.  The
``GRIDLEDGER_SEED`` environment variable overrides ``--seed`` wherever
a seed is accepted, and every CSV starts with a schema header row.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .chain.cluster import run_to_height, start_cluster, tally
from .chain.node import ConsensusMode
from .chain_transport import ChainTransport
from .energy_model import SCHEDULE_SERIES, Mode
from .netsim import LivenessTimeout, NetConfig, Network
from .qp import QpStatus
from .scenario import (Scenario, ScenarioError, generate_synthetic,
                       load_scenario)
from .tem import (AdmmParams, Outcome, RhoSchedule, SolveFailed,
                  run_distributed, solve_centralized)

__all__ = [
    "EXIT_INFEASIBLE",
    "EXIT_LIVENESS",
    "EXIT_OK",
    "EXIT_USAGE",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_LIVENESS = 3

SCHEMA_SCHEDULE = "gridledger.schedule.v1"
SCHEMA_COMPARE = "gridledger.compare.v1"
SCHEMA_CHAIN = "gridledger.chainmetrics.v1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse with the documented usage exit code."""

    def error(self, message: str):
        raise _UsageError(message)


def _effective_seed(seed: int) -> int:
    env = os.environ.get("GRIDLEDGER_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise _UsageError(f"GRIDLEDGER_SEED must be an integer, "
                              f"got {env!r}")
    if seed < 0:
        raise _UsageError(f"seed must be nonnegative, got {seed}")
    return seed


def _parse_synthetic(text: str) -> Tuple[int, int]:
    m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", text)
    if not m:
        raise _UsageError(f"--synthetic expects N,T (got {text!r})")
    n, t = int(m.group(1)), int(m.group(2))
    if n < 1 or t < 1:
        raise _UsageError("--synthetic needs N >= 1 and T >= 1")
    return n, t


def _parse_rho(text: str) -> RhoSchedule:
    low = text.strip().lower()
    if low == "reciprocal":
        return RhoSchedule.reciprocal()
    if low.startswith("fixed:"):
        low = low[len("fixed:"):]
    try:
        value = float(low)
    except ValueError:
        raise _UsageError(f"--rho expects a number, fixed:VALUE or "
                          f"reciprocal (got {text!r})")
    if value <= 0:
        raise _UsageError("--rho must be positive")
    return RhoSchedule.fixed(value)


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    if getattr(args, "config", None) and args.synthetic:
        raise _UsageError("give either a config path or --synthetic, not both")
    if getattr(args, "config", None):
        return load_scenario(Path(args.config))
    if args.synthetic:
        n, t = _parse_synthetic(args.synthetic)
        return generate_synthetic(seed=_effective_seed(args.seed), n_users=n,
                                  horizon=t)
    raise _UsageError("a scenario is required: config path or "
                      "--synthetic N,T")


def _write_schedule_csv(path: Path, s: Scenario, outcome: Outcome) -> None:
    cols = ["user", "slot", *SCHEDULE_SERIES]
    cols += [f"trade_to_{m}" for m in range(s.n_users)]
    cols.append("peak")
    lines = [f"# schema: {SCHEMA_SCHEDULE}", ",".join(cols)]
    for n, sch in enumerate(outcome.schedules):
        for t in range(s.grid.horizon):
            row = [str(n), str(t)]
            for field in SCHEDULE_SERIES:
                row.append(repr(float(getattr(sch, field)[t])))
            for m in range(s.n_users):
                row.append(repr(float(sch.trades[m, t])))
            row.append(repr(float(sch.peak)))
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _print_outcome(outcome: Outcome) -> None:
    print(f"mode {outcome.mode}: total cost "
          f"{outcome.total_cost:.6f}, {outcome.iterations} iteration(s), "
          f"converged={outcome.converged}")


# ---------------------------------------------------------------------------
# run


def cmd_run(args: argparse.Namespace) -> int:
    try:
        mode = Mode(args.mode.upper())
    except ValueError:
        raise _UsageError(f"unknown mode {args.mode!r}; choose from "
                          f"TEM, BS1, BS2, BS3")
    s = _resolve_scenario(args)
    rho = _parse_rho(args.rho)
    try:
        params = AdmmParams(eps=args.eps, max_iter=args.max_iter,
                            rho_schedule=rho)
    except ValueError as e:
        raise _UsageError(str(e))
    code = EXIT_OK
    if args.distributed:
        if mode is not Mode.TEM:
            raise _UsageError("--distributed decomposes the trading mode; "
                              "use --mode TEM")
        transport = None
        if args.transport == "chain":
            try:
                transport = ChainTransport(n_validators=args.validators,
                                           seed=_effective_seed(args.seed))
            except ValueError as e:
                raise _UsageError(str(e))
        outcome = run_distributed(s, params, transport)
        if not outcome.converged:
            print(f"no convergence within {params.max_iter} iterations "
                  f"(primal residual "
                  f"{outcome.history[-1].primal_residual:.3e})",
                  file=sys.stderr)
            code = EXIT_LIVENESS
    else:
        outcome = solve_centralized(s, mode)
    _print_outcome(outcome)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        jpath = out / f"outcome_{mode.value}.json"
        outcome.write_json(jpath)
        cpath = out / f"schedule_{mode.value}.csv"
        _write_schedule_csv(cpath, s, outcome)
        print(f"wrote {jpath} and {cpath}")
    return code


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args: argparse.Namespace) -> int:
    s = _resolve_scenario(args)
    outcomes: Dict[Mode, Outcome] = {}
    for mode in (Mode.BS1, Mode.BS2, Mode.BS3, Mode.TEM):
        outcomes[mode] = solve_centralized(s, mode)
    base = outcomes[Mode.BS1].total_cost
    lines = [f"# schema: {SCHEMA_COMPARE}",
             "mode,total_cost,savings_vs_BS1,iterations"]
    for mode in (Mode.BS1, Mode.BS2, Mode.BS3, Mode.TEM):
        o = outcomes[mode]
        savings = (base - o.total_cost) / base if base > 0 else None
        stext = "" if savings is None else repr(savings)
        lines.append(f"{mode.value},{o.total_cost!r},{stext},{o.iterations}")
    table = "\n".join(lines)
    print(table)
    tol = 1e-6
    cost = {m: o.total_cost for m, o in outcomes.items()}
    broken = [f"{lo.value} {cost[lo]!r} > {hi.value} {cost[hi]!r}"
              for lo, hi in ((Mode.TEM, Mode.BS2), (Mode.BS2, Mode.BS1),
                             (Mode.TEM, Mode.BS3), (Mode.BS3, Mode.BS1))
              if not cost[lo] <= cost[hi] + tol]
    print(f"mode ordering (TEM <= BS2,BS3 <= BS1): "
          f"{'VIOLATED' if broken else 'ok'}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        cpath = out / "compare.csv"
        cpath.write_text(table + "\n")
        print(f"wrote {cpath}")
    if broken:
        print(f"mode ordering violated beyond {tol:g}: {'; '.join(broken)}",
              file=sys.stderr)
        return EXIT_LIVENESS
    return EXIT_OK


# ---------------------------------------------------------------------------
# chain


_FAULT_RE = re.compile(r"crash@([0-9]+(?:\.[0-9]+)?):(?:validator)?([0-9]+)")


def _parse_faults(specs: Sequence[str]) -> List[Tuple[int, float]]:
    out: List[Tuple[int, float]] = []
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            m = _FAULT_RE.fullmatch(part)
            if not m:
                raise _UsageError(
                    f"fault spec {part!r} not understood; use "
                    f"crash@TIME_MS:validatorID")
            out.append((int(m.group(2)), float(m.group(1))))
    return out


def cmd_chain(args: argparse.Namespace) -> int:
    if args.validators < 4:
        raise _UsageError("need at least 4 validators to tolerate one fault "
                          "(3f+1 with f >= 1)")
    if args.blocks < 1:
        raise _UsageError(f"--blocks must be >= 1, got {args.blocks}")
    faults = _parse_faults(args.faults or [])
    protocols: List[ConsensusMode]
    if args.mode == "both":
        protocols = [ConsensusMode.MODIFIED, ConsensusMode.CLASSIC]
    else:
        protocols = [ConsensusMode(args.mode)]
    seed = _effective_seed(args.seed)
    lines = [f"# schema: {SCHEMA_CHAIN}",
             "protocol,height,msgs,bytes,latency_ms"]
    per_block: Dict[str, float] = {}
    last_heights: Dict[int, int] = {}
    for protocol in protocols:
        net = Network(NetConfig(latency_ms=(1.0, 10.0)), seed=seed)
        start_cluster(net, args.validators, protocol)
        for node_id, at_ms in faults:
            if node_id not in net.states:
                raise _UsageError(f"fault names unknown validator {node_id}")
            net.crash(node_id, at_ms)
        try:
            run_to_height(net, args.blocks)
        except LivenessTimeout as e:
            print(f"liveness timeout in {protocol.value} consensus after "
                  f"{e.events} events at t={e.sim_time_ms:.0f}ms",
                  file=sys.stderr)
            return EXIT_LIVENESS
        per_height = tally(net)
        heights = [per_height[h] for h in range(1, args.blocks + 1)]
        lines.extend(f"{protocol.value},{h},{t.msgs},{t.bytes},"
                     f"{t.latency_ms:.3f}"
                     for h, t in enumerate(heights, start=1))
        per_block[protocol.value] = sum(t.msgs for t in heights) / args.blocks
        last_heights = {v: st.height for v, st in net.states.items()}
    table = "\n".join(lines)
    print(table)
    n = args.validators
    for name, avg in per_block.items():
        note = (f"leader aggregation target 5(n-1)={5 * (n - 1)}"
                if name == "modified"
                else f"all-to-all floor 2n(n-1)={2 * n * (n - 1)}")
        print(f"{name}: {args.blocks} commits, {avg:.1f} msgs/block ({note})")
    if len(per_block) == 2:
        ratio = per_block["modified"] / per_block["classic"]
        print(f"modified/classic message ratio: {ratio:.3f}")
    if faults:
        print(f"final heights with faults {faults}: {last_heights}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        cpath = out / "chain_metrics.csv"
        cpath.write_text(table + "\n")
        print(f"wrote {cpath}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    p = _Parser(prog="gridledger",
                description="Transactive home energy scheduling with "
                            "replicated coordination.")
    sub = p.add_subparsers(dest="command")

    run = sub.add_parser("run", help="solve one scenario in one mode",
                         add_help=True)
    run.add_argument("config", nargs="?", help="scenario directory")
    run.add_argument("--synthetic", metavar="N,T",
                     help="generate a scenario instead of loading one")
    run.add_argument("--mode", default="TEM",
                     help="TEM, BS1, BS2 or BS3 (default TEM)")
    run.add_argument("--distributed", action="store_true",
                     help="solve by per-home decomposition instead of jointly")
    run.add_argument("--transport", choices=["inprocess", "chain"],
                     default="inprocess",
                     help="where the coordination state lives")
    run.add_argument("--validators", type=int, default=4,
                     help="validator count for --transport chain")
    run.add_argument("--rho", default="fixed:1.0",
                     help="penalty schedule: fixed:VALUE or reciprocal")
    run.add_argument("--eps", type=float, default=1e-6,
                     help="convergence threshold")
    run.add_argument("--max-iter", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0,
                     help="seed for --synthetic and chain transport")
    run.add_argument("--out", help="directory for outcome JSON and CSV")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare",
                          help="solve all four modes and tabulate savings")
    cmp_.add_argument("config", nargs="?", help="scenario directory")
    cmp_.add_argument("--synthetic", metavar="N,T")
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--out", help="directory for compare.csv")
    cmp_.set_defaults(func=cmd_compare)

    chain = sub.add_parser("chain", help="benchmark the consensus protocols")
    chain.add_argument("--validators", type=int, default=4)
    chain.add_argument("--blocks", type=int, default=10)
    chain.add_argument("--mode", choices=["modified", "classic", "both"],
                       default="modified")
    chain.add_argument("--faults", action="append", metavar="SPEC",
                       help="crash@TIME_MS:validatorID, repeatable")
    chain.add_argument("--seed", type=int, default=0)
    chain.add_argument("--out", help="directory for chain_metrics.csv")
    chain.set_defaults(func=cmd_chain)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help()
            return EXIT_USAGE
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SolveFailed as e:
        print(f"solve failed: {e}", file=sys.stderr)
        if e.status is QpStatus.INFEASIBLE:
            return EXIT_INFEASIBLE
        return EXIT_LIVENESS
    except LivenessTimeout as e:
        print(f"liveness timeout: {e}", file=sys.stderr)
        return EXIT_LIVENESS


if __name__ == "__main__":
    sys.exit(main())
