"""Cost comparison across coordination modes on one synthetic scenario.

Solves the joint problem in all four modes, reruns the cooperative mode
through the iterative protocol, and prints a savings table.  Writes the
per-mode outcomes as JSON next to the table when --out is given.
Exits 3 when |distributed - joint| TEM cost exceeds 1e-4 max(1, |joint|),
the bound of acceptance gate c01.

Generates a neighbourhood with a wide rooftop-solar spread and modest
daily EV needs, so some homes hold a midday surplus: that is the regime
where peer trading and exports separate the modes.

Usage: python scripts/compare_modes.py [--users N] [--horizon T]
       [--seed S] [--out DIR]
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

from gridledger.energy_model import Mode
from gridledger.scenario import generate_synthetic
from gridledger.tem import (
    AdmmParams,
    RhoSchedule,
    run_distributed,
    solve_centralized,
)

# bound on |distributed - joint| / max(1, |joint|) for the TEM cost
GAP_TOL = 1e-4


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--users", type=int, default=3)
    ap.add_argument("--horizon", type=int, default=8)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    s = generate_synthetic(seed=args.seed, n_users=args.users,
                           horizon=args.horizon,
                           solar_range=(0.0, 10.0), ev_arrival_soc=0.85)
    outcomes = {}
    for mode in (Mode.BS1, Mode.BS2, Mode.BS3, Mode.TEM):
        t0 = time.perf_counter()
        outcomes[mode] = solve_centralized(s, mode)
        print(f"{mode.value}: solved in {time.perf_counter() - t0:.2f}s, "
              f"total cost {outcomes[mode].total_cost:.4f}")

    base = outcomes[Mode.BS1].total_cost
    print(f"\n{'mode':<6}{'total cost':>12}{'vs BS1':>10}")
    for mode, out in outcomes.items():
        saving = (base - out.total_cost) / abs(base) if base else 0.0
        print(f"{mode.value:<6}{out.total_cost:>12.4f}{saving:>9.1%}")

    t0 = time.perf_counter()
    dist = run_distributed(s, AdmmParams(eps=1e-6, max_iter=2000,
                                         rho_schedule=RhoSchedule.fixed(1.0)))
    joint = outcomes[Mode.TEM].total_cost
    gap = abs(dist.total_cost - joint)
    print(f"\ndistributed TEM: {dist.iterations} iterations in "
          f"{time.perf_counter() - t0:.2f}s, cost {dist.total_cost:.4f} "
          f"(gap to centralized {gap:.2e})")
    paths = Counter(r.polish for r in dist.history)
    print("sweeps by path: " + ", ".join(f"{k} {v}" for k, v in
                                         sorted(paths.items()))
          + f"; {sum(r.factors for r in dist.history)} factorizations")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for mode, out in outcomes.items():
            out.write_json(args.out / f"outcome_{mode.value}.json")
        dist.write_json(args.out / "outcome_TEM_distributed.json")
        print(f"wrote outcomes to {args.out}")
    if gap / max(1.0, abs(joint)) > GAP_TOL:
        print(f"distributed TEM cost {dist.total_cost!r} is {gap:.3e} from "
              f"the joint {joint!r}, past the relative bound {GAP_TOL:g}",
              file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
