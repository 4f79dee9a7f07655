"""Message-count benchmark: aggregated versus all-to-all vote collection.

Runs empty-block consensus over the simulated network for a range of
cluster sizes and reports per-block message and byte counts for both
protocols.  The aggregated variant needs 5(n-1) messages per block, the
all-to-all one 2n(n-1), so the ratio falls roughly as 2.5/n.

Usage: python scripts/consensus_bench.py [--blocks B] [--sizes 4,7,10,13]
       [--seed S]
"""

import argparse

from gridledger.chain import ConsensusMode
from gridledger.chain.cluster import run_to_height, start_cluster, tally
from gridledger.netsim import NetConfig, Network


def per_block(n: int, mode: ConsensusMode, blocks: int, seed: int):
    """Mean messages and bytes per committed block at heights 1..blocks."""
    net = Network(NetConfig(latency_ms=(0.5, 2.0)), seed=seed)
    start_cluster(net, n, mode)
    run_to_height(net, blocks)
    per_height = tally(net)
    heights = [per_height[h] for h in range(1, blocks + 1)]
    return (sum(t.msgs for t in heights) / blocks,
            sum(t.bytes for t in heights) / blocks)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--blocks", type=int, default=5)
    ap.add_argument("--sizes", default="4,7,10,13")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sizes = [int(x) for x in args.sizes.split(",")]

    print(f"{'n':>3}{'aggregated':>12}{'all-to-all':>12}{'ratio':>8}"
          f"{'agg bytes':>11}{'a2a bytes':>11}")
    for n in sizes:
        m_msgs, m_bytes = per_block(n, ConsensusMode.MODIFIED, args.blocks,
                                    args.seed)
        c_msgs, c_bytes = per_block(n, ConsensusMode.CLASSIC, args.blocks,
                                    args.seed)
        print(f"{n:>3}{m_msgs:>12.1f}{c_msgs:>12.1f}"
              f"{m_msgs / c_msgs:>8.3f}{m_bytes:>11.0f}{c_bytes:>11.0f}")


if __name__ == "__main__":
    main()
