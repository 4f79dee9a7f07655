"""gridledger benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload joint-modes --seed 1 --seconds 50 \
        --trace 0

Workloads: joint-modes, admm-chain, consensus-crash (see perfbench/README.md;
BENCHMARK.json lists the first two).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The report above the last line gives every workload-specific metric,
the environment and the checks; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Full
reports go to perfbench/results/.
"""

import os

# One BLAS thread, before numpy loads: the interior-point iteration counts
# (and so the timings) differ between one and two OpenBLAS threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("joint-modes", "admm-chain", "consensus-crash")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scenario-seed", type=int, default=None,
                    help="scenario generator seed (default 3; 0 is held "
                         "out for confirming claims)")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "gridledger" / "__init__.py").is_file():
        print(f"perfbench: no gridledger sources at {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    return harness.main(args, ROOT, SRC, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
