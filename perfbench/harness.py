"""Runs one workload: set-up, timed passes, checks, metrics and report.

A run repeats timed passes over the same inputs until the next one would
end after ``--seconds``.  It sets up once before each pass, and then again
until it has set up at least ``SETUPS`` times, and reports the median:
set-ups spread over the whole run see the same drift in the host's speed
as the passes do, rather than only its first seconds.  A traced run
alternates untraced and traced passes so that it measures its own tracing
overhead.  Every pass is checked; a failed operation is counted and its
time is left out of every timing.  A pass in which the program raises
counts as one failed operation and ends the run.

Values that depend only on the inputs (counts, simulated times, digests)
must be equal in every pass and in every earlier run of the same code and
seed: ``results/fingerprints.json`` remembers them, and a difference fails
the run instead of passing as noise.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy

import workloads as wl
from tracing import LAYERS, Tracer, drain_send_bytes, instrument, layer_of

SETUPS = 5
# a percentile is reported only with at least ten samples beyond it
MIN_SAMPLES = {50: 20, 90: 100}

IMPORT_PROBE = ("import sys, time\n"
                "t0 = time.perf_counter()\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import gridledger\n"
                "print(repr(time.perf_counter() - t0))\n")


# ---------------------------------------------------------------------------
# environment

def _code_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path, blas_threads: str) -> Dict[str, object]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "blas_threads": int(blas_threads),
        "blas_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas": blas.get("version"),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "code_sha256": _code_sha256(root),
    }


# ---------------------------------------------------------------------------
# set-up

def _import_seconds(root: Path, src: Path) -> float:
    """Import time of the library in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                         capture_output=True, text=True, timeout=120,
                         cwd=root, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(work, root: Path, src: Path,
                  tracer: Optional[Tracer]) -> float:
    imported = _import_seconds(root, src)
    if tracer is None:
        t0 = perf_counter()
        work.build()
        return imported + perf_counter() - t0
    # set-up spans belong to pass 0, apart from the timed passes
    tracer.begin_pass(0)
    with instrument(tracer), tracer.span("bench.setup"):
        t0 = perf_counter()
        work.build()
        return imported + perf_counter() - t0


# ---------------------------------------------------------------------------
# passes

def run_passes(work, seconds: float, tracer: Optional[Tracer],
               setup) -> Tuple[List[Tuple[int, bool, wl.PassResult]],
                               List[float]]:
    """Timed passes until the next would overrun, each after a set-up;
    traced runs alternate."""
    passes = []
    setups: List[float] = []
    t_start = perf_counter()
    k = 0
    while True:
        k += 1
        setups.append(setup())
        traced = tracer is not None and k % 2 == 0
        if tracer is not None:
            tracer.begin_pass(k)
            before = dict(tracer.counts)
        try:
            if traced:
                with instrument(tracer):
                    raw = work.timed(tracer)
            else:
                raw = work.timed(None)
            res = work.check(raw)
        except Exception:
            # the program raised: one failed operation, and no more passes
            passes.append((k, traced, wl.PassResult(
                seconds=0.0, attempted=1, failed=1,
                problems=[traceback.format_exc()])))
            return passes, setups
        del raw
        gc.collect()
        if traced:
            for key, v in tracer.counts.items():
                res.layer[key] = v - before.get(key, 0.0)
            res.layer["chain.blocks.send_bytes"] = drain_send_bytes(tracer)
            if "qp.solve_qp.ipm_iterations" in res.layer:
                res.fingerprint.setdefault(
                    "qp.solve_qp.ipm_iterations",
                    int(res.layer["qp.solve_qp.ipm_iterations"]))
        passes.append((k, traced, res))
        elapsed = perf_counter() - t_start
        if (tracer is None or k >= 2) and elapsed * (k + 1) / k > seconds:
            return passes, setups


# ---------------------------------------------------------------------------
# metrics

def _percentile(samples: List[float], q: int) -> Optional[float]:
    if len(samples) < MIN_SAMPLES[q]:
        return None
    return float(np.percentile(samples, q))


def _median(values: List[float]) -> Optional[float]:
    return float(statistics.median(values)) if values else None


def end_to_end(work, setups: List[float], ok: List[wl.PassResult],
               peak_rss_mb: float) -> Dict[str, Tuple[Optional[float], str]]:
    m: Dict[str, Tuple[Optional[float], str]] = {
        "setup_s": (_median(setups), "s"),
        "wall_s": (_median([p.seconds for p in ok]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    def med(key):
        return _median([p.values[key] for p in ok])

    def pooled(key):
        return [x for p in ok for x in p.samples[key]]

    if work.name == "joint-modes":
        m["joint_trade_s"] = (med("joint_trade_s"), "s")
        m["joint_local_s"] = (med("joint_local_s"), "s")
    elif work.name == "admm-chain":
        it = pooled("iter_ms")
        m["iter_ms_p50"] = (_percentile(it, 50), "ms")
        m["iter_ms_p90"] = (_percentile(it, 90), "ms")
        m["iter_samples"] = (len(it), "count")
        m["admm_iterations"] = (
            ok[0].fingerprint["admm_iterations"] if ok else None, "count")
    else:
        m["blocks_per_s"] = (med("blocks_per_s"), "1/s")
        # simulated times repeat exactly, so one pass holds every sample
        gaps = ok[0].samples["commit_sim_ms"] if ok else []
        m["commit_sim_ms_p50"] = (_percentile(gaps, 50), "ms")
        m["commit_sim_ms_p90"] = (_percentile(gaps, 90), "ms")
        m["commit_samples"] = (len(gaps), "count")
        m["stall_sim_ms"] = (max(gaps) if gaps else None, "ms")
        m["msgs_per_block"] = (
            ok[0].fingerprint["msgs_per_block"] if ok else None, "count")
    return m


def per_layer(tracer: Tracer, passes, n_setups: int) -> Dict[str, float]:
    traced = [(k, res) for k, t, res in passes if t and res.failed == 0]
    plain = [res.seconds for _, t, res in passes if not t and res.failed == 0]
    if not traced or not plain:
        return {}
    nos = [k for k, _ in traced]
    n = len(nos)
    agg = tracer.by_name(nos)
    setup = tracer.by_name([0])

    def get(name, key="self"):
        return agg.get(name, {}).get(key, 0.0) / n

    def group(prefix, key):
        return sum(v[key] for name, v in agg.items()
                   if name.startswith(prefix)) / n

    def layer_mean(key):
        return float(np.mean([res.layer.get(key, 0.0) for _, res in traced]))

    m: Dict[str, float] = {}
    m["scenario.generate_synthetic.s"] = setup.get(
        "scenario.generate_synthetic", {}).get("self", 0.0) / n_setups
    for name in ("energy_model.build_user_constraints",
                 "energy_model.build_user_objective", "tem.assemble_ult",
                 "tem.sct_step", "tem.dual_state_digest", "qp.kkt_residuals",
                 "qp.solve_qp.warm", "chain.node.handle",
                 "chain.blocks.verify", "chain.blocks.encode",
                 "chain.contract.execute_transactions",
                 "chain_transport.run_sct"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name)
    for mode in wl.MODES:
        m[f"tem.assemble_problem.s.{mode.value}"] = \
            get(f"tem.assemble_problem.{mode.value}")
        m[f"qp.solve_qp.s.{mode.value}"] = \
            get(f"qp.solve_qp.cold.{mode.value}")
        m[f"qp.solve_qp.kkt_worst.max.{mode.value}"] = tracer.maxima.get(
            f"qp.solve_qp.kkt_worst.max.{mode.value}", 0.0)
    m["qp.solve_qp.cold.calls"] = group("qp.solve_qp.cold.", "calls")
    m["qp.solve_qp.cold.s"] = group("qp.solve_qp.cold.", "self")
    warm = m["qp.solve_qp.warm.calls"]
    m["qp.solve_qp.warm.hit_ratio"] = \
        layer_mean("qp.solve_qp.warm.hits") / warm if warm else 0.0
    m["qp.solve_qp.ipm_iterations"] = layer_mean("qp.solve_qp.ipm_iterations")
    m["netsim.Network.run.s"] = get("netsim.Network.run")
    for key in ("netsim.events", "netsim.sends", "netsim.timers",
                "netsim.trace_len", "chain.node.views",
                "chain_transport.events_per_step",
                "chain_transport.tx_bytes", "chain.codec.digest.calls",
                "chain.contract.execute_transactions.txs",
                "chain.contract.execute_transactions.rejected"):
        m[key] = layer_mean(key)
    run_total = get("netsim.Network.run", "total")
    m["netsim.events_per_s"] = m["netsim.events"] / run_total \
        if run_total else 0.0
    blocks = layer_mean("blocks")
    m["chain.blocks.bytes_per_block"] = \
        layer_mean("chain.blocks.send_bytes") / blocks if blocks else 0.0
    m["chain_transport.settle.s"] = get("chain_transport.settle")

    selfs = {layer: 0.0 for layer in LAYERS}
    for name, v in agg.items():
        selfs[layer_of(name)] += v["self"] / n
    for layer, v in selfs.items():
        m[f"self_s.{layer}"] = v
    m["trace.wall_s"] = get("bench.pass", "total")
    m["trace.untraced_wall_s"] = float(np.mean(plain))
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.spans"] = sum(v["calls"] for v in agg.values()) / n
    return m


# ---------------------------------------------------------------------------
# exact-repeat check

def _differing(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    return [k for k in sorted(a.keys() & b.keys()) if a[k] != b[k]]


def repeat_check(store: Path, code: str, key: str,
                 fingerprints: List[Dict[str, object]]) -> List[str]:
    problems = []
    first = fingerprints[0]
    for i, fp in enumerate(fingerprints[1:], start=2):
        for k in _differing(first, fp):
            problems.append(f"pass {i} {k}={fp[k]!r} differs from pass 1 "
                            f"{first[k]!r}")
    known = json.loads(store.read_text()) if store.is_file() else {}
    seen = known.setdefault(code, {}).setdefault(key, {})
    for k in _differing(seen, first):
        problems.append(f"{k}={first[k]!r} differs from an earlier run's "
                        f"{seen[k]!r}")
    if not problems:
        seen.update(first)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)
    return problems


# ---------------------------------------------------------------------------
# entry point

def main(args, root: Path, src: Path, blas_threads: str) -> int:
    scenario_seed = wl.SCENARIO_SEED if args.scenario_seed is None \
        else args.scenario_seed
    work = wl.WORKLOADS[args.workload](args.seed, scenario_seed)
    env = environment(root, blas_threads)
    tracer = Tracer() if args.trace else None

    passes, setups = run_passes(
        work, args.seconds, tracer,
        lambda: measure_setup(work, root, src, tracer))
    while len(setups) < SETUPS:
        setups.append(measure_setup(work, root, src, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = [res for _, _, res in passes]
    try:
        work.finish(results)
    except Exception:
        results[0].failed = results[0].attempted
        results[0].problems.append(traceback.format_exc())
    problems = [f"pass {k}: {p}" for k, _, res in passes
                for p in res.problems]

    results_dir = root / "perfbench" / "results"
    results_dir.mkdir(exist_ok=True)
    selfcheck = repeat_check(
        results_dir / "fingerprints.json", env["code_sha256"],
        f"{work.name}/seed={args.seed}/scenario_seed={scenario_seed}",
        [res.fingerprint for res in results])
    attempted = sum(res.attempted for res in results)
    failed = sum(res.failed for res in results)
    # end-to-end numbers come from untraced passes only
    ok = [res for _, t, res in passes if res.failed == 0 and not t]

    e2e = end_to_end(work, setups, ok, peak_rss_mb)
    layers: Dict[str, float] = {}
    if tracer is not None:
        layers = per_layer(tracer, passes, len(setups))
        wall = layers.get("trace.wall_s", 0.0)
        accounted = sum(v for k, v in layers.items()
                        if k.startswith("self_s."))
        if abs(accounted - wall) > 1e-6 * wall:
            selfcheck.append(f"layer self times sum to {accounted}, not the "
                             f"traced pass time {wall}")
        tracer.save(results_dir / f"spans-{work.name}.npz")

    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = layers.get(name) if args.trace else e2e[name][0]
        metrics[name] = {"value": value, "unit": entry["unit"]}
    correct = failed == 0 and not selfcheck and not problems and all(
        m["value"] is not None for m in metrics.values())

    report = {
        "workload": work.name, "seed": args.seed,
        "scenario_seed": scenario_seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "setup_runs_s": setups,
        "passes": [{"pass": k, "traced": t, "seconds": res.seconds,
                    "attempted": res.attempted, "failed": res.failed}
                   for k, t, res in passes],
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in e2e.items()},
        "per_layer": layers,
        "fingerprint": results[0].fingerprint,
        "problems": problems, "self_check": selfcheck,
        "attempted": attempted, "failed": failed, "correct": correct,
    }
    (results_dir / f"{work.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"perfbench {work.name} seed={args.seed} "
          f"scenario_seed={scenario_seed} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"passes {len(passes)}, operations {attempted} attempted, "
          f"{failed} failed")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {value!r} {unit}")
    for name, value in layers.items():
        print(f"  {name:<44} {value!r}")
    for p in problems + selfcheck:
        print(f"  FAIL {p}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
