"""Run one benchmark workload against the library in ``src/`` and print its metrics.

    python3 benchmarks/run.py --workload fuzz-qubit --seed 1 --seconds 10 --trace 0

One caller in one process runs a closed loop: the next op starts when the
previous one has returned and passed the correctness gate.  An op is one
fuzz trial (``check_bipartite`` then ``check_tripartite`` on one instance),
one ``check_tripartite`` call or one ``run_experiment`` call, on inputs
generated from ``--seed`` before timing starts.

``--trace 0`` prints the end-to-end metrics of an untraced run, with the
set-up probes run between its blocks; ``--trace 1``
alternates untraced and traced blocks and prints the per-layer metrics,
with the span dump written to ``benchmarks/traces/<workload>.json``.  The
last line of stdout is the JSON result; the lines above it are the context
block, every metric by name with its unit, ``failed_frac`` and the messages
of failed ops.  Exits 2 when the library cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 100        # p90 then has at least 10 samples beyond it
LOOP_CAP_S = 120.0   # hard stop for a loop that cannot reach MIN_OPS
WARMUP_OPS = 2
LOOP_BLOCKS = 10     # a --trace 0 loop runs in blocks with a set-up probe around each
TRACE_BLOCKS = 5     # untraced/traced block pairs in a --trace 1 run

# Declared in BENCHMARK.json and gated.
E2E_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_floor_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed by name but not declared: on a shared host p50 jumps between the
# contended and the uncontended per-op time, and its ten-seed spread went
# above the largest bound the benchmark may set (see README.md).
UNGATED_UNITS = {
    "latency_p50_ms": "ms",
}


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ[var])
        except (KeyError, ValueError):
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


@dataclass
class Loop:
    ops: int = 0
    wall_s: float = 0.0
    latencies_ns: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)

    def add(self, other: "Loop") -> None:
        self.ops += other.ops
        self.wall_s += other.wall_s
        self.latencies_ns += other.latencies_ns
        self.failures.update(other.failures)


def run_loop(workload, items, seconds: float, start: int = 0, min_ops: int = 0,
             tracer=None) -> Loop:
    """Run ops from ``items[start]`` on, cycling, for ``seconds`` and ``min_ops``."""
    loop = Loop()
    t_start = time.perf_counter()
    while True:
        index = start + loop.ops
        span = tracer.op(index) if tracer is not None else nullcontext()
        t0 = t1 = None
        try:
            built = workload.build(items[index % len(items)])
            t0 = time.perf_counter_ns()
            with span:
                result = workload.op(built)
            t1 = time.perf_counter_ns()
            problem = workload.check(built, result)
        except Exception as exc:  # a failed op is data: count it and go on
            problem = f"{type(exc).__name__}: {exc}"
        t1 = t1 or time.perf_counter_ns()
        loop.latencies_ns.append(t1 - (t0 or t1))  # 0 when the build failed
        loop.ops += 1
        if problem:
            loop.failures[problem] += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and loop.ops >= min_ops):
            loop.wall_s = elapsed
            return loop


def setup_probe(workload: str, seed: int) -> float:
    """One fresh-process set-up time: interpreter start to the end of one warm-up op.

    The probe reports its clock at the end of the op and how long it spent
    generating the op's input, which is not set-up and is subtracted.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["end"] - t0 - out["gen_s"]


def context_block(args, nproc: int, np) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "loop": "closed, 1 caller, 1 process",
    }


def latency_floor_ms(latencies_ns: list, n_items: int) -> float:
    """Mean over inputs of each input's fastest op; ops cycle the inputs from 0.

    Host contention only ever adds time, so the fastest of an input's
    repeats estimates its uncontended cost, and averaging over the inputs
    keeps every input's cost in the figure.
    """
    fastest = {}
    for index, ns in enumerate(latencies_ns):
        item = index % n_items
        fastest[item] = min(ns, fastest.get(item, ns))
    return statistics.fmean(fastest.values()) / 1e6


def percentiles(latencies_ns: list) -> dict:
    ms = sorted(x / 1e6 for x in latencies_ns)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "samples": len(ms),
        "samples_beyond_p90": sum(1 for x in ms if x > p90),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    import numpy as np
    import workloads
    from spans import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    try:
        eq = workloads.import_library(ROOT)
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](eq)
    items = workload.inputs(args.seed)
    run_loop(workload, items, 0.0, min_ops=WARMUP_OPS)

    ungated = {}
    if args.trace == 0:
        # Set-up probes are spread over the whole run, between loop blocks, so
        # their median sees the same host conditions as the loop.
        total, setup = Loop(), [setup_probe(args.workload, args.seed)]
        for _ in range(LOOP_BLOCKS):
            total.add(run_loop(workload, items, args.seconds / LOOP_BLOCKS, start=total.ops,
                               min_ops=MIN_OPS // LOOP_BLOCKS))
            setup.append(setup_probe(args.workload, args.seed))
        pct = percentiles(total.latencies_ns)
        values = {
            "throughput_ops_s": total.ops / total.wall_s,
            "latency_floor_ms": latency_floor_ms(total.latencies_ns, len(items)),
            "latency_p90_ms": pct["latency_p90_ms"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        ungated = {"latency_p50_ms": pct["latency_p50_ms"]}
        samples = {"ops": total.ops, "inputs": len(items), "latency_samples": pct["samples"],
                   "samples_beyond_p90": pct["samples_beyond_p90"],
                   "setup_probes": len(setup), "setup_s_each": setup}
    else:
        tracer = Tracer()
        total, plain, traced = Loop(), Loop(), Loop()
        block = args.seconds / (2 * TRACE_BLOCKS)
        for _ in range(TRACE_BLOCKS):
            plain.add(run_loop(workload, items, block, start=plain.ops + traced.ops))
            with tracer.installed():
                traced.add(run_loop(workload, items, block, start=plain.ops + traced.ops,
                                    tracer=tracer))
        total.add(plain)
        total.add(traced)
        values = tracer.layer_metrics(traced.ops)
        values["trace_overhead_frac"] = 1.0 - (traced.ops / traced.wall_s) / (plain.ops / plain.wall_s)
        metrics = {}
        for name in LAYER_METRICS + ("trace_overhead_frac",):
            unit = {"calls": "count", "self_ms": "ms"}.get(name.rsplit(".", 1)[-1], "ratio")
            metrics[name] = {"value": values[name], "unit": unit}
        (HERE / "traces").mkdir(exist_ok=True)
        tracer.write(HERE / "traces" / f"{args.workload}.json")
        samples = {"ops": total.ops, "traced_ops": traced.ops, "untraced_ops": plain.ops,
                   "spans": len(tracer.spans)}

    failed = sum(total.failures.values())
    print("context " + json.dumps({**context_block(args, nproc, np), **samples}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for name, value in ungated.items():
        print(f"{name} = {value!r} {UNGATED_UNITS[name]} (not gated)")
    print(f"failed_frac = {failed / total.ops!r} ({failed} of {total.ops} ops)")
    for message, count in total.failures.most_common(10):
        print(f"failed x{count}: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": total.ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
