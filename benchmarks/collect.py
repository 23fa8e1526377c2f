"""Run workloads over several seeds and summarise each metric's spread.

    python3 benchmarks/collect.py --workloads fuzz-qubit circuits --seeds 1 2 3 \\
        --seconds 10 --trace 0 --out summary.json

Each (workload, seed) is one ``run.py`` process.  Per metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)``, and the
spread (Q3 - Q1) / median next to the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The JSON result and the context block of one run.

    Metrics printed as ``name = value unit (not gated)`` are added to the
    result's metrics, so the summary records them too.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[0].removeprefix("context "))
    result = json.loads(lines[-1])
    for line in lines[1:-1]:
        if line.endswith(" (not gated)"):
            name, _, rest = line.partition(" = ")
            value, unit = rest.split()[:2]
            result["metrics"][name] = {"value": float(value), "unit": unit}
    return result, context


def summarise(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        results = [result for result, _ in runs]
        summary[workload] = {
            "seeds": args.seeds,
            "context": [context for _, context in runs],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summarise(results, bounds),
        }
        print(f"{workload}: {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']} ops failed")
        for name, m in summary[workload]["metrics"].items():
            spread = m.get("spread")
            line = f"  {name:40s} median {m['median']:.6g} {m['unit']}"
            if spread is not None:
                line += f"  spread {spread:.4f}"
            if "bound" in m:
                line += f"  bound {m['bound']}"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
