"""Set-up probe: a fresh process that imports the library and runs one op.

Prints ``{"end": <time.monotonic() after the op>, "gen_s": <input
generation time>}``; ``run.py`` subtracts its own spawn time and ``gen_s``.
Generation is plain numpy arithmetic with no BLAS or LAPACK call, so the
first such call, and the first library object, fall inside set-up.
The op's result is not gated here: the timed loop gates every op.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    eq = workloads.import_library(Path(__file__).resolve().parents[1])
    workload = workloads.WORKLOADS[args.workload](eq)
    t0 = time.monotonic()
    item = workload.inputs(args.seed, count=1)[0]
    gen_s = time.monotonic() - t0
    try:
        workload.op(workload.build(item))
    except Exception:  # failures are counted by the timed loop
        pass
    print(json.dumps({"end": time.monotonic(), "gen_s": gen_s}))


if __name__ == "__main__":
    main()
