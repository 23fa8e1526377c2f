"""One gated op of every benchmark workload, on the library under test.

``benchmarks/workloads.py`` is loaded as it stands and handed this
package, so a name the benchmark uses that the library drops or renames
fails here rather than as failed ops in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import eurqsi

PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
_spec = importlib.util.spec_from_file_location("benchmark_workloads", PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_ops_pass_the_gate(name):
    workload = workloads.WORKLOADS[name](eurqsi)
    for item in workload.inputs(seed=1, count=2):
        built = workload.build(item)
        assert workload.check(built, workload.op(built)) is None
