"""Smoke test of the benchmark itself, at tiny run lengths.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every metric ``BENCHMARK.json`` declares is printed with its
unit, that an injected fault is counted as a failed op without stopping the
run, and that an op's traced self times add up to its root span.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT as ROOT_SPAN  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def eq():
    return workloads.import_library(ROOT)


def _run(workload: str, trace: int, seconds: float = 0.2) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_declared_metrics_are_printed_with_units(workload, trace, section):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("failed_frac = ") for line in lines)
    assert lines[0].startswith("context ")


def test_injected_faults_are_counted_and_the_run_goes_on(eq, monkeypatch):
    original = eq.check_bipartite
    calls = []

    def faulty(*args, **kwargs):
        calls.append(None)
        if len(calls) % 4 == 3:
            raise RuntimeError("injected fault")
        report = original(*args, **kwargs)
        if len(calls) % 4 == 1:
            return SimpleNamespace(**{**vars(report), "slack_refined": -1.0})
        return report

    monkeypatch.setattr(eq, "check_bipartite", faulty)
    workload = workloads.FuzzQubit(eq)
    loop = run.run_loop(workload, workload.inputs(3), 0.0, min_ops=12)
    assert loop.ops == 12 and len(loop.latencies_ns) == 12
    assert sum(loop.failures.values()) == 6
    messages = list(loop.failures.elements())
    assert messages.count("RuntimeError: injected fault") == 3
    assert sum("slack_refined -1.000e+00 < -1e-06" in m for m in messages) == 3


def test_traced_self_times_sum_to_the_root_span(eq):
    workload = workloads.FuzzQubit(eq)
    tracer = Tracer()
    with tracer.installed():
        assert hasattr(eq.check_bipartite, "__wrapped__")
        loop = run.run_loop(workload, workload.inputs(3), 0.0, min_ops=6, tracer=tracer)
    assert not loop.failures
    assert not hasattr(eq.check_bipartite, "__wrapped__")

    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, op in spans:
        assert start <= end
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = spans[parent]
            assert p_start <= start and end <= p_end and p_op == op
            child_ns[parent] += end - start
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT_SPAN]
    assert len(roots) == loop.ops
    for op, (i, latency) in enumerate(zip(roots, loop.latencies_ns)):
        root_ns = spans[i][2] - spans[i][1]
        self_sum = sum(e - s - c for (_, s, e, _, o), c in zip(spans, child_ns) if o == op)
        assert self_sum == root_ns
        assert root_ns <= latency
    overhead = 1.0 - sum(spans[i][2] - spans[i][1] for i in roots) / sum(loop.latencies_ns)
    assert overhead < 0.05
    totals = tracer.totals()
    assert totals["relations.check_bipartite"][0] == loop.ops
    assert totals["recovery.eur_recovery_map"][0] == 2 * loop.ops
