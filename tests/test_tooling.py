"""Checks that need a fresh interpreter: the test configuration keeps a
session going past a failing test, and experiment output replays across
processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_failing_property(n):
    assert n < 0


def test_plain_passes():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    """A failing ``@given`` test is reported as one failure, and the tests
    after it still run, under the repository's warning filters."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]


REPLAY = '''
from eurqsi.cli import main

for noise in ("none", "depolarizing=0.1,readout=0.02"):
    for exp_id in range(1, 7):
        main(["experiment", str(exp_id), "--noise", noise])
'''


def test_experiments_replay_byte_identical_across_processes():
    """All six experiments, noiseless and noisy, print the same bytes in two
    fresh interpreters, so nothing built at import differs between
    processes."""
    env = {k: v for k, v in os.environ.items() if k != "EURQSI_OUTDIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = [
        subprocess.run([sys.executable, "-c", REPLAY], env=env, capture_output=True,
                       timeout=120, check=True).stdout
        for _ in range(2)
    ]
    assert outputs[0].count(b'"command": "experiment"') == 12
    assert outputs[0] == outputs[1]
