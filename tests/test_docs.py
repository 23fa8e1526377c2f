"""The README library tour and the demos run against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S)
    assert tour, "README has no python block under 'Library tour'"
    proc = _run(["-c", tour.group(1)])
    assert proc.returncode == 0, proc.stderr


def test_all_four_demos_present():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
