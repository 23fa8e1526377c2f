"""Golden outputs: the stdout of ``eurqsi experiment 1``-``6`` is compared
byte for byte with the files under ``tests/golden``, so a change to the
simulator that moves a single count or digit fails here.

The files hold the six outputs of one noise setting, in experiment order,
with the default shots and seed.  They were written by the simulator that
stepped each gate through the operator-stack kernel and drew each shot
table by its own multinomial call; regenerate one only for a change that
is meant to alter the output, with::

    for i in 1 2 3 4 5 6; do eurqsi experiment $i --noise NOISE; done > FILE
"""

from pathlib import Path

import pytest

from eurqsi.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("noise, name", [
    ("none", "experiments_noiseless.stdout"),
    ("depolarizing=0.1,readout=0.02", "experiments_depolarizing_0.1_readout_0.02.stdout"),
])
def test_experiment_stdout_matches_the_golden_file(monkeypatch, capsysbinary, noise, name):
    monkeypatch.delenv("EURQSI_OUTDIR", raising=False)
    for exp_id in range(1, 7):
        assert main(["experiment", str(exp_id), "--noise", noise]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
