"""Golden outputs under ``tests/golden``.

The stdout of ``eurqsi experiment 1``-``6`` is compared byte for byte, so a
change to the simulator that moves a single count or digit fails here.
Each ``experiments_*`` file holds the six outputs of one noise setting, in
experiment order, with the default shots and seed.  They were written by
the simulator that stepped each gate through the operator-stack kernel and
drew each shot table by its own multinomial call; regenerate one only for a
change that is meant to alter the output, with::

    for i in 1 2 3 4 5 6; do eurqsi experiment $i --noise NOISE; done > FILE

The ``csv`` and ``table`` formats print the same tables rebuilt from the
counts; ``experiments_depolarizing_0.1_readout_0.02.FORMAT.stdout`` holds
their stdout with that noise, written by the simulator that validated each
shot table as it built it, and is compared byte for byte as well::

    for i in 1 2 3 4 5 6; do
        eurqsi experiment $i --format FORMAT --noise depolarizing=0.1,readout=0.02
    done > experiments_depolarizing_0.1_readout_0.02.FORMAT.stdout

The stdout of ``eurqsi fuzz --seed 7`` is compared with the ``fuzz_*``
files: every byte outside a float literal exactly, the worst trial and
the witness's shape among them, and each float within 1e-12, since LAPACK
may round differently on another host.  They were written by the checks
that compressed rho_AB to X's and to Z's ranges in two calls; regenerate
one only for a change that is meant to alter the output, with::

    eurqsi fuzz --seed 7 --dim D --trials N --relation R > fuzz_dimD_trialsN_R.stdout

The other outputs of the command line are compared the same way: every
format of ``eurqsi examples`` (``examples[.FORMAT].stdout``), the csv and
table formats of ``eurqsi check`` on the scenario file
``check_scenario.json`` (its json form embeds the file's path), and of
``eurqsi fuzz --seed 7 --dim 3 --trials 100``.  They were written by the
command line whose four commands each chose their own format; regenerate
one only for a change that is meant to alter the output, with::

    eurqsi examples [--format FORMAT] > examples[.FORMAT].stdout
    eurqsi check --scenario check_scenario.json --format FORMAT > check_scenario.FORMAT.stdout
    eurqsi fuzz --seed 7 --dim 3 --trials 100 --format FORMAT \\
        > fuzz_dim3_trials100_bipartite_refined.FORMAT.stdout
"""

import re
from pathlib import Path

import pytest

from eurqsi.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# a JSON float as canonical_json writes it: a fraction, an exponent or both
FLOAT = re.compile(r"-?\d+(?:\.\d+(?:e[+-]?\d+)?|e[+-]?\d+)")
FLOAT_TOL = 1e-12


@pytest.mark.parametrize("noise, name", [
    ("none", "experiments_noiseless.stdout"),
    ("depolarizing=0.1,readout=0.02", "experiments_depolarizing_0.1_readout_0.02.stdout"),
])
def test_experiment_stdout_matches_the_golden_file(monkeypatch, capsysbinary, noise, name):
    monkeypatch.delenv("EURQSI_OUTDIR", raising=False)
    for exp_id in range(1, 7):
        assert main(["experiment", str(exp_id), "--noise", noise]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_experiment_csv_and_table_stdout_match_the_golden_files(monkeypatch, capsysbinary, fmt):
    monkeypatch.delenv("EURQSI_OUTDIR", raising=False)
    for exp_id in range(1, 7):
        assert main(["experiment", str(exp_id), "--format", fmt,
                     "--noise", "depolarizing=0.1,readout=0.02"]) == 0
    name = f"experiments_depolarizing_0.1_readout_0.02.{fmt}.stdout"
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def _golden_mismatch(got: str, want: str) -> str | None:
    """None when ``got`` has ``want``'s bytes outside float literals and
    each float within ``FLOAT_TOL`` of ``want``'s; else the first difference."""
    got_floats, want_floats = FLOAT.findall(got), FLOAT.findall(want)
    if FLOAT.split(got) != FLOAT.split(want):
        return "the bytes outside the float literals differ"
    for a, b in zip(got_floats, want_floats):
        if not abs(float(a) - float(b)) <= FLOAT_TOL:
            return f"float {a} != {b}"
    return None


FUZZ_RUNS = [(dim, trials, relation) for dim, trials in ((2, 300), (3, 100))
             for relation in ("bipartite_refined", "tripartite_refined")]


def _fuzz_stdout(capsys, seed, dim, trials, relation) -> str:
    assert main(["fuzz", "--seed", str(seed), "--dim", str(dim), "--trials", str(trials),
                 "--relation", relation]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("dim, trials, relation", FUZZ_RUNS)
def test_fuzz_stdout_matches_the_golden_file(monkeypatch, capsys, dim, trials, relation):
    monkeypatch.delenv("EURQSI_OUTDIR", raising=False)
    want = (GOLDEN / f"fuzz_dim{dim}_trials{trials}_{relation}.stdout").read_text()
    assert _golden_mismatch(_fuzz_stdout(capsys, 7, dim, trials, relation), want) is None


@pytest.mark.parametrize("dim, trials, relation", FUZZ_RUNS)
def test_fuzz_golden_comparison_fails_on_the_next_seed(monkeypatch, capsys, dim, trials,
                                                       relation):
    monkeypatch.delenv("EURQSI_OUTDIR", raising=False)
    want = (GOLDEN / f"fuzz_dim{dim}_trials{trials}_{relation}.stdout").read_text()
    assert _golden_mismatch(_fuzz_stdout(capsys, 8, dim, trials, relation), want) is not None


def test_golden_comparison_forgives_float_round_off_only():
    text = '{"a": 0.5, "b": [1, -2.5e-09], "c": 3e+20, "d": "x1.0"}'
    assert FLOAT.findall(text) == ["0.5", "-2.5e-09", "3e+20", "1.0"]
    assert _golden_mismatch(text.replace("0.5", "0.5000000000001"), text) is None
    assert _golden_mismatch(text.replace("0.5", "0.500000000002"), text) is not None
    assert _golden_mismatch(text.replace('[1,', '[2,'), text) is not None
    assert _golden_mismatch(text.replace('"x1.0"', '"y1.0"'), text) is not None


SCENARIO = str(GOLDEN / "check_scenario.json")
FUZZ = ["fuzz", "--seed", "7", "--dim", "3", "--trials", "100"]
CLI_RUNS = [
    (["examples"], "examples.stdout"),
    *[(["examples", "--format", fmt], f"examples.{fmt}.stdout") for fmt in ("csv", "table")],
    *[(["check", "--scenario", SCENARIO, "--format", fmt], f"check_scenario.{fmt}.stdout")
      for fmt in ("csv", "table")],
    *[(FUZZ + ["--format", fmt], f"fuzz_dim3_trials100_bipartite_refined.{fmt}.stdout")
      for fmt in ("csv", "table")],
]


@pytest.mark.parametrize("argv, name", CLI_RUNS, ids=[name for _, name in CLI_RUNS])
def test_cli_stdout_matches_the_golden_file(monkeypatch, capsys, argv, name):
    monkeypatch.delenv("EURQSI_OUTDIR", raising=False)
    assert main(argv) == 0
    want = (GOLDEN / name).read_text()
    assert _golden_mismatch(capsys.readouterr().out, want) is None
