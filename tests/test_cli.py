import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from eurqsi import relations
from eurqsi.cli import build_parser, main
from eurqsi.linalg import tensor
from eurqsi.serialize import save_scenario
from eurqsi.states import (
    DensityOperator,
    KET_PLUS_Y,
    ket_bra,
    maximally_mixed,
    pauli_pvm,
)

EXAMPLES_SCHEMA = {
    "type": "object",
    "required": ["command", "cases", "all_ok", "checks"],
    "properties": {
        "command": {"const": "examples"},
        "cases": {"type": "integer", "minimum": 4, "maximum": 4},
        "all_ok": {"type": "boolean"},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["case", "check", "residual", "tolerance", "ok"],
                "properties": {
                    "case": {"type": "string"},
                    "check": {"type": "string"},
                    "residual": {"type": "number", "minimum": 0},
                    "tolerance": {"type": "number", "exclusiveMinimum": 0},
                    "ok": {"type": "boolean"},
                },
            },
        },
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "relation_id", "H_XB", "H_ZB", "H_ZE", "H_AB", "c", "f", "lhs",
        "rhs_original", "rhs_refined", "slack_original", "slack_refined",
        "entropy_tolerance", "fidelity_tolerance",
    ],
}


@pytest.fixture
def max_uncertainty_scenario(tmp_path):
    rho = DensityOperator(
        tensor(ket_bra(KET_PLUS_Y), maximally_mixed(2)), (2, 2), ("A", "B")
    )
    path = tmp_path / "scenario.json"
    save_scenario(path, rho, pauli_pvm("X"), pauli_pvm("Z"))
    return str(path)


class TestExamplesCommand:
    def test_passes_and_validates_schema(self, capsys):
        assert main(["examples"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, EXAMPLES_SCHEMA)
        assert payload["all_ok"] is True

    def test_tolerance_override_fails(self, capsys):
        assert main(["examples", "--tolerance", "1e-16"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is False

    def test_table_format(self, capsys):
        assert main(["examples", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "max_uncertainty" in out and "all_ok: True" in out

    def test_replay_is_byte_identical(self, capsys):
        main(["examples"])
        first = capsys.readouterr().out
        main(["examples"])
        assert capsys.readouterr().out == first


class TestCheckCommand:
    def test_max_uncertainty_scenario(self, capsys, max_uncertainty_scenario):
        assert main(["check", "--scenario", max_uncertainty_scenario]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload["report"], REPORT_SCHEMA)
        assert abs(payload["report"]["slack_refined"]) < 1e-6
        assert abs(payload["report"]["f"] - 0.5) < 1e-6

    @pytest.mark.parametrize("content, message", [
        (b'{"dims": [2, 2], "state": [[', "cannot parse scenario: Expecting value (line 1, column"),
        (b"[" * 100_000, "cannot parse scenario: maximum recursion depth exceeded"),
        ('{"dims": [2, 2]}'.encode("utf-16"), "cannot read scenario: 'utf-8' codec"),
    ], ids=["truncated", "nested 100000 deep", "not UTF-8"])
    def test_malformed_json_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main(["check", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_file_exit_2(self):
        assert main(["check", "--scenario", "/nonexistent/s.json"]) == 2

    def test_non_projective_pvm_exit_3(self, tmp_path, capsys,
                                        max_uncertainty_scenario):
        data = json.loads(Path(max_uncertainty_scenario).read_text())
        data["x_pvm"][0][0][0] = [0.9, 0.0]
        path = tmp_path / "nonproj.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--scenario", str(path)]) == 3
        assert "idempotent" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("dims", 2), ("dims", "22"), ("dims", [2.5, 2]), ("dims", [-2, -2]),
        ("x_pvm", 5), ("z_pvm", 5),
    ])
    def test_malformed_scenario_exit_3(self, tmp_path, capsys, max_uncertainty_scenario,
                                       key, value):
        data = json.loads(Path(max_uncertainty_scenario).read_text())
        data[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--scenario", str(path)]) == 3
        assert f"scenario {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [{"re": 1}, [1, 0, 0], [1], "1", [True, 0], 1.0,
                                       [10**400, 0]],
                             ids=["object", "three numbers", "one number", "string",
                                  "bool", "bare number", "beyond the float range"])
    def test_entry_that_is_not_a_pair_of_numbers_exits_3(self, tmp_path, capsys,
                                                         max_uncertainty_scenario, entry):
        data = json.loads(Path(max_uncertainty_scenario).read_text())
        data["state"][0][0] = entry
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--scenario", str(path)]) == 3
        err = capsys.readouterr().err
        assert "is not [re, im]" in err and err.count("\n") == 1 and "Traceback" not in err

    def test_csv_projection(self, capsys, max_uncertainty_scenario):
        assert main(["check", "--scenario", max_uncertainty_scenario,
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("slack_refined,") for line in lines)


class TestFuzzCommand:
    def test_small_run_passes(self, capsys):
        assert main(["fuzz", "--trials", "5", "--dim", "2", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_slack"] >= -1e-6
        assert payload["seed"] == 1  # replayable

    def test_replay_byte_identical(self, capsys):
        args = ["fuzz", "--trials", "3", "--dim", "2", "--seed", "4"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag", ["--trials", "--dim"])
    def test_non_positive_count_exits_2(self, capsys, flag):
        for raw in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["fuzz", flag, raw])
            assert exc.value.code == 2
            assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fuzz"], ["experiment", "1"]])
    def test_negative_seed_exits_2(self, capsys, monkeypatch, command):
        # checked at parse time, before any trial or step runs
        monkeypatch.setattr("eurqsi.cli.fuzz", lambda *a: pytest.fail("a trial ran"))
        monkeypatch.setattr("eurqsi.cli.run_experiment", lambda *a, **k: pytest.fail("a step ran"))
        for raw in ("-1", "-5"):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--seed", raw])
            assert exc.value.code == 2
            assert "must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             [["fuzz"], ["examples"], ["check", "--scenario", "s.json"]])
    @pytest.mark.parametrize("raw", ["nan", "-nan", "0", "-1e-6"])
    def test_tolerance_that_is_not_positive_exits_2(self, capsys, command, raw):
        with pytest.raises(SystemExit) as exc:
            main(command + [f"--tolerance={raw}"])
        assert exc.value.code == 2
        assert "tolerance must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("relation", relations.RELATION_IDS)
    def test_worst_report_is_filed_under_the_requested_relation(self, capsys, relation):
        assert main(["fuzz", "--trials", "3", "--relation", relation]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relation_id"] == payload["worst_report"]["relation_id"] == relation

    def test_dim3_random_pvms(self, capsys):
        assert main(["fuzz", "--trials", "2", "--dim", "3", "--seed", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pvm_mode"] == "random"


class TestVerdict:
    """f/4 injected into both relations lowers every refined slack by 2 bits.
    The violation is reported in full, and only the comparison with
    ``--tolerance`` turns it into exit 1."""

    FUZZ = ["fuzz", "--trials", "20", "--seed", "3"]

    @pytest.fixture
    def quarter_f(self, monkeypatch):
        reversibility = relations._reversibility
        monkeypatch.setattr(relations, "_reversibility", lambda *args: reversibility(*args) / 4)

    def test_fuzz_prints_the_witness_and_exits_1(self, capsys, quarter_f):
        assert main(self.FUZZ) == 1
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["min_slack"] < -1.0
        assert payload["worst_report"]["slack_refined"] == payload["min_slack"]
        assert set(payload["worst_instance"]) == {"dims", "state", "x_pvm", "z_pvm"}
        assert err.count("\n") == 1 and "min_slack" in err and "1e-06" in err
        assert main(self.FUZZ + ["--tolerance", "10"]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_check_on_the_witness_exits_1_with_its_slack(self, tmp_path, capsys, quarter_f):
        main(self.FUZZ)
        fuzzed = json.loads(capsys.readouterr().out)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(fuzzed["worst_instance"]))
        assert main(["check", "--scenario", str(path)]) == 1
        out, err = capsys.readouterr()
        report = json.loads(out)["report"]
        assert abs(report["slack_refined"] - fuzzed["min_slack"]) <= 1e-12
        assert err.count("\n") == 1 and "slack_refined" in err and "1e-06" in err

    def test_loose_tolerance_passes_the_witness(self, tmp_path, capsys, quarter_f):
        main(self.FUZZ)
        fuzzed = json.loads(capsys.readouterr().out)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(fuzzed["worst_instance"]))
        assert main(["check", "--scenario", str(path), "--tolerance", "10"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["report"]["slack_refined"] < -1.0 and err == ""

    def test_default_tolerance_is_the_reports_threshold(self):
        for argv in (["check", "--scenario", "s.json"], ["fuzz"]):
            assert build_parser().parse_args(argv).tolerance == relations.FIDELITY_TOL

    def test_value_error_is_a_validation_failure(self, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("refined slack of a broken kernel")
        monkeypatch.setattr(relations, "_reversibility", broken)
        assert main(self.FUZZ) == 3
        assert capsys.readouterr().out == ""


class TestExperimentCommand:
    def test_bloch_within_4_sigma(self, capsys):
        assert main(["experiment", "1", "--shots", "8192", "--seed", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        se = float(np.sqrt(0.25 / 8192))
        got = payload["bloch_estimate"]
        for g, want in zip(got, (1.0, 0.0, 0.0)):
            assert abs(g - want) <= 8 * se
        assert payload["seed"] == 6

    def test_experiment_6_zz_table(self, capsys):
        assert main(["experiment", "6", "--shots", "8192", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {r["outcome"]: r for r in payload["tables"]["ZZ"]["outcomes"]}
        se = float(np.sqrt(0.25 / 8192))
        assert abs(rows["00"]["frequency"] - 0.5) <= 4 * se
        assert abs(rows["11"]["frequency"] - 0.5) <= 4 * se
        assert rows["01"]["count"] == 0 and rows["10"]["count"] == 0

    def test_csv_columns(self, capsys):
        assert main(["experiment", "2", "--shots", "64", "--seed", "1",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "table,outcome,count,frequency,stderr"
        assert len(lines) == 1 + 3 * 2  # three bases, two outcomes each

    def test_noise_flag_parsing(self, capsys):
        assert main(["experiment", "1", "--shots", "64", "--seed", "1",
                     "--noise", "depolarizing=0.05,readout=0.01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["noise"]["depolarizing_p"] == 0.05
        assert payload["noise"]["readout_flip"] == 0.01
        assert main(["experiment", "1", "--noise", "bogus"]) == 2

    def test_repeated_noise_key_exits_2(self, capsys):
        for spec in ("depolarizing=0.1,depolarizing=0.2",
                     "readout=0.1,depolarizing=0,readout=0.1"):
            assert main(["experiment", "1", "--shots", "64", "--noise", spec]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "each key once" in err

    def test_non_positive_shots_exits_2(self, capsys):
        for raw in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                main(["experiment", "1", "--shots", raw])
            assert exc.value.code == 2
            assert "must be a positive integer" in capsys.readouterr().err

    def test_shots_above_int64_exit_2_and_the_largest_runs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "1", "--shots", str(2**63)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be at most 2**63 - 1" in err
        assert main(["experiment", "1", "--shots", str(2**63 - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["shots"] == 2**63 - 1

    def test_outdir_env_writes_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EURQSI_OUTDIR", str(tmp_path / "out"))
        assert main(["experiment", "1", "--shots", "64", "--seed", "9"]) == 0
        stdout = capsys.readouterr().out
        written = (tmp_path / "out" / "experiment_1.json").read_text()
        assert written == stdout

    def test_replay_byte_identical(self, capsys):
        args = ["experiment", "5", "--shots", "256", "--seed", "12"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["experiment", "1", "--shots", "64", "--seed", "9"],
    ["fuzz", "--trials", "2"],
    ["examples", "--format", "csv"],
], ids=lambda argv: argv[0])
def test_unwritable_outdir_exits_2_with_one_line(capsys, tmp_path, monkeypatch, argv):
    # EURQSI_OUTDIR names a regular file: no directory can be made there
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("EURQSI_OUTDIR", str(blocker))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    monkeypatch.delenv("EURQSI_OUTDIR")
    assert main(argv) == 0
    assert out == capsys.readouterr().out
    assert err.count("\n") == 1 and err.startswith("error: cannot write output: ")
    assert blocker.read_text() == ""
