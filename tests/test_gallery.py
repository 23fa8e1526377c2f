import pytest

from eurqsi.gallery import (
    CASE_IDS,
    all_ok,
    build,
    recovery_map_r1,
    recovery_map_r2,
    recovery_map_r3,
    recovery_map_r4,
    run_all,
)
from eurqsi.linalg import op_norm
from eurqsi.recovery import verify_cptp


def test_case_ids_complete():
    assert CASE_IDS == ("x_eigen", "z_eigen", "max_entangled", "max_uncertainty")


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        build("w_eigen")


def test_expected_values_table():
    # (H(A|B), H(X|B), H(Z|B)) per case
    want = {
        "x_eigen": (0.0, 0.0, 1.0),
        "z_eigen": (0.0, 1.0, 0.0),
        "max_entangled": (-1.0, 0.0, 0.0),
        "max_uncertainty": (0.0, 1.0, 1.0),
    }
    for case_id, (h_ab, h_xb, h_zb) in want.items():
        e = build(case_id).expected
        assert (e["H_AB"], e["H_XB"], e["H_ZB"]) == (h_ab, h_xb, h_zb)


def test_reference_maps_are_channels():
    for rec in (recovery_map_r1(), recovery_map_r2(), recovery_map_r3()):
        report = verify_cptp(rec)
        assert report.ok


def test_r4_equals_r1():
    assert op_norm(recovery_map_r4().choi - recovery_map_r1().choi) == 0.0


def test_run_all_within_tolerance_classes():
    rows = run_all()
    assert all_ok(rows)
    by_check = {}
    for r in rows:
        by_check.setdefault(r.check, []).append(r)
    # entropy-class residuals are eigenvalue exact
    for name in ("H_AB", "H_XB", "H_ZB", "lhs", "rhs_original"):
        assert max(r.residual for r in by_check[name]) <= 1e-9
    assert max(r.residual for r in by_check["c"]) <= 1e-12
    # recovery outputs compared in trace distance
    rec_rows = [r for r in rows if r.check.startswith("recovery_output")]
    assert rec_rows and max(r.residual for r in rec_rows) <= 1e-7
    # derived map matches each closed-form reference
    assert max(r.residual for r in by_check["choi_vs_closed_form"]) <= 1e-7
    assert by_check["same_map_as_x_eigen"][0].residual <= 1e-8


def test_tolerance_override_fails_somewhere():
    rows = run_all(tolerance_override=1e-16)
    assert not all_ok(rows)


def test_pipeline_derives_no_case_specific_values():
    # the case data holds only inputs and golden outputs
    case = build("max_entangled")
    assert set(case.expected) == {
        "H_AB", "H_XB", "H_ZB", "c", "f", "lhs", "rhs_original", "rhs_refined"
    }
