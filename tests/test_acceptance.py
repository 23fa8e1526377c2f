"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines including timings.  Tolerances are pinned here and never loosened at
runtime.
"""

import time

import numpy as np

from eurqsi.gallery import CASE_IDS, build, recovery_map_r1, recovery_map_r3
from eurqsi.entropy import conditional, relative
from eurqsi.linalg import fidelity, op_norm, trace_distance
from eurqsi.recovery import (
    eur_recovery_map,
    measurement_channel,
    rotated_petz_map,
)
from eurqsi.relations import check_bipartite, fuzz
from eurqsi.simulate import NoiseSpec, run_experiment
from eurqsi.states import (
    DensityOperator,
    incompatibility_c,
    measure,
    pauli_pvm,
    random_multipartite_state,
    random_pure_state,
    random_pvm,
    random_state,
    theta_state,
)

from conftest import pinched_state_oracle, rank_one_vectors


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_gallery_entropies():
    expected = {
        "x_eigen": (0.0, 0.0, 1.0),
        "z_eigen": (0.0, 1.0, 0.0),
        "max_entangled": (-1.0, 0.0, 0.0),
        "max_uncertainty": (0.0, 1.0, 1.0),
    }
    t0 = time.perf_counter()
    worst = 0.0
    for case_id in CASE_IDS:
        case = build(case_id)
        b_labels = ["B"]
        h_ab = conditional(case.rho_ab, b_labels)
        sigma = measure(case.rho_ab, case.x_pvm, "A", "X")
        omega = measure(case.rho_ab, case.z_pvm, "A", "Z")
        h_xb = conditional(sigma, b_labels)
        h_zb = conditional(omega, b_labels)
        for got, want in zip((h_ab, h_xb, h_zb), expected[case_id]):
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"gallery H(A|B)/H(X|B)/H(Z|B) residual {worst:.2e} "
                   f"(tol 1e-9), {elapsed:.2f}s (< 1 s)")


def test_criterion_2_incompatibility():
    c = incompatibility_c(pauli_pvm("X"), pauli_pvm("Z"))
    residual = abs(c - 0.5)
    _report(2, residual <= 1e-12,
            f"c(sigma_X, sigma_Z) = {c!r}, residual {residual:.2e} (tol 1e-12)")


def test_criterion_3_perfect_reversal():
    t0 = time.perf_counter()
    worst = 0.0

    def reversal_distance(rho, x_pvm, z_pvm):
        rec = eur_recovery_map(rho, x_pvm, z_pvm)
        theta = theta_state(rho, x_pvm, z_pvm)
        expected = pinched_state_oracle(rho.matrix, rank_one_vectors(z_pvm))
        return trace_distance(rec.apply_matrix(theta.matrix), expected)

    for case_id in CASE_IDS:
        case = build(case_id)
        worst = max(worst, reversal_distance(case.rho_ab, case.x_pvm, case.z_pvm))
    for trial in range(200):
        d = 2 if trial % 2 == 0 else 3
        rho = random_multipartite_state((d, d), d * d, [301, trial], ("A", "B"))
        x_pvm = random_pvm(d, [302, trial])
        z_pvm = random_pvm(d, [303, trial])
        worst = max(worst, reversal_distance(rho, x_pvm, z_pvm))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    _report(3, ok, f"reversal of the doubly measured state, worst trace "
                   f"distance {worst:.2e} (tol 1e-7) over 4 gallery + 200 "
                   f"random instances, {elapsed:.1f}s (< 30 s)")


def test_criterion_4_closed_form_recoveries():
    residuals = []
    for case_id, output_index in (("x_eigen", 0), ("z_eigen", 0), ("max_entangled", 0)):
        case = build(case_id)
        rec = eur_recovery_map(case.rho_ab, case.x_pvm, case.z_pvm)
        inp, want = case.expected_recovery_outputs[output_index]
        residuals.append(trace_distance(rec.apply_matrix(inp.matrix), want.matrix))
    case1 = build("x_eigen")
    case4 = build("max_uncertainty")
    rec1 = eur_recovery_map(case1.rho_ab, case1.x_pvm, case1.z_pvm)
    rec4 = eur_recovery_map(case4.rho_ab, case4.x_pvm, case4.z_pvm)
    residuals.append(op_norm(rec4.choi - rec1.choi))
    # the derived channels also match the closed-form references
    residuals.append(op_norm(rec1.choi - recovery_map_r1().choi))
    ref3 = build("max_entangled")
    rec3 = eur_recovery_map(ref3.rho_ab, ref3.x_pvm, ref3.z_pvm)
    residuals.append(op_norm(rec3.choi - recovery_map_r3().choi))
    worst = max(residuals)
    _report(4, worst <= 1e-7,
            f"closed-form recovery actions and map identities, worst residual "
            f"{worst:.2e} (tol 1e-7)")


def test_criterion_5_refinement_saturation():
    case = build("max_uncertainty")
    report = check_bipartite(case.rho_ab, case.x_pvm, case.z_pvm)
    neg_log_f = -np.log2(report.f)
    ok = abs(neg_log_f - 1.0) <= 1e-6 and abs(report.slack_refined) <= 1e-6
    _report(5, ok, f"maximum-uncertainty case: -log2 f = {neg_log_f:.9f} "
                   f"(want 1 +- 1e-6), slack_refined = {report.slack_refined:.2e} "
                   f"(want 0 +- 1e-6)")


def test_criterion_6_inequality_fuzzing():
    t0 = time.perf_counter()
    runs = [
        fuzz("bipartite_refined", 1000, 2, 600),
        fuzz("tripartite_refined", 1000, 2, 600),
        fuzz("bipartite_refined", 200, 3, 601),
        fuzz("tripartite_refined", 200, 3, 601),
    ]
    elapsed = time.perf_counter() - t0
    min_slack = min(s.min_slack for s in runs)
    max_gap = max(s.max_refinement_gap for s in runs)
    ok = min_slack >= -1e-6 and max_gap <= 1e-9 and elapsed < 300.0
    _report(6, ok, f"1000 two-qubit Pauli + 200 dim-3 instances per relation: "
                   f"min slack {min_slack:.2e} (>= -1e-6), max refined-original "
                   f"gap {max_gap:.2e} (<= 1e-9), {elapsed:.1f}s (< 5 min)")


def test_criterion_7_monotonicity_refinement():
    worst = np.inf
    for trial in range(200):
        d = 2 if trial % 2 == 0 else 3
        rho = random_state(d, d, [701, trial])
        sigma = random_state(d, d, [702, trial]).matrix
        if trial % 5 == 0:
            sigma = 2.5 * sigma  # the statement allows unnormalized sigma
        chan = measurement_channel(random_pvm(d, [703, trial]))
        rec = rotated_petz_map(sigma, chan)
        n_rho = DensityOperator(chan.apply_matrix(rho.matrix), (d,), ("X",))
        gap = relative(rho, sigma) - relative(n_rho, chan.apply_matrix(sigma))
        f = fidelity(rho.matrix, rec.apply_matrix(n_rho.matrix))
        worst = min(worst, gap + np.log2(f))
    _report(7, worst >= -1e-6,
            f"relative-entropy decrease vs recovery fidelity on 200 random "
            f"instances, min slack {worst:.2e} (>= -1e-6)")


def test_criterion_8_duality_identity():
    worst = 0.0
    for trial in range(200):
        dims = (2, 2, 2) if trial % 2 == 0 else (2, 3, 2)
        rho = random_pure_state(dims, [801, trial], ("A", "B", "E"))
        z_pvm = random_pvm(dims[0], [802, trial])
        omega = measure(rho, z_pvm, "A", "Z")
        h_ze = conditional(omega.reduce(["Z", "E"]), ["E"])
        h_zb = conditional(omega.reduce(["Z", "B"]), ["B"])
        h_ab = conditional(rho.reduce(["A", "B"]), ["B"])
        worst = max(worst, abs((h_ze - h_zb) + h_ab))
    _report(8, worst <= 1e-8,
            f"H(Z|E) - H(Z|B) = -H(A|B) on 200 random pure tripartite states, "
            f"worst residual {worst:.2e} (tol 1e-8)")


def test_criterion_9_experiments():
    shots = 8192
    failures = []

    def check_freq(name, table, ideal):
        for outcome, p_ideal in ideal.items():
            p_hat = table.frequency(outcome)
            bound = 4 * table.stderr(outcome)
            if abs(p_hat - p_ideal) > max(bound, 1e-12):
                failures.append(f"{name}[{outcome}] {p_hat} vs {p_ideal}")

    bloch_ideals = {1: (1.0, 0.0, 0.0), 2: (0.0,) * 3, 3: (0.0,) * 3, 4: (0.0,) * 3}
    for exp_id, bloch in bloch_ideals.items():
        res = run_experiment(exp_id, shots=shots, seed=900 + exp_id)
        for axis, want in zip(("X", "Y", "Z"), bloch):
            ideal = {"0": (1 + want) / 2, "1": (1 - want) / 2}
            check_freq(f"exp{exp_id}.{axis}", res.tables[axis], ideal)

    correlated = {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}
    uniform = {k: 0.25 for k in ("00", "01", "10", "11")}
    res5 = run_experiment(5, shots=shots, seed=905)
    for key in ("XX", "YY*", "ZZ"):
        check_freq(f"exp5.{key}", res5.tables[key], correlated)
    res6 = run_experiment(6, shots=shots, seed=906)
    check_freq("exp6.ZZ", res6.tables["ZZ"], correlated)
    for key in ("XX", "YY*"):
        check_freq(f"exp6.{key}", res6.tables[key], uniform)

    # hardware bars are not reproducible (no published calibration); the
    # tunable model must instead show monotone degradation under noise
    sweep_ok = True
    two_sigma = 2 * np.sqrt(0.25 / shots)
    for exp_id in (1, 3):
        fids = []
        for p in (0.0, 0.05, 0.1, 0.2):
            res = run_experiment(exp_id, shots=shots,
                                 noise=NoiseSpec(depolarizing_p=p),
                                 seed=910 + exp_id)
            est = res.estimated_state()
            est = 0.5 * (est + est.conj().T)
            lo = np.linalg.eigvalsh(est).min()
            if lo < 0:
                est = (est - lo * np.eye(2)) / (1 - 2 * lo)
            fids.append(fidelity(est, res.ideal_state.matrix))
        if not all(a >= b - 2 * two_sigma for a, b in zip(fids, fids[1:])):
            sweep_ok = False
            failures.append(f"noise sweep exp{exp_id}: {fids}")

    ok = not failures and sweep_ok
    _report(9, ok, "noiseless experiments 1-6 at 8192 shots match the ideal "
                   "predictions within 4 standard errors; recovered-state "
                   "fidelity non-increasing in depolarizing strength "
                   f"(2 sigma); failures: {failures or 'none'}")
