from collections import Counter

import numpy as np
import pytest

import eurqsi.linalg as linalg
import eurqsi.simulate as simulate
from eurqsi.gallery import recovery_map_r3
from eurqsi.linalg import apply_local, fidelity, partial_trace, trace_distance
from eurqsi.simulate import (
    GATES,
    Circuit,
    Gate,
    Measure,
    NoiseSpec,
    Recovery,
    ShotTable,
    _depolarizing_kraus,
    _gate_kraus,
    bloch_tomography,
    experiment_circuit,
    flip_distribution,
    run_circuit,
    run_experiment,
    sample_distribution,
)
from eurqsi.recovery import CpMap
from eurqsi.states import (
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    Pvm,
    bell_phi,
    ket_bra,
    maximally_mixed,
    random_multipartite_state,
)

from conftest import circuit_oracle, experiment_oracle, r1_register_map


class TestGates:
    def test_hadamard_makes_plus(self):
        rho = ket_bra(np.array([1, 0], dtype=complex))
        out = apply_local(rho, (2,), _gate_kraus("h", 0, 0.0), [0])
        assert np.abs(out - ket_bra(KET_PLUS)).max() < 1e-12

    def test_cnot_makes_bell(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        rho = ket_bra(psi)
        rho = apply_local(rho, (2, 2), _gate_kraus("h", 0, 0.0), [0])
        rho = apply_local(rho, (2, 2), _gate_kraus("x", 1, 0.0), [0, 1])
        assert np.abs(rho - ket_bra(bell_phi())).max() < 1e-12

    def test_trace_preserved(self):
        rho = random_multipartite_state((2, 2, 2), 8, 3, ("a", "b", "c")).matrix
        for name in ("h", "s", "x", "y", "z", "t"):
            out = apply_local(rho, (2, 2, 2), _gate_kraus(name, 1, 0.0), [0, 1])
            assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_embed_operator_position(self):
        z = GATES["z"]
        rho = random_multipartite_state((2, 2), 4, 8, ("a", "b")).matrix
        full = np.kron(np.eye(2), z)
        got = apply_local(rho, (2, 2), [z], [1])
        assert np.abs(got - full @ rho @ full).max() < 1e-12


class TestCircuitValidation:
    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("h", (1,)),))

    def test_rejects_register_rewrite(self):
        with pytest.raises(ValueError):
            Circuit(1, (Measure(0, "X"), Measure(0, "X")))

    def test_rejects_unknown_gate(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("qft", (0,)),))

    def test_rejects_gate_repeating_a_qubit(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("x", (0,), controls=(0,)),))

    def test_rejects_multi_target_gate(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate("h", (0, 1)),))

    def test_rejects_register_named_like_a_qubit(self):
        with pytest.raises(ValueError):
            Circuit(2, (Measure(0, "q1"),))


class TestNoise:
    def test_full_depolarizing_gives_maximally_mixed(self):
        rho = ket_bra(np.array([1, 0], dtype=complex))
        out = apply_local(rho, (2,), _depolarizing_kraus(1, 1.0), [0])
        assert np.abs(out - maximally_mixed(2)).max() < 1e-12

    def test_depolarizing_closed_form(self):
        # (1 - p) rho + p Tr_1(rho) (x) I/2 on qubit 1; qubit 0 untouched
        for seed, p in enumerate((0.1, 0.37, 1.0)):
            rho = random_multipartite_state((2, 2), 4, seed, ("a", "b")).matrix
            out = apply_local(rho, (2, 2), _depolarizing_kraus(1, p), [1])
            marginal = partial_trace(rho, (2, 2), [0])
            want = (1.0 - p) * rho + p * np.kron(marginal, maximally_mixed(2))
            assert np.abs(out - want).max() < 1e-12
            assert np.abs(partial_trace(out, (2, 2), [0]) - marginal).max() < 1e-12

    def test_readout_flip_on_the_register_before_recovery(self):
        # the X register reads 0 with certainty; a flip to 1 recovers |->
        q = 0.15
        res = run_experiment(1, shots=1, noise=NoiseSpec(readout_flip=q))
        want = (1.0 - q) * ket_bra(KET_PLUS) + q * ket_bra(KET_MINUS)
        assert res.final_state.labels == ("Ap",)
        assert np.abs(res.final_state.matrix - want).max() < 1e-12

    def test_noise_spec_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(depolarizing_p=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(readout_flip=-0.1)

    def test_flip_distribution_two_bits(self):
        probs = np.array([1.0, 0.0, 0.0, 0.0])
        out = flip_distribution(probs, 0.1)
        want = np.array([0.81, 0.09, 0.09, 0.01])
        assert np.abs(out - want).max() < 1e-12


class TestRecoveryRealization:
    def test_r3_circuit_equals_kraus_form(self):
        # CNOT from B to A', then CZ on (X, B), then trace X
        rec = recovery_map_r3()
        for seed in range(8):
            xi = random_multipartite_state((2, 2), 4, [seed, 3], ("X", "B")).matrix
            anc = np.zeros((2, 2), dtype=complex)
            anc[0, 0] = 1.0
            big = np.kron(xi, anc)  # order (X, B, A')
            dims = (2, 2, 2)
            # the X register is measured already: pinch it
            big = apply_local(big, dims, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0])
            big = apply_local(big, dims, _gate_kraus("x", 1, 0.0), [1, 2])
            big = apply_local(big, dims, _gate_kraus("z", 1, 0.0), [0, 1])
            got = partial_trace(big, dims, [1, 2])  # (B, A')
            swap = np.eye(4)[[0, 2, 1, 3]]
            got = apply_local(got, (2, 2), [swap], [0, 1])  # (A', B)
            want = rec.apply_matrix(xi)
            assert np.abs(got - want).max() < 1e-10


class TestShotTable:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            ShotTable({"0": 3, "1": 3}, 7)

    def test_stderr_formula(self):
        t = ShotTable({"0": 6144, "1": 2048}, 8192)
        p = 6144 / 8192
        assert abs(t.stderr("0") - np.sqrt(p * (1 - p) / 8192)) < 1e-15

    def test_counts_do_not_hinge_on_round_off_at_one_half(self):
        # numpy's binomial branches on p <= 1/2; one ulp must not swap counts
        half_up = np.nextafter(0.5, 1.0)
        exact = sample_distribution([0.5, 0.5], ("0", "1"), 8192, np.random.default_rng(3))
        nudged = sample_distribution(
            [half_up, 1.0 - half_up], ("0", "1"), 8192, np.random.default_rng(3)
        )
        assert nudged.counts == exact.counts

    def test_sampling_matches_distribution_at_4_sigma(self):
        rng = np.random.default_rng(5)
        probs = np.array([0.7, 0.3])
        t = sample_distribution(probs, ("0", "1"), 8192, rng)
        for out, p in zip(("0", "1"), probs):
            se = np.sqrt(p * (1 - p) / 8192)
            assert abs(t.frequency(out) - p) < 4 * se

    @pytest.mark.parametrize("counts, shots", [({"0": -1, "1": 2}, 1), ({}, 0)])
    def test_rejects_negative_counts_and_no_shots(self, counts, shots):
        with pytest.raises(ValueError, match="shots must be positive and counts non-negative"):
            ShotTable(counts, shots)


class TestBlochTomography:
    def test_ideal_plus_state(self):
        tables = {
            "X": ShotTable({"0": 100, "1": 0}, 100),
            "Y": ShotTable({"0": 50, "1": 50}, 100),
            "Z": ShotTable({"0": 50, "1": 50}, 100),
        }
        assert bloch_tomography(tables) == (1.0, 0.0, 0.0)

    def test_ideal_maximally_mixed(self):
        tables = {a: ShotTable({"0": 50, "1": 50}, 100) for a in "XYZ"}
        assert bloch_tomography(tables) == (0.0, 0.0, 0.0)

    def test_mismatched_shots_rejected(self):
        tables = {
            "X": ShotTable({"0": 100, "1": 0}, 100),
            "Y": ShotTable({"0": 50, "1": 50}, 100),
            "Z": ShotTable({"0": 5, "1": 5}, 10),
        }
        with pytest.raises(ValueError):
            bloch_tomography(tables)


class TestExperiments:
    def test_invalid_id(self):
        with pytest.raises(ValueError):
            run_experiment(7)
        with pytest.raises(ValueError):
            run_experiment(1, shots=0)

    def test_exact_states_match_ideal(self):
        for exp_id in range(1, 7):
            res = run_experiment(exp_id, shots=1, seed=0)
            assert trace_distance(res.final_state.matrix,
                                  res.ideal_state.matrix) < 1e-10

    def test_exact_states_match_gallery_expectations(self):
        # cross-module golden: the circuit pipeline ends where the worked
        # examples say the recovery channel should land
        from eurqsi.gallery import build
        from eurqsi.linalg import partial_trace as pt
        res5 = run_experiment(5, shots=1, seed=0)
        want5 = build("max_entangled").expected_recovery_outputs[0][1]
        assert trace_distance(res5.final_state.matrix, want5.matrix) < 1e-10
        res6 = run_experiment(6, shots=1, seed=0)
        want6 = build("max_entangled").expected_recovery_outputs[1][1]
        assert trace_distance(res6.final_state.matrix, want6.matrix) < 1e-10
        res1 = run_experiment(1, shots=1, seed=0)
        want1 = pt(build("x_eigen").expected_recovery_outputs[0][1].matrix,
                   (2, 2), [0])  # the recovered qubit alone
        assert trace_distance(res1.final_state.matrix, want1) < 1e-10

    def test_experiment_1_bloch_within_4_sigma(self):
        res = run_experiment(1, shots=8192, seed=21)
        se = np.sqrt(0.25 / 8192)
        for got, want in zip(res.bloch_estimate, (1.0, 0.0, 0.0)):
            assert abs(got - want) <= 8 * se  # coordinate = difference of two freqs

    def test_experiments_2_to_4_recover_maximally_mixed(self):
        for exp_id in (2, 3, 4):
            res = run_experiment(exp_id, shots=8192, seed=exp_id)
            for got in res.bloch_estimate:
                assert abs(got) <= 8 * np.sqrt(0.25 / 8192)

    def test_experiment_5_correlations(self):
        res = run_experiment(5, shots=8192, seed=9)
        for key in ("XX", "YY*", "ZZ"):
            t = res.tables[key]
            se = np.sqrt(0.25 / 8192)
            assert abs(t.frequency("00") - 0.5) <= 4 * se
            assert abs(t.frequency("11") - 0.5) <= 4 * se
            assert t.frequency("01") == 0.0
            assert t.frequency("10") == 0.0

    def test_experiment_6_correlations(self):
        res = run_experiment(6, shots=8192, seed=10)
        zz = res.tables["ZZ"]
        se = np.sqrt(0.25 / 8192)
        assert abs(zz.frequency("00") - 0.5) <= 4 * se
        assert abs(zz.frequency("11") - 0.5) <= 4 * se
        for key in ("XX", "YY*"):
            t = res.tables[key]
            for outcome in ("00", "01", "10", "11"):
                p = 0.25
                assert abs(t.frequency(outcome) - p) <= 4 * np.sqrt(p * (1 - p) / 8192)

    def test_deterministic_replay(self):
        a = run_experiment(4, shots=2048, seed=77)
        b = run_experiment(4, shots=2048, seed=77)
        assert a.tables["Y"].counts == b.tables["Y"].counts

    def test_circuit_structure_exposed(self):
        c = experiment_circuit(2)
        kinds = [type(op).__name__ for op in c.ops]
        assert kinds.count("Measure") == 2
        assert kinds[-1] == "Recovery"

    def test_noise_sweep_fidelity_non_increasing(self):
        # tomography-based estimate at 8192 shots, 2 sigma statistical slack
        for exp_id in (1, 3):
            fids = []
            for p in (0.0, 0.05, 0.1, 0.2):
                res = run_experiment(
                    exp_id, shots=8192, noise=NoiseSpec(depolarizing_p=p),
                    seed=exp_id * 100,
                )
                est = res.estimated_state()
                est = 0.5 * (est + est.conj().T)
                vals = np.linalg.eigvalsh(est)
                if vals.min() < 0:  # statistical Bloch estimate can poke outside
                    est = est + (1e-12 - vals.min()) * np.eye(2)
                    est /= np.trace(est).real
                fids.append(fidelity(est, res.ideal_state.matrix))
            slack = 2 * np.sqrt(0.25 / 8192)
            assert all(a >= b - 2 * slack for a, b in zip(fids, fids[1:]))

    def test_readout_noise_blurs_correlations(self):
        res = run_experiment(5, shots=8192, noise=NoiseSpec(readout_flip=0.2), seed=2)
        t = res.tables["ZZ"]
        assert t.frequency("01") > 0.05  # 2 q (1-q) = 0.32 expected mass spread


class TestRunCircuit:
    def test_register_correlates_with_outcome(self):
        circ = Circuit(1, (Gate("h", (0,)), Measure(0, "M")))
        out = run_circuit(circ)
        assert out.labels == ("q0", "M")
        # perfectly correlated classical pair
        want = 0.5 * np.diag([1.0, 0.0, 0.0, 1.0])
        assert np.abs(out.matrix - want).max() < 1e-12

    def test_missing_recovery_binding(self):
        circ = Circuit(1, (Recovery("nope"),))
        with pytest.raises(ValueError):
            run_circuit(circ)

    @pytest.mark.parametrize("in_dims, in_labels, out_labels", [
        ((2,), ("q0", "q1"), ("a", "b")),   # two labels for a one-qubit map
        ((2, 2), ("X",), ("a",)),           # one label for a two-qubit map
        ((2,), ("Z",), ("a",)),             # a label the state does not have
        ((2, 2), ("X", "X"), ("a", "b")),   # one subsystem twice
        ((2,), ("X",), ("a", "b")),         # two outputs for one
    ])
    def test_recovery_binding_must_fit_its_map(self, in_dims, in_labels, out_labels):
        d = int(np.prod(in_dims))
        cpmap = CpMap(np.outer(np.eye(d).ravel(), np.eye(d).ravel()), in_dims, in_dims)
        circ = Circuit(2, (Gate("h", (0,)), Measure(0, "X"), Recovery("r")))
        with pytest.raises(ValueError, match="recovery map 'r'"):
            run_circuit(circ, {"r": (cpmap, in_labels, out_labels)})
        fits = {"r": (cpmap, ("X", "q1")[:len(in_dims)], ("a", "b")[:len(in_dims)])}
        assert run_circuit(circ, fits).labels[:len(in_dims)] == ("a", "b")[:len(in_dims)]

    @pytest.mark.parametrize("in_dims, in_labels, out_labels", [
        ((2,), ("X",), ("q1",)),            # an output names a subsystem the map leaves alone
        ((2, 2), ("X", "q1"), ("y", "y")),  # one output label twice
    ])
    def test_recovery_outputs_are_new_distinct_labels(self, monkeypatch, in_dims, in_labels,
                                                      out_labels):
        d = int(np.prod(in_dims))
        cpmap = CpMap(np.outer(np.eye(d).ravel(), np.eye(d).ravel()), in_dims, in_dims)
        circ = Circuit(2, (Gate("h", (0,)), Measure(0, "X"), Recovery("r"), Gate("x", (1,))))
        steps = []
        monkeypatch.setattr(simulate._SimState, "gate", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="recovery map 'r'"):
            run_circuit(circ, {"r": (cpmap, in_labels, out_labels)})
        assert steps == []  # rejected before any op ran

    def test_a_register_may_not_name_a_recovery_output(self):
        cpmap = CpMap(np.outer(np.eye(2).ravel(), np.eye(2).ravel()), (2,), (2,))
        circ = Circuit(2, (Measure(0, "X"), Recovery("r"), Measure(1, "a")))
        with pytest.raises(ValueError, match="register 'a'"):
            run_circuit(circ, {"r": (cpmap, ("X",), ("a",))})


class TestAgainstStepwiseOracle:
    @pytest.mark.parametrize("exp_id", range(1, 7))
    def test_experiment_matches_the_stepwise_simulator(self, exp_id):
        for p in (0.0, 0.05, 0.1, 0.2):
            for q in (0.0, 0.05):
                noise = NoiseSpec(depolarizing_p=p, readout_flip=q)
                want_state, want_counts = experiment_oracle(exp_id, 8192, noise, seed=13)
                res = run_experiment(exp_id, shots=8192, noise=noise, seed=13)
                assert np.abs(res.final_state.matrix - want_state).max() < 1e-14
                assert {k: t.counts for k, t in res.tables.items()} == want_counts

    def test_noisy_circuit_with_late_control_and_middle_measurement(self):
        # the CZ's control comes after its target, the middle qubit is
        # measured and later used as a control, and a recovery reads its register
        circ = Circuit(3, (
            Gate("h", (0,)), Gate("h", (2,)), Gate("x", (1,), controls=(0,)),
            Gate("z", (0,), controls=(2,)), Gate("t", (1,)), Measure(1, "M"),
            Gate("h", (1,)), Gate("y", (2,), controls=(1,)), Recovery("m"),
            Gate("s", (0,)), Measure(2, "N"),
        ))
        bindings = {"m": (r1_register_map(), ("M",), ("R",))}
        for noise in (NoiseSpec(), NoiseSpec(depolarizing_p=0.1, readout_flip=0.05)):
            rho, dims, labels = circuit_oracle(circ, bindings, noise)
            got = run_circuit(circ, bindings, noise)
            assert got.labels == tuple(labels) and got.dims == tuple(dims)
            assert np.abs(got.matrix - rho).max() < 1e-14

    def test_recovery_maps_are_shared_and_read_only(self):
        for map_id in ("r1", "r3"):
            cpmap = simulate._recovery_binding(map_id)[0]
            assert simulate._recovery_binding(map_id)[0] is cpmap
            assert not hasattr(cpmap, "kraus")
            with pytest.raises(ValueError, match="read-only"):
                cpmap.choi[0, 0] = 0.0

    def test_one_run_builds_one_map_two_states_and_one_kraus_step_per_op(self, monkeypatch):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for cls in (CpMap, DensityOperator, Pvm):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        # every gate and measure step, through apply_local or not, is one
        # kernel call, and every recovery step one Choi contraction
        kernel = counted("kernel", linalg._local_stack)
        for mod in (linalg, simulate):
            monkeypatch.setattr(mod, "_local_stack", kernel)
        monkeypatch.setattr(CpMap, "_apply", counted("choi", CpMap._apply))
        # r1 (experiments 1-4) and r3 (5-6) are each built once per process:
        # after one warm-up run of each, a run builds no map
        for exp_id in (1, 5):
            run_experiment(exp_id, shots=64)
        for exp_id in range(1, 7):
            ops = experiment_circuit(exp_id).ops
            recoveries = sum(isinstance(op, Recovery) for op in ops)
            counts.clear()
            run_experiment(exp_id, shots=64, noise=NoiseSpec(depolarizing_p=0.1, readout_flip=0.05))
            assert counts["CpMap"] == 0
            assert counts["DensityOperator"] == 2  # final and ideal
            assert counts["Pvm"] == 0
            assert recoveries == 1
            assert counts["kernel"] == len(ops) - recoveries
            assert counts["choi"] == recoveries
