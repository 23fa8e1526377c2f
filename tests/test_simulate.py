
import math
import re

import numpy as np
import pytest

import eurqsi.linalg as linalg
import eurqsi.simulate as simulate
from eurqsi.gallery import _R1_KRAUS, _R3_KRAUS, recovery_map_r1, recovery_map_r3
from eurqsi.linalg import apply_local, fidelity, partial_trace, trace_distance
from eurqsi.serialize import canonical_json
from eurqsi.simulate import (
    _PAULI_PRODUCTS,
    _PAULIS,
    _PROGRAMS,
    GATES,
    NOISELESS,
    NoiseSpec,
    ShotTable,
    _coefficients,
    _discard,
    _evaluate,
    _flipped,
    _gate,
    _measure,
    _shot_counts,
    _Step,
    bloch_tomography,
    run_experiment,
)
from eurqsi.recovery import CpMap, apply_map, choi_from_kraus, eur_recovery_map
from eurqsi.relations import check_bipartite
from eurqsi.states import (
    KET_MINUS,
    KET_PLUS,
    KET_PLUS_Y,
    DensityOperator,
    Pvm,
    bell_phi,
    ket_bra,
    maximally_mixed,
    measure,
    pauli_pvm,
    pinch,
    random_multipartite_state,
)

from conftest import (
    basis_probabilities_oracle,
    experiment_oracle,
    flip_distribution,
    permutation_matrix,
    program_oracle,
    sample_distribution,
)


def _controlled(name):
    """The two-qubit gate that applies GATES[name] to the second qubit when
    the first is |1>."""
    g = np.eye(4, dtype=complex)
    g[2:, 2:] = GATES[name]
    return g


def _zeros(qubits):
    """|0...0><0...0| on ``qubits`` qubits."""
    rho = np.zeros((2 ** qubits, 2 ** qubits), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _run(rho, steps, noise=NOISELESS, labels=None):
    """``steps`` run from ``rho`` on the qubits ``labels``, by default q0,
    q1, ...: their coefficients built from ``rho`` and evaluated at (p, q),
    and the labels of the final matrix."""
    if labels is None:
        labels = [f"q{i}" for i in range(rho.shape[0].bit_length() - 1)]
    coefficients, labels = _coefficients(rho, labels, steps)
    return _evaluate(coefficients, noise), labels


class TestGates:
    def test_hadamard_makes_plus(self):
        out, _ = _run(_zeros(1), (_gate(GATES["h"], "q0"),))
        assert np.abs(out - ket_bra(KET_PLUS)).max() < 1e-12

    def test_cnot_makes_bell(self):
        rho, labels = _run(_zeros(2), (_gate(GATES["h"], "q0"),
                                       _gate(_controlled("x"), "q0", "q1")))
        assert labels == ("q0", "q1")
        assert np.abs(rho - ket_bra(bell_phi())).max() < 1e-12

    def test_trace_preserved(self):
        rho = random_multipartite_state((2, 2, 2), 8, 3, ("a", "b", "c")).matrix
        for name in GATES:
            for p in (0.0, 0.3, 1.0):
                out, _ = _run(rho, (_gate(_controlled(name), "q0", "q1"),),
                              NoiseSpec(depolarizing_p=p))
                assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_noiseless_kraus_set_is_the_gate_alone(self):
        # without noise a run applies the first stored operator, the gate,
        # and nothing else: as a dense operator on the whole state, the gate
        # on the qubits it reads after the permutation that brings them to
        # the front, where the run leaves them
        rho = random_multipartite_state((2, 2), 4, 5, ("a", "b")).matrix
        for unitary, qubits, order in ((GATES["h"], ("q1",), [1, 0]),
                                       (_controlled("x"), ("q1", "q0"), [1, 0])):
            gate = _gate(unitary, *qubits)
            assert np.array_equal(gate.kraus[0], unitary)
            rest = np.eye(4 // len(unitary))
            op = np.kron(unitary, rest) @ permutation_matrix((2, 2), order)
            want = op @ rho @ op.conj().T
            got, labels = _run(rho, (gate,))
            assert labels == ("q1", "q0")
            assert np.abs(got - want).max() < 1e-15
            noisy, _ = _run(rho, (gate,), NoiseSpec(depolarizing_p=1e-3))
            assert np.abs(noisy - want).max() > 1e-6
        assert np.array_equal(_gate(GATES["s"], "q0").kraus[0], GATES["s"])

    def test_embed_operator_position(self):
        z = GATES["z"]
        rho = random_multipartite_state((2, 2), 4, 8, ("a", "b")).matrix
        full = np.kron(np.eye(2), z)
        got = apply_local(rho, (2, 2), [z], [1])
        assert np.abs(got - full @ rho @ full).max() < 1e-12


class TestNoise:
    def test_full_depolarizing_gives_maximally_mixed(self):
        out, _ = _run(_zeros(1), (_gate(GATES["i"], "q0"),), NoiseSpec(depolarizing_p=1.0))
        assert np.abs(out - maximally_mixed(2)).max() < 1e-12

    def test_depolarizing_closed_form(self):
        # (1 - p) rho + p Tr_1(rho) (x) I/2 on qubit 1; qubit 0 untouched
        for seed, p in enumerate((0.1, 0.37, 1.0)):
            rho = random_multipartite_state((2, 2), 4, seed, ("a", "b")).matrix
            out, labels = _run(rho, (_gate(GATES["i"], "q1"),), NoiseSpec(depolarizing_p=p))
            # the gate leaves q1 in front: put the qubits back to compare
            out, _ = linalg._in_order(out, (2, 2), [labels.index("q0"), labels.index("q1")])
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
        for value in (float("nan"), 10**400):  # no float() overflow on the way
            with pytest.raises(ValueError, match="^depolarizing_p must lie in"):
                NoiseSpec(value)
        # float() would read a bool as 0.0 or 1.0, "0.5" or b"0.5" as 0.5 and
        # a 0-d array as its entry; an array of one entry is no number either
        for name in ("depolarizing_p", "readout_flip"):
            for value in (True, False, np.True_, np.False_, "0.5", "1", b"0.5",
                          np.array(True), np.array("0.5"), np.array([0.5])):
                with pytest.raises(ValueError, match=f"^{name} must be a number in "
                                                     f"\\[0, 1\\], got {re.escape(repr(value))}$"):
                    NoiseSpec(**{name: value})
        noise = NoiseSpec(np.float32(0.25), 1)
        assert noise == NoiseSpec(0.25, 1.0)
        assert type(noise.depolarizing_p) is float and type(noise.readout_flip) is float

    def test_flip_distribution_two_bits(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        out = _flipped(probs, 0.1)
        want = np.array([[0.81, 0.09, 0.09, 0.01], [0.01, 0.09, 0.09, 0.81]])
        assert np.abs(out - want).max() < 1e-12
        assert _flipped(probs, 0.0) is probs


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
            big = apply_local(big, dims, [_controlled("x")], [1, 2])
            big = apply_local(big, dims, [_controlled("z")], [0, 1])
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
        half_up, half_down = np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)
        exact = _shot_counts(np.array([[0.5, 0.5]] * 3), 8192, np.random.default_rng(3))
        nudged = _shot_counts(np.array([[0.5, 0.5], [half_up, 1.0 - half_up],
                                        [half_down, 1.0 - half_down]]),
                              8192, np.random.default_rng(3))
        assert np.array_equal(nudged, exact)

    def test_sampling_matches_distribution_at_4_sigma(self):
        rng = np.random.default_rng(5)
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        counts = _shot_counts(probs, 8192, rng)
        assert counts.sum(axis=1).tolist() == [8192, 8192]
        se = np.sqrt(probs * (1 - probs) / 8192)
        assert (np.abs(counts / 8192 - probs) < 4 * se).all()

    @pytest.mark.parametrize("q", [0.0, 0.02, 0.3])
    @pytest.mark.parametrize("n_bits", [1, 2])
    def test_batched_readout_equals_sequential_draws(self, n_bits, q):
        # one flip of every row and one multinomial call give the counts of
        # one flip and one draw per table, in turn, from the same generator;
        # every fourth seed draws rows at 1/2 and one ulp either side
        half_up, half_down = np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)
        snapping = np.zeros((3, 2 ** n_bits))
        snapping[:, [0, -1]] = [[0.5, 0.5], [half_up, 1.0 - half_up],
                                [half_down, 1.0 - half_down]]
        outcomes = [format(i, f"0{n_bits}b") for i in range(2 ** n_bits)]
        for seed in range(40):
            probs = snapping if seed % 4 == 0 else \
                np.random.default_rng([seed, 1]).dirichlet(np.ones(2 ** n_bits), size=3)
            flipped = _flipped(probs, q)
            want = [flip_distribution(row, q) for row in probs]
            assert np.abs(flipped - want).max() < 1e-15
            rng = np.random.default_rng([seed, 2])
            sequential = [sample_distribution(row, outcomes, 8192, rng).counts for row in want]
            counts = _shot_counts(flipped, 8192, np.random.default_rng([seed, 2]))
            assert [dict(zip(outcomes, row.tolist())) for row in counts] == sequential

    @pytest.mark.parametrize("counts, shots", [({"0": -1, "1": 2}, 1), ({}, 0)])
    def test_rejects_negative_counts_and_no_shots(self, counts, shots):
        with pytest.raises(ValueError, match="shots must be positive and counts non-negative"):
            ShotTable(counts, shots)

    @pytest.mark.parametrize("counts, shots, message", [
        ({"0": 2.9}, 2, "counts must be integers"),   # int() would store a count of 2
        ({"0": 1, "1": 1.5}, 2, "counts must be integers"),
        ({"0": 2}, 2.5, "shots must be integers"),
        ({"0": True, "1": 1}, 2, "counts must be integers"),   # would store a count of 1
        ({"0": np.True_, "1": 1}, 2, "counts must be integers"),
        ({"0": 1}, True, "shots must be integers"),
    ])
    def test_rejects_counts_and_shots_that_are_not_integers(self, counts, shots, message):
        with pytest.raises(ValueError, match=message):
            ShotTable(counts, shots)

    @pytest.mark.parametrize("counts, repeated", [
        ({0: 0, "0": 4, "1": 4}, "0"),     # str() would merge them into {"0": 4, "1": 4}
        ({"1": 2, 1: 0, "0": 6}, "1"),
        ({"0": 4, "None": 2, None: 2}, "None"),
    ])
    def test_rejects_outcome_keys_that_repeat_after_str(self, counts, repeated):
        with pytest.raises(ValueError, match=f"outcome '{repeated}' is given by more than one key"):
            ShotTable(counts, 8)

    def test_integer_valued_counts_of_any_type_are_stored_as_ints(self):
        t = ShotTable({"0": np.int64(3), "1": 1.0}, np.int32(4))
        assert t.counts == {"0": 3, "1": 1} and t.shots == 4
        assert all(type(v) is int for v in (*t.counts.values(), t.shots))


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

    def test_no_tables_are_rejected_naming_the_first_axis(self):
        with pytest.raises(ValueError, match="^tomography needs a 'X' table$"):
            bloch_tomography({})

    def test_a_missing_axis_is_named(self):
        tables = {a: ShotTable({"0": 50, "1": 50}, 100) for a in "XZ"}
        with pytest.raises(ValueError, match="^tomography needs a 'Y' table$"):
            bloch_tomography(tables)

    def test_a_table_of_two_bit_outcomes_is_named(self):
        # its frequency of "0" and of "1" would both read 0.0
        tables = {a: ShotTable({"0": 50, "1": 50}, 100) for a in "XY"}
        tables["Z"] = ShotTable({"00": 100}, 100)
        with pytest.raises(ValueError, match=r"^the 'Z' table has outcomes \['00'\], not within"):
            bloch_tomography(tables)

    def test_a_table_with_an_outcome_other_than_a_bit_is_named(self):
        tables = {a: ShotTable({"0": 50, "1": 50}, 100) for a in "XZ"}
        tables["Y"] = ShotTable({"0": 50, "+": 50}, 100)
        with pytest.raises(ValueError, match=r"^the 'Y' table has outcomes \['\+', '0'\]"):
            bloch_tomography(tables)

    def test_a_table_that_never_saw_one_outcome_is_accepted(self):
        # outcomes within {"0", "1"} need not be both of them
        tables = {"X": ShotTable({"0": 100}, 100), "Y": ShotTable({"1": 100}, 100),
                  "Z": ShotTable({"0": 25, "1": 75}, 100)}
        assert bloch_tomography(tables) == (1.0, -1.0, -0.5)


class TestExperiments:
    def test_invalid_id(self):
        with pytest.raises(ValueError):
            run_experiment(7)
        with pytest.raises(ValueError):
            run_experiment(1, shots=0)

    @pytest.mark.parametrize("args, kwargs, name", [
        ((1.0,), {}, "experiment"),
        ((True,), {}, "experiment"),
        ((0,), {}, "experiment"),
        (("1",), {}, "experiment"),
        ((1,), {"shots": 100.5}, "shots"),
        ((1,), {"shots": True}, "shots"),
        ((1,), {"seed": -1}, "seed"),
        ((1,), {"seed": 1.5}, "seed"),
        ((1,), {"noise": None}, "noise"),
        ((1,), {"noise": {"depolarizing_p": 0.1}}, "noise"),
        ((1,), {"noise": (0.1, 0.0)}, "noise"),
    ])
    def test_arguments_are_checked_before_any_step(self, monkeypatch, args, kwargs, name):
        monkeypatch.setattr(simulate, "_evaluate",
                            lambda *a: pytest.fail("the polynomial was evaluated"))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run_experiment(*args, **kwargs)

    def test_shots_are_bounded_by_the_multinomial_counts(self, monkeypatch):
        # numpy draws int64 counts: 2**63 - 1 shots run, one more is
        # rejected before the final state is evaluated instead of
        # overflowing in the draw
        res = run_experiment(1, shots=2**63 - 1)
        assert all(sum(t.counts.values()) == 2**63 - 1 for t in res.tables.values())
        monkeypatch.setattr(simulate, "_evaluate",
                            lambda *a: pytest.fail("the polynomial was evaluated"))
        for shots in (2**63, np.uint64(2**63), 2**100):
            with pytest.raises(ValueError, match="^shots must be .* at most 2\\*\\*63 - 1"):
                run_experiment(1, shots=shots)

    def test_numpy_integer_arguments_give_the_same_result(self):
        want = canonical_json(run_experiment(2, shots=64, seed=3).to_dict())
        got = run_experiment(np.int64(2), shots=np.int32(64), seed=np.uint8(3))
        assert canonical_json(got.to_dict()) == want

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

    def test_under_readout_flip_the_bloch_estimate_is_of_the_blurred_vector(self):
        # at 2**40 shots the estimate sits within about 1e-6 of (1 - 2q) r,
        # where r is the Bloch vector of the final state, and at q = 0.1 it
        # is far from r itself; estimated_state() is the state of (1 - 2q) r
        for q in (0.02, 0.1):
            res = run_experiment(1, shots=2**40, noise=NoiseSpec(0.1, q), seed=0)
            r = np.array([np.trace(p @ res.final_state.matrix).real for p in _PAULIS[1:]])
            estimate = np.array(res.bloch_estimate)
            assert np.abs(estimate - (1.0 - 2.0 * q) * r).max() <= 1e-5
            blurred = 0.5 * (np.eye(2) + np.einsum("a,aij->ij", (1.0 - 2.0 * q) * r, _PAULIS[1:]))
            assert np.abs(res.estimated_state() - blurred).max() <= 1e-5
        assert abs(estimate[0] - r[0]) > 0.1

    @pytest.mark.parametrize("exp_id", [5, 6])
    def test_two_qubit_experiments_estimate_no_single_qubit_state(self, exp_id):
        res = run_experiment(exp_id, shots=64, seed=0)
        assert res.bloch_estimate is None and res.estimated_state() is None
        assert "bloch_estimate" not in res.to_dict()

    def test_deterministic_replay(self):
        a = run_experiment(4, shots=2048, seed=77)
        b = run_experiment(4, shots=2048, seed=77)
        assert a.tables["Y"].counts == b.tables["Y"].counts

    def test_circuit_structure_exposed(self):
        # experiment 2: H, a Z measurement, the X measurement between two
        # Hadamards, the register-only recovery, and the trace of the
        # measured qubit and the Z register last
        steps = _PROGRAMS[2].steps
        kinds = [step.noise for step in steps]
        assert kinds == ["depolarizing", "readout", "depolarizing", "readout", "depolarizing",
                         None, None]
        assert [step.writes[1] for step in steps if step.noise == "readout"] == ["Z", "X"]
        for step in steps:
            if step.noise == "depolarizing":
                assert np.array_equal(step.kraus[0], GATES["h"])
        assert (steps[-2].reads, steps[-2].writes) == (("X",), ("Ap",))
        assert (steps[-1].reads, steps[-1].writes) == (("q0", "Z"), ())

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


def _local_kraus(step, noise):
    """The Kraus set of a step on its own subsystems: a gate's Pauli
    products weighted by depolarizing on each qubit, or a measurement's copy
    operators ``|m>|m xor f><m|`` weighted by the readout flip, each set cut
    to the noiseless operators when there is no noise; any other step's
    stack as it is."""
    if step.noise == "depolarizing":
        p = noise.depolarizing_p
        one = np.sqrt([1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0])
        weights = one if len(step.reads) == 1 else np.kron(one, one)
        return weights[:, None, None] * step.kraus if p else step.kraus[:1]
    if step.noise is None:
        return step.kraus
    q = noise.readout_flip
    eye = np.eye(2, dtype=complex)
    copy = [np.sqrt(1.0 - q) * np.outer(np.kron(e, e), e) for e in eye]
    flipped = [np.sqrt(q) * np.outer(np.kron(e, e[::-1]), e) for e in eye]
    return np.array(copy + flipped if q else copy)


def _identity(reads, writes):
    """A step applying the identity from ``reads`` to ``writes``."""
    return _Step(tuple(reads), tuple(writes), np.eye(2 ** len(reads), dtype=complex)[None])


class TestRunCircuit:
    def test_register_correlates_with_outcome(self):
        rho, labels = _run(_zeros(1), (_gate(GATES["h"], "q0"), _measure("q0", "M")))
        assert labels == ("q0", "M")
        # perfectly correlated classical pair
        want = 0.5 * np.diag([1.0, 0.0, 0.0, 1.0])
        assert np.abs(rho - want).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_recovery_step_runs_on_the_subsystems_it_reads(self, n):
        # an identity map from the X register (and q1) to new subsystems
        # leaves them in front and keeps the trace
        h = _gate(GATES["h"], "q0")
        rho, labels = _run(_zeros(2), (h, _measure("q0", "X"),
                                       _identity(("X", "q1")[:n], ("a", "b")[:n])))
        assert labels[:n] == ("a", "b")[:n] and abs(np.trace(rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("exp_id", range(1, 7))
    def test_every_program_step_is_trace_preserving_and_ends_on_the_ideal_labels(self, exp_id):
        # the programs are constants that nothing checks when they are
        # built, so their data are pinned here: each step's coefficients,
        # run on the subsystems it reads and evaluated as a run evaluates
        # them, take the matrix unit E_ij of its input space to trace
        # delta_ij, so its Kraus set is trace-preserving and each gate is
        # unitary; and the steps run from q0, q1, ... end on the ideal
        # state's labels
        program = _PROGRAMS[exp_id]
        for step in program.steps:
            d = 2 ** len(step.reads)
            units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
            coefficients = [_coefficients(e, step.reads, (step,))[0] for e in units]
            for p, q in ((0, 0), (0.1, 0.02), (1, 0.5)):
                noise = NoiseSpec(depolarizing_p=p, readout_flip=q)
                traces = [np.trace(_evaluate(c, noise)) for c in coefficients]
                assert np.abs(np.reshape(traces, (d, d)) - np.eye(d)).max() < 1e-12
        _, labels = _run(_zeros(program.qubits), program.steps)
        assert labels == program.ideal.labels


class TestAgainstTheChecker:
    # the input of experiments 1 and 2, 3 and 4, and 5 and 6 as the checker
    # reads it: |+> and |+_Y> with a trivial B, and the Bell state
    INPUTS = {1: (KET_PLUS, (2, 1)), 3: (KET_PLUS_Y, (2, 1)), 5: (bell_phi(), (2, 2))}

    @pytest.mark.parametrize("first", sorted(INPUTS))
    def test_programs_end_on_the_recovered_and_on_the_pinched_input(self, first):
        # the first program of a pair measures X and reverses it: it ends on
        # R(sigma_XB), whose fidelity with the input is the checker's f; the
        # second measures Z first and ends on tau, as R(N(tau)) = tau
        ket, dims = self.INPUTS[first]
        rho = DensityOperator.from_vector(ket, dims, ("A", "B"))
        x, z = pauli_pvm("X"), pauli_pvm("Z")
        recovered = apply_map(eur_recovery_map(rho, x, z), measure(rho, x, "A", "X")).matrix
        ideal, pinched_ideal = (_PROGRAMS[e].ideal.matrix for e in (first, first + 1))
        assert trace_distance(ideal, recovered) <= 1e-12
        assert trace_distance(pinched_ideal, pinch(rho, z, "A").matrix) <= 1e-12
        assert abs(fidelity(rho.matrix, ideal) - check_bipartite(rho, x, z).f) <= 1e-12


class TestCoefficients:
    # (n, m) per program: the qubits its gates touch and its measurements;
    # experiments 3 and 4 add S, 5 and 6 a two-qubit CNOT, 2, 4 and 6 the
    # Z measurement
    ORDERS = {1: (3, 1), 2: (3, 2), 3: (4, 1), 4: (4, 2), 5: (5, 1), 6: (5, 2)}

    @pytest.mark.parametrize("exp_id", range(1, 7))
    def test_orders_count_the_noisy_qubit_gates_and_the_readouts(self, exp_id):
        program = _PROGRAMS[exp_id]
        n, m = self.ORDERS[exp_id]
        assert n == sum(len(s.reads) for s in program.steps if s.noise == "depolarizing")
        assert m == sum(s.noise == "readout" for s in program.steps)
        d = 2 ** program.qubits
        assert program.coefficients.shape == (n + 1, m + 1, d, d)

    @pytest.mark.parametrize("exp_id", range(1, 7))
    def test_each_coefficient_is_positive_with_the_binomial_trace(self, exp_id):
        # each C_kj is a sum of completely positive maps of |0...0><0...0|,
        # and every branch preserves trace, so Tr C_kj counts the ways to
        # pick k depolarized qubit-gates and j flipped readouts
        c = _PROGRAMS[exp_id].coefficients
        n, m = self.ORDERS[exp_id]
        assert np.abs(c - c.conj().swapaxes(-1, -2)).max() <= 1e-15
        assert np.linalg.eigvalsh(c).min() >= -1e-15
        want = [[math.comb(n, k) * math.comb(m, j) for j in range(m + 1)] for k in range(n + 1)]
        assert np.abs(np.trace(c, axis1=-2, axis2=-1) - want).max() <= 1e-13

    @pytest.mark.parametrize("exp_id", range(1, 7))
    def test_evaluated_state_matches_the_stepwise_oracle(self, exp_id):
        # at the ends of [0, 1], where the weights meet 0**0, at underflowing
        # noise and in between
        program = _PROGRAMS[exp_id]
        for p in (0.0, 1e-300, 0.05, 0.5, 1.0):
            for q in (0.0, 1e-320, 0.02, 0.5, 1.0):
                noise = NoiseSpec(depolarizing_p=p, readout_flip=q)
                rho, _, labels = program_oracle(program.qubits, program.steps, noise)
                assert tuple(labels) == program.ideal.labels
                assert np.abs(_evaluate(program.coefficients, noise) - rho).max() < 1e-14


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
        t = np.diag([1.0, np.exp(0.25j * np.pi)])
        steps = (
            _gate(GATES["h"], "q0"), _gate(GATES["h"], "q2"), _gate(_controlled("x"), "q0", "q1"),
            _gate(_controlled("z"), "q2", "q0"), _gate(t, "q1"), _measure("q1", "M"),
            _gate(GATES["h"], "q1"), _gate(_controlled("y"), "q1", "q2"),
            _Step(("M",), ("R",), _R1_KRAUS),
            _gate(GATES["s"], "q0"), _measure("q2", "N"), _discard("q1", "R"),
        )
        for noise in (NOISELESS, NoiseSpec(depolarizing_p=0.1, readout_flip=0.05)):
            rho, dims, labels = program_oracle(3, steps, noise)
            got, got_labels = _run(_zeros(3), steps, noise)
            # the oracle keeps every subsystem in place; the coefficients
            # leave each step's outputs in front
            assert sorted(got_labels) == sorted(labels) and dims == [2] * len(labels)
            got, _ = linalg._in_order(got, tuple(dims), [got_labels.index(s) for s in labels])
            assert np.abs(got - rho).max() < 1e-14

    def test_recovery_maps_are_shared_and_read_only(self):
        # r1 (experiments 1-4) and r3 (5-6) are each the gallery's one
        # read-only stack, whose Choi matrix is the gallery's map: r1 reads
        # the register alone, so it is the gallery's r1 with B left out
        r1 = _PROGRAMS[1].steps[-2].kraus
        r3 = _PROGRAMS[5].steps[-2].kraus
        assert {id(_PROGRAMS[e].steps[-2].kraus) for e in (1, 2, 3, 4)} == {id(r1)}
        assert {id(_PROGRAMS[e].steps[-2].kraus) for e in (5, 6)} == {id(r3)}
        assert r1 is _R1_KRAUS and r3 is _R3_KRAUS
        r1_with_b = [np.kron(k, np.eye(2)) for k in r1]
        assert np.array_equal(choi_from_kraus(r1_with_b), recovery_map_r1().choi)
        assert np.array_equal(choi_from_kraus(r3), recovery_map_r3().choi)
        for kraus in (r1, r3):
            with pytest.raises(ValueError, match="read-only"):
                kraus[0, 0, 0] = 0.0

    def test_fixed_data_are_read_only_and_left_unchanged_by_runs(self):
        arrays = [*GATES.values(), _PAULIS, *_PAULI_PRODUCTS.values(),
                  simulate._COPIES, simulate._PAULI_BASES, simulate._PAIR_BASES,
                  *simulate._READOUTS.values()]
        for program in _PROGRAMS.values():
            arrays += [program.ideal.matrix, program.coefficients]
            arrays += [step.kraus for step in program.steps]
        before = [a.copy() for a in arrays]
        blochs = {e: program.bloch_ideal for e, program in _PROGRAMS.items()}
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.5
        for exp_id, program in _PROGRAMS.items():
            for noise in (NOISELESS, NoiseSpec(depolarizing_p=0.1, readout_flip=0.05)):
                res = run_experiment(exp_id, shots=64, noise=noise)
                assert res.ideal_state is program.ideal
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert {e: program.bloch_ideal for e, program in _PROGRAMS.items()} == blochs

    @pytest.mark.parametrize("exp_id", range(1, 7))
    def test_stored_operators_match_the_local_stack(self, exp_id):
        # each step's stored Kraus set, run on a random state as its
        # Bernstein coefficients and evaluated, equals the operator-stack
        # kernel applied to that set weighted by the noise directly, at
        # positions found from the labels; the step leaves its outputs in
        # front, and the last one leaves the ideal state's subsystems in its
        # order
        program = _PROGRAMS[exp_id]
        for p in (0.0, 0.05, 0.1, 0.2):
            for q in (0.0, 0.05):
                noise = NoiseSpec(depolarizing_p=p, readout_flip=q)
                labels = [f"q{i}" for i in range(program.qubits)]
                for i, step in enumerate(program.steps):
                    dims = (2,) * len(labels)
                    positions = [labels.index(s) for s in step.reads]
                    rest = [j for j in range(len(labels)) if j not in positions]
                    rho = random_multipartite_state(dims, 2 ** len(dims), [exp_id, i],
                                                    labels).matrix
                    kraus = _local_kraus(step, noise)
                    want = linalg._local_stack(rho, dims, kraus, positions).sum(axis=0)
                    got, got_labels = _run(rho, (step,), noise, labels)
                    assert np.abs(got - want).max() < 1e-15
                    labels = list(step.writes) + [labels[j] for j in rest]
                    assert got_labels == tuple(labels)
                assert tuple(labels) == program.ideal.labels

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_readout_matrix_matches_the_basis_einsum(self, qubits):
        # one matmul of the readout matrix with vec(rho) gives the diagonal
        # of U^dag rho U for every Pauli basis (pairs of them on two qubits)
        bases = {1: simulate._PAULI_BASES, 2: simulate._PAIR_BASES}[qubits]
        readout = simulate._READOUTS[qubits]
        assert readout.shape == (3 * 2 ** qubits, 4 ** qubits)
        labels = ("Ap", "B")[:qubits]
        for seed in range(40):
            rank = 1 + seed % 2 ** qubits
            rho = random_multipartite_state((2,) * qubits, rank, [seed, qubits], labels).matrix
            got = simulate._basis_probabilities(rho, readout)
            assert got.shape == (3, 2 ** qubits)
            assert np.abs(got - basis_probabilities_oracle(rho, bases)).max() < 1e-15

    @pytest.mark.parametrize("counts", [
        [[65, -1], [32, 32], [32, 32]],    # a negative count
        [[32, 32], [32, 31], [32, 32]],    # a row that does not sum to the shots
        [[32, 32], [32, 32], [64, 1]],
        [[32.0, 32.0], [32.0, 32.0], [32.0, 32.0]],   # counts that are not integers
    ])
    def test_a_run_rejects_shot_counts_that_no_table_would_accept(self, monkeypatch, counts):
        monkeypatch.setattr(simulate, "_shot_counts", lambda *a: np.array(counts))
        with pytest.raises(ValueError, match="^shot counts .* summing to 64 in every row"):
            run_experiment(1, shots=64)

    def test_run_tables_equal_validated_tables(self):
        # a table built without a check equals the one the validating
        # constructor builds from the same counts, with str keys and int values
        for exp_id in _PROGRAMS:
            res = run_experiment(exp_id, shots=64, noise=NoiseSpec(0.1, 0.05), seed=exp_id)
            for t in res.tables.values():
                assert t == ShotTable(dict(t.counts), t.shots)
                assert all(type(k) is str and type(v) is int for k, v in t.counts.items())
                assert type(t.shots) is int and sum(t.counts.values()) == t.shots == 64

    def test_run_is_one_kernel_call_per_op_and_one_validation(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for cls in (CpMap, DensityOperator, Pvm, ShotTable):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(simulate, "_local_stack", counted("_local_stack", linalg._local_stack))
        monkeypatch.setattr(CpMap, "_apply", counted("choi", CpMap._apply))
        for name in ("_evaluate", "_basis_probabilities", "_flipped", "_shot_counts"):
            monkeypatch.setattr(simulate, name, counted(name, getattr(simulate, name)))
        for name in ("apply_local", "_in_order", "CpMap"):
            assert not hasattr(simulate, name)
        for exp_id in _PROGRAMS:
            for noise in (NOISELESS, NoiseSpec(depolarizing_p=0.1, readout_flip=0.05)):
                calls.clear()
                run_experiment(exp_id, shots=64, noise=noise)
                # no step runs, so no Kraus set is applied: one evaluation of
                # the program's coefficients gives the final state, one
                # validation makes it a state, and one pass reads the three
                # tables from it, whose counts are checked as one array, so
                # no table is validated on its own
                assert calls == ["_evaluate", "DensityOperator", "_basis_probabilities",
                                 "_flipped", "_shot_counts"]
