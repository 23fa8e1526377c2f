import math

import numpy as np
import pytest

from eurqsi.entropy import (_entropies, _entropy, conditional, entropy_of_spectrum,
                            relative, von_neumann)
from eurqsi.linalg import EPS_SUPP, tensor
from eurqsi.recovery import measurement_channel
from eurqsi.states import (
    DensityOperator,
    KET_0,
    KET_1,
    KET_PLUS,
    KET_PLUS_Y,
    bell_phi,
    ket_bra,
    maximally_mixed,
    measure,
    pauli_pvm,
    random_multipartite_state,
    random_pure_state,
    random_pvm,
    random_state,
)

from conftest import isometric_extension, rotated_spectrum


def qubit_state(mat):
    return DensityOperator(mat, (2,), ("A",))


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert abs(von_neumann(qubit_state(ket_bra(KET_PLUS)))) < 1e-12

    def test_maximally_mixed_one_bit(self):
        assert abs(von_neumann(qubit_state(maximally_mixed(2))) - 1.0) < 1e-12

    def test_binary_spectrum_scalar_oracle(self):
        got = von_neumann(qubit_state(np.diag([0.25, 0.75])))
        want = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert abs(got - want) < 1e-12


def plain_entropy(vals):
    """Entropy in bits of a spectrum cut against its own top, term by term."""
    vals = [float(v) for v in np.ravel(vals)]
    top = max(vals + [0.0])
    return -sum(v * math.log2(v) for v in vals if v > EPS_SUPP * top)


class TestEntropies:
    def test_support_is_cut_against_the_top_of_the_union(self):
        # the small block's eigenvalues sit at 2x and 0.5x the cutoff of the
        # big block's top: the union keeps the first and drops the second,
        # while the small block alone would keep both
        top = 0.6
        big = rotated_spectrum([top, 0.4 - 2.5 * EPS_SUPP * top], 5)
        small = rotated_spectrum([2 * EPS_SUPP * top, 0.5 * EPS_SUPP * top], 6)
        assembled = np.kron(np.diag([1.0, 0.0]), big) + np.kron(np.diag([0.0, 1.0]), small)
        got, alone = _entropies([np.linalg.eigvalsh(np.stack([big, small])),
                                 np.linalg.eigvalsh(small)])
        assert abs(got - _entropy(assembled)) <= 1e-12
        assert abs(alone - _entropy(small)) <= 1e-12
        per_block = _entropy(big) + _entropy(small)
        assert abs(per_block - _entropy(assembled)) > 1e-10
        assert abs(entropy_of_spectrum(np.linalg.eigvalsh(np.stack([big, small])))
                   - _entropy(assembled)) <= 1e-12

    def test_groups_of_unequal_size_each_match_their_entropy_alone(self):
        # scales 1e-11 apart: a cut against a shared top would drop the small
        # groups whole; the last value of each group of four or more straddles
        # its own cutoff, and the 3x3 block stack is one spectrum
        rng = np.random.default_rng(41)
        groups = [rng.random(size) * scale for size, scale in
                  ((1, 0.5), (4, 1e-11), (9, 0.3), (6, 1e-22), (2, 0.9))]
        for vals, factor in ((groups[1], 1.5), (groups[2], 0.5), (groups[3], 2.0)):
            vals[-1] = factor * EPS_SUPP * vals.max()
        groups[2] = groups[2].reshape(3, 3)
        got = _entropies(groups)
        assert len(got) == len(groups)
        for h, vals in zip(got, groups):
            assert abs(h - entropy_of_spectrum(vals)) <= 1e-15
            assert abs(h - plain_entropy(vals)) <= 1e-14
            assert h > 0.0

    def test_a_group_without_support_is_exactly_zero(self):
        mixed = np.array([0.5, 0.25, 0.25])
        zeros = np.array([0.0, -3e-17, 0.0, -1e-19])
        got = _entropies([mixed, zeros, mixed[::-1]])
        assert got[1] == 0.0 and math.copysign(1.0, got[1]) == 1.0
        assert got[0] == got[2] == 1.5
        assert entropy_of_spectrum(zeros) == 0.0

    def test_an_empty_spectrum_is_zero_and_leaves_its_neighbours(self):
        assert entropy_of_spectrum([]) == 0.0
        half = np.array([0.5, 0.5])
        assert _entropies([np.zeros(0), half, np.zeros(0), half[:1], np.zeros(0)]) == [
            0.0, 1.0, 0.0, 0.5, 0.0]


class TestConditional:
    def test_bell_state_negative(self):
        rho = DensityOperator.from_vector(bell_phi(), (2, 2), ("A", "B"))
        assert abs(conditional(rho, ["B"]) - (-1.0)) < 1e-12

    def test_x_eigenstate_values(self):
        rho = DensityOperator(
            tensor(ket_bra(KET_PLUS), maximally_mixed(2)), (2, 2), ("A", "B")
        )
        assert abs(conditional(rho, ["B"])) < 1e-12
        sigma = measure(rho, pauli_pvm("X"), "A", "X")
        omega = measure(rho, pauli_pvm("Z"), "A", "Z")
        assert abs(conditional(sigma, ["B"])) < 1e-12
        assert abs(conditional(omega, ["B"]) - 1.0) < 1e-12

    def test_y_eigenstate_both_uncertain(self):
        rho = DensityOperator(
            tensor(ket_bra(KET_PLUS_Y), maximally_mixed(2)), (2, 2), ("A", "B")
        )
        sigma = measure(rho, pauli_pvm("X"), "A", "X")
        omega = measure(rho, pauli_pvm("Z"), "A", "Z")
        assert abs(conditional(sigma, ["B"]) - 1.0) < 1e-12
        assert abs(conditional(omega, ["B"]) - 1.0) < 1e-12

    def test_unknown_label(self):
        rho = random_multipartite_state((2, 2), 4, 0, ("A", "B"))
        with pytest.raises(KeyError):
            conditional(rho, ["C"])

    @pytest.mark.parametrize("cond, message", [
        ([], "list is empty"), (["A", "B"], "every subsystem"), (["B", "A"], "every subsystem"),
    ])
    def test_rejects_conditioning_on_nothing_or_everything(self, cond, message):
        rho = random_multipartite_state((2, 2), 4, 0, ("A", "B"))
        with pytest.raises(ValueError, match=message):
            conditional(rho, cond)


class TestRelative:
    def test_self_is_zero(self):
        rho = random_state(3, 3, 1)
        assert abs(relative(rho, rho.matrix)) < 1e-10

    def test_against_maximally_mixed_identity(self):
        for seed in range(5):
            rho = random_state(4, 3, seed)
            got = relative(rho, np.eye(4) / 4)
            want = 2.0 - von_neumann(rho)
            assert abs(got - want) < 1e-9

    def test_disjoint_support_infinite(self):
        assert relative(qubit_state(ket_bra(KET_0)), ket_bra(KET_1)) == math.inf

    def test_unnormalized_second_argument(self):
        rho = random_state(2, 2, 3)
        shifted = relative(rho, 2.0 * rho.matrix)
        assert abs(shifted - (-1.0)) < 1e-10  # log2 scaling comes out front

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 2\) vs \(3, 3\)"):
            relative(qubit_state(maximally_mixed(2)), np.eye(3) / 3)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            relative(qubit_state(maximally_mixed(2)), np.diag([1.0, -1.0]))

    def test_round_off_negative_eigenvalue_of_sigma_is_off_the_support(self):
        # the negative eigenvalue is above the support cutoff in modulus; it
        # must count as off the support, never enter a log
        sigma = np.diag([0.5, 0.3, 0.2 + 0.7e-10, -0.7e-10])
        full = DensityOperator(np.eye(4) / 4, (4,), ("A",))
        assert relative(full, sigma) == math.inf
        inside = DensityOperator(np.diag([0.5, 0.3, 0.2, 0.0]), (4,), ("A",))
        want = 0.2 * math.log2(0.2 / (0.2 + 0.7e-10))
        assert abs(relative(inside, sigma) - want) < 1e-15

    def test_accepts_what_a_density_operator_accepts(self):
        rho = DensityOperator(rotated_spectrum([0.6, 0.3, 0.1 + 5e-9, -5e-9], 3),
                              (2, 2), ("A", "B"))
        assert np.linalg.eigvalsh(rho.matrix).min() < -4e-9
        assert abs(relative(rho, rho.matrix)) < 1e-9
        with pytest.raises(ValueError):
            relative(rho, rotated_spectrum([0.6, 0.3, 0.1 + 2e-8, -2e-8], 3))


class TestDuality:
    def test_conditional_entropy_duality(self):
        # H(Z|E) - H(Z|B) = -H(A|B) on random pure tripartite states
        for seed in range(30):
            rho = random_pure_state((2, 2, 2), [seed, 0], ("A", "B", "E"))
            zp = random_pvm(2, [seed, 1])
            omega = measure(rho, zp, "A", "Z")
            h_ze = conditional(omega.reduce(["Z", "E"]), ["E"])
            h_zb = conditional(omega.reduce(["Z", "B"]), ["B"])
            h_ab = conditional(rho.reduce(["A", "B"]), ["B"])
            assert abs((h_ze - h_zb) - (-h_ab)) < 1e-8

    def test_entropy_as_relative_entropy_identity(self):
        # H(Z|E) = D(omega_ZZ'AB || I_Z (x) omega_Z'AB) via the isometric
        # extension of the Z measurement, for random pure ABE states
        for seed in range(10):
            rho = random_pure_state((2, 2, 2), [seed, 7], ("A", "B", "E"))
            zp = random_pvm(2, [seed, 8])
            v = isometric_extension(zp)
            big = tensor(v, np.eye(4)) @ rho.matrix @ tensor(v, np.eye(4)).conj().T
            omega_full = DensityOperator(
                big, (2, 2, 2, 2, 2), ("Z", "Zp", "A", "B", "E")
            )
            omega_zzab = omega_full.reduce(["Z", "Zp", "A", "B"])
            omega_zab = omega_full.reduce(["Zp", "A", "B"])
            d = relative(omega_zzab, tensor(np.eye(2), omega_zab.matrix))
            h_ze = conditional(
                measure(rho, zp, "A", "Z").reduce(["Z", "E"]),
                ["E"],
            )
            assert abs(d - h_ze) < 1e-8


class TestMonotonicityAndDominance:
    def test_relative_entropy_monotone_under_measurement(self):
        for seed in range(30):
            d = 2 + seed % 3
            rho = random_state(d, d, [seed, 0])
            sig = random_state(d, d, [seed, 1])
            chan = measurement_channel(random_pvm(d, [seed, 2]))
            before = relative(rho, sig.matrix)
            after = relative(
                DensityOperator(chan.apply_matrix(rho.matrix), (d,), ("X",)),
                chan.apply_matrix(sig.matrix),
            )
            assert before - after >= -1e-9

    def test_dominance_in_second_argument(self):
        for seed in range(20):
            rho = random_state(3, 3, [seed, 3])
            sig = random_state(3, 3, [seed, 4]).matrix
            bump = random_state(3, 2, [seed, 5]).matrix  # PSD perturbation
            assert relative(rho, sig + bump) <= relative(rho, sig) + 1e-10
